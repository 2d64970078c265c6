#!/usr/bin/env python3
"""Run the whole verification battery and summarize one line per command.

Each harness verb runs with its default grid; JSON reports are written next
to each other so a run leaves a complete, diffable record.  The exit status
is 0 only if every command certified every check.

Usage:
    python scripts/run_full_verification.py --out-dir reports/
"""

import argparse
import json
import pathlib
import sys
import time

from qmodes.cli import _verbs, main as qmodes_main

# every verb of the harness's verb table, named with '-' for the space, then the negative control
COMMANDS = {verb.replace(" ", "-"): verb.split() for verb in _verbs()}
COMMANDS["negative-control"] = ["verify", "algebra", "--inject-corruption"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("reports"),
        help="directory for the JSON reports (default: reports/)",
    )
    parser.add_argument(
        "--skip",
        nargs="*",
        default=(),
        choices=sorted(COMMANDS),
        help="command names to leave out",
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    overall_ok = True
    for name, argv in COMMANDS.items():
        if name in args.skip:
            continue
        report_path = args.out_dir / f"{name}.json"
        start = time.perf_counter()
        code = qmodes_main(argv + ["--format", "json", "--out", str(report_path)])
        elapsed = time.perf_counter() - start
        if code == 2:
            # refused before it wrote a report; a file there is from an earlier run
            print(f"{name:18s} {'FAILED':8s} configuration error (exit 2)  {elapsed:6.2f}s")
            overall_ok = False
            continue
        report = json.loads(report_path.read_text())
        checks = report["checks"]
        failed = sum(1 for check in checks if not check["pass"])
        if name == "negative-control":
            # here a clean bill of health would be the bug
            ok = code == 1 and failed > 0
            verdict = "detected" if ok else "MISSED"
            print(
                f"{name:18s} {verdict:8s} {failed:3d}/{len(checks):3d} tripped  {elapsed:6.2f}s"
            )
        else:
            ok = code == 0 and failed == 0
            verdict = "ok" if ok else "FAILED"
            print(
                f"{name:18s} {verdict:8s} {len(checks) - failed:3d}/{len(checks):3d} passed   {elapsed:6.2f}s"
            )
        overall_ok = overall_ok and ok

    print("overall:", "ok" if overall_ok else "FAILED")
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
