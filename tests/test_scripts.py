"""Smoke tests for the scripts under scripts/."""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def full_verification():
    return _load("run_full_verification")


def test_full_verification_writes_every_report(full_verification, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_full_verification.py", "--out-dir", str(tmp_path)])
    assert full_verification.main() == 0
    reports = sorted(tmp_path.glob("*.json"))
    assert [path.stem for path in reports] == sorted(full_verification.COMMANDS)
    assert all(json.loads(path.read_text())["checks"] for path in reports)
    assert capsys.readouterr().out.splitlines()[-1] == "overall: ok"


def test_full_verification_reports_a_refused_verb_as_failed(
    full_verification, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(full_verification, "COMMANDS", {"refused": ["qexp", "eval", "--points", "0"]})
    monkeypatch.setattr(sys, "argv", ["run_full_verification.py", "--out-dir", str(tmp_path)])
    assert full_verification.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:2] == ["refused", "FAILED"]
    assert out[-1] == "overall: FAILED"


def test_classical_limit_scan_prints_one_row_per_q(monkeypatch, capsys):
    scan = _load("classical_limit_scan")
    monkeypatch.setattr(sys, "argv", ["classical_limit_scan.py", "--q", "0.9", "0.99", "--N", "3"])
    assert scan.main() == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["q", "1-q^2"] and set(rule) == {"-"}
    assert [row.split()[0] for row in rows] == ["0.90000", "0.99000"]
