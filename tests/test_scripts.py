"""Smoke tests for the scripts under scripts/."""

import importlib.util
import itertools
import json
import pathlib
import sys

import numpy as np
import pytest

from qmodes.qcore import DeformationParams
from qmodes.qsym import Word, q_symmetrize
from qsym_oracle import symmetric_state

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


def test_classical_limit_scan_gap_equals_the_dense_overlap():
    # the scan reads each sorted word's gap from its class alone; the dense route dots the
    # normalized n^N state with the oracle's symmetric state, to within a few ulps of 1
    scan = _load("classical_limit_scan")
    for q in (0.9, 0.99, 0.999):
        params = DeformationParams(q)
        for n_modes, size in itertools.product((1, 2, 3), (1, 2, 3, 4, 5)):
            for letters in itertools.combinations_with_replacement(range(1, n_modes + 1), size):
                word = Word(letters, n_modes)
                deformed = q_symmetrize(word, params)
                dense = 1.0 - float(deformed / np.linalg.norm(deformed) @ symmetric_state(word))
                assert abs(scan.overlap_gap(params, list(word.counts)) - dense) <= 4 * 2**-52, (q, word)


def test_classical_limit_scan_prints_its_default_table(monkeypatch, capsys):
    scan = _load("classical_limit_scan")
    monkeypatch.setattr(sys, "argv", ["classical_limit_scan.py"])
    assert scan.main() == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        " 0.90000   1.90e-01               3.7767    1.987e-02  1.572e+00",
        " 0.99000   1.99e-02               5.7093    1.851e-04  1.951e-01",
        " 0.99900   2.00e-03               5.9701    1.835e-06  1.995e-02",
        " 0.99990   2.00e-04               5.9970    1.834e-08  2.000e-03",
    ]
