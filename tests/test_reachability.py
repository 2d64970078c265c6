"""Every public function and method of the layer modules is reached by a verb, or kept for a stated reason.

The scan runs each verb at its defaults, and the options that switch a verb onto
another route, in text and in JSON, under ``sys.setprofile``.  A public name that
no run calls must be listed in ``KEPT`` with the reason it stays; a listed name
that a run calls, or that no longer exists, fails too, so the list cannot go stale.
"""

import contextlib
import functools
import inspect
import io
import sys

import pytest

from qmodes import cli, coherent, fock, qcore, qpoly, qsym

LAYERS = (qcore, qpoly, fock, coherent, qsym, cli)

RUNS = [
    ["verify", "algebra"],
    ["verify", "algebra", "--inject-corruption"],
    ["coherent", "check"],
    ["coherent", "check", "--z", "0.5,0.2j"],
    ["coherent", "check", "--weight-variant", "paper-q"],
    ["qexp", "eval"],
    ["qexp", "eval", "--x", "0.3"],
    ["jackson", "moments"],
    ["qsym", "exchange"],
    ["qsym", "norm"],
    ["qsym", "norm", "--word", "2,1"],
    ["qsym", "identity"],
    ["qsym", "appendix"],
]

_TRACED = "the benchmark's tracer reads its name, so it goes only with a change to the benchmark"
_ORACLES = "the tests' oracles read it"
_RING = "part of the QPolynomial ring API, which the tests' oracles read"

# "layer.name" or "layer.Class.name" -> why it stays although no verb calls it
KEPT = {
    "qcore.q_exp": _TRACED,
    "qcore.q_exp_series": _TRACED,
    "qcore.q_exp_product": _TRACED,
    "fock.creator": _TRACED,
    "fock.number_op": _TRACED,
    "fock.scale_op": _TRACED,
    "qsym.norm_identity_exact": _TRACED,
    "qpoly.poly_insertion_sum": _TRACED,
    "fock.ShiftOperator.nnz": "the benchmark's tracer reads it to count operator entries",
    "fock.ShiftOperator.tocsr": "the one route to scipy sparse algebra, for the tests and their oracles",
    "qsym.bosonic_symmetrize": "scripts/classical_limit_scan.py calls it",
    "qcore.q_number": "q_exp_series, scripts/classical_limit_scan.py and the oracles read the bracket through it",
    "fock.encode_occupation": "the tests' index helper",
    "cli.strip_timing": "the byte-determinism contract: reports equal byte for byte once timings are zeroed",
    "qsym.Word.swap_adjacent": _ORACLES,
    "coherent.CoherentSpec.shifted": _ORACLES,
    "qpoly.QPolynomial.zero": _RING,
    "qpoly.QPolynomial.monomial": _RING,
    "qpoly.QPolynomial.coefficient": _RING,
    "qpoly.QPolynomial.evaluate": _RING,
    "qpoly.QPolynomial.render": "divide_exact's error message and the repr render through it",
}


def _function(obj):
    """The Python function behind a module-level function, method, classmethod or property."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, functools.cached_property):
        obj = obj.func
    return obj if inspect.isfunction(obj) else None


def public_names() -> dict[str, tuple[str, str]]:
    """Each public function and method the layer modules define: name -> (file, qualified name)."""
    names = {}
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for member, value in members:
                function = _function(value)
                if function is not None and not (member or "").startswith("_"):
                    key = f"{layer}.{name}" + (f".{member}" if member else "")
                    names[key] = (function.__code__.co_filename, function.__code__.co_qualname)
    return names


@pytest.fixture(scope="module")
def reached():
    for module in LAYERS:  # a warm cache would skip the calls it once made
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    files = {module.__file__ for module in LAYERS}
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            calls.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    for output_format in ("text", "json"):
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                sys.setprofile(profile)
                try:
                    code = cli.main(argv + ["--format", output_format])
                finally:
                    sys.setprofile(None)
            assert code in (0, 1), argv  # a refused run would reach nothing past its parser
    return calls


def test_every_kept_name_exists_and_no_verb_reaches_it(reached):
    names = public_names()
    assert not set(KEPT) - set(names), "kept names that no longer exist"
    assert not {name for name in KEPT if names[name] in reached}, "kept names that a verb now reaches"


def test_every_public_function_is_reached_or_kept_with_a_reason(reached):
    unreached = {name for name, code in public_names().items() if code not in reached}
    assert unreached - set(KEPT) == set(), "public names no verb reaches: delete them, or keep them with a reason"
    assert all(reason.strip() for reason in KEPT.values())
