"""Span tracer that times each qmodes layer from outside the program.

``Tracer.install()`` wraps every public function of the layer modules
(``qcore``, ``qpoly``, ``fock``, ``coherent``, ``qsym``, ``cli``) and patches
each binding of it: the module attribute, every ``from .x import y`` copy in
another qmodes module, and the package re-export.  ``uninstall()`` puts the
original objects back.  The program itself is not edited.

Each call records a span: function, start, duration, parent span and op id.
Spans stay in compact in-memory arrays until ``save``.  A span's self time is
its duration minus the durations of its child spans; a layer's self time is
the sum over its spans.  Time in unwrapped helpers counts as self time of the
wrapped caller.

``q_number`` and ``inversion_count`` are tiny and called millions of times, so
they are not wrapped.  A generator function gets a span for the call that
creates the generator only; the items it yields are counted, and the time
spent producing them counts as self time of the consumer.

Byte figures are computed from array sizes (``nbytes``), not measured.
"""

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("qcore", "qpoly", "fock", "coherent", "qsym", "cli")
UNWRAPPED = frozenset({"q_number", "inversion_count"})
BINDING_MODULES = ("qmodes",) + tuple(f"qmodes.{layer}" for layer in LAYERS)


def _sparse_bytes(matrix) -> int:
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def _count_operator(counts, args, kwargs, result):
    counts["fock.operator_nnz"] += int(result.nnz)
    counts["fock.operator_bytes"] += _sparse_bytes(result)


def _count_verify(counts, args, kwargs, result):
    counts["fock.states"] += int(args[0].dimension)
    counts["fock.interior_states"] += int(result.interior_size)


def _count_symmetrize(counts, args, kwargs, result):
    counts["qsym.vector_bytes"] += int(result.nbytes)
    word = args[0]
    counts.shapes.add((word.n_modes, word.counts))


def _count_poly(counts, args, kwargs, result):
    counts["qpoly.coeffs_out"] += len(result.coeffs)


def _count_jackson_integral(counts, args, kwargs, result):
    counts["qcore.jackson_integral_points"] += int(args[3] if len(args) > 3 else kwargs["terms"])


def _count_q_exp(counts, args, kwargs, result):
    counts["qcore.qexp_series_terms"] += int(result.terms)


def _count_q_exp_series(counts, args, kwargs, result):
    counts["qcore.qexp_series_terms"] += int(args[2] if len(args) > 2 else kwargs["terms"])


def _count_q_exp_product(counts, args, kwargs, result):
    counts["qcore.qexp_product_factors"] += int(args[2] if len(args) > 2 else kwargs["factors"])


def _count_coherent_state(counts, args, kwargs, result):
    counts["coherent.state_bytes"] += int(result.vector.nbytes)


def _count_report(counts, args, kwargs, result):
    counts["cli.checks"] += len(result["checks"])


def _count_rendered(counts, args, kwargs, result):
    counts["cli.report_bytes"] += len(result.encode("utf-8"))


# Work counters, recorded where the work happens: (layer, function) -> hook.
COUNTERS = {
    ("fock", "annihilator"): _count_operator,
    ("fock", "creator"): _count_operator,
    ("fock", "number_op"): _count_operator,
    ("fock", "scale_op"): _count_operator,
    ("fock", "verify_algebra"): _count_verify,
    ("qsym", "q_symmetrize"): _count_symmetrize,
    ("qpoly", "poly_q_multinomial"): _count_poly,
    ("qpoly", "poly_insertion_sum"): _count_poly,
    ("qcore", "jackson_integral"): _count_jackson_integral,
    ("qcore", "q_exp"): _count_q_exp,
    ("qcore", "q_exp_series"): _count_q_exp_series,
    ("qcore", "q_exp_product"): _count_q_exp_product,
    ("coherent", "build_coherent"): _count_coherent_state,
    ("cli", "assemble_report"): _count_report,
    ("cli", "canonical_json"): _count_rendered,
}

# Items yielded by a wrapped generator function are counted under this name.
YIELD_COUNTERS = {("qsym", "multiset_arrangements"): "qsym.arrangements"}


class _Counts(Counter):
    """Work counters plus the set of distinct symmetrised letter-count shapes."""

    def __init__(self):
        super().__init__()
        self.shapes = set()


def public_functions(module) -> list[str]:
    """Names of the functions a layer module defines and does not mark private."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and name not in UNWRAPPED
    )


class Tracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by function id
        self.layer_of: list[int] = []  # index into LAYERS, by function id
        self.fn = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.duration = array("d")
        self.counts = _Counts()
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.patched_bindings: list[tuple[str, str]] = []  # (module, attribute), kept

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self.names:
            raise RuntimeError("a Tracer is installed once")
        bindings = [importlib.import_module(name) for name in BINDING_MODULES]
        for layer_index, layer in enumerate(LAYERS):
            module = importlib.import_module(f"qmodes.{layer}")
            for name in public_functions(module):
                original = getattr(module, name)
                wrapper = self._wrap(len(self.names), original, (layer, name))
                self.names.append(f"{layer}.{name}")
                self.layer_of.append(layer_index)
                for holder in bindings:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            self.patched_bindings.append((holder.__name__, attr))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, fn_id: int, func, key: tuple[str, str]):
        fn, parent, op, start, duration = self.fn, self.parent, self.op, self.start, self.duration
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        count = COUNTERS.get(key)
        yield_counter = YIELD_COUNTERS.get(key)
        tracer = self

        def counted(generator):
            for item in generator:
                counts[yield_counter] += 1
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(fn)
            fn.append(fn_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            start.append(0.0)
            duration.append(0.0)
            stack.append(index)
            began = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                start[index] = began
                duration[index] = ended - began
            if count is not None:
                count(counts, args, kwargs, result)
            if yield_counter is not None:
                result = counted(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.float64)
        return {
            "fn": np.array(self.fn, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": start,
            "end": start + np.array(self.duration, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span, with the function names, as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def function_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Inclusive seconds and call counts per ``layer.function``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        seconds = np.bincount(spans["fn"], weights=duration, minlength=len(self.names))
        calls = np.bincount(spans["fn"], minlength=len(self.names))
        return (
            {name: float(s) for name, s in zip(self.names, seconds)},
            {name: int(c) for name, c in zip(self.names, calls)},
        )

    def layer_self_seconds(self) -> dict[str, float]:
        """Sum over each layer's spans of duration minus child-span durations."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        covered = np.bincount(
            spans["parent"][nested], weights=duration[nested], minlength=duration.size
        )
        layer = np.asarray(self.layer_of, dtype=np.int64)[spans["fn"]]
        totals = np.bincount(layer, weights=duration - covered, minlength=len(LAYERS))
        return {name: float(t) for name, t in zip(LAYERS, totals)}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed by metric name."""
        seconds, calls = self.function_totals()
        counts = self.counts

        def s(*names):
            return sum(seconds[n] for n in names)

        def n(*names):
            return sum(calls[n] for n in names)

        builds = ("fock.annihilator", "fock.creator", "fock.number_op", "fock.scale_op")
        metrics = {f"{layer}.self_s": t for layer, t in self.layer_self_seconds().items()}
        metrics.update(
            {
                "cli.ops": n("cli.main"),
                "cli.checks": counts["cli.checks"],
                "cli.report_bytes": counts["cli.report_bytes"],
                "fock.build_s": s(*builds),
                "fock.build_calls": n(*builds),
                "fock.verify_s": s("fock.verify_algebra"),
                "fock.verify_calls": n("fock.verify_algebra"),
                "fock.states": counts["fock.states"],
                "fock.interior_states": counts["fock.interior_states"],
                "fock.operator_nnz": counts["fock.operator_nnz"],
                "fock.operator_bytes": counts["fock.operator_bytes"],
                "qsym.symmetrize_s": s("qsym.q_symmetrize"),
                "qsym.symmetrize_calls": n("qsym.q_symmetrize"),
                "qsym.arrangements": counts["qsym.arrangements"],
                "qsym.vector_bytes": counts["qsym.vector_bytes"],
                "qsym.exchange_s": s("qsym.exchange_check"),
                "qsym.exchange_calls": n("qsym.exchange_check"),
                "qsym.transposition_s": s("qsym.transposition_op"),
                "qsym.identity_s": s("qsym.norm_identity_exact"),
                "qsym.distinct_shapes_per_call": _ratio(
                    len(counts.shapes), n("qsym.q_symmetrize")
                ),
                "qpoly.multinomial_s": s("qpoly.poly_q_multinomial"),
                "qpoly.multinomial_calls": n("qpoly.poly_q_multinomial"),
                "qpoly.insertion_s": s("qpoly.poly_insertion_sum"),
                "qpoly.insertion_calls": n("qpoly.poly_insertion_sum"),
                "qpoly.coeffs_out": counts["qpoly.coeffs_out"],
                "qcore.jackson_moment_s": s("qcore.jackson_moment"),
                "qcore.jackson_moment_calls": n("qcore.jackson_moment"),
                "qcore.jackson_integral_s": s("qcore.jackson_integral"),
                "qcore.jackson_integral_points": counts["qcore.jackson_integral_points"],
                "qcore.qexp_series_s": s("qcore.q_exp", "qcore.q_exp_series"),
                "qcore.qexp_series_terms": counts["qcore.qexp_series_terms"],
                "qcore.qexp_product_s": s("qcore.q_exp_product"),
                "qcore.qexp_product_factors": counts["qcore.qexp_product_factors"],
                "qcore.reciprocal_calls": n("qcore.q_exp_reciprocal"),
                "coherent.cutoff_s": s("coherent.suggest_cutoff"),
                "coherent.build_s": s("coherent.build_coherent"),
                "coherent.build_calls": n("coherent.build_coherent"),
                "coherent.eigen_s": s("coherent.check_eigenvalue"),
                "coherent.eigen_calls": n("coherent.check_eigenvalue"),
                "coherent.completeness_s": s("coherent.check_completeness"),
                "coherent.state_bytes": counts["coherent.state_bytes"],
                "coherent.builds_per_eigen": _ratio(
                    n("coherent.build_coherent"), n("coherent.check_eigenvalue")
                ),
            }
        )
        return metrics


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
