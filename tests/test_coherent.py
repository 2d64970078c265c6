"""Tests for truncated coherent states: builds, eigenvalue and completeness checks."""

import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodes.cli import main
from qmodes.coherent import (
    CoherentSpec,
    InsufficientCutoffError,
    _grid_cutoff,
    _lowered,
    build_coherent,
    check_completeness,
    check_eigenvalue,
    mode_coefficients,
    mode_tail_bound,
    spec_grid,
    suggest_cutoff,
)
from qmodes.fock import FockSpaceConfig, annihilator
from qmodes import qcore
from qmodes.qcore import DeformationParams, DomainError, passes, q_factorial, q_number

from coherent_oracle import dense_eigenvalue, dense_state, telescoping_bound
from qcore_oracle import (
    reference_mode_coefficients,
    reference_mode_tail_bound,
    reference_q_factorial,
    reference_suggest_cutoff,
)

Q_GRID = (0.3, 0.5, 0.9)


def eigenvalue_passes(report, tol: float = 1e-9) -> bool:
    """The verdict of an eigenvalue report at ``tol``, as ``coherent check`` judges it."""
    return passes(report.residual, tol, report.tail_allowance, report.rounding_allowance)


def make_spec(q: float, z: tuple, cutoff: int) -> CoherentSpec:
    return CoherentSpec(tuple(z), DeformationParams(q), cutoff)


# ---------------------------------------------------------------------------
# spec validation and the shift map


def test_spec_validates_length_and_domain():
    params = DeformationParams(0.5)
    with pytest.raises(ValueError):
        CoherentSpec((), params, 6)
    with pytest.raises(ValueError):
        CoherentSpec((0.1,), params, 0)
    outside = math.sqrt(params.radius) + 0.01
    with pytest.raises(DomainError):
        CoherentSpec((0.1, outside), params, 6)
    assert CoherentSpec((0.1, 0.2j, 0.3), params, 6).modes == 3


def test_shifted_twists_only_later_modes():
    spec = make_spec(0.5, (0.4, 0.3j, 0.2), 6)
    after_first = spec.shifted(1)
    assert after_first.z == (0.4, 0.15j, 0.1)
    after_last = spec.shifted(3)
    assert after_last.z == spec.z
    with pytest.raises(ValueError):
        spec.shifted(0)
    with pytest.raises(ValueError):
        spec.shifted(4)


# ---------------------------------------------------------------------------
# single-mode coefficients and tail bounds


@given(
    q=st.sampled_from(Q_GRID),
    magnitude=st.floats(min_value=0.0, max_value=0.9),
    angle=st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=40, deadline=None)
def test_mode_coefficients_match_closed_form(q, magnitude, angle):
    params = DeformationParams(q)
    z = cmath.rect(magnitude * math.sqrt(params.radius), angle)
    coeff = mode_coefficients(params, z, 12)
    for m in range(12):
        expected = z**m / math.sqrt(q_factorial(params, m))
        assert coeff[m] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_mode_tail_bound_dominates_true_tail():
    params = DeformationParams(0.5)
    z = 0.95
    x = abs(z) ** 2
    for cutoff in (4, 8, 16):
        bound = mode_tail_bound(params, z, cutoff)
        term = 1.0
        partial = 1.0
        dropped = 0.0
        for m in range(1, 200):
            term *= x / q_number(params, m)
            if m < cutoff:
                partial += term
            else:
                dropped += term
        assert dropped / partial <= bound
        assert math.isfinite(bound)


def test_mode_tail_bound_is_inf_before_decay_sets_in():
    # at q = 0.9 the brackets grow toward 1/(1-q^2) ~ 5.26; pick |z|^2 above
    # the early brackets so the geometric majorant cannot apply yet
    params = DeformationParams(0.9)
    z = math.sqrt(0.9 * params.radius)
    assert mode_tail_bound(params, z, 2) == math.inf


# ---------------------------------------------------------------------------
# cutoff selection and state construction


def test_suggest_cutoff_meets_requested_tail():
    params = DeformationParams(0.5)
    z = (0.9, 0.4 + 0.3j)
    cutoff = suggest_cutoff(params, z, tail_tol=1e-10)
    spec = CoherentSpec(z, params, cutoff)
    state = build_coherent(spec, tail_tol=1e-10)
    assert state.tail_mass <= 1e-10


def test_suggest_cutoff_shrinks_for_smaller_amplitudes():
    params = DeformationParams(0.5)
    big = suggest_cutoff(params, (0.9,))
    small = suggest_cutoff(params, (0.2,))
    assert small < big


def test_suggest_cutoff_domain_and_exhaustion():
    params = DeformationParams(0.5)
    with pytest.raises(DomainError):
        suggest_cutoff(params, (math.sqrt(params.radius),))
    with pytest.raises(ValueError):
        suggest_cutoff(params, ())
    # |z|^2 = 0.99 radius at q = 0.999: the tail is still far above 1e-14 at the cap
    params = DeformationParams(0.999)
    with pytest.raises(InsufficientCutoffError):
        suggest_cutoff(params, (math.sqrt(0.99 * params.radius),), 1e-14)


def test_a_refused_cutoff_counts_no_further_than_the_cap():
    # at |z|^2 = 0.99999 radius the series needs some 3.5e6 terms; the count stops at
    # _MAX_CUTOFF + 1, so the table of q^2, grown in chunks of 384, stays short
    params = DeformationParams(0.5)
    with pytest.raises(InsufficientCutoffError, match="no cutoff below 5000 reaches tail 1e-10"):
        suggest_cutoff(params, (math.sqrt(0.99999 * params.radius),))
    assert params._powers[params.q_sq].size <= 2 * (5001 + qcore._SERIES_ENTRIES // 8)


def test_zero_amplitude_gives_the_ground_state():
    spec = make_spec(0.5, (0.0, 0.0), 4)
    state = build_coherent(spec)
    expected = np.zeros((2, 4))
    expected[:, 0] = 1.0
    np.testing.assert_array_equal(state.vector, expected)
    assert state.norm_sq == 1.0
    assert state.tail_mass == 0.0


def test_built_state_norm_shortfall_is_within_tail_mass():
    for q in Q_GRID:
        params = DeformationParams(q)
        z = (0.55 * math.sqrt(params.radius), 0.3j * math.sqrt(params.radius))
        cutoff = suggest_cutoff(params, z, tail_tol=1e-12)
        state = build_coherent(CoherentSpec(z, params, cutoff), tail_tol=1e-12)
        shortfall = 1.0 - state.norm_sq
        assert -1e-13 <= shortfall <= state.tail_mass + 1e-13
        dense, _ = dense_state(state.spec)
        assert state.norm_sq == pytest.approx(float(np.vdot(dense, dense).real), abs=1e-15)


def test_build_refuses_underresolved_cutoff():
    spec = make_spec(0.5, (1.0,), 4)
    with pytest.raises(InsufficientCutoffError):
        build_coherent(spec, tail_tol=1e-10)


# ---------------------------------------------------------------------------
# twisted eigenvalue relation


def test_eigenvalue_residual_is_truncation_only():
    params = DeformationParams(0.5)
    z = (0.9, 0.5j)
    cutoff = suggest_cutoff(params, z, tail_tol=1e-14)
    state = build_coherent(CoherentSpec(z, params, cutoff), tail_tol=1e-14)
    for mode in (1, 2):
        report = check_eigenvalue(state, mode)
        assert eigenvalue_passes(report)
        assert report.residual < 1e-6


def test_eigenvalue_residual_decreases_with_cutoff():
    params = DeformationParams(0.5)
    z = (0.9, 0.5j)
    residuals = []
    for cutoff in (12, 24):
        state = build_coherent(CoherentSpec(z, params, cutoff), tail_tol=math.inf)
        residuals.append(check_eigenvalue(state, 1).residual)
    assert residuals[1] < residuals[0]


def test_uncompensated_eigenvalue_relation_visibly_fails():
    # dropping the norm-ratio compensation leaves an order 1e-2 residual:
    # the shifted state is normalized differently from a_i |z>.  Both sides
    # are taken factor by factor, with the single-mode maps of check_eigenvalue.
    params = DeformationParams(0.5)
    z = (0.9, 0.5j)
    cutoff = suggest_cutoff(params, z, tail_tol=1e-14)
    state = build_coherent(CoherentSpec(z, params, cutoff), tail_tol=1e-14)
    shifted = build_coherent(state.spec.shifted(1), tail_tol=1e-14)
    lhs = [_lowered(params, state.vector[0]), qcore._power_table(params, params.q, cutoff) * state.vector[1]]
    naive = telescoping_bound(lhs, [z[0] * shifted.vector[0], shifted.vector[1]])
    report = check_eigenvalue(state, 1)
    assert naive > 1e-3
    assert report.residual < 1e-6
    assert naive > 1e3 * (1e-9 + report.tail_allowance + report.rounding_allowance)


# ---------------------------------------------------------------------------
# completeness adjudication


@pytest.mark.parametrize("q", Q_GRID)
def test_completeness_holds_for_squared_weight(q):
    cfg = FockSpaceConfig(1, 8, DeformationParams(q))
    report = check_completeness(cfg.params, cfg.cutoff)
    assert passes(report.max_deviation, 1e-10)
    assert report.max_deviation < 1e-12
    assert len(report.deviations) == cfg.cutoff - 1
    assert report.adjudicated == "squared_q"
    assert report.paper_q_max_deviation > 0.1


def test_completeness_rejects_plain_weight():
    cfg = FockSpaceConfig(1, 8, DeformationParams(0.5))
    report = check_completeness(cfg.params, cfg.cutoff)
    assert not passes(report.paper_q_max_deviation, 1e-10)
    assert report.adjudicated == "squared_q"
    assert report.paper_q_max_deviation == pytest.approx(0.39, abs=0.05)


def test_completeness_does_not_depend_on_mode_count(capsys):
    # check_completeness takes no mode count: the verb's record is the same at any --modes
    records = []
    for modes in ("1", "3"):
        argv = ["coherent", "check", "--q", "0.5", "--modes", modes, "--points", "1", "--cutoff", "4"]
        assert main(argv + ["--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        records += [dict(c, millis=0) for c in checks if c["name"] == "coherent_completeness"]
    assert len(records) == 2
    assert records[0] == records[1]


# ---------------------------------------------------------------------------
# deterministic spec grids


def test_spec_grid_is_deterministic_and_in_domain():
    params = DeformationParams(0.9)
    first = spec_grid(params, modes=2, points=6)
    second = spec_grid(params, modes=2, points=6)
    assert [s.z for s in first] == [s.z for s in second]
    assert len(first) == 6
    for spec in first:
        for v in spec.z:
            assert abs(v) ** 2 <= 0.8 * params.radius + 1e-12
        state = build_coherent(spec)
        assert state.tail_mass <= 1e-10


def test_spec_grid_input_checks():
    params = DeformationParams(0.5)
    with pytest.raises(ValueError):
        spec_grid(params, modes=0, points=3)
    with pytest.raises(ValueError):
        spec_grid(params, modes=1, points=0)


def test_tabled_mode_loops_equal_the_per_term_loops():
    for q in (0.2, 0.5, 0.9, 0.99):
        params = DeformationParams(q)
        for fraction in (0.1, 0.5, 0.8):
            z = cmath.rect(math.sqrt(fraction * params.radius), 2.4 * fraction)
            for cutoff in (1, 2, 30, 63, 64, 65, 400):
                coefficients = mode_coefficients(params, z, cutoff)
                assert coefficients.tobytes() == reference_mode_coefficients(params, z, cutoff).tobytes()
                assert mode_tail_bound(params, z, cutoff) == reference_mode_tail_bound(params, z, cutoff)
            for tail_tol in (1e-6, 1e-10, 1e-20):
                amplitudes = (z, 0.5 * z, 0.0)
                assert suggest_cutoff(params, amplitudes, tail_tol) == reference_suggest_cutoff(
                    params, amplitudes, tail_tol
                )
        for n in (0, 1, 2, 62, 63, 64, 65, 130):
            assert q_factorial(params, n) == reference_q_factorial(params, n)
    # where the terms overflow double, neither cutoff search ever stops: both refuse
    for q, fraction in ((0.999, 0.95), (0.999, 0.99), (0.9995, 0.6), (0.9999, 0.15)):
        params = DeformationParams(q)
        amplitudes = (cmath.rect(math.sqrt(fraction * params.radius), 2.4 * fraction), 0.0)
        for tail_tol in (1e-6, 1e-10, 1e-20):
            with pytest.raises(InsufficientCutoffError, match="no cutoff below 5000"):
                suggest_cutoff(params, amplitudes, tail_tol)
            with pytest.raises(ValueError, match="no cutoff below the cap"):
                reference_suggest_cutoff(params, amplitudes, tail_tol)


# ---------------------------------------------------------------------------
# the factored route against the dense oracle


ORACLE_Q = (0.3, 0.5, 0.9, 0.96)


@pytest.mark.parametrize("modes, tail_tol", [(1, 1e-20), (2, 1e-20), (3, 1e-4)])
def test_factored_residual_bounds_the_dense_residual(modes, tail_tol):
    # modes 3 takes a looser tail so that the dense space stays below ~1e5 states
    for q in ORACLE_Q:
        for spec in spec_grid(DeformationParams(q), modes, points=3, tail_tol=tail_tol):
            state = build_coherent(spec, tail_tol=math.inf)
            for mode in range(1, modes + 1):
                report = check_eigenvalue(state, mode)
                dense, dense_passed = dense_eigenvalue(spec, mode)
                assert report.residual >= dense - report.rounding_allowance
                assert report.residual <= dense + report.rounding_allowance
                assert eigenvalue_passes(report) == dense_passed


def test_factored_residual_is_the_telescoping_bound_of_its_factors():
    # the per-state suffix products and sums equal the bound taken term by term
    params = DeformationParams(0.7)
    spec = spec_grid(params, 4, points=1, tail_tol=1e-12)[0]
    state = build_coherent(spec, tail_tol=math.inf)
    powers = qcore._power_table(params, params.q, spec.cutoff)
    for mode in range(1, 5):
        shifted = build_coherent(spec.shifted(mode), tail_tol=math.inf)
        ratios = [math.sqrt(1.0 - (1.0 - params.q_sq) * abs(z) ** 2) for z in spec.z]
        lhs, rhs = [], []
        for k in range(1, 5):
            v = state.vector[k - 1]
            if k < mode:
                lhs.append(v), rhs.append(v)
            elif k == mode:
                lhs.append(_lowered(params, v)), rhs.append(spec.z[k - 1] * v)
            else:
                lhs.append(powers * v), rhs.append(ratios[k - 1] * shifted.vector[k - 1])
        report = check_eigenvalue(state, mode)
        assert report.residual == pytest.approx(telescoping_bound(lhs, rhs), rel=1e-13)


def test_a_corrupted_later_factor_trips_the_check_of_an_earlier_mode():
    # mode 1's check sees mode 2 only through the telescoping term k > i
    params = DeformationParams(0.5)
    spec = CoherentSpec((0.9, 0.5j), params, 60)
    state = build_coherent(spec)
    corrupted = dataclasses.replace(state, vector=state.vector * np.array([[1.0], [1.01]]))
    report = check_eigenvalue(corrupted, 1)
    shifted, _ = dense_state(spec.shifted(1))
    ratio = math.sqrt(1.0 - (1.0 - params.q_sq) * abs(spec.z[1]) ** 2)
    lower = annihilator(FockSpaceConfig(2, 60, params), 1).tocsr()
    dense = np.linalg.norm(lower @ np.kron(*corrupted.vector) - spec.z[0] * ratio * shifted)
    assert not eigenvalue_passes(report)
    assert report.residual >= dense - report.rounding_allowance
    assert dense > 5e-3


@pytest.mark.parametrize("modes", [2, 3])
def test_kronecker_factors_equal_the_annihilator(modes):
    params = DeformationParams(0.6)
    cutoff = 5
    identity = np.eye(cutoff)
    lower = np.column_stack([_lowered(params, column) for column in identity])
    twist = np.diag(qcore._power_table(params, params.q, cutoff))
    cfg = FockSpaceConfig(modes, cutoff, params)
    for i in range(1, modes + 1):
        product = np.ones((1, 1))
        for factor in [identity] * (i - 1) + [lower] + [twist] * (modes - i):
            product = np.kron(product, factor)
        np.testing.assert_allclose(product, annihilator(cfg, i).tocsr().toarray(), rtol=1e-14, atol=0)


def test_grid_cutoff_bounds_every_spec_of_the_grid():
    for q in (0.3, 0.9):
        params = DeformationParams(q)
        for modes in (1, 2, 3):
            for points in (1, 2, 3, 5):
                bound = _grid_cutoff(params, modes, points, 1e-20)
                cutoffs = [spec.cutoff for spec in spec_grid(params, modes, points, 1e-20)]
                assert max(cutoffs) <= bound <= max(cutoffs) + 1
