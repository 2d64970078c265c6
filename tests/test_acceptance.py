"""Acceptance suite: one test per certification criterion.

Each test prints exactly one ``criterion NN PASS/FAIL`` line (visible with
``pytest -s``; under plain ``pytest -v`` the per-test PASSED/FAILED line carries
the same information) and enforces both the stated tolerance and the stated
runtime budget.
"""

import itertools
import json
import math
import time

import numpy as np
import scipy.sparse as sp

import qmodes.cli as cli
from qmodes.coherent import (
    WeightVariant,
    build_coherent,
    check_completeness,
    check_eigenvalue,
    spec_grid,
)
from qmodes.fock import (
    RELATION_FAMILIES,
    FockSpaceConfig,
    annihilator,
    corrupted_annihilator,
    creator,
    interior_indices,
    verify_algebra,
)
from qmodes.qcore import (
    DeformationParams,
    disk_samples,
    jackson_moment,
    q_exp,
    q_exp_via_product,
    q_factorial,
    q_number,
)
from qmodes.qpoly import poly_insertion_sum, poly_q_number
from qmodes.qsym import (
    Word,
    bosonic_symmetrize,
    fundamental_norm,
    inversion_count,
    norm_identity_exact,
    q_symmetrize,
    sign_compare,
    transposition_op,
)
from qsym_oracle import multiset_arrangements

Q_GRID = (0.3, 0.5, 0.9)


def conclude(number: int, label: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} {label} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def count_vectors(slots: int, bound: int):
    for vector in itertools.product(range(bound + 1), repeat=slots):
        if sum(vector) <= bound:
            yield vector


def test_criterion_01_algebra_certification():
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        for modes in (1, 2, 3):
            for cutoff in (4, 6):
                cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
                report = verify_algebra(cfg, tol=1e-12)
                assert set(report.deviations) == set(RELATION_FAMILIES)
                worst = max(worst, max(report.deviations.values()))
    elapsed = time.perf_counter() - start
    conclude(
        1,
        "eight relation families on the interior",
        worst < 1e-12 and elapsed < 10.0,
        elapsed,
        f"max deviation {worst:.3e} over 18 configs",
    )


def test_criterion_02_q_exponential_laws():
    start = time.perf_counter()
    worst_functional = 0.0
    worst_agreement = 0.0
    for q in Q_GRID:
        params = DeformationParams(q)
        for x in disk_samples(params, 50):
            series = q_exp(params, x).value
            product = q_exp_via_product(params, x).value
            worst_agreement = max(
                worst_agreement, abs(series - product) / abs(product)
            )
            lhs = q_exp(params, params.q_sq * x).value
            rhs = (1.0 - (1.0 - params.q_sq) * x) * series
            worst_functional = max(
                worst_functional, abs(lhs - rhs) / max(abs(lhs), 1.0)
            )
    elapsed = time.perf_counter() - start
    conclude(
        2,
        "functional equation and series/product agreement",
        worst_functional < 1e-12 and worst_agreement < 1e-12 and elapsed < 1.0,
        elapsed,
        f"functional {worst_functional:.3e}, agreement {worst_agreement:.3e}, 50 points/q",
    )


def test_criterion_03_jackson_moments():
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        params = DeformationParams(q)
        for n in range(11):
            value = jackson_moment(params, n)
            target = q_factorial(params, n)
            worst = max(worst, abs(value / target - 1.0))
    elapsed = time.perf_counter() - start
    conclude(
        3,
        "moments of the reciprocal q-exponential",
        worst < 1e-10 and elapsed < 1.0,
        elapsed,
        f"max relative error {worst:.3e} for n <= 10",
    )


def test_criterion_04_coherent_states():
    start = time.perf_counter()
    worst_norm = 0.0
    worst_residual = 0.0
    specs_checked = 0
    for q in Q_GRID:
        params = DeformationParams(q)
        for modes in (1, 2):
            for spec in spec_grid(params, modes, points=20, tail_tol=1e-20):
                state = build_coherent(spec, tail_tol=1e-19)
                norm_sq = float(np.vdot(state.vector, state.vector).real)
                worst_norm = max(
                    worst_norm, abs(norm_sq - 1.0) - state.tail_mass
                )
                for mode in range(1, modes + 1):
                    report = check_eigenvalue(state, mode, tol=1e-9)
                    worst_residual = max(worst_residual, report.residual)
                specs_checked += 1
    elapsed = time.perf_counter() - start
    conclude(
        4,
        "normalization and twisted eigenvalue relation",
        worst_norm < 1e-10 and worst_residual < 1e-9 and elapsed < 10.0,
        elapsed,
        f"tail-corrected norm gap {worst_norm:.3e}, residual {worst_residual:.3e}, "
        f"{specs_checked} specs",
    )


def test_criterion_05_completeness_adjudication():
    start = time.perf_counter()
    worst = 0.0
    for q in Q_GRID:
        cfg = FockSpaceConfig(1, 10, DeformationParams(q))
        report = check_completeness(cfg, tol=1e-10, variant=WeightVariant.SQUARED_Q)
        worst = max(worst, report.max_deviation)
        assert len(report.deviations) == cfg.cutoff - 1  # m <= cutoff - 2
        # the adjudication: the squared weight satisfies the identity, the
        # plain-q reading misses by an order-one factor
        assert report.consistent_variant is WeightVariant.SQUARED_Q
        assert report.alternate_max_deviation > 0.1
    elapsed = time.perf_counter() - start
    conclude(
        5,
        "resolution of unity under the adjudicated weight",
        worst < 1e-10 and elapsed < 5.0,
        elapsed,
        f"max diagonal deviation {worst:.3e}; plain-q weight rejected",
    )


def test_criterion_06_exact_norm_identity():
    start = time.perf_counter()
    cases = 0
    all_match = True
    for slots in (1, 2, 3, 4):
        for counts in count_vectors(slots, 8):
            arrangement_sum, multinomial = norm_identity_exact(counts)
            cases += 1
            if arrangement_sum != multinomial:
                all_match = False
    elapsed = time.perf_counter() - start
    conclude(
        6,
        "inversion generating function equals the bracket multinomial",
        all_match and cases > 500 and elapsed < 30.0,
        elapsed,
        f"{cases} occupancy vectors, coefficient-exact",
    )


def test_criterion_07_exact_insertion_sums():
    start = time.perf_counter()
    cases = 0
    all_match = True
    for slots in (1, 2, 3, 4):
        for counts in count_vectors(slots, 8):
            target = poly_q_number(sum(counts) + 1)
            for slot in range(1, slots + 1):
                cases += 1
                if poly_insertion_sum(counts, slot) != target:
                    all_match = False
    elapsed = time.perf_counter() - start
    conclude(
        7,
        "insertion sums collapse to the bracket of N+1",
        all_match and elapsed < 10.0,
        elapsed,
        f"{cases} (counts, slot) cases, coefficient-exact",
    )


def test_criterion_08_q_symmetric_state_laws():
    start = time.perf_counter()
    n_modes, max_size = 4, 6
    worst_exchange = 0.0
    worst_fixed_point = 0.0
    worst_inverse = 0.0
    worst_sorted_norm = 0.0
    words_seen = 0

    for q in Q_GRID:
        params = DeformationParams(q)
        for size in range(1, max_size + 1):
            dim = n_modes**size
            ops = {
                k: transposition_op(size, n_modes, k, params).tocsr()
                for k in range(1, size)
            }
            for k, op in ops.items():
                square = (op @ op - sp.identity(dim, format="csr")).tocsr()
                if square.nnz:
                    worst_inverse = max(worst_inverse, float(np.max(np.abs(square.data))))
            for counts in count_vectors(n_modes, size):
                if sum(counts) != size:
                    continue
                class_vectors = {}
                for letters in multiset_arrangements(counts):
                    class_vectors[letters] = q_symmetrize(Word(letters, n_modes), params)
                sorted_word = min(class_vectors)
                worst_sorted_norm = max(
                    worst_sorted_norm,
                    abs(float(class_vectors[sorted_word] @ class_vectors[sorted_word]) - 1.0),
                )
                for k, op in ops.items():
                    image = op @ class_vectors[sorted_word]
                    worst_fixed_point = max(
                        worst_fixed_point,
                        float(np.max(np.abs(image - class_vectors[sorted_word]))),
                    )
                for letters, vector in class_vectors.items():
                    if q == Q_GRID[0]:
                        words_seen += 1
                    for k in range(1, size):
                        swapped = list(letters)
                        swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
                        factor = q ** sign_compare(letters[k - 1], letters[k])
                        residual = float(
                            np.max(np.abs(vector - factor * class_vectors[tuple(swapped)]))
                        )
                        worst_exchange = max(worst_exchange, residual)

    # norm law on 100 seeded random words
    rng = np.random.default_rng(8)
    worst_norm_law = 0.0
    for index in range(100):
        size = int(rng.integers(2, max_size + 1))
        letters = tuple(int(v) for v in rng.integers(1, n_modes + 1, size=size))
        params = DeformationParams(Q_GRID[index % len(Q_GRID)])
        expected = params.q ** (2 * inversion_count(letters))
        value = fundamental_norm(Word(letters, n_modes), params)
        worst_norm_law = max(worst_norm_law, abs(value / expected - 1.0))

    elapsed = time.perf_counter() - start
    ok = (
        worst_exchange < 1e-13
        and worst_inverse < 1e-13
        and worst_fixed_point < 1e-13
        and worst_sorted_norm < 1e-13
        and worst_norm_law < 1e-12
        and elapsed < 30.0
    )
    conclude(
        8,
        "exchange, transposition inverse, and norm laws",
        ok,
        elapsed,
        f"{words_seen} words: exchange {worst_exchange:.3e}, inverse {worst_inverse:.3e}, "
        f"fixed point {worst_fixed_point:.3e}, sorted norm {worst_sorted_norm:.3e}, "
        f"random-word law {worst_norm_law:.3e}",
    )


def test_criterion_09_classical_limit():
    start = time.perf_counter()
    params = DeformationParams(0.999)
    worst_overlap = 1.0
    for slots in (1, 2, 3, 4):
        for counts in count_vectors(slots, 5):
            if sum(counts) == 0:
                continue
            letters = tuple(
                letter
                for letter, copies in enumerate(counts, start=1)
                for _ in range(copies)
            )
            word = Word(letters, slots)
            deformed = q_symmetrize(word, params)
            deformed = deformed / np.linalg.norm(deformed)
            overlap = float(deformed @ bosonic_symmetrize(word))
            worst_overlap = min(worst_overlap, overlap)

    # commutators drift from the undeformed ones linearly in 1 - q^2
    ratios = []
    for q in (0.9, 0.99, 0.999):
        weak = DeformationParams(q)
        cfg = FockSpaceConfig(2, 5, weak)
        interior = interior_indices(cfg)
        deviation = 0.0
        for i in (1, 2):
            lower, raiser = annihilator(cfg, i).tocsr(), creator(cfg, i).tocsr()
            boson = lower @ raiser - raiser @ lower
            block = boson.toarray()[np.ix_(interior, interior)]
            deviation = max(
                deviation, float(np.max(np.abs(block - np.eye(len(interior)))))
            )
        ratios.append(deviation / (1.0 - weak.q_sq))
    elapsed = time.perf_counter() - start
    ok = (
        worst_overlap >= 0.99
        and all(0.0 < ratio < 10.0 for ratio in ratios)
        and elapsed < 5.0
    )
    conclude(
        9,
        "weak deformation approaches the bosonic theory",
        ok,
        elapsed,
        f"min overlap {worst_overlap:.6f}; commutator deviation / (1-q^2) = "
        + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_10_harness_contract(tmp_path, capsys):
    start = time.perf_counter()

    # exit-code contract
    ok_code = cli.main(["verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "5"])
    fail_code = cli.main(["coherent", "check", "--q", "0.5", "--z", "5.0"])
    config_code = cli.main(["verify", "algebra", "--q", "1.5"])
    capsys.readouterr()

    # byte-identical reports for identical configs, timing aside
    argv = [
        "jackson", "moments", "--q", "0.5", "--N", "4", "--format", "json",
        "--out", str(tmp_path / "report.json"),
    ]
    assert cli.main(argv) == 0
    first = json.loads((tmp_path / "report.json").read_text())
    assert cli.main(argv) == 0
    second = json.loads((tmp_path / "report.json").read_text())
    deterministic = cli.canonical_json(cli.strip_timing(first)) == cli.canonical_json(
        cli.strip_timing(second)
    )

    # negative control: the corrupted amplitude trips exactly the families
    # whose interior residuals feel a magnitude change
    cfg = FockSpaceConfig(2, 5, DeformationParams(0.5))
    lowers = [corrupted_annihilator(cfg, 1), annihilator(cfg, 2)]
    report = verify_algebra(cfg, tol=1e-12, annihilators=lowers)
    tripped = set(report.failing())
    expected = {
        "annihilator_annihilator_swap",
        "annihilator_creator_swap",
        "ladder_commutator_scale_product",
        "mode_contraction",
        "normal_product_diagonal",
    }

    elapsed = time.perf_counter() - start
    ok = (
        (ok_code, fail_code, config_code) == (0, 1, 2)
        and deterministic
        and tripped == expected
    )
    conclude(
        10,
        "exit codes, deterministic reports, negative control",
        ok,
        elapsed,
        f"exit codes {(ok_code, fail_code, config_code)}, deterministic={deterministic}, "
        f"tripped {sorted(tripped)}",
    )
