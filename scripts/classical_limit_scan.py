#!/usr/bin/env python3
"""Scan q -> 1 and tabulate how the deformed theory approaches the bosonic one.

For each q the table shows
  * the worst interior deviation of [a_i, a_i^dag] from the identity,
    divided by 1 - q^2 (bounded ratio = linear approach),
  * the worst overlap gap between q-symmetrized sorted words and the
    ordinary symmetric states (all words with at most --N letters), taken
    on each word's class of arrangements alone, and
  * the bracket [N] against its classical value N.

Usage:
    python scripts/classical_limit_scan.py --q 0.9 0.99 0.999 0.9999 --N 5
"""

import argparse
import itertools
import math
import sys

import numpy as np
import scipy.sparse as sp

from qmodes.fock import FockSpaceConfig, annihilator, creator, interior_indices
from qmodes.qcore import DeformationParams, q_number
from qmodes.qsym import arrangements


def commutator_ratio(params: DeformationParams, modes: int, cutoff: int) -> float:
    cfg = FockSpaceConfig(modes, cutoff, params)
    interior = interior_indices(cfg)
    worst = 0.0
    for i in range(1, modes + 1):
        lower, raiser = annihilator(cfg, i).tocsr(), creator(cfg, i).tocsr()
        block = (lower @ raiser - raiser @ lower)[interior][:, interior]
        residual = block - sp.identity(len(interior), format="csr")
        worst = max(worst, float(np.max(np.abs(residual.data), initial=0.0)))
    return worst / (1.0 - params.q_sq)


def overlap_gap(params: DeformationParams, counts: list[int]) -> float:
    """1 - <w|s> for the sorted word w of the given letter counts, where |w> is its normalized
    q-symmetrized state and |s> the symmetric state of its class C.  Both are supported on C,
    |w> with weights q^R(u) and |s> uniform, so the overlap is
    sum_u q^R(u) / sqrt(|C| sum_u q^2R(u)), read from the class's inversion counts."""
    weights = params.q ** arrangements(counts).astype(float)
    return 1.0 - float(weights.sum()) / math.sqrt(weights.size * float(weights @ weights))


def worst_overlap_gap(params: DeformationParams, n_modes: int, max_size: int) -> float:
    gap = 0.0
    for size in range(1, max_size + 1):
        for letters in itertools.combinations_with_replacement(range(n_modes), size):
            gap = max(gap, overlap_gap(params, [letters.count(letter) for letter in range(n_modes)]))
    return gap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--q", type=float, nargs="+", default=[0.9, 0.99, 0.999, 0.9999]
    )
    parser.add_argument("--N", type=int, default=5, help="largest word length")
    parser.add_argument("--modes", type=int, default=3)
    parser.add_argument("--cutoff", type=int, default=5)
    args = parser.parse_args()

    header = f"{'q':>8s} {'1-q^2':>10s} {'commutator/(1-q^2)':>20s} {'overlap gap':>12s} {'[N] vs N':>10s}"
    print(header)
    print("-" * len(header))
    for q in args.q:
        if not 0.0 < q < 1.0:
            print(f"skipping q={q}: outside (0,1)", file=sys.stderr)
            continue
        params = DeformationParams(q)
        ratio = commutator_ratio(params, min(args.modes, 2), args.cutoff)
        gap = worst_overlap_gap(params, args.modes, args.N)
        bracket_gap = abs(q_number(params, args.N) - args.N)
        print(
            f"{q:8.5f} {1.0 - params.q_sq:10.2e} {ratio:20.4f} {gap:12.3e} {bracket_gap:10.3e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
