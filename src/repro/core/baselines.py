"""Baseline tests PARBOR is compared against.

* :func:`random_pattern_test` - the state-of-the-art system-level
  approach (paper [35]): many rounds of random backgrounds, hoping to
  hit the worst-case neighbourhood by chance. Figures 12/13 compare
  PARBOR against this at *equal test budget*.
* :func:`simple_pattern_test` - the all-0s/1s (+ checkerboard) tests
  many prior mechanisms assume suffice (Section 3, Challenge 2).
* :func:`exhaustive_neighbour_search` - the naive O(n^2) pair test
  that motivates PARBOR (49 days per row at 8 K bits); usable here on
  small rows to validate PARBOR's answers.
* :func:`linear_neighbour_search` - the O(n) single-bit walk that
  locates the aggressors of a *strongly coupled* victim.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from ..dram.controller import MemoryController
from .patterns import checkerboard, inverse, random_pattern, solid

__all__ = ["random_pattern_test", "simple_pattern_test",
           "exhaustive_neighbour_search", "linear_neighbour_search"]

Coord = Tuple[int, int, int, int]


def _collect(detected: Set[Coord], chip_idx: int,
             per_bank: Sequence[Tuple[np.ndarray, np.ndarray]]) -> None:
    for bank_idx, (rows, cols) in enumerate(per_bank):
        detected.update((chip_idx, bank_idx, int(r), int(c))
                        for r, c in zip(rows.tolist(), cols.tolist()))


def random_pattern_test(controllers: Sequence[MemoryController],
                        n_tests: int, rng: np.random.Generator,
                        per_row: bool = True) -> Set[Coord]:
    """``n_tests`` rounds of random backgrounds over every chip.

    Args:
        controllers: one per chip.
        n_tests: whole-chip test budget (write + retention wait +
            read), directly comparable to ``ParborResult.total_tests``.
        rng: randomness source.
        per_row: draw an independent random background per row (the
            strongest random baseline); otherwise one background is
            replicated across rows.

    Returns:
        Union of failing coordinates over all rounds.
    """
    if n_tests < 1:
        raise ValueError("n_tests must be positive")
    detected: Set[Coord] = set()
    row_bits = controllers[0].row_bits
    for _ in range(n_tests):
        for chip_idx, ctrl in enumerate(controllers):
            if per_row:
                data = rng.integers(0, 2, size=(ctrl.n_rows, row_bits),
                                    dtype=np.uint8)
                per_bank = ctrl.test_pattern(data)
            else:
                per_bank = ctrl.test_pattern(random_pattern(row_bits, rng))
            _collect(detected, chip_idx, per_bank)
    return detected


def simple_pattern_test(controllers: Sequence[MemoryController]
                        ) -> Set[Coord]:
    """All-0s, all-1s, and checkerboard (+ inverse) backgrounds."""
    row_bits = controllers[0].row_bits
    patterns = [solid(row_bits, 0), solid(row_bits, 1),
                checkerboard(row_bits), inverse(checkerboard(row_bits))]
    detected: Set[Coord] = set()
    for pattern in patterns:
        for chip_idx, ctrl in enumerate(controllers):
            _collect(detected, chip_idx, ctrl.test_pattern(pattern))
    return detected


def _victim_failed(ctrl: MemoryController, bank: int, row: int, col: int,
                   data: np.ndarray) -> bool:
    """Run pattern + inverse on one row; did the victim bit flip?"""
    observed = ctrl.test_rows(bank, np.asarray([row]), data[None, :])
    if observed[0, col] != data[col]:
        return True
    inv = inverse(data)
    observed = ctrl.test_rows(bank, np.asarray([row]), inv[None, :])
    return bool(observed[0, col] != inv[col])


def exhaustive_neighbour_search(ctrl: MemoryController, bank: int,
                                row: int, col: int,
                                repeats: int = 3) -> List[Tuple[int, int]]:
    """The naive O(n^2) two-bit test for one victim cell.

    For every unordered pair of other bit addresses, write the victim
    1 and the pair 0 (everything else 1), plus the inverse, and record
    the pairs under which the victim flips in any of ``repeats``
    attempts (coupling is stochastic at the retention margin, so single
    exposures under-report). Only feasible for small rows.
    """
    n = ctrl.row_bits
    failing: List[Tuple[int, int]] = []
    for a in range(n):
        if a == col:
            continue
        for b in range(a + 1, n):
            if b == col:
                continue
            data = np.ones(n, dtype=np.uint8)
            data[[a, b]] = 0
            data[col] = 1
            if any(_victim_failed(ctrl, bank, row, col, data)
                   for _ in range(repeats)):
                failing.append((a, b))
    return failing


def linear_neighbour_search(ctrl: MemoryController, bank: int,
                            row: int, col: int,
                            repeats: int = 3) -> List[int]:
    """The O(n) single-bit walk for a strongly coupled victim.

    Writes the victim 1 and exactly one other bit 0 per test; bits
    whose opposite value alone flips the victim are its strongly
    coupled aggressors.
    """
    n = ctrl.row_bits
    aggressors: List[int] = []
    for a in range(n):
        if a == col:
            continue
        data = np.ones(n, dtype=np.uint8)
        data[a] = 0
        data[col] = 1
        if any(_victim_failed(ctrl, bank, row, col, data)
               for _ in range(repeats)):
            aggressors.append(a)
    return aggressors
