"""Initial victim-set discovery (paper Section 5.2.1).

PARBOR needs a sample of cells that *likely* exhibit data-dependent
failures before it can chase their neighbours. The discovery battery
writes a handful of different data patterns; a cell that fails under
some patterns but operates correctly under others is likely
data-dependent. Cells failing under *every* pattern are weak cells
(content-independent) and are excluded here; random failures (soft
errors, VRT, marginal cells) inevitably sneak into the sample and are
filtered later by the ranking stage (Section 5.2.4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from ..dram.controller import MemoryController
from .config import ParborConfig
from .patterns import discovery_patterns

__all__ = ["VictimSample", "find_initial_victims"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)


@dataclass
class VictimSample:
    """A sample of candidate data-dependent victim cells.

    Attributes:
        chip / bank / row / col: parallel coordinate arrays.
        n_discovery_tests: how many pattern tests built the sample.
        observed_failures: every coordinate that failed at least one
            discovery test. The discovery battery is part of PARBOR's
            test budget, so its detections count towards PARBOR's
            uncovered failures (Section 7.2 itemises it as budget
            item (iii)).
    """

    chip: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    col: np.ndarray
    n_discovery_tests: int = 0
    observed_failures: Set[Coord] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.row)

    def coords(self) -> List[Coord]:
        return list(zip(self.chip.tolist(), self.bank.tolist(),
                        self.row.tolist(), self.col.tolist()))

    def subset(self, mask: np.ndarray) -> "VictimSample":
        return VictimSample(chip=self.chip[mask], bank=self.bank[mask],
                            row=self.row[mask], col=self.col[mask],
                            n_discovery_tests=self.n_discovery_tests,
                            observed_failures=self.observed_failures)

    @classmethod
    def from_coords(cls, coords: Sequence[Coord],
                    n_discovery_tests: int = 0,
                    observed_failures: Set[Coord] = None) -> "VictimSample":
        observed = observed_failures or set()
        if not coords:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty.copy(), empty.copy(), empty.copy(),
                       n_discovery_tests, observed)
        arr = np.asarray(coords, dtype=np.int64)
        return cls(chip=arr[:, 0], bank=arr[:, 1], row=arr[:, 2],
                   col=arr[:, 3], n_discovery_tests=n_discovery_tests,
                   observed_failures=observed)


class CellKeys:
    """One ``int64`` key per ``(chip, bank, row, col)`` cell of a target.

    ``key = ((chip * n_banks + bank) * n_rows + row) * row_bits + col``
    over the controllers' largest geometry, so key order is
    lexicographic coordinate order: the discovery histogram and the
    robust vote ledger count, sort and merge cells as plain integers
    and turn them back into coordinates once.
    """

    def __init__(self, controllers: Sequence[MemoryController]) -> None:
        self.n_banks = max(c.n_banks for c in controllers)
        self.n_rows = max(c.n_rows for c in controllers)
        self.row_bits = controllers[0].row_bits

    def encode(self, chip: int, bank: int, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
        return (((np.int64(chip) * self.n_banks + bank) * self.n_rows
                 + rows.astype(np.int64)) * self.row_bits
                + cols.astype(np.int64))

    def encode_coords(self, coords: Iterable[Coord]) -> np.ndarray:
        """:meth:`encode` of ``(chip, bank, row, col)`` tuples."""
        return self.encode(*np.array(list(coords), dtype=np.int64)
                           .reshape(-1, 4).T)

    def decode(self, keys: np.ndarray) -> List[Coord]:
        cols = keys % self.row_bits
        rest = keys // self.row_bits
        rows = rest % self.n_rows
        rest //= self.n_rows
        return list(zip((rest // self.n_banks).tolist(),
                        (rest % self.n_banks).tolist(), rows.tolist(),
                        cols.tolist()))


def whole_chip_failures(controllers: Sequence[MemoryController],
                        patterns: np.ndarray, keys: CellKeys,
                        reseed: Optional[Callable[[int, int, int], None]]
                        = None) -> Tuple[np.ndarray, np.ndarray]:
    """Run T whole-chip tests on every chip; key every failure.

    One :meth:`MemoryController.test_patterns` call per chip runs all
    T tests as one kernel per bank.  Chips and banks have independent
    RNG streams, so this is the same experiment as running the tests
    one by one over every chip.

    Args:
        controllers: one per chip.
        patterns: ``(T, row_bits)`` system-order patterns.
        keys: the cell encoding.
        reseed: optional ``reseed(chip_idx, bank_idx, t)``, called just
            before test ``t`` draws on that bank.

    Returns:
        ``(tests, cells)``: the test index and :class:`CellKeys` key of
        every failing coordinate, duplicates kept.
    """
    tests: List[np.ndarray] = []
    cells: List[np.ndarray] = []
    for chip_idx, ctrl in enumerate(controllers):
        chip_reseed = (None if reseed is None
                       else functools.partial(reseed, chip_idx))
        per_bank = ctrl.test_patterns(patterns, chip_reseed)
        for bank_idx, (t, rows, cols) in enumerate(per_bank):
            tests.append(t)
            cells.append(keys.encode(chip_idx, bank_idx, rows, cols))
    return np.concatenate(tests), np.concatenate(cells)


def _failure_histogram(controllers: Sequence[MemoryController],
                       patterns: Iterable[np.ndarray]
                       ) -> Tuple[List[Coord], np.ndarray]:
    """Run whole-chip tests and histogram the failing coordinates.

    Every pattern is tested on every chip (:func:`whole_chip_failures`)
    and the :class:`CellKeys` of the failures are counted in a single
    ``np.unique`` pass - every failure event counts, so a cell reported
    twice by one test counts twice.  The returned coordinates are
    sorted.

    Returns:
        ``(coords, counts)``: the distinct failing cells and how many
        failure events each had.
    """
    patterns = list(patterns)
    if not patterns:
        return [], np.empty(0, dtype=np.int64)
    keys = CellKeys(controllers)
    _tests, cells = whole_chip_failures(controllers, np.stack(patterns),
                                        keys)
    uniq, counts = np.unique(cells, return_counts=True)
    return keys.decode(uniq), counts


def find_initial_victims(controllers: Sequence[MemoryController],
                         config: ParborConfig,
                         rng: np.random.Generator) -> VictimSample:
    """Run the discovery battery and sample candidate victims.

    Args:
        controllers: one memory controller per chip under test (all
            chips must share row geometry; they are tested with the
            same patterns simultaneously, which costs one test budget).
        config: campaign configuration (battery size, sample size).
        rng: randomness for the random backgrounds and sampling.

    Returns:
        A :class:`VictimSample` of at most ``config.sample_size`` cells
        that failed under at least one pattern and passed under at
        least one other.
    """
    if not controllers:
        raise ValueError("need at least one controller")
    row_bits = controllers[0].row_bits
    if any(c.row_bits != row_bits for c in controllers):
        raise ValueError("all chips must share row width")

    battery = discovery_patterns(row_bits, config.n_discovery_tests, rng)
    n_tests = len(battery)
    coords, fails = _failure_histogram(
        controllers, (pattern for _name, pattern in battery))
    candidates = list(compress(coords, (fails < n_tests).tolist()))
    observed = set(coords)

    # Keep rows sparse: same-row victims share physical writes, and a
    # crowded row lets one victim's zeroed test region land on
    # another's aggressor, fabricating distances.
    per_row: Dict[Tuple[int, int, int], int] = {}
    sparse: List[Coord] = []
    for coord in candidates:
        key = coord[:3]
        if per_row.get(key, 0) < config.max_victims_per_row:
            per_row[key] = per_row.get(key, 0) + 1
            sparse.append(coord)
    candidates = sparse

    if len(candidates) > config.sample_size:
        idx = rng.choice(len(candidates), size=config.sample_size,
                         replace=False)
        candidates = [candidates[i] for i in sorted(idx.tolist())]
    return VictimSample.from_coords(candidates, n_discovery_tests=n_tests,
                                    observed_failures=observed)
