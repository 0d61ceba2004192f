"""Data-pattern library for DRAM testing.

These are the classic march-test backgrounds used to provoke failures
without knowing the scrambler: solids, checkerboards, stripes, and
random backgrounds. PARBOR's discovery phase cycles through them to
find cells whose failures depend on row content (Section 5.2.1); the
random-pattern baseline of Figures 12/13 draws from
:func:`random_pattern`.

Patterns are plain numpy uint8 arrays of 0/1 in *system* order. Every
pattern is conventionally run together with its inverse so both true
and anti cells are exercised (paper footnote 3); :func:`inverse` and
:func:`with_inverses` implement that pairing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

import numpy as np


__all__ = [
    "solid", "checkerboard", "column_stripes", "walking_ones", "inverse",
    "random_pattern", "discovery_patterns", "with_inverses",
]


def solid(row_bits: int, value: int) -> np.ndarray:
    """All-0s or all-1s background."""
    if value not in (0, 1):
        raise ValueError(f"value must be 0 or 1, got {value}")
    return np.full(row_bits, value, dtype=np.uint8)


def checkerboard(row_bits: int, period: int = 1, phase: int = 0
                 ) -> np.ndarray:
    """Alternating runs of ``period`` zeros and ones."""
    if period < 1:
        raise ValueError("period must be positive")
    idx = (np.arange(row_bits) + phase) // period
    return (idx % 2).astype(np.uint8)


def column_stripes(row_bits: int, stripe: int = 8) -> np.ndarray:
    """Stripes of width ``stripe`` (checkerboard alias, kept for intent)."""
    return checkerboard(row_bits, period=stripe)


def walking_ones(row_bits: int, position: int) -> np.ndarray:
    """A single 1 walking across an all-0 background."""
    if not 0 <= position < row_bits:
        raise ValueError(f"position {position} out of range")
    row = np.zeros(row_bits, dtype=np.uint8)
    row[position] = 1
    return row


def inverse(pattern: np.ndarray) -> np.ndarray:
    """The bitwise inverse of a 0/1 pattern."""
    return (1 - pattern).astype(np.uint8)


def random_pattern(row_bits: int, rng: np.random.Generator) -> np.ndarray:
    """An i.i.d. uniform random background."""
    return rng.integers(0, 2, size=row_bits, dtype=np.uint8)


def with_inverses(patterns: List[Tuple[str, np.ndarray]]
                  ) -> Iterator[Tuple[str, np.ndarray]]:
    """Yield each named pattern followed by its inverse."""
    for name, pattern in patterns:
        yield name, pattern
        yield f"~{name}", inverse(pattern)


@lru_cache(maxsize=16)
def _base_battery(row_bits: int) -> Tuple[Tuple[str, np.ndarray], ...]:
    """Memoized deterministic head of the discovery battery.

    The classic patterns and their inverses are identical for every
    chip of a fleet, so they are built once per process and shared
    (read-only) across campaigns.
    """
    base: List[Tuple[str, np.ndarray]] = [
        ("solid0", solid(row_bits, 0)),
        ("checker1", checkerboard(row_bits, period=1)),
        ("stripe8", checkerboard(row_bits, period=8)),
    ]
    battery = tuple(with_inverses(base))
    for _name, arr in battery:
        arr.flags.writeable = False
    return battery


def discovery_patterns(row_bits: int, n_tests: int,
                       rng: np.random.Generator
                       ) -> List[Tuple[str, np.ndarray]]:
    """The initial victim-discovery battery (Section 5.2.1).

    Produces exactly ``n_tests`` patterns: the deterministic classics
    (solid/checker/stripe pairs, memoized per process) topped up with
    random backgrounds.  Inverse pairing is preserved as long as the
    budget allows.
    """
    battery = list(_base_battery(row_bits))
    i = 0
    while len(battery) < n_tests:
        battery.append((f"rand{i}", random_pattern(row_bits, rng)))
        i += 1
    return battery[:n_tests]
