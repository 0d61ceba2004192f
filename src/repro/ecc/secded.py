"""Bit-exact (72, 64) SECDED Hamming code over packed ``uint64`` words.

A code is its 64 data *columns*: one 8-bit column of the parity-check
matrix ``H`` per data position.  The device's codes are the classic
extended-Hamming (overall-parity) SEC-DED construction:

* data position ``p`` gets column ``h_p | 0x80`` where ``h_p`` is a
  7-bit value of weight >= 2 (120 candidates exist: 127 nonzero values
  minus the 7 unit vectors);
* check position ``j < 7`` gets column ``(1 << j) | 0x80``;
* check position 7 gets column ``0x80`` - row 7 is the overall parity
  over all 72 bits.

All 72 columns are distinct and nonzero, so every single-bit error has
a unique syndrome (single-error correction).  Every column has bit 7
set, so any even-weight error has a syndrome with bit 7 clear and can
never match a column: double errors are always detected, never
(mis)corrected.  Odd-weight errors of three or more bits *can* land on
a data column - the miscorrection mechanism the on-die ECC lens
injects and the BEER probes exploit.

A BEER recovery is a code of the same type
(:meth:`HammingSecDed.from_basis`): its columns are those of a
row-equivalent ``H``, which need not keep the parity-bit form, so the
constructor only asks for 64 distinct nonzero 8-bit columns.

Check bits never decay in this failure model (``docs/ECC.md``), so the
one decode, :meth:`HammingSecDed.decode_masks`, takes a word's data-bit
*error mask* and decodes it against an all-zero check byte: the
syndrome is the XOR of eight byte-indexed lookups into a per-code
``8 x 256`` table, and each syndrome byte maps to a status and a flip
mask.  The device's lens, BEER's probe reads, held-out validation and
recovery's three-pass inversion all decode through it.
``tests/oracle.py`` holds the independent per-word references (XOR the
columns of set bits one by one) the packed decode is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .._kernels import _LITTLE_ENDIAN
from ..runtime.seeds import ladder_seed

__all__ = ["HammingSecDed", "CANDIDATE_COLUMNS", "DATA_BITS", "CHECK_BITS",
           "CLEAN", "CORRECTED", "DETECTED", "UNDETECTED", "MISCORRECTED"]

DATA_BITS = 64
CHECK_BITS = 8
PARITY_BIT = 0x80  # syndrome bit 7: overall parity over all 72 bits

#: The 120 legal data columns: 7-bit values of weight >= 2, ascending.
CANDIDATE_COLUMNS: Tuple[int, ...] = tuple(
    v for v in range(1, 128) if bin(v).count("1") >= 2)

# Decode statuses (per word).  The decoder itself reports the first
# three; the last two need the true error set, so only ground-truth
# classification (the per-word oracle) assigns them.
CLEAN = 0         # syndrome zero: the decoder leaves the word alone
CORRECTED = 1     # syndrome matched a data column: that bit is flipped
DETECTED = 2      # nonzero syndrome matched no data column: flagged only
UNDETECTED = 3    # errors present but syndrome zero: silent escape
MISCORRECTED = 4  # syndrome matched a *healthy* data bit and flipped it

_BYTE_OFFSETS = np.arange(0, 8 * 256, 256, dtype=np.intp)
_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)


@dataclass(frozen=True)
class HammingSecDed:
    """A (72, 64) SEC-DED code: the device's, or a recovered one.

    Attributes:
        data_columns: the 64 8-bit ``H`` columns of the data
            positions, in position order; distinct and nonzero.
    """

    data_columns: Tuple[int, ...]

    def __post_init__(self) -> None:
        cols = self.data_columns
        if (len(cols) != DATA_BITS or len(set(cols)) != DATA_BITS
                or not all(0 < c < 256 for c in cols)):
            raise ValueError(f"need {DATA_BITS} distinct nonzero 8-bit "
                             "data columns")

    # -- constructors -------------------------------------------------

    @classmethod
    def standard(cls) -> "HammingSecDed":
        """The canonical instance: the 64 smallest candidates."""
        return cls(tuple(c | PARITY_BIT
                         for c in CANDIDATE_COLUMNS[:DATA_BITS]))

    @classmethod
    def for_vendor(cls, vendor: str, build_seed: int) -> "HammingSecDed":
        """The (secret) code a vendor's chips of one build carry.

        Real on-die ECC implementations differ per vendor and die
        revision; BEER exists because the matrix is proprietary.  The
        column choice is a seeded permutation pick of 64 of the 120
        candidates, a pure function of ``(build_seed, vendor)`` - the
        same ladder identity chip manufacturing uses, so every chip of
        a build shares one code and the BEER tests can compare the
        inferred matrix against this ground truth.
        """
        rng = np.random.default_rng(
            ladder_seed(build_seed, "ecc", "code", vendor))
        picks = rng.permutation(len(CANDIDATE_COLUMNS))[:DATA_BITS]
        return cls(tuple(CANDIDATE_COLUMNS[i] | PARITY_BIT
                         for i in sorted(picks.tolist())))

    @classmethod
    def from_basis(cls, basis: Sequence[int]) -> "HammingSecDed":
        """The code whose ``H`` rows are ``basis`` (64-bit data masks):
        bit ``i`` of column ``p`` is bit ``p`` of row ``i``.

        Raises ValueError unless the columns are 64 distinct nonzero
        bytes (so at most 8 rows).
        """
        return cls(tuple(
            sum(((int(row) >> p) & 1) << i for i, row in enumerate(basis))
            for p in range(DATA_BITS)))

    # -- derived tables -----------------------------------------------

    @cached_property
    def row_masks(self) -> np.ndarray:
        """Per syndrome row, the ``uint64`` mask of covered data bits."""
        cols = np.array(self.data_columns, dtype=np.uint64)
        bits = np.uint64(1) << np.arange(DATA_BITS, dtype=np.uint64)
        return np.array([np.bitwise_or.reduce(
            np.where((cols >> np.uint64(k)) & np.uint64(1), bits,
                     np.uint64(0))) for k in range(CHECK_BITS)],
            dtype=np.uint64)

    @cached_property
    def _tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(syndromes, status, fix)``: the flat ``8 * 256`` byte
        syndrome table (entry ``256*i + v`` is the XOR of the columns
        of byte ``v``'s set bits at byte ``i`` of a word), and per
        syndrome byte the decode status and the ``uint64`` mask it
        flips."""
        cols = np.array(self.data_columns, dtype=np.uint8)
        bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
        syndromes = np.bitwise_xor.reduce(
            np.where(bits == 1, cols.reshape(8, 1, 8), np.uint8(0)),
            axis=2).astype(np.uint8).ravel()
        status = np.full(256, DETECTED, dtype=np.uint8)
        status[0] = CLEAN
        status[cols] = CORRECTED
        fix = np.zeros(256, dtype=np.uint64)
        fix[cols] = np.uint64(1) << np.arange(DATA_BITS, dtype=np.uint64)
        return syndromes, status, fix

    # -- the packed decode --------------------------------------------

    def decode_masks(self, masks: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode data-bit error masks against an all-zero check byte.

        Returns ``(observed, status)`` per mask (any shape): the
        post-correction error mask - the mask with the matched data
        bit flipped, if any - and :data:`CLEAN` / :data:`CORRECTED` /
        :data:`DETECTED`.  The decoder cannot tell a miscorrection
        from a correction (that is the point).

        A mask's syndrome is the XOR of its eight bytes' table
        entries; those are adjacent, so they are read back as one
        ``uint64`` and XOR-folded in three shifts.
        """
        masks = np.ascontiguousarray(masks, dtype=np.uint64)
        if _LITTLE_ENDIAN:
            by = masks.view(np.uint8).reshape(masks.shape + (8,))
        else:
            by = ((masks[..., None] >> _BYTE_SHIFTS)
                  & np.uint64(0xFF)).astype(np.uint8)
        syndromes, status, fix = self._tables
        folded = syndromes[by + _BYTE_OFFSETS].view(np.uint64)[..., 0]
        for shift in (32, 16, 8):
            folded = folded ^ (folded >> np.uint64(shift))
        synd = (folded & np.uint64(0xFF)).astype(np.uint8)
        return masks ^ fix[synd], status[synd]
