"""System-address <-> physical-address scrambling models.

DRAM vendors internally scramble the system address space: bit ``s`` of
a row, as the memory controller sees it, is stored in physical column
``p`` of the cell array, where ``p`` is a vendor-specific permutation of
``s`` (paper Section 3, Challenge 1). The paper characterises each
vendor *only* through the set of system-address distances at which the
physical neighbours of a cell appear (Figure 8, Figure 11):

* vendor A: ``{+-8, +-16, +-48}``
* vendor B: ``{+-1, +-64}``
* vendor C: ``{+-16, +-33, +-49}``

Real scrambler wiring is proprietary, so we *construct* permutations
that induce exactly those distance sets. A row is divided into equal
*tiles* (the paper's Figure 7); cells are physically adjacent only
within a tile, and the permutation is identical in every tile and every
row (the regularity PARBOR exploits).

The construction is a *step path*: an ordering of the tile's system
addresses such that consecutive physical cells have system-address
differences drawn from the target step set. Three generators are
provided (boustrophedon, pair-block interleave, residue interleave)
plus a generic backtracking search for arbitrary step sets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._kernels import pack_rows, packed_words, tail_mask

__all__ = [
    "AddressMapping",
    "find_step_path",
    "boustrophedon_path",
    "pair_block_path",
    "residue_interleaved_path",
    "identity_mapping",
    "path_step_magnitudes",
]


def path_step_magnitudes(path: Sequence[int]) -> Dict[int, int]:
    """Histogram of ``|path[i+1] - path[i]|`` over a step path."""
    mags: Dict[int, int] = {}
    for a, b in zip(path, path[1:]):
        m = abs(b - a)
        mags[m] = mags.get(m, 0) + 1
    return mags


def _zigzag(length: int) -> List[int]:
    """Cover ``0..length-1`` with steps in {+1, +2, -1}.

    Pattern: 0, 2, 1, 3, 5, 4, 6, 8, 7, ... (triples), with a clean
    tail for any length. Used as the in-range tail of the residue
    interleave below.
    """
    out: List[int] = []
    base = 0
    while base < length:
        remaining = length - base
        if remaining == 1:
            out.append(base)
            base += 1
        elif remaining == 2:
            out.extend([base, base + 1])
            base += 2
        else:
            out.extend([base, base + 2, base + 1])
            base += 3
    return out


def boustrophedon_path(length: int, block: int) -> List[int]:
    """Snake path: ascending block, descending block, ...

    Induces step magnitudes ``{1, block}``. ``length`` must be an even
    multiple of ``block`` so the path ends on an ascending run.
    """
    if length % (2 * block):
        raise ValueError(
            f"length {length} must be a multiple of 2*block ({2 * block})"
        )
    out: List[int] = []
    for start in range(0, length, 2 * block):
        out.extend(range(start, start + block))
        out.extend(range(start + 2 * block - 1, start + block - 1, -1))
    return out


def pair_block_path(length: int, half: int) -> List[int]:
    """Interleave pairs across the two halves of a block.

    Order: ``0, half, half+1, 1, 2, half+2, half+3, 3, ...`` so that
    step magnitudes are ``{1, half}`` with the long step occurring every
    other move (frequency 1/2). Used for vendor B, where the paper's
    recursion finds the +-64 neighbour region as a *frequent* distance.
    """
    if length != 2 * half:
        raise ValueError(f"length {length} must equal 2*half ({2 * half})")
    if half % 2:
        raise ValueError(f"half {half} must be even")
    out: List[int] = []
    for k in range(0, half, 2):
        out.extend([k, half + k, half + k + 1, k + 1])
    return out


def _unit_interleave_path(length: int) -> List[int]:
    """Cover ``0..length-1`` with steps of magnitude {1, 2, 6}.

    Uses a period-12 pattern (0, 1, 2, 3, 9, 11, 5, 7, 8, 10, 4, 6)
    whose twelve steps (including the +6 hop into the next period) use
    each magnitude exactly four times - balanced usage keeps all three
    induced distances *frequent*, so PARBOR's ranking filter retains
    them (Figure 14). A zigzag tail (steps ``{+-1, +2}``) closes
    lengths that are not a multiple of 12.
    """
    period = [0, 1, 2, 3, 9, 11, 5, 7, 8, 10, 4, 6]
    units: List[int] = []
    base = 0
    while base + 12 <= length:
        units.extend(base + u for u in period)
        base += 12
    units.extend(base + u for u in _zigzag(length - base))
    return units


def residue_interleaved_path(block: int, stride: int) -> List[int]:
    """Residue-class interleaving: vendor A's scrambler family.

    The ``block`` system addresses are grouped into ``stride`` residue
    classes (addresses congruent mod ``stride``); each class occupies a
    contiguous run of ``block // stride`` physical positions, ordered
    by a unit path with step magnitudes {1, 2, 6}. Physical adjacency
    *within a class run* therefore has system-address distances
    ``{stride, 2*stride, 6*stride}`` (stride 8 gives {8, 16, 48}).

    The caller must set ``tile_bits = block // stride`` so adjacency
    breaks at class-run boundaries (the cross-run step is not a real
    neighbour relation).
    """
    if block % stride:
        raise ValueError(f"block {block} must be a multiple of {stride}")
    per_class = block // stride
    unit = _unit_interleave_path(per_class)
    out: List[int] = []
    for c in range(stride):
        out.extend(c + stride * u for u in unit)
    return out


def find_step_path(
    length: int,
    steps: Sequence[int],
    start: int = 0,
    deadline_s: float = 10.0,
) -> List[int]:
    """Find a Hamiltonian step path on ``0..length-1``.

    Consecutive elements differ by a value in ``steps`` (signed). Uses
    iterative depth-first search with the Warnsdorff heuristic (visit
    the candidate with the fewest onward moves first), which finds
    paths for the vendor step sets in well under a millisecond.

    Raises:
        ValueError: if no path exists or the search exceeds the
            deadline.
    """
    allowed = sorted(set(int(s) for s in steps), key=abs)
    if not allowed or 0 in allowed:
        raise ValueError(f"invalid step set {steps}")
    t0 = time.monotonic()
    visited = bytearray(length)
    path = [start]
    visited[start] = 1
    # Balanced magnitude usage keeps every induced distance frequent
    # enough to survive PARBOR's ranking filter.
    usage = {abs(s): 0 for s in allowed}
    # Each stack frame holds the not-yet-tried candidates from a node.
    stack: List[List[int]] = []

    def candidates(v: int) -> List[int]:
        cands = [v + s for s in allowed
                 if 0 <= v + s < length and not visited[v + s]]

        def onward(c: int) -> int:
            return sum(1 for s in allowed
                       if 0 <= c + s < length and not visited[c + s])

        # Warnsdorff first (fewest onward moves), then prefer the
        # least-used step magnitude.
        cands.sort(key=lambda c: (onward(c), usage[abs(c - v)]))
        cands.reverse()  # pop() takes from the end; keep best last
        return cands

    stack.append(candidates(start))
    while stack:
        if len(path) == length:
            return path
        if time.monotonic() - t0 > deadline_s:
            raise ValueError(
                f"step-path search timed out (length={length}, "
                f"steps={allowed})"
            )
        frame = stack[-1]
        if frame:
            nxt = frame.pop()
            usage[abs(nxt - path[-1])] += 1
            visited[nxt] = 1
            path.append(nxt)
            stack.append(candidates(nxt))
        else:
            stack.pop()
            dead = path.pop()
            visited[dead] = 0
            if path:
                usage[abs(dead - path[-1])] -= 1
    raise ValueError(
        f"no step path exists for length={length}, steps={allowed}"
    )


@dataclass(frozen=True)
class AddressMapping:
    """A row-level system<->physical address permutation.

    Two granularities describe the mapping:

    * ``block_bits`` is the *repeating permutation unit*: the row is
      split into ``row_bits // block_bits`` blocks of contiguous system
      addresses and the same ``block_path`` permutation is applied
      inside each (the regularity PARBOR exploits, paper Figure 7).
    * ``tile_bits`` is the *physical adjacency granularity*: cells are
      physically adjacent (and can couple) only within a tile of
      ``tile_bits`` consecutive physical positions; cells at a tile's
      two ends have a single neighbour. ``tile_bits`` divides
      ``block_bits`` - some scramblers (vendor A's residue
      interleaving) need several adjacency segments per repeating
      block.

    Attributes:
        row_bits: number of cells (bits) per row.
        block_bits: system addresses per repeating block.
        block_path: for physical in-block position ``i``, the in-block
            *system* address offset stored there (a permutation of
            ``0..block_bits-1``).
        tile_bits: physical positions per adjacency tile.
    """

    row_bits: int
    block_bits: int
    block_path: Tuple[int, ...]
    tile_bits: int = 0
    _sys_to_phys: np.ndarray = field(repr=False, compare=False, default=None)
    _phys_to_sys: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.tile_bits == 0:
            object.__setattr__(self, "tile_bits", self.block_bits)
        if self.row_bits % self.block_bits:
            raise ValueError(
                f"row_bits {self.row_bits} not a multiple of block_bits "
                f"{self.block_bits}"
            )
        if self.block_bits % self.tile_bits:
            raise ValueError(
                f"block_bits {self.block_bits} not a multiple of tile_bits "
                f"{self.tile_bits}"
            )
        if sorted(self.block_path) != list(range(self.block_bits)):
            raise ValueError("block_path is not a permutation of the block")
        n_blocks = self.row_bits // self.block_bits
        path = np.asarray(self.block_path, dtype=np.int64)
        bases = (np.arange(n_blocks, dtype=np.int64) * self.block_bits)
        phys_to_sys = (bases[:, None] + path[None, :]).ravel()
        sys_to_phys = np.empty_like(phys_to_sys)
        sys_to_phys[phys_to_sys] = np.arange(self.row_bits, dtype=np.int64)
        object.__setattr__(self, "_phys_to_sys", phys_to_sys)
        object.__setattr__(self, "_sys_to_phys", sys_to_phys)
        # Packed-kernel lookup tables: system column s lives in word
        # _s2p_word[s], bit mask _s2p_mask[s] of a packed physical row
        # (see docs/KERNELS.md).
        object.__setattr__(self, "_s2p_word",
                           (sys_to_phys >> 6).astype(np.int64))
        object.__setattr__(self, "_s2p_mask",
                           np.uint64(1) << (sys_to_phys & 63).astype(
                               np.uint64))
        object.__setattr__(self, "_packed_cache", {})
        object.__setattr__(self, "_region_mask_cache", {})
        object.__setattr__(self, "_region_sparse_cache", {})

    @property
    def n_tiles(self) -> int:
        return self.row_bits // self.tile_bits

    @property
    def n_blocks(self) -> int:
        return self.row_bits // self.block_bits

    # -- permutation views ------------------------------------------------

    def sys_to_phys(self) -> np.ndarray:
        """Vector ``perm[s] -> p`` (do not mutate)."""
        return self._sys_to_phys

    def phys_to_sys(self) -> np.ndarray:
        """Vector ``perm[p] -> s`` (do not mutate)."""
        return self._phys_to_sys

    def scramble(self, row_sys: np.ndarray) -> np.ndarray:
        """Reorder a system-order row into physical order."""
        return row_sys[self._phys_to_sys]

    def descramble(self, row_phys: np.ndarray) -> np.ndarray:
        """Reorder a physical-order row into system order."""
        return row_phys[self._sys_to_phys]

    # -- packed (word-wise) views -----------------------------------------

    def scramble_packed(self, row_sys: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized packed scramble of one system-order row pattern.

        Returns ``(plain, inverted)`` - the pattern scrambled into
        physical order and bit-packed (see :mod:`repro._kernels`), plus
        its bitwise complement with the tail bits cleared.  Caching
        both polarities lets the broadcast write pick the right one per
        row (true vs anti cells) with a single ``np.where`` instead of
        an outer XOR that would dirty the tail.  Both arrays are
        read-only.  The cache is bounded (cleared at 256 patterns) so
        one-shot random backgrounds cannot grow it without limit, and
        keyed by the bit-packed pattern (an eighth of the raw bytes).
        """
        key = np.packbits(row_sys).tobytes()
        cached = self._packed_cache.get(key)
        if cached is None:
            if len(self._packed_cache) >= 256:
                self._packed_cache.clear()
            plain = pack_rows(row_sys[self._phys_to_sys])
            inverted = ~plain
            inverted[-1] &= tail_mask(self.row_bits)
            plain.flags.writeable = False
            inverted.flags.writeable = False
            cached = (plain, inverted)
            self._packed_cache[key] = cached
        return cached

    def region_masks(self, size: int) -> np.ndarray:
        """Packed physical masks of the aligned system-address regions.

        Row ``r`` of the result is the packed mask of physical columns
        holding system addresses ``r*size .. (r+1)*size - 1`` - the
        write footprint of one recursion region.  Built once per
        ``size`` and cached on the (shared, per-vendor) mapping, so the
        recursive region test patches spans at cost O(words) instead
        of O(cells).  The array is read-only.
        """
        if size < 1 or self.row_bits % size:
            raise ValueError(
                f"size {size} must divide row_bits {self.row_bits}")
        masks = self._region_mask_cache.get(size)
        if masks is None:
            n_regions = self.row_bits // size
            n_w = packed_words(self.row_bits)
            flat = np.zeros(n_regions * n_w, dtype=np.uint64)
            region = np.arange(self.row_bits, dtype=np.int64) // size
            np.bitwise_or.at(flat, region * n_w + self._s2p_word,
                             self._s2p_mask)
            masks = flat.reshape(n_regions, n_w)
            masks.flags.writeable = False
            self._region_mask_cache[size] = masks
        return masks

    def region_masks_sparse(self, size: int
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse form of :meth:`region_masks`: only the nonzero words.

        Returns ``(word_idx, masks)``, both shaped
        ``(n_regions, k)`` where ``k`` is the largest number of packed
        words any region touches; shorter regions are padded with
        zero masks (no-ops for the span-write kernel).  Deep recursion
        levels have tiny regions, so applying ``k`` words per span
        instead of a full row's worth is the difference between
        O(region) and O(row) writes.  Both arrays are read-only.
        """
        cached = self._region_sparse_cache.get(size)
        if cached is None:
            dense = self.region_masks(size)
            n_regions, _ = dense.shape
            nz = dense != 0
            k = int(nz.sum(axis=1).max())
            word_idx = np.zeros((n_regions, k), dtype=np.int64)
            masks = np.zeros((n_regions, k), dtype=np.uint64)
            r, w = np.nonzero(nz)
            pos = np.arange(len(r)) - np.searchsorted(r, r)
            word_idx[r, pos] = w
            masks[r, pos] = dense[r, w]
            word_idx.flags.writeable = False
            masks.flags.writeable = False
            cached = (word_idx, masks)
            self._region_sparse_cache[size] = cached
        return cached

    def span_masks(self, starts: np.ndarray, size: int) -> np.ndarray:
        """Packed physical masks of arbitrary system-address spans.

        Generic (uncached) fallback of :meth:`region_masks` for spans
        that are not region-aligned; one mask row per start.
        """
        n_w = packed_words(self.row_bits)
        flat = np.zeros(len(starts) * n_w, dtype=np.uint64)
        sys_idx = (np.asarray(starts, dtype=np.int64)[:, None]
                   + np.arange(size, dtype=np.int64)).ravel()
        span = np.repeat(np.arange(len(starts), dtype=np.int64), size)
        np.bitwise_or.at(flat, span * n_w + self._s2p_word[sys_idx],
                         self._s2p_mask[sys_idx])
        return flat.reshape(len(starts), n_w)

    # -- neighbour structure ----------------------------------------------

    def neighbour_distance_set(self, order: int = 1) -> List[int]:
        """All signed system-address distances of physical neighbours.

        This is the ground truth that PARBOR tries to discover (the
        paper's Figure 8 representation). ``order`` selects which
        physical neighbour ring: 1 for the immediate neighbours, 2 for
        the cells two positions out (relevant to future process nodes
        where farther cells interfere - paper Sections 1 and 3).
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        if self.tile_bits <= order:
            return []
        tiles = self._phys_to_sys.reshape(self.n_tiles, self.tile_bits)
        diffs = (tiles[:, order:] - tiles[:, :-order]).ravel()
        # Deduplicated by hand: a plain np.unique imports numpy.ma
        # (about 2 MB of resident memory) on first use.
        dists = np.sort(np.concatenate([diffs, -diffs]))
        dists = dists[np.flatnonzero(np.diff(dists, prepend=dists[0] - 1))]
        return dists[np.lexsort((dists, np.abs(dists)))].tolist()

    def distance_magnitudes(self, order: int = 1) -> List[int]:
        """Unsigned version of :meth:`neighbour_distance_set`."""
        return sorted({abs(d)
                       for d in self.neighbour_distance_set(order)})


def identity_mapping(row_bits: int, tile_bits: Optional[int] = None
                     ) -> AddressMapping:
    """A linear (unscrambled) mapping, useful for tests and baselines."""
    tile = tile_bits or row_bits
    return AddressMapping(row_bits=row_bits, block_bits=tile,
                          block_path=tuple(range(tile)), tile_bits=tile)
