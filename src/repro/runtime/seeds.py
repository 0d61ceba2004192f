"""Deterministic seed ladder for fleet campaigns.

A fleet campaign runs many chips/modules, possibly spread over worker
processes, and must produce *identical* results no matter how the work
is scheduled.  That requires every target's randomness to be a pure
function of (root seed, target identity) - never of submission order,
process identity, or Python's per-process ``hash`` randomisation.

``ladder_seed`` derives a 63-bit seed from a root seed and an
arbitrary identity path (e.g. ``("vendor", "A", "module", 3)``) with
SHA-256 over a length-prefixed canonical encoding, giving:

* **determinism across processes/platforms** - unlike ``hash()``,
  SHA-256 has no per-process salt;
* **order independence** - the seed depends only on the arguments,
  not on how many seeds were drawn before it (contrast drawing from a
  shared ``Generator``, where inserting one chip shifts every
  subsequent seed);
* **injectivity in practice** - distinct paths collide with
  probability ~2^-63; the length-prefixed encoding prevents the
  classic ``("ab",)`` vs ``("a", "b")`` ambiguity.
"""

from __future__ import annotations

import functools
import hashlib
from typing import List, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["ladder_seed", "chip_seed", "module_seed", "seed_ladder",
           "stream_words", "seeded_stream"]

PathPart = Union[int, str]


@functools.lru_cache(maxsize=4096, typed=True)
def _encode(part: PathPart) -> bytes:
    # Memoized: a campaign's reseeds repeat the same few path parts
    # (purpose strings, repetition / round / chip / bank indices).
    # ``typed`` keeps ``True`` from hitting the entry of ``1``.
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"seed path parts must be int or str, got "
                        f"{type(part).__name__}")
    if isinstance(part, int):
        raw = part.to_bytes(16, "big", signed=True)
        tag = b"i"
    else:
        raw = part.encode("utf-8")
        tag = b"s"
    return tag + len(raw).to_bytes(4, "big") + raw


def ladder_seed(root_seed: int, *path: PathPart) -> int:
    """Derive a 63-bit seed from a root seed and an identity path.

    Args:
        root_seed: the fleet's single root seed.
        path: identity components of the target (vendor letters,
            module/chip indices, purpose strings...).

    Returns:
        An integer in ``[0, 2**63)`` suitable for
        ``numpy.random.default_rng``.
    """
    h = hashlib.sha256()
    h.update(_encode(int(root_seed)))
    for part in path:
        h.update(_encode(part))
    return int.from_bytes(h.digest()[:8], "big") >> 1


def chip_seed(root_seed: int, vendor: str, chip_index: int,
              purpose: str = "build") -> int:
    """Seed for one chip of a fleet (``purpose`` separates streams)."""
    return ladder_seed(root_seed, "chip", vendor, chip_index, purpose)


def module_seed(root_seed: int, vendor: str, module_index: int,
                purpose: str = "build") -> int:
    """Seed for one module of a fleet."""
    return ladder_seed(root_seed, "module", vendor, module_index, purpose)


def seed_ladder(root_seed: int, n: int, *prefix: PathPart) -> List[int]:
    """The first ``n`` rungs of the ladder under a common prefix."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [ladder_seed(root_seed, *prefix, i) for i in range(n)]


# numpy's SeedSequence hash constants.  Each hash step XORs one
# constant in and multiplies by the next, whatever the data, so the
# constants of every step are fixed: a chain per hash.
def _chain(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


_MIX_HASH = _chain(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASH = _chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_CROSS = [(s, d) for s in range(4) for d in range(4) if s != d]


def stream_words(seeds: Sequence[int], tags=0) -> np.ndarray:
    """The PCG64 seeding words of many ``default_rng`` streams at once.

    Row ``i`` equals ``SeedSequence([seeds[i], tags[i]]).generate_state(
    4, np.uint64)`` for seeds in ``[0, 2**63)`` and tags under ``2**32``
    (``tags`` is one tag or one per seed).  A zero tag leaves numpy's
    pool as the bare seed's, so tag 0 is ``SeedSequence(seeds[i])``:
    numpy's entropy mixing over a four-word pool, run on every seed as
    one array program.  On a 2-vCPU host a pass costs about 90 us
    whatever the batch and ``SeedSequence`` about 9 us per seed, so a
    batch of ten or more streams derives faster.  Returns ``(n, 4)``
    ``uint64``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    tags = np.broadcast_to(np.asarray(tags, dtype=np.uint32), seeds.shape)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    # A seed's entropy words, least significant first, then its tag: a
    # seed under 2**32 is one entropy word, so the tag moves up.
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    wide = pool[1] != 0
    pool[2] = np.where(wide, tags, 0)
    pool[1] = np.where(wide, pool[1], tags)
    shift = np.uint32(16)
    pool ^= _MIX_HASH[:4, None]
    pool *= _MIX_HASH[1:5, None]
    pool ^= pool >> shift
    for k, (src, dst) in enumerate(_CROSS, 4):
        h = (pool[src] ^ _MIX_HASH[k]) * _MIX_HASH[k + 1]
        h ^= h >> shift
        mixed = pool[dst] * _MIX_L - h * _MIX_R
        pool[dst] = mixed ^ (mixed >> shift)
    out = (np.tile(pool, (2, 1)) ^ _OUT_HASH[:8, None]) * _OUT_HASH[1:, None]
    out ^= out >> shift
    return np.ascontiguousarray(out.T).view(np.uint64)


class _Derived(ISeedSequence):
    """A seed sequence whose PCG64 seeding words are already known."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 seeds itself from exactly four uint64 words.
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's four uint64 seeding words "
                             "are known")
        return self.words


def seeded_stream(words: np.ndarray) -> np.random.Generator:
    """A fresh generator from one row of :func:`stream_words`.

    Bit-identical to ``default_rng`` of that row's seed: PCG64 seeds
    itself from exactly these words.
    """
    return np.random.Generator(np.random.PCG64(_Derived(words)))
