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
from typing import List, Union

__all__ = ["ladder_seed", "chip_seed", "module_seed", "seed_ladder"]

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
