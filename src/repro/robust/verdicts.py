"""Verdict model of the noise-robust testing layer.

A single retention test answers "did this cell fail this read?".  On a
noisy device that boolean is not a profile: VRT and marginal cells fail
intermittently, soft errors fail exactly once, and probabilistic
coupled cells fail most - but not all - reads.  The robust layer
re-runs each write/wait/read pass up to ``rounds`` times and replaces
the boolean with one of three verdicts:

* ``definite`` - failed every repetition it was scored in (and at
  least :attr:`RoundsPolicy.early_definite` of them) and stayed clean
  in every control round: a stable data-dependent failure.
* ``probabilistic`` - failed at least ``ceil(threshold * scored)``
  repetitions: real but intermittent (e.g. weakly coupled cells).
* ``unstable`` - anything else that ever failed, plus every cell that
  failed a *control* round (solid patterns that no data-dependent
  mechanism can disturb): VRT, marginal, and soft-error suspects.
  Unstable cells are quarantined, never trusted.

All repetition randomness rides the SHA-256 seed ladder: each
(pass, round) pair reseeds the substrate, so a verdict is a pure
function of (spec, round) - independent of scheduling, worker count,
and of which other rounds the adaptive early-exit chose to re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

__all__ = ["DEFINITE", "PROBABILISTIC", "UNSTABLE", "VERDICTS",
           "RoundsPolicy", "classify", "CellVerdicts"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)

DEFINITE = "definite"
PROBABILISTIC = "probabilistic"
UNSTABLE = "unstable"
VERDICTS = (DEFINITE, PROBABILISTIC, UNSTABLE)  # indexed by verdict code


@dataclass(frozen=True)
class RoundsPolicy:
    """How many times to repeat each pass and how to vote.

    Attributes:
        rounds: repetitions of every write/wait/read pass.  ``1``
            reproduces today's single-pass behaviour byte for byte
            (no reseeding, no controls, no verdicts beyond
            ``probabilistic``-by-observation).
        early_definite: a cell that failed *every* repetition so far is
            declared definite after this many repetitions and its
            rounds stop being re-run (the sequential-test early exit).
        probabilistic_threshold: fraction of scored repetitions a cell
            must fail to be ``probabilistic`` rather than ``unstable``.
        controls: run solid-0/solid-1 control rounds each repetition to
            catch content-independent cells.  ``None`` (default) means
            "whenever ``rounds > 1``".
    """

    rounds: int = 1
    early_definite: int = 2
    probabilistic_threshold: float = 0.5
    controls: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.early_definite < 1:
            raise ValueError("early_definite must be at least 1")
        if not 0 < self.probabilistic_threshold <= 1:
            raise ValueError(
                "probabilistic_threshold must be in (0, 1]")

    @property
    def run_controls(self) -> bool:
        if self.controls is None:
            return self.rounds > 1
        return self.controls

    @property
    def is_legacy(self) -> bool:
        """Whether this policy is the byte-identical single-pass path."""
        return self.rounds == 1 and not self.run_controls

    def required_votes(self, scored):
        """Votes needed for a ``probabilistic`` verdict (elementwise)."""
        need = np.maximum(1, np.ceil(self.probabilistic_threshold
                                     * np.asarray(scored)))
        return need.astype(np.int64) if need.ndim else int(need)

    def definite_votes(self) -> int:
        """Repetitions a cell must sweep to be declared ``definite``."""
        return min(self.rounds, self.early_definite)


def classify(votes, scored, control, discovery_only,
             policy: RoundsPolicy, degraded: bool = False) -> np.ndarray:
    """The verdict rule of the module docstring: the :data:`VERDICTS`
    code of every cell, from parallel per-cell arrays.
    ``discovery_only`` cells have no sweep votes; ``degraded`` caps
    definite at probabilistic."""
    votes = np.asarray(votes, dtype=np.int64)
    scored = np.asarray(scored, dtype=np.int64)
    codes = np.where(votes >= policy.required_votes(scored), 1, 2)
    if not degraded:
        codes[(votes == scored) & (scored >= policy.definite_votes())] = 0
    codes[np.asarray(discovery_only, dtype=bool)] = 1
    codes[np.asarray(control, dtype=bool)] = 2
    return codes


@dataclass
class CellVerdicts:
    """Per-cell vote ledger and final classification.

    Attributes:
        rounds: the policy's repetition count.
        votes: repetitions each observed cell failed in.
        scored: repetitions each observed cell was scored in (scored
            stops early for cells decided ``definite``).
        control_failures: cells that failed any control round -
            content-independent, always ``unstable``.
        discovery_only: cells observed only by the discovery battery
            (no sweep votes); control-clean ones count as
            ``probabilistic`` (observed once), matching the legacy
            pipeline's inclusion of discovery failures.
        policy: the policy the votes were collected under.
        degraded: the measurement channel itself was untrusted (e.g.
            an unrecovered on-die ECC inference distorted every read).
            Degraded verdicts are capped at ``probabilistic``: a cell
            can never be ``definite`` through a lens that may lie.
    """

    rounds: int
    votes: Dict[Coord, int] = field(default_factory=dict)
    scored: Dict[Coord, int] = field(default_factory=dict)
    control_failures: Set[Coord] = field(default_factory=set)
    discovery_only: Set[Coord] = field(default_factory=set)
    policy: RoundsPolicy = field(default_factory=RoundsPolicy)
    degraded: bool = False

    def observed(self) -> Set[Coord]:
        """Every cell that failed anything at least once."""
        return (set(self.votes) | self.control_failures
                | self.discovery_only)

    def _classify(self, cells: List[Coord]) -> np.ndarray:
        """:func:`classify` of ``cells`` (observed ones) from the dicts."""
        return classify([self.votes.get(c, 0) for c in cells],
                        [self.scored.get(c, self.rounds) for c in cells],
                        [c in self.control_failures for c in cells],
                        [c not in self.votes for c in cells],
                        self.policy, self.degraded)

    def verdict(self, coord: Coord) -> Optional[str]:
        """The verdict for one cell (None if it was never observed)."""
        if coord not in self.observed():
            return None
        return VERDICTS[self._classify([coord])[0]]

    def _by_verdict(self, *wanted: str) -> Set[Coord]:
        cells = list(self.observed())
        return {c for c, code in zip(cells, self._classify(cells).tolist())
                if VERDICTS[code] in wanted}

    def definite(self) -> Set[Coord]:
        return self._by_verdict(DEFINITE)

    def probabilistic(self) -> Set[Coord]:
        return self._by_verdict(PROBABILISTIC)

    def unstable(self) -> Set[Coord]:
        return self._by_verdict(UNSTABLE)

    def detected(self) -> Set[Coord]:
        """Trusted detections: definite plus probabilistic cells."""
        return self._by_verdict(DEFINITE, PROBABILISTIC)

    def counts(self) -> Dict[str, int]:
        codes = self._classify(list(self.observed()))
        return dict(zip(VERDICTS, np.bincount(codes, minlength=3).tolist()))
