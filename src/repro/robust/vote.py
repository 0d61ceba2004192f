"""Repeat-and-vote execution of the neighbour-aware sweep.

The robust sweep re-runs every schedule round (pattern + inverse) up
to ``policy.rounds`` times.  Before each executed round the substrate
is *reseeded* from the SHA-256 seed ladder - the bank RNG, the
intrinsic fault model's coin stream **and its VRT state**, and any
injected device-noise coins - so a round's outcome is a pure function
of ``(seed, repetition, round)``:

* re-running round 3 cannot change round 5;
* a noisy device and a noise-free one draw identical data-dependent
  coins, so injected noise can only *add* observed failures;
* the adaptive early-exit (skipping rounds whose cells are all
  decided) cannot perturb the rounds that do run.

Votes are *attributed*: a cell's vote in repetition ``p`` counts only
on the rounds it failed in repetition 0 (or the round it was first
seen in).  Failures that injected noise adds to other rounds therefore
cannot inflate a cell's vote count past what the noise-free run
produces - the keystone of the definite-set invariant.

Each repetition also runs two *control rounds* (solid 0s / solid 1s):
no data-dependent mechanism can disturb a solid pattern, so any cell
failing a control is content-independent (weak, VRT, marginal, soft
error, injected noise) and is classified ``unstable`` regardless of
its votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..core.patterns import inverse, solid
from ..core.victims import CellKeys, whole_chip_failures
from ..dram.faults import COIN_TAG
from ..runtime.seeds import ladder_seed, seeded_stream, stream_words
from .quarantine import QuarantineSet
from .verdicts import (UNSTABLE, VERDICTS, CellVerdicts, RoundsPolicy,
                       classify)

__all__ = ["RobustSweepResult", "VoteLedger", "robust_sweep",
           "bank_reseeds", "reseed_bank", "reseed_banks"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)


@dataclass
class RobustSweepResult:
    """What the repeat-and-vote sweep produced.

    Attributes:
        detected: trusted detections (definite + probabilistic).
        verdicts: the full per-cell vote ledger.
        quarantine: the unstable cells, with reasons.
        rounds_executed: (repetition, round) pairs actually run -
            the adaptive early-exit makes this less than
            ``rounds * len(schedule)``.
        control_rounds: control rounds run.
        ledger: the classified vote ledger (cell keys, cell arrays).
    """

    detected: Set[Coord] = field(default_factory=set)
    verdicts: CellVerdicts = None
    quarantine: QuarantineSet = field(default_factory=QuarantineSet)
    rounds_executed: int = 0
    control_rounds: int = 0
    ledger: Optional[VoteLedger] = None


def reseed_bank(bank, seed: int, *path) -> None:
    """Reseed one bank's randomness from one seed-ladder path.

    Replaces the bank RNG and the intrinsic fault model's coin stream
    with a single fresh generator (preserving their shared-stream
    structure), reinitialises the fault model's VRT state from that
    stream, and reseeds any injected noise model's coins - making the
    bank's next retention read a pure function of ``(seed, *path)``.
    ``path`` ends with the bank's ``(chip_idx, bank_idx)``, so every
    bank draws its own stream and reseeding one bank never touches
    another.
    """
    bank_reseeds([bank], seed, [path])(0)


def bank_reseeds(banks: Sequence, seed: int, paths: Sequence[tuple]):
    """``reseed(i)``: :func:`reseed_bank` ``(banks[i], seed, *paths[i])``.

    The bank stream is ``default_rng(ladder_seed(seed, *path))``; a
    bank with a noise model also gets the coin stream
    ``default_rng([ladder_seed(seed, "noise", *path), COIN_TAG])``.
    Every stream's seeding words are derived up front in one
    :func:`~repro.runtime.seeds.stream_words` pass, and ``reseed(i)``
    only builds the generators, so a batch of waits derives its
    streams at once.
    """
    noisy = [i for i, bank in enumerate(banks) if bank.noise is not None]
    words = stream_words(
        [ladder_seed(seed, *p) for p in paths]
        + [ladder_seed(seed, "noise", *paths[i]) for i in noisy],
        [0] * len(paths) + [COIN_TAG] * len(noisy))
    coin_words = dict(zip(noisy, words[len(paths):]))

    def reseed(i: int) -> None:
        bank = banks[i]
        g = seeded_stream(words[i])
        bank._rng = g
        faults = bank.faults
        faults._rng = g
        if len(faults.vrt_leaky):
            faults.vrt_leaky = (g.random(len(faults.vrt_leaky))
                                < faults.spec.vrt_leaky_start_fraction)
        if bank.noise is not None:
            bank.noise.reseed_coins(seeded_stream(coin_words[i]))

    return reseed


def reseed_banks(controllers: Sequence, seed: int, *path) -> None:
    """:func:`reseed_bank` every bank of every chip from one path."""
    where = [(chip_idx, bank_idx, bank)
             for chip_idx, ctrl in enumerate(controllers)
             for bank_idx, bank in enumerate(ctrl.chip.banks)]
    reseed = bank_reseeds([bank for _, _, bank in where], seed,
                          [(*path, c, b) for c, b, _ in where])
    for i in range(len(where)):
        reseed(i)


class VoteLedger:
    """The repeat-and-vote ledger as arrays over sorted cell keys.

    One entry per observed cell (a :class:`~repro.core.victims.CellKeys`
    key, ascending): ``tracked`` marks cells with sweep votes (the
    :attr:`CellVerdicts.votes` keys), ``attr`` is the ``(n_cells,
    n_rounds)`` mask of schedule rounds a cell's votes count on,
    ``decided`` marks cells whose verdict can no longer change and
    ``control`` cells that failed a control round.  A cell neither
    tracked nor control-failed is discovery-only.
    """

    def __init__(self, n_rounds: int) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.attr = np.zeros((0, n_rounds), dtype=bool)
        self.votes = np.zeros(0, dtype=np.int64)
        self.scored = np.zeros(0, dtype=np.int64)
        self.tracked = np.zeros(0, dtype=bool)
        self.decided = np.zeros(0, dtype=bool)
        self.control = np.zeros(0, dtype=bool)

    _ARRAYS = ("attr", "votes", "scored", "tracked", "decided", "control")

    def locate(self, cells: np.ndarray) -> np.ndarray:
        """Ledger index of every cell, adding the cells not yet seen."""
        n = len(self.keys)
        keys, at = np.unique(np.concatenate([self.keys, cells]),
                             return_inverse=True)
        if len(keys) != n:
            for name in self._ARRAYS:
                old = getattr(self, name)
                grown = np.zeros((len(keys),) + old.shape[1:],
                                 dtype=old.dtype)
                grown[at[:n]] = old
                setattr(self, name, grown)
            self.keys = keys
        return at[n:]

    def score(self, rep: int, failed: np.ndarray, control: np.ndarray,
              executed: np.ndarray, policy: RoundsPolicy) -> None:
        """Score one repetition.

        ``failed`` is the ``(n_cells, n_rounds)`` mask of executed
        rounds each cell failed this repetition and ``control`` the
        cells that failed one of its control rounds.  A cell votes iff
        it failed one of its attributed rounds.  Cells first seen this
        repetition are attributed the rounds they failed in (rep 0) or
        the first of them (later repetitions; such cells missed rep 0
        and can never reach a definite verdict).
        """
        new = failed.any(axis=1) & ~self.tracked
        if rep == 0:
            self.attr[new] = failed[new]
        else:
            new_idx = np.flatnonzero(new)
            self.attr[new_idx, failed[new_idx].argmax(axis=1)] = True
        self.scored[new] = rep
        self.tracked |= new
        voted = (failed & self.attr).any(axis=1)
        self.control |= control
        live = self.tracked & ~self.decided
        self.decided |= live & self.control  # unstable whatever it votes
        # Scored: live, control-clean, with an attributed round run.
        live &= ~self.control & self.attr[:, executed].any(axis=1)
        self.scored[live] += 1
        self.votes[live & voted] += 1
        # An undecided cell is scored every remaining repetition, so
        # (scored + remaining) is its exact final denominator;
        # threshold monotonicity makes the two bounds sound for every
        # intermediate stop too.
        remaining = policy.rounds - 1 - rep
        need = policy.required_votes(self.scored + remaining)
        swept = self.votes == self.scored
        self.decided |= live & np.where(
            swept, self.scored >= policy.definite_votes(),
            (self.votes + remaining < need) | (self.votes >= need))

    def classify(self, keys: CellKeys, policy: RoundsPolicy
                 ) -> Tuple[Set[Coord], QuarantineSet, CellVerdicts]:
        """Classify every cell once: the trusted detections, the
        quarantine of the rest and the public :class:`CellVerdicts`."""
        coords = keys.decode(self.keys)
        discovery = ~self.tracked & ~self.control
        unstable = classify(self.votes, self.scored, self.control, discovery,
                            policy) == VERDICTS.index(UNSTABLE)
        swept = list(compress(coords, self.tracked.tolist()))
        verdicts = CellVerdicts(
            rounds=policy.rounds, policy=policy,
            votes=dict(zip(swept, self.votes[self.tracked].tolist())),
            scored=dict(zip(swept, self.scored[self.tracked].tolist())),
            control_failures=set(compress(coords, self.control.tolist())),
            discovery_only=set(compress(coords, discovery.tolist())))
        quarantine = QuarantineSet(dict(zip(
            compress(coords, unstable.tolist()),
            np.where(self.control[unstable], "control-failure",
                     "inconsistent-votes").tolist())))
        return (set(compress(coords, (~unstable).tolist())), quarantine,
                verdicts)

    def undecided_rounds(self) -> np.ndarray:
        """Rounds attributed to a tracked, undecided cell (ascending)."""
        return np.flatnonzero(
            self.attr[self.tracked & ~self.decided].any(axis=0))


def robust_sweep(controllers: Sequence, schedule,
                 policy: RoundsPolicy, seed: int = 0
                 ) -> RobustSweepResult:
    """Run the neighbour-aware sweep with repeat-and-vote verdicts.

    Each repetition runs its executed rounds and its control rounds
    as one batch of whole-chip tests
    (:func:`~repro.core.victims.whole_chip_failures`), every test
    reseeding its bank from the ladder just before it draws, and is
    scored on the array ledger, which is classified once at the end.

    Args:
        controllers: one memory controller per chip.
        schedule: the :class:`~repro.core.scheduler.TestSchedule`.
        policy: repetition/vote policy (``rounds >= 1``).
        seed: the campaign's run seed (root of the reseeding ladder).

    Returns:
        A :class:`RobustSweepResult`.
    """
    row_bits = controllers[0].row_bits
    # Round r = 2 * pattern + polarity: the pattern, then its inverse.
    polarities = np.array([polarity for pattern in schedule.patterns
                           for polarity in (pattern, inverse(pattern))],
                          dtype=np.uint8).reshape(-1, row_bits)
    controls = np.stack([solid(row_bits, 0), solid(row_bits, 1)])
    keys = CellKeys(controllers)
    ledger = VoteLedger(len(polarities))
    result = RobustSweepResult()

    banks = {(chip_idx, bank_idx): bank
             for chip_idx, ctrl in enumerate(controllers)
             for bank_idx, bank in enumerate(ctrl.chip.banks)}
    executed = np.arange(len(polarities))
    for rep in range(policy.rounds):
        if rep:
            executed = ledger.undecided_rounds()
            if not len(executed):
                break  # every observed cell is decided
        paths = [("robust.sweep", rep, int(r)) for r in executed]
        patterns = [polarities[executed]]
        if policy.run_controls:
            paths += [("robust.control", rep, value) for value in (0, 1)]
            patterns.append(controls)
        patterns = np.concatenate(patterns)
        result.rounds_executed += len(executed)
        result.control_rounds += len(patterns) - len(executed)
        if not len(patterns):
            continue
        # Every (bank, test) stream of the repetition in one batch.
        first = {where: i * len(paths) for i, where in enumerate(banks)}
        reseed_at = bank_reseeds(
            [bank for bank in banks.values() for _ in paths], seed,
            [(*p, *where) for where in banks for p in paths])

        def reseed(chip_idx: int, bank_idx: int, t: int) -> None:
            reseed_at(first[chip_idx, bank_idx] + t)

        tests, cells = whole_chip_failures(controllers, patterns, keys,
                                           reseed)
        at = ledger.locate(cells)
        swept = tests < len(executed)
        failed = np.zeros(ledger.attr.shape, dtype=bool)
        failed[at[swept], executed[tests[swept]]] = True
        control = np.zeros(len(ledger.keys), dtype=bool)
        control[at[~swept]] = True
        ledger.score(rep, failed, control, executed, policy)

    result.ledger = ledger
    result.detected, result.quarantine, result.verdicts = ledger.classify(
        keys, policy)
    if obs.enabled():
        obs.inc("profile.rounds", result.rounds_executed)
        obs.inc("profile.control_rounds", result.control_rounds)
    return result
