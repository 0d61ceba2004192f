"""The five-step PARBOR pipeline (paper Section 5.1).

1. Build an initial victim sample with a battery of data patterns.
2. Recursively test all victim rows in parallel, halving/subdividing
   regions until single-bit neighbour locations emerge.
3. Aggregate the distances found across victims (union).
4. Filter random failures (marginal victims, infrequent distances).
5. Sweep the whole chip with neighbour-aware patterns to uncover every
   data-dependent failure.

Steps 2-4 are interleaved per level inside
:func:`repro.core.recursion.recursive_neighbour_search`; this module
orchestrates the pipeline and runs the final sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import obs
from ..dram.chip import DramChip
from ..dram.controller import MemoryController, TestStats
from ..dram.module import DramModule
from .config import DEFAULT_CONFIG, ParborConfig
from .patterns import inverse
from .recursion import RecursionResult, recursive_neighbour_search
from .remap_recovery import RecoveryResult, recover_irregular_victims
from .scheduler import TestSchedule, build_schedule
from .victims import (CellKeys, VictimSample, _failure_histogram,
                      find_initial_victims)

__all__ = ["ParborResult", "run_parbor", "neighbour_aware_sweep",
           "controllers_for"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)


@dataclass
class ParborResult:
    """Outcome of a full PARBOR campaign against one module or chip.

    Attributes:
        distances: final signed neighbour distances.
        recursion: per-level recursion record (Table 1 / Figure 11).
        sample: the initial victim sample used.
        detected: coordinates of every cell the neighbour-aware sweep
            flagged as failing.
        n_discovery_tests / n_recursion_tests / n_sweep_rounds: test
            budget split, as itemised in Section 7.2 ("(i) recursive
            test ... (ii) neighbour-aware patterns ... (iii) initial
            tests").
        schedule: the sweep schedule (None when no distances found).
        recovery: per-victim aggressor maps for remapped-column
            victims (None unless requested; Section 7.3 extension).
        stats: merged per-chip I/O counters of the campaign's
            controllers (rows written/read, retention waits) - the
            record fleet runs aggregate across worker processes.
        verdicts: per-cell vote ledger
            (:class:`repro.robust.CellVerdicts`) when the campaign ran
            with a repeat-and-vote policy (``rounds > 1``); None on
            the legacy single-pass path.
        quarantine: unstable cells
            (:class:`repro.robust.QuarantineSet`); None on the legacy
            path.
    """

    distances: List[int]
    recursion: RecursionResult
    sample: VictimSample
    detected: Set[Coord] = field(default_factory=set)
    n_discovery_tests: int = 0
    n_recursion_tests: int = 0
    n_sweep_rounds: int = 0
    schedule: Optional[TestSchedule] = None
    recovery: Optional[RecoveryResult] = None
    stats: Optional[TestStats] = None
    verdicts: Optional[object] = None
    quarantine: Optional[object] = None

    @property
    def total_tests(self) -> int:
        """Total campaign budget in whole-chip test units."""
        extra = self.recovery.tests if self.recovery else 0
        return (self.n_discovery_tests + self.n_recursion_tests
                + self.n_sweep_rounds + extra)

    def magnitudes(self) -> List[int]:
        return sorted({abs(d) for d in self.distances})


def controllers_for(target: Union[DramModule, DramChip,
                                  Sequence[DramChip]]
                    ) -> List[MemoryController]:
    """Wrap a module / chip / chip list in per-chip controllers."""
    if isinstance(target, DramModule):
        chips: Iterable[DramChip] = target.chips
    elif isinstance(target, DramChip):
        chips = [target]
    else:
        chips = list(target)
    return [MemoryController(chip) for chip in chips]


def neighbour_aware_sweep(controllers: Sequence[MemoryController],
                          schedule: TestSchedule) -> Set[Coord]:
    """Run every scheduled round (and inverse) against every chip.

    Returns the union of failing coordinates - PARBOR's detected
    data-dependent failures.
    """
    coords, _counts = _failure_histogram(
        controllers, (polarity for pattern in schedule.patterns
                      for polarity in (pattern, inverse(pattern))))
    return set(coords)


def run_parbor(target: Union[DramModule, DramChip, Sequence[DramChip]],
               config: ParborConfig = DEFAULT_CONFIG,
               seed: int = 0,
               run_sweep: bool = True,
               recover_remapped: bool = False,
               rounds: Union[int, object] = 1) -> ParborResult:
    """Run the full PARBOR campaign.

    Args:
        target: a module, chip, or list of chips (same geometry).
        config: campaign configuration.
        seed: RNG seed for discovery patterns and sampling.
        run_sweep: skip step 5 when only the neighbour distances are
            needed (e.g. the Table 1 / Figure 11 experiments).
        recover_remapped: after the sweep, probe victims the sweep
            failed to flip with per-victim recursions to locate their
            irregular (remapped-column) aggressors - the Section 7.3
            extension. Their aggressor maps land in
            ``result.recovery`` and the victims join
            ``result.detected``.
        rounds: repeat-and-vote policy - an ``int`` repetition count
            or a full :class:`repro.robust.RoundsPolicy`.  The default
            (``1``) is the legacy single-pass path, byte-identical to
            previous behaviour; ``rounds > 1`` re-runs each sweep
            round (and failing recursion region tests) with
            seed-ladder reseeding, classifies every failure as
            definite / probabilistic / unstable, and fills
            ``result.verdicts`` / ``result.quarantine``.

    Returns:
        A :class:`ParborResult`.
    """
    from ..robust.verdicts import RoundsPolicy

    policy = (RoundsPolicy(rounds=rounds) if isinstance(rounds, int)
              else rounds)
    robust = not policy.is_legacy
    controllers = controllers_for(target)
    rng = np.random.default_rng(seed)

    with obs.span("discovery") as discovery_span:
        sample = find_initial_victims(controllers, config, rng)
        discovery_span.set(victims=len(sample),
                           tests=sample.n_discovery_tests,
                           observed_failures=len(sample.observed_failures))
    with obs.span("recursion") as recursion_span:
        recursion = recursive_neighbour_search(
            controllers, sample, config,
            policy=policy if robust else None, seed=seed)
        recursion_span.set(tests=recursion.total_tests,
                           distances=list(recursion.distances))

    result = ParborResult(
        distances=recursion.distances, recursion=recursion, sample=sample,
        n_discovery_tests=sample.n_discovery_tests,
        n_recursion_tests=recursion.total_tests)
    if robust:
        from ..robust.vote import VoteLedger, robust_sweep

        keys, ledger = CellKeys(controllers), VoteLedger(0)

    if run_sweep and recursion.distances:
        with obs.span("sweep") as sweep_span:
            schedule = build_schedule(controllers[0].row_bits,
                                      recursion.distances,
                                      scheme=config.scheduler)
            result.schedule = schedule
            if robust:
                sweep = robust_sweep(controllers, schedule, policy,
                                     seed=seed)
                result.n_sweep_rounds = (sweep.rounds_executed
                                         + sweep.control_rounds)
                result.detected, ledger = sweep.detected, sweep.ledger
            else:
                result.n_sweep_rounds = schedule.total_rounds
                result.detected = neighbour_aware_sweep(controllers,
                                                        schedule)
            sweep_span.set(scheme=schedule.scheme,
                           rounds=result.n_sweep_rounds,
                           detected=len(result.detected))
        if recover_remapped:
            with obs.span("recovery") as recovery_span:
                residual = [c for c in sample.coords()
                            if c not in result.detected]
                result.recovery = recover_irregular_victims(
                    controllers, residual, config)
                result.detected.update(result.recovery.recovered_coords())
                recovery_span.set(attempted=result.recovery.attempted,
                                  recovered=len(result.recovery),
                                  tests=result.recovery.tests)
        # Discovery-phase failures are part of the campaign's budget
        # and therefore of its detections.  Robust campaigns add them
        # (remap-recovered victims among them) to the ledger without
        # votes: probabilistic unless they failed a control round.
        if robust:
            ledger.locate(keys.encode_coords(sample.observed_failures))
        else:
            result.detected |= sample.observed_failures
    if robust:
        result.detected, result.quarantine, result.verdicts = (
            ledger.classify(keys, policy))
    # Drain ECC-recovery ambiguity: cells whose pre-correction state
    # the on-die ECC stage could not uniquely invert are surrendered
    # to quarantine - a definite verdict through an ambiguous lens
    # would be a guess.
    ambiguous_cells = 0
    for chip_idx, ctrl in enumerate(controllers):
        for bank_idx, bank in enumerate(ctrl.chip.banks):
            ecc = getattr(bank, "ecc", None)
            if ecc is None or not ecc.ambiguous:
                continue
            if result.quarantine is None:
                from ..robust.quarantine import QuarantineSet
                result.quarantine = QuarantineSet()
            p2s = bank.mapping.phys_to_sys()
            for row, phys in sorted(ecc.ambiguous):
                result.quarantine.add(
                    (chip_idx, bank_idx, int(row), int(p2s[phys])),
                    "ecc-ambiguous")
                ambiguous_cells += 1
    result.stats = TestStats.merge(c.stats for c in controllers)
    if obs.enabled():
        if ambiguous_cells:
            obs.inc("profile.ecc.quarantined", ambiguous_cells)
        obs.inc("tests.discovery", result.n_discovery_tests)
        obs.inc("tests.recursion", result.n_recursion_tests)
        obs.inc("tests.sweep", result.n_sweep_rounds)
        obs.inc("tests.total", result.total_tests)
        obs.inc("detected.failures", len(result.detected))
        if robust and result.quarantine is not None:
            obs.inc("profile.quarantined", len(result.quarantine))
    return result
