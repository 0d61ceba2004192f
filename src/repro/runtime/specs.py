"""Picklable campaign specifications for fleet execution.

A :class:`CampaignSpec` captures everything needed to rebuild and run
one campaign target - vendor, seeds, geometry, configuration - as a
small frozen value object.  Worker processes receive the *spec*, not
the simulated chip: each worker reconstructs its chip from the spec's
seeds, so the bytes shipped across the process boundary stay tiny and
the outcome is a pure function of the spec.

The two experiment kinds mirror the serial drivers exactly:

* ``"characterize"`` - one chip, :func:`repro.core.detector.run_parbor`
  (the ``repro characterize`` / Table 1 / Figure 11 path);
* ``"compare"`` - one module, PARBOR vs. the equal-budget random test
  (the ``repro compare`` / ``repro fleet`` / Figure 12/13 path).

``spec.run()`` in a worker produces byte-identical results to calling
the serial driver with the same seeds in the parent process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from .. import obs
from ..core.config import ParborConfig
from ..core.detector import ParborResult
from ..dram.controller import TestStats
from .chaos import FaultPlan
from .seeds import ladder_seed

__all__ = ["CampaignSpec", "CampaignOutcome"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)

EXPERIMENTS = ("characterize", "compare")


@dataclass
class CampaignOutcome:
    """What one campaign target produced.

    Attributes:
        spec: the spec that produced this outcome.
        distances: final signed neighbour distances.
        detected: coordinates flagged by the campaign (empty when the
            sweep was skipped).
        total_tests: the campaign's whole-chip test budget.
        tests_per_level: recursion tests per level (Table 1 row).
        stats: the campaign's merged I/O counters.
        comparison: PARBOR vs. random comparison ("compare" only).
        result: the full :class:`ParborResult` for downstream
            reporting (levels, schedule, sample).
        trace_records: span/event records collected by a worker-side
            observability session (only when ``spec.trace`` and the
            campaign ran outside an already-active session).
        metrics: the worker-side metrics registry, merged fleet-wide
            by :func:`repro.runtime.fleet.run_fleet` exactly like
            :meth:`TestStats.merge` merges the I/O counters.
        quarantine: unstable cells
            (:class:`repro.robust.QuarantineSet`) when the campaign
            ran with ``rounds > 1``; None on the legacy path.
    """

    spec: "CampaignSpec"
    distances: List[int]
    detected: Set[Coord]
    total_tests: int
    tests_per_level: List[int]
    stats: TestStats
    comparison: Optional[object] = None
    result: Optional[ParborResult] = None
    trace_records: Optional[List[Dict[str, Any]]] = None
    metrics: Optional["obs.MetricsRegistry"] = None
    quarantine: Optional[object] = None

    def signature(self) -> Tuple:
        """A comparable digest of the result-bearing fields.

        Two outcomes are equivalent iff their signatures are equal;
        the parallel-equivalence tests compare these across ``jobs``
        settings.  The quarantine joins the signature only when the
        campaign produced one, so legacy signatures (and the
        checkpoints storing them) are unchanged.
        """
        base = (self.spec.label(), tuple(self.distances),
                self.total_tests, tuple(self.tests_per_level),
                tuple(sorted(self.detected)))
        if self.quarantine is not None:
            base += (self.quarantine.signature(),)
        return base


@dataclass(frozen=True)
class CampaignSpec:
    """One rebuildable campaign target.

    Attributes:
        experiment: ``"characterize"`` (single chip, neighbour search)
            or ``"compare"`` (module, PARBOR vs. random).
        vendor: vendor letter "A" | "B" | "C".
        index: module index (used by "compare"; cosmetic otherwise).
        build_seed: seed that manufactures the chip/module.
        run_seed: seed of the campaign itself.
        n_rows: rows per simulated bank.
        sample_size: victim sample size when ``config`` is None
            ("characterize" only; "compare" uses the driver default).
        run_sweep: run the final neighbour-aware sweep
            ("characterize" only; "compare" always sweeps).
        rounds: repeat-and-vote repetitions per test round (see
            :class:`repro.robust.RoundsPolicy`).  The default ``1``
            is the legacy single-pass path and leaves checkpoint keys
            and outcome signatures byte-identical to earlier releases.
        config: full configuration override (wins over sample_size).
        trace: collect an observability trace for this target.  Inside
            a worker process this opens a fresh session and ships the
            records/metrics back on the outcome; in-process it joins
            the caller's active session.  Results are bit-identical
            either way.
        faults: the injected faults (:class:`repro.runtime.chaos.
            FaultPlan`); the default empty plan runs clean.  Its
            process faults fire in :meth:`run` and never join the
            identity; its device noise is attached to the rebuilt
            chips and joins the checkpoint key.
    """

    experiment: str
    vendor: str
    index: int = 1
    build_seed: int = 0
    run_seed: int = 0
    n_rows: int = 128
    sample_size: int = 2000
    run_sweep: bool = True
    rounds: int = 1
    config: Optional[ParborConfig] = field(default=None, compare=False)
    trace: bool = field(default=False, compare=False)
    faults: FaultPlan = FaultPlan()

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"expected one of {EXPERIMENTS}")

    def label(self) -> str:
        return f"{self.experiment}:{self.vendor}{self.index}"

    def checkpoint_key(self) -> str:
        """Deterministic signature keying this spec in a checkpoint.

        Hashes every result-affecting field through the seed ladder's
        canonical encoding (plus the ``config`` override's repr, which
        is deterministic for the frozen config dataclass), so two
        specs share a key iff they are guaranteed to produce the same
        outcome.  Cosmetic fields (``trace``) are excluded.
        """
        parts: List[Any] = ["checkpoint", self.experiment, self.vendor,
                            self.index, self.run_seed, self.n_rows,
                            self.sample_size, int(self.run_sweep)]
        if self.config is not None:
            parts.append(repr(self.config))
        # Robust-profiling fields join the key only when they diverge
        # from the legacy defaults, so existing checkpoints stay valid.
        if self.rounds != 1:
            parts.extend(["rounds", self.rounds])
        parts.extend(self._identity_extras())
        digest = ladder_seed(self.build_seed, *parts)
        return f"{self.label()}#{digest:016x}"

    def _identity_extras(self) -> Tuple:
        """Extra result-affecting identity parts (subclass hook).

        The base spec contributes its fault plan's device noise;
        subclasses that change what a campaign *measures* (not how it
        is scheduled) - e.g. :class:`repro.ecc.EccCampaignSpec` - add
        their own parts so their checkpoint keys never collide with
        the clean spec's.
        """
        return self.faults.identity()

    def _prepare_chips(self, chips: List) -> None:
        """Post-build hook over the freshly manufactured chips.

        Called once per run, after the chip/module is rebuilt from the
        spec's seeds and before the campaign starts.  The base spec
        attaches its fault plan's seeded device-noise models;
        subclasses extend it (calling ``super()``).
        """
        self.faults.attach_noise(chips)

    def with_faults(self, **changes: Any) -> "CampaignSpec":
        """This spec with ``changes`` merged into its fault plan."""
        return replace(self, faults=replace(self.faults, **changes))

    def trace_id(self) -> str:
        """Stable trace identity: the seed-ladder path of this target.

        The ID hashes the same identity components the seed ladder
        uses (experiment, vendor, index, seeds), so the same target
        traced in any process / on any machine / at any ``--jobs``
        value carries the same trace ID.
        """
        digest = ladder_seed(self.build_seed, "trace", self.experiment,
                             self.vendor, self.index, self.run_seed)
        return f"{self.label()}#{digest:016x}"

    def run(self) -> CampaignOutcome:
        """Rebuild the target from seeds and run its campaign.

        Fires the fault plan's process fault for this attempt first.
        Imports the drivers lazily so that unpickling a spec in a
        worker never races module initialisation, and so that
        ``repro.analysis`` can itself import this package.
        """
        fault = ""
        if self.faults.chaos_dir:
            fault = self.faults.fire(self.checkpoint_key())
        if self.trace and not obs.enabled():
            # Worker-side (or standalone) tracing: open a session for
            # this one target and ship the records back picklably.
            with obs.session(self.trace_id(),
                             label=self.label()) as sess:
                outcome = self._run_instrumented()
            outcome.trace_records = sess.export_records()
            outcome.metrics = sess.metrics
        elif obs.enabled():
            outcome = self._run_instrumented()
        else:
            outcome = self._dispatch()
        if fault == "corrupt":
            # A silently wrong result: plausible shape, different
            # signature.  Only checkpoint verification can catch it.
            outcome.distances = list(outcome.distances) + [9999]
        return outcome

    def _dispatch(self) -> CampaignOutcome:
        if self.experiment == "characterize":
            return self._run_characterize()
        return self._run_compare()

    def _run_instrumented(self) -> CampaignOutcome:
        """Run under the active session, inside a ``campaign`` span."""
        with obs.span("campaign", label=self.label(),
                      experiment=self.experiment, vendor=self.vendor,
                      index=self.index, build_seed=self.build_seed,
                      run_seed=self.run_seed,
                      n_rows=self.n_rows) as campaign_span:
            outcome = self._dispatch()
            campaign_span.set(total_tests=outcome.total_tests,
                              detected=len(outcome.detected),
                              distances=list(outcome.distances))
        obs.inc("campaigns")
        obs.inc(f"campaigns.vendor[{self.vendor}]")
        if outcome.stats is not None:
            obs.inc("io.tests", outcome.stats.tests)
            obs.inc("io.rows_written", outcome.stats.rows_written)
            obs.inc("io.rows_read", outcome.stats.rows_read)
            obs.inc("io.retention_waits", outcome.stats.retention_waits)
        return outcome

    def _run_characterize(self) -> CampaignOutcome:
        from ..core.detector import run_parbor
        from ..dram.vendors import vendor

        profile = vendor(self.vendor)
        chip = profile.make_chip(seed=self.build_seed, n_rows=self.n_rows)
        self._prepare_chips([chip])
        cfg = self.config or ParborConfig(sample_size=self.sample_size)
        result = run_parbor(chip, cfg, seed=self.run_seed,
                            run_sweep=self.run_sweep, rounds=self.rounds)
        return CampaignOutcome(
            spec=self, distances=list(result.distances),
            detected=set(result.detected),
            total_tests=result.total_tests,
            tests_per_level=list(result.recursion.tests_per_level),
            stats=result.stats, result=result,
            quarantine=result.quarantine)

    def _run_compare(self) -> CampaignOutcome:
        from ..analysis.experiments import compare_module
        from ..dram.vendors import make_module

        module = make_module(self.vendor, self.index,
                             seed=self.build_seed, n_rows=self.n_rows)
        self._prepare_chips(list(module.chips))
        comparison, result = compare_module(module, seed=self.run_seed,
                                            config=self.config,
                                            rounds=self.rounds)
        return CampaignOutcome(
            spec=self, distances=list(result.distances),
            detected=set(result.detected),
            total_tests=result.total_tests,
            tests_per_level=list(result.recursion.tests_per_level),
            stats=result.stats, comparison=comparison, result=result,
            quarantine=result.quarantine)
