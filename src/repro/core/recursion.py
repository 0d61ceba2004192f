"""Parallel recursive neighbour-location testing (paper Section 5.2.3).

The row is divided into progressively smaller regions (8192 -> 4096 ->
512 -> 64 -> 8 -> 1 with the paper's fan-outs). At each level, for
every *candidate distance* surviving the previous level's ranking and
for every subregion, one logical test runs: every active victim's
corresponding subregion is written with the value opposite to the
victim, everything else with the victim's value, so only that subregion
can disturb the victim. All victims - across rows, banks, and chips -
are tested *simultaneously*, which is why the test count per level is
``|candidate distances| * fanout`` regardless of sample size (Table 1).

Each logical test is executed as a pattern/inverse pair so victims in
both true-cell and anti-cell rows are exercised (paper footnote 3);
Table-1 accounting counts the pair as one test.

Region positions are tracked as *distances* from the victim's own
region (Section 5.2.2): regularity of the scrambler makes these
distances common across victims, so the union over the sample locates
the neighbours of every cell in the chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..dram.controller import MemoryController
from .config import ParborConfig
from .ranking import RankingOutcome, rank_distances
from .victims import VictimSample

__all__ = ["LevelResult", "RecursionResult", "recursive_neighbour_search"]


@dataclass
class LevelResult:
    """Everything observed at one recursion level.

    Attributes:
        level: 1-based level index.
        region_size: bits per region at this level.
        candidate_distances: parent-granularity distances tested.
        tests: logical tests executed at this level.
        reporters: distance -> number of victims reporting it, *before*
            ranking (this is Figure 14's histogram at level 4).
        kept_distances: distances surviving the ranking filter.
        discarded_marginal: victims dropped by the marginal filter.
        active_victims: victims still in the sample after this level.
    """

    level: int
    region_size: int
    candidate_distances: List[int]
    tests: int
    reporters: Dict[int, int]
    kept_distances: List[int]
    discarded_marginal: int
    active_victims: int


@dataclass
class RecursionResult:
    """Output of the recursive search.

    Attributes:
        levels: per-level records.
        distances: final signed neighbour distances in the system
            address space (region size 1).
        total_tests: sum of logical tests over all levels.
    """

    levels: List[LevelResult] = field(default_factory=list)
    distances: List[int] = field(default_factory=list)
    total_tests: int = 0

    @property
    def tests_per_level(self) -> List[int]:
        return [lv.tests for lv in self.levels]

    def magnitudes(self) -> List[int]:
        return sorted({abs(d) for d in self.distances})


class _RowGroup:
    """Victims of one (chip, bank) pair, grouped by row for batch I/O."""

    def __init__(self, victim_idx: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> None:
        self.unique_rows, row_pos = np.unique(rows, return_inverse=True)
        self.victim_idx = victim_idx    # indices into the global sample
        self.row_pos = row_pos          # victim -> index into unique_rows
        self.cols = cols

    def __len__(self) -> int:
        return len(self.victim_idx)


def _group_victims(sample: VictimSample, active: np.ndarray
                   ) -> Dict[Tuple[int, int], _RowGroup]:
    groups: Dict[Tuple[int, int], _RowGroup] = {}
    idx = np.flatnonzero(active)
    keys = list(zip(sample.chip[idx].tolist(), sample.bank[idx].tolist()))
    order: Dict[Tuple[int, int], List[int]] = {}
    for i, key in zip(idx.tolist(), keys):
        order.setdefault(key, []).append(i)
    for key, members in order.items():
        members_arr = np.asarray(members, dtype=np.int64)
        groups[key] = _RowGroup(victim_idx=members_arr,
                                rows=sample.row[members_arr],
                                cols=sample.col[members_arr])
    return groups


def _run_region_tests(controllers: Sequence[MemoryController],
                      groups: Dict[Tuple[int, int], _RowGroup],
                      tests: Sequence[Tuple[np.ndarray, np.ndarray]],
                      region_size: int, revote: bool = False
                      ) -> np.ndarray:
    """Execute logical tests; return per-test, per-victim failure masks.

    One :meth:`MemoryController.test_regions` kernel per (chip, bank)
    runs every test that covers at least one of the bank's victims -
    a bank a test does not cover sees no write, wait or RNG draw for
    it.  Tests only write rows and never read each other's results,
    and banks have independent RNG streams, so running a level bank
    by bank is the same experiment as running it test by test.

    Args:
        controllers: one per chip.
        groups: victims grouped by (chip, bank).
        tests: ``(sub_abs, covered)`` per logical test - the
            per-victim absolute subregion index (global sample
            indexing; only entries where ``covered`` is True matter)
            and the mask of victims whose candidate region falls
            inside the row.
        region_size: bits per subregion at this level.
        revote: the tests run on a fresh reseeded re-vote stream, so
            the coupled-cell evaluation may be restricted to the
            tested rows (a large saving when re-voting a handful of
            victims).
    """
    sub_abs = np.stack([t[0] for t in tests])
    covered = np.stack([t[1] for t in tests])
    failed = np.zeros(covered.shape, dtype=bool)
    for (chip_idx, bank_idx), group in groups.items():
        vi = group.victim_idx
        use = covered[:, vi]
        run = np.flatnonzero(use.any(axis=1))
        if not len(run):
            continue
        # Every covered victim's subregion is flipped in its own row,
        # victim bits held at the opposite value; only the victim
        # cells are verified.
        starts = np.where(use[run], sub_abs[run][:, vi] * region_size, -1)
        failed[run[:, None], vi] = controllers[chip_idx].test_regions(
            bank_idx, group.unique_rows, (group.row_pos, group.cols),
            starts, region_size, coupled_rows_only=revote)
    return failed


def _filter_groups(groups: Dict[Tuple[int, int], _RowGroup],
                   keep: np.ndarray
                   ) -> Dict[Tuple[int, int], _RowGroup]:
    """Restrict row groups to the victims selected by ``keep``.

    Row retention tests are independent and the coupling mechanism is
    intra-row, so re-testing only the kept victims' rows reproduces
    their test conditions exactly.
    """
    out: Dict[Tuple[int, int], _RowGroup] = {}
    for key, group in groups.items():
        sel = keep[group.victim_idx]
        if not sel.any():
            continue
        out[key] = _RowGroup(
            victim_idx=group.victim_idx[sel],
            rows=group.unique_rows[group.row_pos[sel]],
            cols=group.cols[sel])
    return out


def _revote_region(controllers: Sequence[MemoryController],
                   groups: Dict[Tuple[int, int], _RowGroup],
                   sub_abs: np.ndarray, covered: np.ndarray,
                   region_size: int, candidates: np.ndarray, policy,
                   seed: int,
                   path: Tuple[int, ...]) -> np.ndarray:
    """Re-vote selected failure observations of one region test.

    The initial pass consumed the bank's sequential RNG stream exactly
    as the single-pass recursion would; the re-votes run on fresh
    seed-ladder streams and the sequential stream (plus the fault
    model's VRT state and any injected-noise coins) is restored
    afterwards, so the surrounding recursion is byte-identical to a
    ``rounds=1`` run except where the vote changes a verdict.

    The vote is a *sequential* best-of-three majority, capped at three
    executions regardless of ``policy.rounds``: the recursion only
    needs soft-error rejection (a one-off flip will not repeat on a
    fresh seeded stream), so a failure is kept once it is observed
    twice, dropped once two fresh runs miss it, and the loop stops as
    soon as every candidate is decided.  Only victims that failed the
    initial pass can be candidates - exactly the sweep's
    vote-attribution rule, so injected noise in a re-vote can never
    forge a reporter that the initial pass did not see.  Each re-vote
    re-tests only the undecided candidates' rows
    (:func:`_filter_groups`) and evaluates only those rows' coupled
    cells, so its cost scales with the observations under vote, not
    the sample size.  Deeper ``rounds`` policies buy statistical depth
    in the sweep, where per-cell verdicts live, not here.

    Returns the per-victim mask of candidates whose failure was
    *upheld* by the vote.
    """
    from ..robust.vote import reseed_bank

    touched = {key for key, group in groups.items()
               if candidates[group.victim_idx].any()}
    saved = []
    for chip_idx, bank_idx in touched:
        bank = controllers[chip_idx].chip.banks[bank_idx]
        noise_rng = (bank.noise._coin_rng
                     if bank.noise is not None else None)
        saved.append((bank, bank._rng, bank.faults.vrt_leaky.copy(),
                      noise_rng))
    counts = candidates.astype(np.int64)
    reps = min(policy.rounds, 3)
    need = reps // 2 + 1
    for rep in range(1, reps):
        remaining = reps - rep
        undecided = (candidates & (counts < need)
                     & (counts + remaining >= need))
        if not undecided.any():
            break
        sub_groups = _filter_groups(groups, undecided)
        for chip_idx, bank_idx in sub_groups:
            reseed_bank(controllers[chip_idx].chip.banks[bank_idx], seed,
                        "robust.recursion", *path, rep, chip_idx, bank_idx)
        again = _run_region_tests(controllers, sub_groups,
                                  [(sub_abs, covered)], region_size,
                                  revote=True)[0]
        counts += (again & undecided)
    for bank, rng, leaky, noise_rng in saved:
        bank._rng = rng
        bank.faults._rng = rng
        bank.faults.vrt_leaky = leaky
        if noise_rng is not None:
            bank.noise._coin_rng = noise_rng
    return counts >= need


#: Reporters a child distance needs within a level before its
#: observations are accepted without a re-vote.  Soft errors strike
#: independent random cells, so three victims reporting the *same*
#: distance cannot plausibly be coincident one-off flips - the crowd
#: corroborates them, exactly the statistic the ranking filter trusts.
#: Distances below the floor are re-voted victim by victim.
CORROBORATION_FLOOR = 3


def _revote_uncorroborated(controllers: Sequence[MemoryController],
                           groups: Dict[Tuple[int, int], _RowGroup],
                           region_size: int, pending,
                           v_region: np.ndarray, policy, seed: int
                           ) -> None:
    """Re-vote the uncorroborated failures of one recursion level.

    ``pending`` holds every executed region test of the level as
    ``(sub_abs, covered, failed, path)``; the ``failed`` masks are
    updated in place.  A failure observation is *suspicious* - and
    gets the :func:`_revote_region` treatment - only when the child
    distance it reports has fewer than :data:`CORROBORATION_FLOOR`
    reporters across the level.  Crowd-corroborated observations are
    accepted as-is, which is what keeps the repeat-and-vote recursion
    within a constant factor of the single-pass one: the overwhelming
    majority of failures report the true distances, and those have
    hundreds of reporters.
    """
    if not pending:
        return
    # Per test and victim: the child distance a failure reports, and
    # whether fewer than CORROBORATION_FLOOR failures level-wide
    # report it.
    dist = np.stack([sub_abs for sub_abs, *_ in pending]) - v_region
    observed = np.stack([failed & covered
                         for _s, covered, failed, _p in pending])
    reported, reporters = np.unique(dist[observed], return_counts=True)
    crowd = reported[reporters >= CORROBORATION_FLOOR]
    suspicious_tests = observed & ~np.isin(dist, crowd)
    for (sub_abs, covered, failed, path), suspicious in zip(
            pending, suspicious_tests):
        if not suspicious.any():
            continue
        upheld = _revote_region(controllers, groups, sub_abs, covered,
                                region_size, suspicious, policy, seed,
                                path)
        failed &= ~suspicious
        failed |= upheld


def recursive_neighbour_search(controllers: Sequence[MemoryController],
                               sample: VictimSample,
                               config: ParborConfig,
                               policy=None, seed: int = 0
                               ) -> RecursionResult:
    """Run the full multi-level recursion over a victim sample.

    Args:
        controllers: one memory controller per chip; all victims'
            ``chip`` indices must address this list.
        sample: initial victim sample from discovery.
        config: campaign configuration.
        policy: optional :class:`repro.robust.RoundsPolicy`; with
            ``rounds > 1`` every *uncorroborated* failure observation
            is re-voted on fresh seed-ladder streams (sequential
            best-of-three, early-exiting - see
            :func:`_revote_uncorroborated` and
            :func:`_revote_region`).
        seed: root seed of the re-vote ladder (the campaign run seed).

    Returns:
        A :class:`RecursionResult`; ``result.distances`` is the union
        of neighbour distances PARBOR would use for the whole chip.
    """
    if not controllers:
        raise ValueError("need at least one controller")
    row_bits = controllers[0].row_bits
    sizes = config.sizes_for(row_bits)
    result = RecursionResult()
    if len(sample) == 0:
        return result

    active = np.ones(len(sample), dtype=bool)
    candidate_dists: List[int] = [0]
    prev_size = row_bits

    for li, size in enumerate(sizes):
        with obs.span("recursion.level", level=li + 1,
                      region_size=size) as level_span:
            fan = prev_size // size
            n_regions = row_bits // size
            groups = _group_victims(sample, active)

            found: List[Set[int]] = [set() for _ in range(len(sample))]
            tested = np.zeros(len(sample), dtype=np.int64)
            v_prev_region = sample.col // prev_size
            v_region = sample.col // size
            tests = 0

            run: List[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]] = []
            for d in candidate_dists:
                parent = v_prev_region + d
                in_range = (parent >= 0) & (parent < row_bits // prev_size)
                for j in range(fan):
                    sub_abs = parent * fan + j
                    covered = active & in_range & (sub_abs >= 0) \
                        & (sub_abs < n_regions)
                    # The size-1 "region" that is the victim itself cannot
                    # be tested against it.
                    if size == 1:
                        covered &= sub_abs != sample.col
                    tests += 1
                    if not covered.any():
                        continue
                    tested[covered] += 1
                    run.append((sub_abs, covered, (li, d, j)))
            # The whole level runs as one kernel call per bank.
            pending: List[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                Tuple[int, ...]]] = []
            if run:
                failed = _run_region_tests(
                    controllers, groups, [t[:2] for t in run], size)
                pending = [(sub_abs, covered, fail, path) for
                           (sub_abs, covered, path), fail in zip(run, failed)]

            if policy is not None and policy.rounds > 1:
                _revote_uncorroborated(controllers, groups, size,
                                       pending, v_region, policy, seed)
            for sub_abs, covered, failed, _path in pending:
                for v in np.flatnonzero(failed & covered).tolist():
                    found[v].add(int(sub_abs[v] - v_region[v]))

            # Marginal filter (Section 5.2.4, first filter): a victim
            # failing in most tested regions is noise, not data dependence.
            # Failing in *every* tested region - even the two level-1
            # halves - marks a content-independent cell (weak cell, leaky
            # VRT) regardless of how few regions were tested, because a
            # real victim's neighbours cannot be everywhere at once.
            marginal = np.zeros(len(sample), dtype=bool)
            for v in np.flatnonzero(active).tolist():
                if tested[v] >= 2 and len(found[v]) == tested[v]:
                    marginal[v] = True
                elif tested[v] >= 4 and (len(found[v])
                                         > config.marginal_region_fraction
                                         * tested[v]):
                    marginal[v] = True
            active &= ~marginal

            reporters: Dict[int, int] = {}
            for v in np.flatnonzero(active).tolist():
                for dist in found[v]:
                    reporters[dist] = reporters.get(dist, 0) + 1
            outcome: RankingOutcome = rank_distances(
                reporters, n_active=int(active.sum()),
                threshold=config.ranking_threshold)

            result.levels.append(LevelResult(
                level=li + 1, region_size=size,
                candidate_distances=list(candidate_dists), tests=tests,
                reporters=reporters, kept_distances=outcome.kept,
                discarded_marginal=int(marginal.sum()),
                active_victims=int(active.sum())))
            result.total_tests += tests
            level_span.set(tests=tests, kept=list(outcome.kept),
                           candidates=len(candidate_dists),
                           discarded_marginal=int(marginal.sum()),
                           active_victims=int(active.sum()))
            obs.inc(f"tests.level[{li + 1}]", tests)

            candidate_dists = outcome.kept
            prev_size = size
            if not candidate_dists:
                break

    if result.levels and result.levels[-1].region_size == 1:
        result.distances = sorted(result.levels[-1].kept_distances,
                                  key=lambda d: (abs(d), d))
    if obs.enabled() and result.distances:
        # "Failures per distance": how many victims reported each
        # surviving distance at the single-bit level (Figure 14's
        # right-hand side, as a mergeable counter family).
        final_reporters = result.levels[-1].reporters
        for d in result.distances:
            obs.inc(f"failures.distance[{d}]",
                    final_reporters.get(d, 0))
    return result
