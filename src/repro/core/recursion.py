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
from typing import Dict, List, Sequence, Tuple

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
                      sub_abs: np.ndarray, covered: np.ndarray,
                      region_size: int) -> np.ndarray:
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
        sub_abs: ``(T, n_sample)`` absolute subregion index per test
            and victim (only entries where ``covered`` is True matter).
        covered: ``(T, n_sample)`` mask of victims whose candidate
            region falls inside the row.
        region_size: bits per subregion at this level.
    """
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
        starts = np.where(use[run], sub_abs[run[:, None], vi] * region_size,
                          -1)
        failed[run[:, None], vi] = controllers[chip_idx].test_regions(
            bank_idx, group.unique_rows, (group.row_pos, group.cols),
            starts, region_size)
    return failed


def _revote_batches(bank, n_tests: int, reps: int) -> List[slice]:
    """Split one bank's re-voted region tests into kernel batches.

    Each re-vote test restarts the bank's streams from its own ladder
    path, so one kernel call per repetition over all of a level's
    tests draws what a test-by-test loop draws - except where the
    order of a bank's waits is observable:

    * with a real ECC code every read decodes the whole bank, and rows
      a test does not write show the images earlier re-votes left;
    * the device-noise read clock (``reads``, which gates
      ``active_after``) is not restored after a re-vote, so noise that
      could switch on inside the block's at most ``2 * n_tests * (reps
      - 1)`` waits would switch on at a different test.

    Then every test is its own batch, which keeps the test-by-test
    order (all of a test's repetitions before the next test);
    otherwise the level is one batch.
    """
    lens = bank.ecc is not None and bank.ecc.code is not None
    reads = getattr(bank.noise, "reads", None)
    arming = reads is not None and (
        reads < bank.noise.spec.active_after
        < reads + 2 * n_tests * (reps - 1))
    if lens or arming:
        return [slice(t, t + 1) for t in range(n_tests)]
    return [slice(0, n_tests)]


#: Reporters a child distance needs within a level before its
#: observations are accepted without a re-vote.  Soft errors strike
#: independent random cells, so three victims reporting the *same*
#: distance cannot plausibly be coincident one-off flips - the crowd
#: corroborates them, exactly the statistic the ranking filter trusts.
#: Distances below the floor are re-voted victim by victim.
CORROBORATION_FLOOR = 3


def _revote_uncorroborated(controllers: Sequence[MemoryController],
                           groups: Dict[Tuple[int, int], _RowGroup],
                           region_size: int, sub_abs: np.ndarray,
                           covered: np.ndarray, failed: np.ndarray,
                           paths: Sequence[Tuple[int, ...]],
                           v_region: np.ndarray, policy, seed: int
                           ) -> np.ndarray:
    """Re-vote the uncorroborated failures of one recursion level.

    ``sub_abs``, ``covered`` and ``failed`` are the level's executed
    region tests (``(T, n_sample)`` each, ``paths[t]`` test ``t``'s
    ``(level, distance, subregion)``); ``failed`` is updated in place.
    A failure observation is *suspicious* only when the child distance
    it reports has fewer than :data:`CORROBORATION_FLOOR` reporters
    across the level.  Crowd-corroborated observations are accepted
    as-is, which is what keeps the repeat-and-vote recursion within a
    constant factor of the single-pass one: the overwhelming majority
    of failures report the true distances, and those have hundreds of
    reporters.

    The vote is a *sequential* best-of-three majority, capped at three
    executions regardless of ``policy.rounds``: the recursion only
    needs soft-error rejection (a one-off flip will not repeat on a
    fresh seeded stream), so a failure is kept once it is observed
    twice, dropped once two fresh runs miss it, and a repetition
    re-tests only the still undecided observations.  Only victims
    that failed the initial pass can be candidates - exactly the
    sweep's vote-attribution rule, so injected noise in a re-vote can
    never forge a reporter that the initial pass did not see.  Deeper
    ``rounds`` policies buy statistical depth in the sweep, where
    per-cell verdicts live, not here.

    Each repetition of a bank's tests is one re-vote kernel call
    (:meth:`MemoryController.test_regions` with ``coupled_rows_only``,
    split by :func:`_revote_batches`): every test writes and evaluates
    only its undecided victims' rows, on the fresh stream of its ladder
    path ``("robust.recursion", *paths[t], rep, chip, bank)``.  The
    initial pass consumed the bank's sequential stream exactly as the
    single-pass recursion would; the stream, the fault model's VRT
    state and any injected-noise coins are saved before a bank's
    re-votes and restored after them, so the surrounding recursion is
    byte-identical to a ``rounds=1`` run except where the vote changes
    a verdict.  Returns the ``(T, n_sample)`` vote counts (the initial
    pass included) of the suspicious observations.
    """
    from ..robust.vote import reseed_bank

    # Per test and victim: the child distance a failure reports, and
    # whether fewer than CORROBORATION_FLOOR failures level-wide
    # report it.
    tt, vv = np.nonzero(failed & covered)
    dist = sub_abs[tt, vv] - v_region[vv]
    reported, reporters = np.unique(dist, return_counts=True)
    suspicious = np.zeros(failed.shape, dtype=bool)
    suspicious[tt, vv] = ~np.isin(
        dist, reported[reporters >= CORROBORATION_FLOOR])
    counts = suspicious.astype(np.int8)
    reps = min(policy.rounds, 3)
    need = reps // 2 + 1
    for (chip_idx, bank_idx), group in groups.items():
        vi = group.victim_idx
        tests = np.flatnonzero(suspicious[:, vi].any(axis=1))
        if not len(tests):
            continue
        ctrl = controllers[chip_idx]
        bank = ctrl.chip.banks[bank_idx]
        rows = group.unique_rows
        saved = (bank._rng, bank.faults.vrt_leaky.copy(),
                 getattr(bank.noise, "_coin_rng", None))
        for batch in _revote_batches(bank, len(tests), reps):
            for rep in range(1, reps):
                run = tests[batch]
                votes = counts[run[:, None], vi]
                undecided = (suspicious[run[:, None], vi] & (votes < need)
                             & (votes + reps - rep >= need))
                live = undecided.any(axis=1)
                if not live.any():
                    break
                run, undecided = run[live], undecided[live]
                again = ctrl.test_regions(
                    bank_idx, rows, (group.row_pos, group.cols),
                    np.where(undecided,
                             sub_abs[run[:, None], vi] * region_size, -1),
                    region_size, coupled_rows_only=True,
                    reseed=lambda t: reseed_bank(
                        bank, seed, "robust.recursion", *paths[run[t]], rep,
                        chip_idx, bank_idx))
                counts[run[:, None], vi] += again & undecided
                # Test by test, a row ends with the image of the last
                # test whose repetition 1 wrote it (or its repetition
                # 2); an earlier test's repetition 2 is undone there.
                tt, at = np.nonzero(undecided)
                at = group.row_pos[at]
                if rep == 1:
                    last = np.full(len(rows), -1)
                    written, final = np.unique(at[::-1], return_index=True)
                    last[written] = run[tt[::-1][final]]
                    kept = bank.charge_words[rows]
                else:
                    stale = np.zeros(len(rows), dtype=bool)
                    stale[at] = True
                    stale[at[run[tt] == last[at]]] = False
                    bank.charge_words[rows[stale]] = kept[stale]
        bank._rng, bank.faults.vrt_leaky, noise_rng = saved
        bank.faults._rng = bank._rng
        if noise_rng is not None:
            bank.noise._coin_rng = noise_rng
    failed &= ~suspicious
    failed |= counts >= need
    return counts


def _tally(sub_abs: np.ndarray, covered: np.ndarray, failed: np.ndarray,
           v_region: np.ndarray, active: np.ndarray, fraction: float
           ) -> Tuple[np.ndarray, Dict[int, int]]:
    """A level's marginal victims, and its reporters per distance.

    Marginal filter (Section 5.2.4, first filter): a victim failing in
    most tested regions is noise, not data dependence.  Failing in
    *every* tested region - even the two level-1 halves - marks a
    content-independent cell (weak cell, leaky VRT) regardless of how
    few regions were tested, because a real victim's neighbours cannot
    be everywhere at once.  The reporters of a distance are the active
    victims outside that filter that failed where it was tested.
    """
    # found[v, k]: victim v failed where distances[k] was tested.
    tt, vv = np.nonzero(failed & covered)
    distances, at = np.unique(sub_abs[tt, vv] - v_region[vv],
                              return_inverse=True)
    found = np.zeros((len(active), len(distances)), dtype=bool)
    found[vv, at] = True
    n_found, tested = found.sum(axis=1), covered.sum(axis=0)
    marginal = active & (((tested >= 2) & (n_found == tested))
                         | ((tested >= 4) & (n_found > fraction * tested)))
    return marginal, {int(d): int(n) for d, n in zip(
        distances, found[active & ~marginal].sum(axis=0)) if n}


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
            :func:`_revote_uncorroborated`).
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

            v_prev_region = sample.col // prev_size
            v_region = sample.col // size
            # One test per (candidate distance, subregion): the tested
            # subregion of every active victim whose parent region is
            # in the row.  The whole level runs as one kernel call per
            # bank.
            d_j = np.array([(d, j) for d in candidate_dists
                            for j in range(fan)], dtype=np.int32)
            parent = v_prev_region.astype(np.int32) + d_j[:, :1]
            sub_abs = parent * fan + d_j[:, 1:]
            covered = active & (parent >= 0) & (parent < row_bits // prev_size)
            # The size-1 "region" that is the victim itself cannot be
            # tested against it.
            if size == 1:
                covered &= sub_abs != sample.col
            tests = len(d_j)
            run = covered.any(axis=1)
            sub_abs, covered = sub_abs[run], covered[run]
            paths = [(li, d, j) for d, j in d_j[run].tolist()]
            failed = _run_region_tests(controllers, groups, sub_abs,
                                       covered, size)
            if policy is not None and policy.rounds > 1:
                _revote_uncorroborated(controllers, groups, size, sub_abs,
                                       covered, failed, paths, v_region,
                                       policy, seed)
            marginal, reporters = _tally(
                sub_abs, covered, failed, v_region, active,
                config.marginal_region_fraction)
            active &= ~marginal
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
