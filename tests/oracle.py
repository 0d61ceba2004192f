"""Executable specification of the DRAM substrate and ECC (test oracle).

The production substrate (:mod:`repro.dram.bank`,
:mod:`repro.dram.cells`) runs every hot operation once, as word-wise
kernels over bit-packed rows (``docs/KERNELS.md``).  This module is
the same semantics written the straight-line way, on dense per-cell
``uint8`` arrays: the original loops the packed kernels were derived
from.  It is a test fake, never a production option:

* **write** - :func:`write_rows` scrambles and polarity-inverts whole
  system-order rows; :func:`write_rows_patched` materialises the full
  background-plus-patches image and writes it wholesale;
* **decay** - :func:`evaluate_failures` decides every coupled victim
  from dense gathers of its victim, aggressor and context cells, with
  the same single ``rng.random(len(pop))`` draw as the packed
  evaluator, and :func:`fault_flips` the weak, soft-error, VRT and
  marginal cells from the fault model's draws;
  :func:`retention_events` composes them with the injected noise and
  the ECC stage into one read's observable events - the oracle's own
  event source, independent of the bank's read kernels;
* **read** - :func:`retention_read_rows` and
  :func:`retention_check_cells` apply each retention flip event to the
  dense read-back one by one (XOR semantics) and then force injected
  noise (union semantics).

* **level kernel** - :func:`test_regions` is the per-test loop the
  batched :meth:`MemoryController.test_regions` replaced: every region
  test is two single tests (:func:`test_rows_patched`, pattern then
  inverse), each a dense write and a full read-back.
* **re-votes** - :func:`revote_uncorroborated` is the per-test loop
  the batched recursion re-votes replaced: each suspicious region test
  re-voted on its own (:func:`_revote_region`), one level-kernel call
  per repetition and bank, the bank streams saved and restored around
  every test; :func:`level_tally` is the per-victim set bookkeeping
  (marginal filter, reporter tally) the level's matrix replaced.
* **sweep kernel** - :func:`test_patterns` is the per-test loop the
  batched :meth:`MemoryController.test_patterns` replaced: test after
  test, every bank written in full and read back
  (:func:`_whole_chip_test`, :func:`retention_failures`).
* **vote ledger** - :func:`robust_sweep` is the set-based
  repeat-and-vote sweep the array ledger of
  :func:`repro.robust.vote.robust_sweep` replaced: one whole-chip test
  per round, cells as coordinate tuples in sets and dicts.
* **verdicts** - :func:`verdict` is the scalar verdict rule, one cell
  at a time, that :func:`repro.robust.verdicts.classify` writes over
  arrays; :func:`robust_sweep` classifies with it, and
  :func:`campaign_fold` is the set-based post-sweep fold that
  :func:`repro.core.detector.run_parbor` replaced with one
  classification of the sweep's ledger.

:func:`oracle_substrate` patches these onto :class:`~repro.dram.Bank`,
:class:`~repro.dram.controller.MemoryController` and
:mod:`repro.robust.vote`, so a whole campaign can run on the
oracle::

    with oracle_substrate():
        expected = run_parbor(chip, cfg, seed=7)

The differential tests in ``tests/runtime`` require the packed engine
to match it bit for bit: charge state, read-back data, RNG
consumption and campaign signatures.

:func:`injected_cells` is the ground truth of a device-noise fault
plan, for the chaos suite's quarantine assertions.

The on-die ECC stage has its oracles here too, for
``tests/ecc/test_packed_differential.py`` and
``tests/ecc/test_secded.py``: :func:`lens_transform_read` decodes a
read word by word with ``decode_error_set``;
:func:`recover_transform_read` inverts a recovery-mode read word by
word (:func:`recover_word`: three ``decode_error_set`` passes,
candidate sets, verification with ``decode_with_tables``);
:func:`beer_probe_round` / :func:`beer_paired_outcomes` group and
classify (:func:`beer_classify`) BEER probe observations as dicts of
frozensets, read as coordinates through ``retention_failures``;
:func:`infer_ecc` eliminates their relations one Python int at a time
(:func:`eliminate`), :func:`validate_inference` predicts held-out
slots one at a time, and :func:`encode_ref` / :func:`decode_ref` XOR
``H`` columns bit by bit.
"""

import math
import time
from contextlib import contextmanager
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

import repro.core.recursion
import repro.robust.vote
from repro import obs
from repro._kernels import WORD_BITS, pack_rows, unpack_rows
from repro.core.patterns import inverse, solid
from repro.core.recursion import CORROBORATION_FLOOR, _RowGroup
from repro.core.victims import CellKeys
from repro.dram.bank import Bank
from repro.dram.cells import NO_NEIGHBOUR, CoupledCellPopulation
from repro.dram.controller import MemoryController
from repro.dram.faults import ForcedFlipNoise, RandomFaultModel
from repro.ecc.beer import (COPIES, TARGET_RANK, EccInferenceReport,
                            InferredEcc, _nullspace, _rref,
                            beer_backgrounds)
from repro.ecc.ondie import COMPANION_PASSES, OnDieEcc
from repro.ecc.secded import (CHECK_BITS, CHECK_COLUMN, CLEAN, CORRECTED,
                              CORRECTED_CHECK, DETECTED, MISCORRECTED,
                              UNDETECTED, HammingSecDed,
                              decode_with_tables)
from repro.robust.quarantine import QuarantineSet
from repro.robust.verdicts import (DEFINITE, PROBABILISTIC, UNSTABLE,
                                   CellVerdicts, RoundsPolicy)
from repro.robust.vote import RobustSweepResult, VoteLedger, reseed_bank
from repro.runtime.seeds import ladder_seed

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)

__all__ = ["write_rows", "write_rows_patched", "evaluate_failures",
           "fault_flips", "retention_events", "retention_read_rows",
           "retention_check_cells",
           "test_rows_patched", "test_regions", "revote_uncorroborated",
           "level_tally", "retention_failures",
           "test_patterns", "verdict", "robust_sweep", "campaign_fold",
           "oracle_substrate",
           "injected_cells", "lens_transform_read", "recover_word",
           "recover_transform_read",
           "beer_probe_round", "beer_classify", "beer_paired_outcomes",
           "eliminate", "infer_ecc", "validate_inference", "encode_ref",
           "decode_ref"]


# -- write ----------------------------------------------------------------


def _store(bank: Bank, rows: np.ndarray, data_sys: np.ndarray) -> None:
    """Scramble + polarity-invert dense system-order rows, then store."""
    phys = data_sys[:, bank.mapping.phys_to_sys()]
    anti = bank.anti_rows[rows].astype(np.uint8)
    bank.charge_words[rows] = pack_rows(phys ^ anti[:, None])


def write_rows(bank: Bank, rows: np.ndarray, data_sys: np.ndarray) -> None:
    """Dense image of :meth:`Bank.write_rows` (1-D data broadcasts)."""
    rows = np.asarray(rows)
    data_sys = np.asarray(data_sys, dtype=np.uint8)
    if data_sys.ndim == 1:
        data_sys = np.broadcast_to(data_sys, (len(rows), bank.row_bits))
    _store(bank, rows, data_sys)


def write_rows_patched(bank: Bank, rows: np.ndarray, base: int,
                       spans: Optional[Tuple[np.ndarray, np.ndarray,
                                             int, int]] = None,
                       points: Optional[Tuple[np.ndarray, np.ndarray,
                                              int]] = None) -> None:
    """Dense image of :meth:`Bank.write_rows_patched`.

    Materialises the system-order data - ``base`` everywhere, spans
    next, points last - and writes it wholesale.
    """
    rows = np.asarray(rows)
    data = np.full((len(rows), bank.row_bits), base, dtype=np.uint8)
    if spans is not None:
        row_idx, starts, size, value = spans
        for r, s in zip(np.asarray(row_idx).tolist(),
                        np.asarray(starts).tolist()):
            data[r, s:s + size] = value
    if points is not None:
        row_idx, cols, value = points
        data[row_idx, cols] = value
    _store(bank, rows, data)


# -- decay ----------------------------------------------------------------


def evaluate_failures(pop: CoupledCellPopulation, charge: np.ndarray,
                      rng: np.random.Generator, stress: float = 1.0,
                      cells: Optional[np.ndarray] = None) -> np.ndarray:
    """Which victims flip on a retention read of the given bank state.

    Args:
        pop: the coupled-cell population.
        charge: 2-D uint8 array ``(n_rows, row_bits)`` of cell
            *charge* states in physical order (1 = charged).
        rng: randomness source for the per-exposure coin flips, one
            ``rng.random`` coin per evaluated victim.
        stress: retention stress of the read (1.0 = the paper's
            45 degC / 4 s test condition); victims whose
            ``min_stress`` exceeds it hold enough charge to ride
            out the interference.
        cells: optional bool mask of the victims to evaluate (the
            re-vote streams' ``coupled_rows_only``); default all.

    Returns:
        Boolean mask over the evaluated victims: True where the
        victim's stored value is corrupted by this read.
    """
    v = charge[pop.row, pop.phys]
    left_ok = pop.left_phys != NO_NEIGHBOUR
    right_ok = pop.right_phys != NO_NEIGHBOUR
    l_charge = np.ones(len(pop), dtype=np.uint8)
    r_charge = np.ones(len(pop), dtype=np.uint8)
    l_charge[left_ok] = charge[pop.row[left_ok],
                               pop.left_phys[left_ok]]
    r_charge[right_ok] = charge[pop.row[right_ok],
                                pop.right_phys[right_ok]]

    interference = (pop.w_left * ((v == 1) & (l_charge == 0))
                    + pop.w_right * ((v == 1) & (r_charge == 0)))
    candidate = interference >= 1.0

    # Context condition: every present context cell must hold the
    # victim's charge (no shielding of the victim bitline).
    ctx_ok = np.ones(len(pop), dtype=bool)
    for j in range(pop.context.shape[1]):
        pos = pop.context[:, j]
        present = pos != NO_NEIGHBOUR
        if not present.any():
            continue
        same = np.ones(len(pop), dtype=bool)
        same[present] = (charge[pop.row[present], pos[present]]
                         == v[present])
        ctx_ok &= same

    live = candidate & ctx_ok & (pop.min_stress <= stress)
    if cells is None:
        cells = np.ones(len(pop), dtype=bool)
    return live[cells] & (rng.random(int(cells.sum())) < pop.p_fail[cells])


def fault_flips(model: RandomFaultModel, charge: np.ndarray,
                stress: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Random-fault flips of one retention read of the whole bank.

    The draws are :meth:`RandomFaultModel.draw`'s; a weak cell fails
    while charged once the stress reaches its threshold, a VRT cell
    while charged, leaky and past its threshold, a marginal cell while
    charged and past its threshold when its coin falls under
    ``marginal_fail_prob``.  ``charge`` is the dense physical-order
    state; returns ``(rows, cols)`` of the weak, soft-error, VRT and
    marginal flips, in that order.
    """
    soft, leaky, coin = model.draw()
    (w_row, w_phys), (v_row, v_phys), (m_row, m_phys) = model.cells()
    weak = ((model.weak_threshold <= stress)
            & (charge[w_row, w_phys] == 1))
    vrt = (leaky & (model.vrt_threshold <= stress)
           & (charge[v_row, v_phys] == 1))
    marginal = ((coin < model.spec.marginal_fail_prob)
                & (model.marginal_threshold <= stress)
                & (charge[m_row, m_phys] == 1))
    rows = (w_row[weak], soft // model.row_bits, v_row[vrt],
            m_row[marginal])
    cols = (w_phys[weak], soft % model.row_bits, v_phys[vrt],
            m_phys[marginal])
    return (np.concatenate(rows).astype(np.int64),
            np.concatenate(cols).astype(np.int64))


def retention_events(bank: Bank, visible_rows: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]:
    """One retention wait as observable ``(rows, sys_cols)`` pairs.

    Returns ``(rows, sys_cols, noise_rows, noise_sys)``: the flip
    events (XOR semantics - coupled, then :func:`fault_flips`) and the
    injected-noise cells (union semantics), after the bank's on-die
    ECC stage when it has a real code.  Draws in the order of a single
    read: the coupled coins, the fault model, the noise coins.  With
    ``visible_rows`` only the coupled cells in those rows draw coins
    (a re-vote stream's read).
    """
    pop = bank.coupled
    # The whole word width: a victim nudged off a one-bit tile reads
    # a zero tail bit.
    charge = unpack_rows(bank.charge_words,
                         bank.charge_words.shape[1] * WORD_BITS)
    cells = None if visible_rows is None else np.isin(pop.row,
                                                      visible_rows)
    fail = evaluate_failures(pop, charge, bank._rng, stress=bank.stress,
                             cells=cells)
    if cells is not None:
        fail = np.flatnonzero(cells)[fail]
    f_rows, f_phys = fault_flips(bank.faults, charge, stress=bank.stress)
    rows = np.concatenate([pop.row[fail], f_rows])
    phys = np.concatenate([pop.phys[fail], f_phys])
    empty = np.empty(0, dtype=np.int64)
    n_rows, n_phys = (empty, empty) if bank.noise is None \
        else bank.noise.flips()
    if bank.ecc is not None and bank.ecc.code is not None:
        rows, phys, n_rows, n_phys = bank.ecc.transform_read(
            rows, phys, n_rows, n_phys, bank.row_bits)
    p2s = bank.mapping.phys_to_sys()
    return rows, p2s[phys], n_rows, p2s[n_phys]


# -- read -----------------------------------------------------------------


def _read_back(bank: Bank, rows: np.ndarray, coupled_rows_only: bool
               ) -> Tuple[np.ndarray, np.ndarray]:
    """One retention wait over ``rows``: ``(written, observed)`` data.

    Both arrays are dense system-order ``(len(rows), row_bits)``.  Flip
    events toggle their cell one at a time (an even count cancels);
    injected noise then forces its cells to the opposite of the
    written value, whatever the flips did.
    """
    f_rows, f_cols, n_rows, n_cols = retention_events(
        bank, visible_rows=rows if coupled_rows_only else None)
    data_phys = bank.charge[rows] ^ bank.anti_rows[
        rows, None].astype(np.uint8)
    written = data_phys[:, bank.mapping.sys_to_phys()]
    observed = written.copy()
    row_pos = {int(r): i for i, r in enumerate(rows)}
    for r, c in zip(f_rows, f_cols):
        i = row_pos.get(int(r))
        if i is not None:
            observed[i, c] ^= 1
    for r, c in zip(n_rows, n_cols):
        i = row_pos.get(int(r))
        if i is not None:
            observed[i, c] = written[i, c] ^ 1
    return written, observed


def retention_read_rows(bank: Bank, rows: np.ndarray) -> np.ndarray:
    """Dense image of :meth:`Bank.retention_read_rows`."""
    rows = np.asarray(rows)
    return _read_back(bank, rows, False)[1]


def retention_check_cells(bank: Bank, rows: np.ndarray,
                          check_row_idx: np.ndarray,
                          check_cols: np.ndarray,
                          coupled_rows_only: bool = False) -> np.ndarray:
    """Dense image of :meth:`Bank.retention_check_cells`.

    Reads the rows back in full and compares the checked cells with
    what was written.
    """
    rows = np.asarray(rows)
    written, observed = _read_back(bank, rows, coupled_rows_only)
    return (observed[check_row_idx, check_cols]
            != written[check_row_idx, check_cols])


# -- region-test kernel -----------------------------------------------------


def test_rows_patched(ctrl: MemoryController, bank: int, rows: np.ndarray,
                      base: int, spans, points, check_row_idx: np.ndarray,
                      check_cols: np.ndarray,
                      coupled_rows_only: bool = False) -> np.ndarray:
    """One region-test half: a dense patched write, then a cell check.

    Writes the background-plus-patches image, waits one retention
    interval and returns the checked cells' corruption mask, with the
    controller's accounting and ``test`` span of a single test.
    """
    rows = np.asarray(rows)
    b = ctrl.chip.bank(bank)
    return ctrl._run_test(
        "patched", len(rows),
        lambda: write_rows_patched(b, rows, base, spans=spans,
                                   points=points),
        lambda _: retention_check_cells(
            b, rows, check_row_idx, check_cols,
            coupled_rows_only=coupled_rows_only), bank=bank)


def test_regions(ctrl: MemoryController, bank: int, rows: np.ndarray,
                 victims: Tuple[np.ndarray, np.ndarray],
                 starts: np.ndarray, size: int,
                 coupled_rows_only: bool = False,
                 reseed=None) -> np.ndarray:
    """Per-test image of :meth:`MemoryController.test_regions`.

    The loop the batched kernel replaced: each region test runs as
    two single tests - pattern, then inverse - each writing the
    whole image densely and reading it back before the next starts.
    With ``coupled_rows_only`` a test involves only the victims it
    covers, in their rows; ``reseed(t)`` runs before test ``t``.
    """
    row_pos, cols = victims
    starts = np.asarray(starts)
    failed = np.zeros(starts.shape, dtype=bool)
    for t, test_starts in enumerate(starts):
        use = test_starts >= 0
        t_rows, t_pos, t_cols, t_starts = rows, row_pos, cols, test_starts
        if coupled_rows_only:
            used, t_pos = np.unique(row_pos[use], return_inverse=True)
            t_rows = np.asarray(rows)[used]
            t_cols, t_starts = cols[use], test_starts[use]
        t_use = t_starts >= 0
        if reseed is not None:
            reseed(t)
        halves = [test_rows_patched(
            ctrl, bank, t_rows, base=base,
            spans=(t_pos[t_use], t_starts[t_use], size, 1 - base),
            points=(t_pos, t_cols, base),
            check_row_idx=t_pos, check_cols=t_cols,
            coupled_rows_only=coupled_rows_only) for base in (1, 0)]
        flips = (halves[0] | halves[1]) & t_use
        if coupled_rows_only:
            failed[t, use] = flips
        else:
            failed[t] = flips
    return failed


# -- recursion re-votes ------------------------------------------------------


def revote_uncorroborated(controllers, groups, region_size: int,
                          sub_abs: np.ndarray, covered: np.ndarray,
                          failed: np.ndarray, paths, v_region: np.ndarray,
                          policy, seed: int) -> None:
    """Per-test image of :func:`repro.core.recursion._revote_uncorroborated`.

    The loop the batched re-votes replaced: every suspicious region
    test of the level is re-voted on its own (:func:`_revote_region`),
    each repetition one :meth:`MemoryController.test_regions` call per
    bank over the undecided candidates' rows, the bank streams saved
    and restored around every test.  ``failed`` is updated in place;
    returns the suspicious observations' vote counts.
    """
    pending = [(s, c, f, p) for s, c, f, p
               in zip(sub_abs, covered, failed, paths)]
    counts = np.zeros(failed.shape, dtype=np.int64)
    _revote_pending(controllers, groups, region_size, pending, v_region,
                    policy, seed, counts)
    return counts


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

    Returns the per-victim vote counts of the candidates (a failure
    is *upheld* by the vote when its count reaches a majority).
    """
    touched = {key for key, group in groups.items()
               if candidates[group.victim_idx].any()}
    saved = []
    for chip_idx, bank_idx in touched:
        bank = controllers[chip_idx].chip.banks[bank_idx]
        noise_rng = getattr(bank.noise, "_coin_rng", None)
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
    return counts


def _revote_pending(controllers: Sequence[MemoryController],
                    groups: Dict[Tuple[int, int], _RowGroup],
                    region_size: int, pending,
                    v_region: np.ndarray, policy, seed: int,
                    counts: np.ndarray) -> None:
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
    hundreds of reporters.  ``counts[t]`` receives test ``t``'s vote
    counts.
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
    for (sub_abs, covered, failed, path), suspicious, votes in zip(
            pending, suspicious_tests, counts):
        if not suspicious.any():
            continue
        votes[:] = _revote_region(controllers, groups, sub_abs, covered,
                                  region_size, suspicious, policy, seed,
                                  path)
        upheld = votes >= min(policy.rounds, 3) // 2 + 1
        failed &= ~suspicious
        failed |= upheld


def level_tally(sub_abs: np.ndarray, covered: np.ndarray,
                failed: np.ndarray, v_region: np.ndarray,
                active: np.ndarray, fraction: float
                ) -> Tuple[np.ndarray, Dict[int, int]]:
    """Per-victim image of :func:`repro.core.recursion._tally`.

    The loop the matrix bookkeeping replaced: a set of failing
    distances per victim, the marginal filter victim by victim, and a
    reporter tally over the surviving victims' sets.
    """
    found: List[Set[int]] = [set() for _ in range(len(active))]
    tested = np.zeros(len(active), dtype=np.int64)
    for sub, cov, fail in zip(sub_abs, covered, failed):
        tested[cov] += 1
        for v in np.flatnonzero(fail & cov).tolist():
            found[v].add(int(sub[v] - v_region[v]))
    marginal = np.zeros(len(active), dtype=bool)
    for v in np.flatnonzero(active).tolist():
        if tested[v] >= 2 and len(found[v]) == tested[v]:
            marginal[v] = True
        elif tested[v] >= 4 and len(found[v]) > fraction * tested[v]:
            marginal[v] = True
    reporters: Dict[int, int] = {}
    for v in np.flatnonzero(active & ~marginal).tolist():
        for dist in found[v]:
            reporters[dist] = reporters.get(dist, 0) + 1
    return marginal, reporters


# -- whole-chip tests -------------------------------------------------------


def retention_failures(bank: Bank) -> Tuple[np.ndarray, np.ndarray]:
    """One retention wait of the whole bank, as single reads made it.

    The flip events of :func:`retention_events` (after the ECC stage,
    if any) followed by the injected-noise cells, duplicates kept -
    the composition the batched :meth:`Bank.retention_failures`
    replaced.
    """
    rows, sys_cols, n_rows, n_sys = retention_events(bank)
    if len(n_rows):
        rows = np.concatenate([rows, n_rows])
        sys_cols = np.concatenate([sys_cols, n_sys])
    return rows, sys_cols


def _whole_chip_test(self: MemoryController, data_sys: np.ndarray,
                     kind: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Shared write-all / read-back loop of the whole-chip tests.

    Per-bank write/read interleaving (and therefore the RNG draw
    order of ``retention_failures``) is identical whether or not
    tracing is active; the traced branch only wraps the same calls
    in spans.
    """
    sess = obs.active()
    failures: List[Tuple[np.ndarray, np.ndarray]] = []
    if sess is None:
        for bank in self.chip.banks:
            write_rows(bank, np.arange(bank.n_rows), data_sys)
            self.stats.rows_written += bank.n_rows
            failures.append(retention_failures(bank))
            self.stats.rows_read += bank.n_rows
        self.stats.retention_waits += 1
        self.stats.tests += 1
        return failures
    tracer = sess.tracer
    t0 = time.perf_counter()
    with tracer.span("test", kind=kind,
                     banks=len(self.chip.banks)):
        for bank_idx, bank in enumerate(self.chip.banks):
            with tracer.span("phase.write", bank=bank_idx):
                write_rows(bank, np.arange(bank.n_rows), data_sys)
            self.stats.rows_written += bank.n_rows
            with tracer.span("phase.read", bank=bank_idx):
                failures.append(retention_failures(bank))
            self.stats.rows_read += bank.n_rows
        with tracer.span(
                "phase.wait",
                retention_ms=self.timing.refresh_interval_ms):
            self.stats.retention_waits += 1
    self.stats.tests += 1
    sess.metrics.observe("io.test_ms",
                         (time.perf_counter() - t0) * 1e3)
    return failures


def test_patterns(ctrl: MemoryController, data_sys: np.ndarray,
                  reseed=None
                  ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-test image of :meth:`MemoryController.test_patterns`.

    The loop the batched kernel replaced: test after test, every bank
    is written in full and read back (:func:`_whole_chip_test`), with
    ``reseed(bank_idx, t)`` applied to every bank before test ``t``.
    """
    data_sys = np.asarray(data_sys, dtype=np.uint8)
    if data_sys.ndim == 2:
        data_sys = data_sys[:, None, :]
    per_row = data_sys.shape[1] != 1
    out = [([], [], []) for _ in ctrl.chip.banks]
    for t, data in enumerate(data_sys):
        if reseed is not None:
            for b in range(len(ctrl.chip.banks)):
                reseed(b, t)
        per_bank = _whole_chip_test(
            ctrl, data if per_row else data[0],
            "pattern_per_row" if per_row else "pattern")
        for (tests, rows, cols), (r, c) in zip(out, per_bank):
            tests.append(np.full(len(r), t, dtype=np.int64))
            rows.append(r)
            cols.append(c)
    return [tuple(np.concatenate(part) for part in bank_out)
            for bank_out in out]


# -- robust sweep -----------------------------------------------------------


def reseed_banks(controllers, seed: int, *path) -> None:
    """Reseed every bank's randomness from one seed-ladder path."""
    for chip_idx, ctrl in enumerate(controllers):
        for bank_idx, bank in enumerate(ctrl.chip.banks):
            g = np.random.default_rng(
                ladder_seed(seed, *path, chip_idx, bank_idx))
            bank._rng = g
            faults = bank.faults
            faults._rng = g
            if len(faults.vrt_leaky):
                faults.vrt_leaky = (
                    g.random(len(faults.vrt_leaky))
                    < faults.spec.vrt_leaky_start_fraction)
            if bank.noise is not None:
                bank.noise.reseed_coins(
                    ladder_seed(seed, "noise", *path, chip_idx,
                                bank_idx))


def verdict(verdicts: CellVerdicts, coord: Coord) -> Optional[str]:
    """The verdict rule for one cell (None if it was never observed)."""
    if coord in verdicts.control_failures:
        return UNSTABLE
    if coord in verdicts.votes:
        policy = verdicts.policy
        votes = verdicts.votes[coord]
        scored = verdicts.scored.get(coord, verdicts.rounds)
        if (votes == scored
                and scored >= min(policy.rounds, policy.early_definite)):
            return PROBABILISTIC if verdicts.degraded else DEFINITE
        if votes >= max(1, math.ceil(policy.probabilistic_threshold
                                     * scored)):
            return PROBABILISTIC
        return UNSTABLE
    if coord in verdicts.discovery_only:
        return PROBABILISTIC
    return None


def _verdict_sets(verdicts: CellVerdicts
                  ) -> Tuple[Set[Coord], QuarantineSet]:
    """Detected cells and the quarantine of the rest, by :func:`verdict`."""
    detected: Set[Coord] = set()
    quarantine = QuarantineSet()
    for coord in verdicts.observed():
        if verdict(verdicts, coord) != UNSTABLE:
            detected.add(coord)
        else:
            quarantine.add(coord, "control-failure"
                           if coord in verdicts.control_failures
                           else "inconsistent-votes")
    return detected, quarantine


def campaign_fold(result) -> Tuple[Set[Coord], QuarantineSet,
                                   CellVerdicts]:
    """The post-sweep fold of a robust :func:`run_parbor` campaign.

    Rebuilds the sweep's verdicts from ``result.verdicts``' votes,
    scores and control failures, classifies them cell by cell, adds the
    remap-recovered cells, and then folds every discovery (or
    recovery) failure without sweep votes or a control failure into
    ``discovery_only`` before classifying again - the set-based path
    the campaign's one classification of its ledger replaced.

    Returns:
        ``(detected, quarantine, verdicts)`` as the campaign should
        report them before any ECC quarantine is added.
    """
    swept = result.verdicts
    verdicts = CellVerdicts(rounds=swept.rounds, policy=swept.policy,
                            votes=dict(swept.votes),
                            scored=dict(swept.scored),
                            control_failures=set(swept.control_failures),
                            degraded=swept.degraded)
    detected, quarantine = _verdict_sets(verdicts)
    if result.recovery is not None:
        detected.update(result.recovery.recovered_coords())
    extra = set(result.sample.observed_failures) | detected
    verdicts.discovery_only |= {
        c for c in extra
        if c not in verdicts.votes and c not in verdicts.control_failures}
    detected, _ = _verdict_sets(verdicts)
    return detected, quarantine, verdicts


def _run_round(controllers, polarity: np.ndarray) -> Set[Coord]:
    failures: Set[Coord] = set()
    for chip_idx, ctrl in enumerate(controllers):
        per_bank = ctrl.test_pattern(polarity)
        for bank_idx, (rows, cols) in enumerate(per_bank):
            failures.update(
                (chip_idx, bank_idx, int(r), int(c))
                for r, c in zip(rows.tolist(), cols.tolist()))
    return failures


def robust_sweep(controllers: Sequence, schedule,
                 policy: RoundsPolicy, seed: int = 0
                 ) -> RobustSweepResult:
    """Run the neighbour-aware sweep with repeat-and-vote verdicts.

    Args:
        controllers: one memory controller per chip.
        schedule: the :class:`~repro.core.scheduler.TestSchedule`.
        policy: repetition/vote policy (``rounds >= 1``).
        seed: the campaign's run seed (root of the reseeding ladder).

    Returns:
        A :class:`RobustSweepResult`.
    """
    rounds: List[Tuple[int, int]] = [
        (pi, vi) for pi in range(len(schedule.patterns))
        for vi in range(2)]
    row_bits = controllers[0].row_bits

    verdicts = CellVerdicts(rounds=policy.rounds, policy=policy)
    result = RobustSweepResult(verdicts=verdicts)

    # attribution: cell -> the schedule rounds its votes count on.
    attribution: Dict[Coord, Set[int]] = {}
    # Cells whose final verdict can no longer change (the sequential
    # early-exit): definite after ``early_definite`` clean sweeps,
    # unstable on any control failure, or vote-bounded - the
    # probabilistic threshold is unreachable even winning every
    # remaining repetition, or already met even losing them all.
    decided: Set[Coord] = set()

    for rep in range(policy.rounds):
        if rep == 0:
            executed = list(range(len(rounds)))
        else:
            undecided = [c for c in verdicts.votes if c not in decided]
            executed = sorted({r for c in undecided
                               for r in attribution.get(c, ())})
            if not executed:
                break  # every observed cell is decided
        fail_sets: Dict[int, Set[Coord]] = {}
        for r in executed:
            pi, vi = rounds[r]
            pattern = schedule.patterns[pi]
            polarity = pattern if vi == 0 else inverse(pattern)
            reseed_banks(controllers, seed, "robust.sweep", rep, r)
            fail_sets[r] = _run_round(controllers, polarity)
            result.rounds_executed += 1

        if policy.run_controls:
            for value in (0, 1):
                reseed_banks(controllers, seed, "robust.control",
                             rep, value)
                verdicts.control_failures |= _run_round(
                    controllers, solid(row_bits, value))
                result.control_rounds += 1

        # Score this repetition: a cell votes iff it failed in at
        # least one of its attributed rounds.  Cells first seen this
        # repetition get attributed to the rounds they failed in; they
        # can never reach a definite verdict (they missed rep 0).
        voted: Set[Coord] = set()
        for r, failures in fail_sets.items():
            for coord in failures:
                if coord not in attribution:
                    attribution[coord] = {r}
                    verdicts.votes[coord] = 0
                    verdicts.scored[coord] = rep
                if r in attribution[coord]:
                    voted.add(coord)
                elif rep == 0:
                    attribution[coord].add(r)
                    voted.add(coord)
        remaining = policy.rounds - 1 - rep
        for coord in list(verdicts.votes):
            if coord in decided:
                continue
            if coord in verdicts.control_failures:
                decided.add(coord)  # unstable whatever it votes
                continue
            if not attribution.get(coord) & set(fail_sets):
                continue  # none of its rounds ran this repetition
            verdicts.scored[coord] += 1
            if coord in voted:
                verdicts.votes[coord] += 1
            votes = verdicts.votes[coord]
            scored = verdicts.scored[coord]
            if votes == scored:
                if scored >= policy.definite_votes():
                    decided.add(coord)
            elif (votes + remaining
                    < policy.required_votes(scored + remaining)
                    or votes
                    >= policy.required_votes(scored + remaining)):
                # An undecided cell is scored every remaining
                # repetition, so (scored + remaining) is its exact
                # final denominator; threshold monotonicity makes the
                # two bounds sound for every intermediate stop too.
                decided.add(coord)

    result.detected, result.quarantine = _verdict_sets(verdicts)
    # The ledger a campaign goes on from: the final votes, scores and
    # control failures as the production ledger's arrays.
    cells = sorted(verdicts.observed())
    result.ledger = VoteLedger(len(rounds))
    at = result.ledger.locate(CellKeys(controllers).encode_coords(cells))
    result.ledger.votes[at] = [verdicts.votes.get(c, 0) for c in cells]
    result.ledger.scored[at] = [verdicts.scored.get(c, 0) for c in cells]
    result.ledger.tracked[at] = [c in verdicts.votes for c in cells]
    result.ledger.control[at] = [c in verdicts.control_failures
                                 for c in cells]
    if obs.enabled():
        obs.inc("profile.rounds", result.rounds_executed)
        obs.inc("profile.control_rounds", result.control_rounds)
    return result


# -- campaign-level switch -----------------------------------------------


_PATCHES = (
    (Bank, "write_rows", write_rows),
    (Bank, "write_rows_patched", write_rows_patched),
    (Bank, "retention_failures", retention_failures),
    (Bank, "retention_read_rows", retention_read_rows),
    (Bank, "retention_check_cells", retention_check_cells),
    (MemoryController, "test_regions", test_regions),
    (MemoryController, "test_patterns", test_patterns),
    (repro.robust.vote, "robust_sweep", robust_sweep),
    (repro.core.recursion, "_revote_uncorroborated", revote_uncorroborated),
)


@contextmanager
def oracle_substrate() -> Iterator[None]:
    """Run the substrate on the oracle for the duration of the block.

    Every bank write and retention read - including the ones
    :meth:`Bank.write_all` and :meth:`Bank.retention_read_all` make -
    goes through the dense formulations above, whole-chip and
    region tests and the recursion's re-votes run test by test, and
    the robust sweep keeps its set-based vote ledger.  In-process
    only: worker processes started inside the block do not inherit
    the patch on spawn-start platforms.
    """
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _PATCHES]
    for cls, name, fn in _PATCHES:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


# -- device-noise ground truth ---------------------------------------------


def injected_cells(spec) -> set:
    """Every cell a spec's device-noise plan injects, as sweep coords.

    Rebuilds the per-bank noise models (cheap - position draws only)
    and maps their physical columns through each bank's address
    scrambling, yielding ``(chip, bank, row, sys_col)`` tuples
    comparable with campaign detections.
    """
    from repro.dram.vendors import make_module, vendor

    noise = spec.faults.noise
    if noise is None or noise.empty:
        return set()
    if spec.experiment == "characterize":
        chips = [vendor(spec.vendor).make_chip(seed=spec.build_seed,
                                               n_rows=spec.n_rows)]
    else:
        chips = list(make_module(spec.vendor, spec.index,
                                 seed=spec.build_seed,
                                 n_rows=spec.n_rows).chips)
    spec.faults.attach_noise(chips)
    coords = set()
    for chip_idx, chip in enumerate(chips):
        for bank_idx, bank in enumerate(chip.banks):
            rows, phys = bank.noise.cells()
            sys_cols = bank.mapping.phys_to_sys()[phys]
            coords.update(
                (chip_idx, bank_idx, int(r), int(c))
                for r, c in zip(rows.tolist(), sys_cols.tolist()))
    return coords


# -- on-die ECC lens --------------------------------------------------------


def lens_transform_read(ecc: OnDieEcc, rows: np.ndarray, phys: np.ndarray,
                        noise_rows: np.ndarray, noise_phys: np.ndarray,
                        row_bits: int
                        ) -> Tuple[np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
    """Per-word image of lens-mode :meth:`OnDieEcc.transform_read`.

    Groups the inputs by 64-bit word, derives each multi-input word's
    error set (odd-count events unioned with noise), decodes it with
    :meth:`HammingSecDed.decode_error_set` and emits its
    post-correction cells.  Single-input words are a single-cell
    error set, always corrected away.  Updates ``ecc.counts`` and
    flushes the ``profile.ecc.*`` obs counters like the stage does.
    """
    assert ecc.recovery is None, "lens oracle only"
    if ecc.code is None or (not len(rows) and not len(noise_rows)):
        return rows, phys, noise_rows, noise_phys
    if row_bits % 64:
        raise ValueError("on-die ECC needs row_bits % 64 == 0")
    n_words = np.int64(row_bits >> 6)
    rows = rows.astype(np.int64, copy=False)
    phys = phys.astype(np.int64, copy=False)
    noise_rows = noise_rows.astype(np.int64, copy=False)
    noise_phys = noise_phys.astype(np.int64, copy=False)
    ekey = rows * n_words + (phys >> np.int64(6))
    nkey = noise_rows * n_words + (noise_phys >> np.int64(6))
    words, wcounts = np.unique(np.concatenate([ekey, nkey]),
                               return_counts=True)
    c = ecc.counts
    add_rows: List[np.ndarray] = []
    add_phys: List[np.ndarray] = []

    single = wcounts == 1
    n_single = int(single.sum())
    c["words"] += n_single
    if n_single:
        c["masked"] += n_single
        c["corrected_words"] += n_single
    multi = words[~single]
    if len(multi):
        eorder = np.argsort(ekey, kind="stable")
        norder = np.argsort(nkey, kind="stable")
        ekey_s = ekey[eorder]
        nkey_s = nkey[norder]
        for w in multi.tolist():
            ei = eorder[np.searchsorted(ekey_s, w, "left"):
                        np.searchsorted(ekey_s, w, "right")]
            ni = norder[np.searchsorted(nkey_s, w, "left"):
                        np.searchsorted(nkey_s, w, "right")]
            row = int(w // n_words)
            word_base = int(w % n_words) << 6
            odd = np.bincount(phys[ei] & 63, minlength=64) & 1
            errs = set(np.flatnonzero(odd).tolist())
            errs.update((noise_phys[ni] & 63).tolist())
            if not errs:
                continue
            c["words"] += 1
            observed, status = ecc.code.decode_error_set(frozenset(errs))
            c["masked"] += len(errs - observed)
            c["miscorrections"] += len(observed - errs)
            if status in (CORRECTED, MISCORRECTED):
                c["corrected_words"] += 1
            elif status in (DETECTED, CORRECTED_CHECK):
                c["detected_words"] += 1
            elif status == UNDETECTED:
                c["undetected"] += 1
            if observed:
                pos = np.fromiter(
                    (word_base + p for p in sorted(observed)),
                    dtype=np.int64, count=len(observed))
                add_rows.append(np.full(len(observed), row,
                                        dtype=np.int64))
                add_phys.append(pos)
    if obs.enabled():
        for name, value in ecc.counts.items():
            delta = value - ecc._flushed[name]
            if delta:
                obs.inc(f"profile.ecc.{name}", delta)
            ecc._flushed[name] = value
    none = np.zeros(len(rows), dtype=bool)
    out_rows = rows[none]
    out_phys = phys[none]
    if add_rows:
        out_rows = np.concatenate([out_rows, *add_rows])
        out_phys = np.concatenate([out_phys, *add_phys])
    no_noise = np.zeros(len(noise_rows), dtype=bool)
    return (out_rows, out_phys,
            noise_rows[no_noise], noise_phys[no_noise])


# -- on-die ECC recovery -----------------------------------------------------


def recover_word(code: HammingSecDed, tables, errs: FrozenSet[int]
                 ) -> Tuple[Set[int], Set[int]]:
    """Invert one word's post-correction observations, set by set.

    The per-word image of recovery-mode :meth:`OnDieEcc._invert`:
    the three probe passes decoded against the true ``code``, every
    candidate pre-image of a pass with nonzero recovered syndrome,
    each verified against all three observations with the recovered
    ``tables`` (``(columns, lookup)``).  Returns ``(real_cells,
    uncertain_cells)`` as in-word bit sets: one verified candidate is
    the raw set; several claim their intersection and leave their
    symmetric difference uncertain; none surrender all 64 bits.
    """
    cols, lookup = tables
    observations = []
    for companions in COMPANION_PASSES:
        observed, _ = code.decode_error_set(errs | companions)
        observations.append((observed, companions))
    candidates = set()
    for observed, companions in observations:
        syndrome = 0
        for p in observed:
            syndrome ^= cols[p]
        if syndrome != 0:
            candidates.add(observed - companions)
            if companions & observed:
                candidates.add(observed)
    verified = [
        cand for cand in candidates
        if all(decode_with_tables(cand | comp, cols, lookup)[0] == obs_
               for obs_, comp in observations)]
    if len(verified) == 1:
        return set(verified[0]), set()
    if verified:
        common = set.intersection(*(set(v) for v in verified))
        spread = set.union(*(set(v) for v in verified)) - common
        return common, spread
    return set(), set(range(64))


def recover_transform_read(ecc: OnDieEcc, rows: np.ndarray,
                           phys: np.ndarray, noise_rows: np.ndarray,
                           noise_phys: np.ndarray, row_bits: int,
                           n_rows: Optional[int] = None
                           ) -> Tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]:
    """Per-word image of recovery-mode :meth:`OnDieEcc.transform_read`.

    Groups the inputs by 64-bit word and inverts each multi-input word
    with a nonempty error set through :func:`recover_word`.  Recovered
    words keep their inputs verbatim; an ambiguous word's inputs are
    dropped, its real cells appended (word-ascending, bit-ascending)
    and its uncertain cells added to ``ecc.ambiguous``.  Updates
    ``ecc.counts`` and flushes the ``profile.ecc.*`` obs counters like
    the stage does.
    """
    assert ecc.recovery is not None, "recovery oracle only"
    if ecc.code is None or (not len(rows) and not len(noise_rows)):
        return rows, phys, noise_rows, noise_phys
    if row_bits % 64:
        raise ValueError("on-die ECC needs row_bits % 64 == 0")
    n_words = np.int64(row_bits >> 6)
    rows = rows.astype(np.int64, copy=False)
    phys = phys.astype(np.int64, copy=False)
    noise_rows = noise_rows.astype(np.int64, copy=False)
    noise_phys = noise_phys.astype(np.int64, copy=False)
    ekey = rows * n_words + (phys >> np.int64(6))
    nkey = noise_rows * n_words + (noise_phys >> np.int64(6))
    words, wcounts = np.unique(np.concatenate([ekey, nkey]),
                               return_counts=True)
    c = ecc.counts
    keep_events = np.ones(len(rows), dtype=bool)
    keep_noise = np.ones(len(noise_rows), dtype=bool)
    add_rows: List[np.ndarray] = []
    add_phys: List[np.ndarray] = []

    n_single = int((wcounts == 1).sum())
    c["words"] += n_single
    c["recovered_words"] += n_single
    tables = ecc.recovery.tables()
    for w in words[wcounts != 1].tolist():
        ei = np.flatnonzero(ekey == w)
        ni = np.flatnonzero(nkey == w)
        row = int(w // n_words)
        word_base = int(w % n_words) << 6
        odd = np.bincount(phys[ei] & 63, minlength=64) & 1
        errs = set(np.flatnonzero(odd).tolist())
        errs.update((noise_phys[ni] & 63).tolist())
        if not errs:
            continue
        c["words"] += 1
        reals, unsure = recover_word(ecc.code, tables, frozenset(errs))
        if not unsure:
            c["recovered_words"] += 1
            continue
        c["ambiguous_cells"] += len(unsure)
        bank_row = row % n_rows if n_rows else row
        for p in unsure:
            ecc.ambiguous.add((bank_row, word_base + p))
        keep_events[ei] = False
        keep_noise[ni] = False
        if reals:
            add_rows.append(np.full(len(reals), row, dtype=np.int64))
            add_phys.append(np.array([word_base + p for p in sorted(reals)],
                                     dtype=np.int64))
    if obs.enabled():
        for name, value in ecc.counts.items():
            delta = value - ecc._flushed[name]
            if delta:
                obs.inc(f"profile.ecc.{name}", delta)
            ecc._flushed[name] = value
    return (np.concatenate([rows[keep_events], *add_rows]),
            np.concatenate([phys[keep_events], *add_phys]),
            noise_rows[keep_noise], noise_phys[keep_noise])


# -- BEER probing -----------------------------------------------------------


def beer_probe_round(chip, seed: int, *path) -> Tuple[
        List[Tuple[int, int]], np.ndarray,
        Dict[Tuple[int, int], FrozenSet[int]]]:
    """Dict-of-frozensets image of :func:`repro.ecc.beer._probe_round`.

    Returns ``(slots, triples, observed)``: per slot ``s`` the word
    coordinate ``(row, word)`` of its primary copy, the planted
    triple, and the post-ECC in-word error sets of every observed
    word.
    """
    from repro.core.detector import controllers_for
    from repro.robust.vote import reseed_banks

    bank = chip.banks[0]
    n_rows, row_bits = bank.n_rows, bank.row_bits
    n_words = row_bits >> 6
    stride = n_rows // COPIES
    n_slots = stride * n_words
    round_idx = path[-1]

    rng = np.random.default_rng(ladder_seed(seed, "triples", *path))
    triples = np.argsort(rng.random((n_slots, 64)), axis=1)[:, :3]
    triples.sort(axis=1)

    slot_rows = np.repeat(np.arange(stride, dtype=np.int64), n_words)
    slot_words = np.tile(np.arange(n_words, dtype=np.int64), stride)
    probe_rows = np.concatenate(
        [np.repeat(slot_rows + k * stride, 3) for k in range(COPIES)])
    probe_phys = np.concatenate(
        [(((slot_words + k * (n_words // COPIES)) % n_words)[:, None]
          * 64 + triples).ravel() for k in range(COPIES)])

    name, background = beer_backgrounds(row_bits, n_rows)[
        int(round_idx) % 4]
    reseed_banks(controllers_for(chip), seed, "beer", *path)
    bank.write_rows(np.arange(n_rows), background)
    bank.noise = ForcedFlipNoise(probe_rows, probe_phys)
    try:
        obs_rows, obs_sys = bank.retention_failures()
    finally:
        bank.noise = None

    obs_phys = bank.mapping.sys_to_phys()[obs_sys]
    observed: Dict[Tuple[int, int], FrozenSet[int]] = {}
    grouped: Dict[Tuple[int, int], List[int]] = {}
    for r, p in zip(obs_rows.tolist(), obs_phys.tolist()):
        grouped.setdefault((int(r), int(p) >> 6), []).append(int(p) & 63)
    for key, bits in grouped.items():
        observed[key] = frozenset(bits)

    slots = list(zip(slot_rows.tolist(), slot_words.tolist()))
    return slots, triples, observed


def beer_classify(observed: FrozenSet[int], triple: FrozenSet[int]
                  ) -> Tuple:
    """Outcome of one probed word: detect / miscorrection-flip / dirty."""
    if observed == triple:
        return ("detect",)
    if len(observed) == len(triple) + 1 and triple < observed:
        return ("flip", min(observed - triple))
    return ("dirty",)


def beer_paired_outcomes(chip, seed: int, *path):
    """Per-slot image of :func:`repro.ecc.beer._confirmed`.

    A slot's outcome counts only when all ``COPIES`` decoupled copies
    classify identically and none is dirty.  Returns
    ``(frozenset(triple), outcome)`` pairs in slot order, with outcome
    ``("detect",)`` or ``("flip", bit)``.
    """
    slots, triples, observed = beer_probe_round(chip, seed, *path)
    bank = chip.banks[0]
    stride = bank.n_rows // COPIES
    n_words = bank.row_bits >> 6
    outcomes = []
    for s, (row, word) in enumerate(slots):
        triple = frozenset(int(t) for t in triples[s])
        classes = {
            beer_classify(observed.get(
                (row + k * stride,
                 (word + k * (n_words // COPIES)) % n_words),
                frozenset()), triple)
            for k in range(COPIES)}
        if len(classes) == 1:
            outcome = classes.pop()
            if outcome[0] != "dirty":
                outcomes.append((triple, outcome))
    return outcomes


def eliminate(elim: Dict[int, int], outcomes) -> int:
    """Fold one round's flip outcomes into ``elim``, one at a time.

    ``elim`` maps a pivot bit to the eliminated relation mask whose
    highest set bit it is.  Each ``("flip", m)`` outcome of a triple
    is the relation ``triple | {m}``, reduced against the table until
    it vanishes or claims a new pivot.  Returns the number of flip
    relations folded.
    """
    relations = 0
    for triple, outcome in outcomes:
        if outcome[0] != "flip":
            continue
        mask = 0
        for p in triple | {outcome[1]}:
            mask |= 1 << p
        relations += 1
        while mask:
            pivot = mask.bit_length() - 1
            if pivot in elim:
                mask ^= elim[pivot]
            else:
                elim[pivot] = mask
                break
    return relations


def infer_ecc(chip, seed: int, max_rounds: int = 24) -> InferredEcc:
    """Per-relation image of :func:`repro.ecc.beer.infer_ecc`.

    Probe rounds through :func:`beer_paired_outcomes`, relations
    eliminated by :func:`eliminate`, until rank
    :data:`~repro.ecc.beer.TARGET_RANK`.
    """
    elim: Dict[int, int] = {}
    relations = rounds = 0
    for round_idx in range(max_rounds):
        rounds += 1
        relations += eliminate(elim, beer_paired_outcomes(chip, seed,
                                                          round_idx))
        if len(elim) >= TARGET_RANK:
            break
    if len(elim) != TARGET_RANK:
        return InferredEcc(basis=(), relations=relations, rounds=rounds,
                           ok=False,
                           note=f"relation rank {len(elim)} != "
                                f"{TARGET_RANK} after {rounds} rounds")
    basis, _ = _rref(_nullspace(elim.values()))
    inferred = InferredEcc(basis=basis, relations=relations,
                           rounds=rounds)
    if not inferred.structurally_valid():
        return InferredEcc(basis=basis, relations=relations,
                           rounds=rounds, ok=False,
                           note="structurally invalid basis")
    return inferred


def validate_inference(chip, inferred: InferredEcc, seed: int,
                       rounds: int = 2, min_checked: int = 16
                       ) -> EccInferenceReport:
    """Per-slot image of :func:`repro.ecc.beer.validate_inference`.

    Predicts every confirmed held-out slot one at a time: decode the
    triple with the recovered tables, classify, compare.
    """
    if not inferred.ok or not inferred.structurally_valid():
        return EccInferenceReport(
            ok=False, reason=inferred.note or "structurally invalid",
            inferred=inferred)
    cols, lookup = inferred.tables()
    checked = mismatches = 0
    for round_idx in range(rounds):
        for triple, outcome in beer_paired_outcomes(
                chip, seed, "validate", round_idx):
            seen = decode_with_tables(frozenset(triple), cols, lookup)[0]
            predicted = beer_classify(seen, triple)
            checked += 1
            if predicted != outcome:
                mismatches += 1
    ok = mismatches == 0 and checked >= min_checked
    reason = ("" if ok else
              f"{mismatches}/{checked} held-out mismatches"
              if checked >= min_checked else
              f"only {checked} confirmable slots")
    return EccInferenceReport(ok=ok, checked=checked,
                              mismatches=mismatches, reason=reason,
                              inferred=inferred)


# -- SEC-DED reference path ---------------------------------------------------


def encode_ref(code: HammingSecDed, bits: np.ndarray) -> np.ndarray:
    """Reference encode from dense 0/1 bit rows of shape (n, 64).

    Derives the check byte from the column representation alone: the
    data syndrome ``sd`` is the XOR of the columns of set data bits,
    and the check byte must cancel it - ``c_j = sd_j`` for ``j < 7``
    and ``c_7 = sd_7 ^ parity(c_0..c_6)``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.zeros(len(bits), dtype=np.uint8)
    for i, row in enumerate(bits):
        sd = 0
        for p in np.flatnonzero(row):
            sd ^= code.data_columns[int(p)]
        low = sd & 0x7F
        c7 = ((sd >> 7) ^ bin(low).count("1")) & 1
        out[i] = low | (c7 << 7)
    return out


def decode_ref(code: HammingSecDed, bits: np.ndarray, checks: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Reference decode over dense 0/1 bit rows of shape (n, 64)."""
    bits = np.asarray(bits, dtype=np.uint8)
    out = bits.copy()
    status = np.zeros(len(bits), dtype=np.uint8)
    for i, row in enumerate(bits):
        syndrome = 0
        for p in np.flatnonzero(row):
            syndrome ^= code.data_columns[int(p)]
        c = int(checks[i])
        for j in range(CHECK_BITS):
            if (c >> j) & 1:
                syndrome ^= code.check_columns[j]
        if syndrome == 0:
            status[i] = CLEAN
            continue
        match = int(code.lookup[syndrome])
        if match >= 0:
            out[i, match] ^= 1
            status[i] = CORRECTED
        elif match == CHECK_COLUMN:
            status[i] = CORRECTED_CHECK
        else:
            status[i] = DETECTED
    return out, status
