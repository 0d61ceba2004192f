"""The batched region-test kernel against its per-test oracle.

:meth:`MemoryController.test_regions` runs every region test of a
recursion level on one bank as one kernel: all pattern/inverse writes
described at once, all retention waits evaluated together.
``tests/oracle.py`` keeps the loop it replaced - two single tests per
region test, each a dense write followed by a full read-back.  The two
must be indistinguishable: the same failure masks, the same
``TestStats``, the same bank state afterwards (``charge_words``, the
VRT state, the on-die ECC counters and ambiguous set, the noise clock)
and the same next draw of every random stream.

The recursion's re-votes run each repetition of a level's suspicious
region tests as one such kernel call per bank, every test on its own
reseeded stream; ``tests.oracle.revote_uncorroborated`` keeps the
test-by-test loop they replaced, and the two must agree the same way.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import recursion
from repro.core.victims import VictimSample
from repro.dram import CouplingSpec, DramChip, FaultSpec, vendor
from repro.dram.controller import MemoryController
from repro.dram.faults import DeviceNoiseModel, ForcedFlipNoise, NoiseSpec
from repro.dram.mapping import AddressMapping
from repro.ecc import HammingSecDed, OnDieEcc
from repro.ecc.beer import InferredEcc, _rref
from repro.robust import RoundsPolicy
from repro.runtime.chaos import corrupt_inferred_ecc

from tests import oracle

N_ROWS = 10


def _chip(row_bits, seed):
    """A one-bank chip: a vendor mapping at 8192 bits, else random."""
    if row_bits == 8192:
        return vendor("ABC"[seed % 3]).make_chip(seed=seed, n_rows=N_ROWS)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(row_bits)
    mapping = AddressMapping(row_bits=row_bits, block_bits=row_bits,
                             block_path=tuple(int(p) for p in perm),
                             tile_bits=row_bits)
    return DramChip(mapping=mapping, n_rows=N_ROWS,
                    coupling_spec=CouplingSpec(n_cells=120),
                    fault_spec=FaultSpec(soft_error_rate=2e-3,
                                         n_vrt_cells=12,
                                         n_marginal_cells=12,
                                         n_weak_cells=8),
                    seed=seed)


def _attach(chip, ecc, noise, seed, bank_idx=0):
    bank = chip.banks[bank_idx]
    code = HammingSecDed.for_vendor("ABC"[seed % 3], seed)
    if ecc == "lens":
        bank.ecc = OnDieEcc(code)
    elif ecc in ("recover", "wrong"):
        exact = InferredEcc(basis=_rref(int(m) for m in code.row_masks)[0])
        recovery = (exact if ecc == "recover" else
                    corrupt_inferred_ecc(exact, "wrong-matrix", seed=seed))
        bank.ecc = OnDieEcc(code, recovery=recovery)
    if noise == "device":
        bank.noise = DeviceNoiseModel(
            NoiseSpec(n_vrt_cells=6, n_marginal_cells=6,
                      soft_error_rate=1e-3, active_after=1),
            N_ROWS, bank.row_bits, seed)
    elif noise == "forced":
        # Forced corruption on coupled cells, so noise lands on
        # victims that may also flip.
        pick = np.random.default_rng(seed + 1).choice(
            len(bank.coupled), size=12, replace=False)
        bank.noise = ForcedFlipNoise(bank.coupled.row[pick],
                                     bank.coupled.phys[pick] % bank.row_bits)


def _case(seed, row_bits, n_tests):
    """Rows, victims and per-test region starts for one bank."""
    rng = np.random.default_rng(seed)
    probe = _chip(row_bits, seed).banks[0]
    rows = np.sort(rng.choice(N_ROWS, size=int(rng.integers(3, N_ROWS)),
                              replace=False))
    # Victims: mostly real coupled cells (so the tests fail), plus
    # arbitrary cells; duplicates allowed.
    pop = probe.coupled
    live = np.flatnonzero(np.isin(pop.row, rows) & (pop.phys < row_bits))
    pick = rng.choice(live, size=min(len(live), 40), replace=False)
    p2s = probe.mapping.phys_to_sys()
    v_rows = np.concatenate([pop.row[pick],
                             rng.choice(rows, size=10)])
    v_cols = np.concatenate([p2s[pop.phys[pick]],
                             rng.integers(0, row_bits, size=10)])
    row_idx = np.searchsorted(rows, v_rows)
    sizes = [d for d in (1, 2, 8, 64, row_bits // 2, row_bits)
             if d and row_bits % d == 0]
    size = int(rng.choice(sizes))
    n_regions = row_bits // size
    starts = rng.integers(0, n_regions, size=(n_tests, len(row_idx))) * size
    starts[rng.random(starts.shape) < 0.3] = -1
    starts[rng.random(n_tests) < 0.15] = -1   # wholly uncovered tests
    return rows, (row_idx, v_cols), starts, size


def _state(ctrl, masks, bank_idx=0):
    bank = ctrl.chip.banks[bank_idx]
    s = ctrl.stats
    state = {
        "masks": masks,
        "stats": (s.tests, s.rows_written, s.rows_read,
                  s.retention_waits),
        "charge": bank.charge_words.copy(),
        "vrt": bank.faults.vrt_leaky.copy(),
        "next": bank._rng.random(),
    }
    if bank.ecc is not None:
        state["ecc"] = (dict(bank.ecc.counts), set(bank.ecc.ambiguous))
    if bank.noise is not None:
        state["noise"] = getattr(bank.noise, "reads", None)
        rng = getattr(bank.noise, "_coin_rng", None)
        state["noise_next"] = rng.random() if rng is not None else None
    return state


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype, key
            assert np.array_equal(a[key], b[key]), key
        else:
            assert a[key] == b[key], key


def _run(seed, row_bits, n_tests, ecc, noise, rows_only, kernel):
    chip = _chip(row_bits, seed)
    _attach(chip, ecc, noise, seed)
    ctrl = MemoryController(chip)
    bank = chip.banks[0]
    # Stale content in every row, including the untested ones.
    fill = np.random.default_rng(seed + 2).integers(
        0, 2, size=(N_ROWS, row_bits), dtype=np.uint8)
    bank.write_rows(np.arange(N_ROWS), fill)
    rows, victims, starts, size = _case(seed, row_bits, n_tests)
    masks = kernel(ctrl, 0, rows, victims, starts, size,
                   coupled_rows_only=rows_only)
    first = _state(ctrl, masks)
    # A follow-up re-vote-shaped call: one test, a few rows, on the
    # stream the first call left behind.
    keep = np.isin(victims[0], victims[0][:3])
    sub_rows = rows[np.unique(victims[0][keep])]
    sub = (np.searchsorted(sub_rows, rows[victims[0][keep]]),
           victims[1][keep])
    again = kernel(ctrl, 0, sub_rows, sub, starts[:1, keep], size,
                   coupled_rows_only=True)
    return first, _state(ctrl, again)


def _batched(ctrl, *args, **kwargs):
    return ctrl.test_regions(*args, **kwargs)


WIDTHS = st.sampled_from([64, 200, 8192])


@given(st.integers(min_value=0, max_value=2**31 - 1), WIDTHS,
       st.integers(min_value=1, max_value=48),
       st.sampled_from([None, "lens", "recover", "wrong"]),
       st.sampled_from([None, "device", "forced"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_level_kernel_matches_per_test_oracle(seed, row_bits, n_tests, ecc,
                                              noise, rows_only):
    if row_bits % 64:
        ecc = None
    if ecc and rows_only:
        # Re-vote tests write different rows, which a bank with an
        # ECC code only takes one test at a time.
        n_tests = 1
    got = _run(seed, row_bits, n_tests, ecc, noise, rows_only, _batched)
    want = _run(seed, row_bits, n_tests, ecc, noise, rows_only,
                oracle.test_regions)
    for a, b in zip(got, want):
        _assert_same(a, b)


def test_ecc_bank_takes_one_revote_row_set_at_a_time():
    """With a real ECC code a read decodes the whole bank, so images
    over different rows (re-vote tests) are refused, not mis-read."""
    chip = _chip(8192, 3)
    _attach(chip, "lens", None, 3)
    rows, victims, starts, size = _case(3, 8192, 6)
    ctrl = MemoryController(chip)
    starts[:] = -1
    starts[0, 0] = starts[1, -1] = 0
    assert victims[0][0] != victims[0][-1]
    with pytest.raises(ValueError, match="same rows"):
        ctrl.test_regions(0, rows, victims, starts[:2], size,
                          coupled_rows_only=True)


def test_recover_bank_reaches_ambiguity():
    """The wrong-matrix recovery bank really surrenders cells, so the
    ambiguous-set comparison above is not vacuous."""
    for seed in range(20):
        got, _ = _run(seed, 8192, 24, "wrong", None, False, _batched)
        if got["ecc"][1]:
            return
    raise AssertionError("no seed produced ambiguous cells")


def test_kernel_is_one_traced_test_span():
    """One ``test`` span per kernel call, carrying ``tests=2T``, and
    the same ``io`` accounting as the per-test loop."""
    seed, n_tests = 5, 12
    for kernel, spans_expected in ((_batched, 1),
                                   (oracle.test_regions, 2 * n_tests)):
        chip = _chip(8192, seed)
        ctrl = MemoryController(chip)
        rows, victims, starts, size = _case(seed, 8192, n_tests)
        with obs.session("level-kernel") as sess:
            kernel(ctrl, 0, rows, victims, starts, size)
        spans = [r for r in sess.tracer.records
                 if r["kind"] == "span" and r["name"] == "test"]
        assert len(spans) == spans_expected
        if kernel is _batched:
            assert spans[0]["attrs"]["tests"] == 2 * n_tests
            assert spans[0]["attrs"]["rows"] == len(rows)
        assert ctrl.stats.tests == 2 * n_tests
        assert ctrl.stats.rows_written == 2 * n_tests * len(rows)


@given(st.integers(min_value=0, max_value=2**31 - 1), WIDTHS,
       st.integers(min_value=1, max_value=12))
@settings(max_examples=20, deadline=None)
def test_batched_halves_match_sequential_oracle(seed, row_bits, n_images):
    """The bank halves with a test axis and arbitrary per-image values
    (span value equal to the background included) read back exactly
    what the images written and read one at a time read back."""
    rng = np.random.default_rng(seed)
    rows, (row_idx, cols), starts, size = _case(seed, row_bits, n_images)
    base = rng.integers(0, 2, size=n_images).astype(np.uint8)
    span_value = rng.integers(0, 2, size=n_images).astype(np.uint8)
    point_value = rng.integers(0, 2, size=n_images).astype(np.uint8)
    span_row = np.where(starts >= 0, row_idx, -1)

    batched = _chip(row_bits, seed).banks[0]
    images = batched.write_rows_patched(
        np.tile(rows, n_images), base,
        spans=(span_row, starts, size, span_value),
        points=(row_idx, cols, point_value))
    got = batched.retention_check_cells(np.tile(rows, n_images), row_idx,
                                        cols, images=images)

    single = _chip(row_bits, seed).banks[0]
    want = []
    for t in range(n_images):
        use = starts[t] >= 0
        oracle.write_rows_patched(
            single, rows, int(base[t]),
            spans=(row_idx[use], starts[t][use], size, int(span_value[t])),
            points=(row_idx, cols, int(point_value[t])))
        want.append(oracle.retention_check_cells(single, rows, row_idx,
                                                 cols))
    assert np.array_equal(got, np.array(want).reshape(got.shape))
    assert np.array_equal(batched.charge_words, single.charge_words)
    assert batched._rng.random() == single._rng.random()


# -- batched re-votes ---------------------------------------------------------


def _revote_level(seed, n_chips, n_banks, ecc, noise, arm_at, rounds,
                  revote):
    """One level's initial pass plus its re-votes, on fresh chips.

    Victims are coupled cells and a few arbitrary cells of every bank;
    each test probes one distance of its own, so most distances have
    few reporters, and random extra failures give the vote observations
    to drop.  A bank's device noise switches on ``arm_at`` waits after
    the initial pass.
    """
    rng = np.random.default_rng(seed)
    name = "ABC"[seed % 3]
    controllers, coords = [], []
    for c in range(n_chips):
        chip = vendor(name).make_chip(seed=seed + c, n_rows=N_ROWS,
                                      n_banks=n_banks)
        for b, bank in enumerate(chip.banks):
            _attach(chip, ecc, noise, seed + 7 * c + b, bank_idx=b)
            pop = bank.coupled
            live = np.flatnonzero(pop.phys < bank.row_bits)
            pick = rng.choice(live, size=6, replace=False)
            rows, phys = pop.row[pick], pop.phys[pick]
            if isinstance(bank.noise, ForcedFlipNoise) and c == b == 0:
                # One victim the noise corrupts on every read.
                rows = np.append(rows, bank.noise.rows[0])
                phys = np.append(phys, bank.noise.phys_cols[0])
            if isinstance(bank.noise, DeviceNoiseModel) and c == b == 0:
                # One victim an injected VRT cell corrupts on every
                # read once the noise is armed.
                bank.noise.vrt_row[0] = rows[0]
                bank.noise.vrt_phys[0] = phys[0]
            p2s = bank.mapping.phys_to_sys()
            coords += [(c, b, int(r), int(col))
                       for r, col in zip(rows, p2s[phys])]
            coords += [(c, b, int(rng.integers(N_ROWS)),
                        int(rng.integers(bank.row_bits))) for _ in range(2)]
        controllers.append(MemoryController(chip))
    sample = VictimSample.from_coords(sorted(set(coords)))
    groups = recursion._group_victims(sample,
                                      np.ones(len(sample), dtype=bool))
    size = int(rng.choice([1, 8, 64]))
    n_regions = 8192 // size
    v_region = sample.col // size
    shifts = rng.choice(np.arange(-4, 5), size=int(rng.integers(3, 9)),
                        replace=False)
    sub_abs = v_region + shifts[:, None]
    covered = ((sub_abs >= 0) & (sub_abs < n_regions)
               & (rng.random(sub_abs.shape) < 0.9))
    if size == 1:
        covered &= sub_abs != sample.col
    paths = [(2, int(d), j) for j, d in enumerate(shifts)]
    failed = recursion._run_region_tests(controllers, groups, sub_abs,
                                         covered, size)
    failed |= covered & (rng.random(covered.shape) < 0.05)
    for ctrl in controllers:
        for bank in ctrl.chip.banks:
            if isinstance(bank.noise, DeviceNoiseModel):
                bank.noise.spec = replace(
                    bank.noise.spec,
                    active_after=bank.noise.reads + arm_at)
    counts = revote(controllers, groups, size, sub_abs, covered, failed,
                    paths, v_region, RoundsPolicy(rounds=rounds), seed)
    states = [_state(ctrl, None, b) for ctrl in controllers
              for b in range(n_banks)]
    return failed, counts, states


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2),
       st.sampled_from([None, "lens"]),
       st.sampled_from([None, "device", "forced"]),
       st.integers(min_value=-1, max_value=34),
       st.sampled_from([2, 3, 4]))
@settings(max_examples=50, deadline=None)
def test_revotes_match_per_test_oracle(seed, n_chips, n_banks, ecc, noise,
                                       arm_at, rounds):
    """Batched re-votes == the per-test loop: upheld failures, vote
    counts, and every bank's streams, VRT state, noise clock and next
    coin, charge, ECC counters and TestStats - with device noise
    switching on before, inside or after the level's re-vote block
    (at most 2 x 8 tests x 2 repetitions = 32 waits)."""
    _assert_revotes_match(seed, n_chips, n_banks, ecc, noise, arm_at,
                          rounds)


@pytest.mark.parametrize("arm_at", [0, 1, 2, 3, 5, 8, 13])
def test_revotes_match_when_noise_arms_in_the_block(arm_at):
    """Noise on a re-voted victim that switches on at a chosen wait of
    the block: the order of the waits decides which repetitions see
    it, so the batches must fall back to the test-by-test order."""
    for seed in range(12):
        _assert_revotes_match(seed, 1, 1, None, "device", arm_at, 3)


def _assert_revotes_match(*case):
    got = _revote_level(*case, recursion._revote_uncorroborated)
    want = _revote_level(*case, oracle.revote_uncorroborated)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for a, b in zip(got[2], want[2]):
        _assert_same(a, b)


def test_revotes_batch_a_level_per_bank_and_repetition():
    """A level's re-votes are at most one kernel call per bank and
    repetition, and the votes really uphold and drop failures."""
    calls = []
    kernel = MemoryController.test_regions

    def counted(ctrl, bank, *args, **kwargs):
        calls.append((id(ctrl), bank, kwargs.get("coupled_rows_only")))
        return kernel(ctrl, bank, *args, **kwargs)

    upheld = dropped = 0
    MemoryController.test_regions = counted
    try:
        for seed in range(4):
            calls.clear()
            failed, counts, _ = _revote_level(
                seed, 2, 2, None, "forced", 0, 3,
                recursion._revote_uncorroborated)
            revotes = [c for c in calls if c[2]]
            assert len(revotes) <= 2 * len(set(revotes))
            upheld += int((counts >= 2).sum())
            dropped += int(((counts > 0) & (counts < 2)).sum())
    finally:
        MemoryController.test_regions = kernel
    assert upheld and dropped
