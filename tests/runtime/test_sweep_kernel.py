"""The batched whole-chip kernel and the array vote ledger vs their oracles.

:meth:`MemoryController.test_patterns` runs T whole-chip tests as one
kernel per bank, and :func:`repro.robust.vote.robust_sweep` scores its
repetitions on an array ledger.  ``tests/oracle.py`` keeps what they
replaced - the per-test write-all / read-back loop and the set-based
sweep - and :func:`tests.oracle.oracle_substrate` patches them in (with
the dense substrate).  The two sides must be indistinguishable: the
same per-test failing coordinates, in the same order and with the
same multiplicity, the same ``TestStats``, the same bank state
afterwards (``charge_words``, the VRT state, the on-die ECC counters
and ambiguous set, the noise clock), the same next draw of every
random stream, and the same verdicts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.scheduler import build_schedule
from repro.dram import CouplingSpec, DramChip, FaultSpec, vendor
from repro.dram.controller import MemoryController
from repro.dram.faults import DeviceNoiseModel, ForcedFlipNoise, NoiseSpec
from repro.dram.mapping import AddressMapping
from repro.ecc import HammingSecDed, OnDieEcc
from repro.ecc.beer import InferredEcc, _rref
from repro.robust import vote
from repro.robust.verdicts import RoundsPolicy
from repro.robust.vote import reseed_bank
from repro.runtime.chaos import corrupt_inferred_ecc

from tests import oracle

N_ROWS = 12


def _chips(geometry, seed, n_chips, n_banks):
    """Chips of a vendor at 8192 bits, or of a random narrow mapping."""
    if geometry in ("A", "B", "C"):
        return [vendor(geometry).make_chip(seed=seed + c, n_rows=N_ROWS,
                                           n_banks=n_banks)
                for c in range(n_chips)]
    row_bits = int(geometry)
    perm = np.random.default_rng(seed).permutation(row_bits)
    mapping = AddressMapping(row_bits=row_bits, block_bits=row_bits,
                             block_path=tuple(int(p) for p in perm),
                             tile_bits=row_bits)
    return [DramChip(mapping=mapping, n_rows=N_ROWS,
                     coupling_spec=CouplingSpec(n_cells=150),
                     fault_spec=FaultSpec(soft_error_rate=2e-3,
                                          n_vrt_cells=12,
                                          n_marginal_cells=12,
                                          n_weak_cells=8),
                     n_banks=n_banks, seed=seed + c)
            for c in range(n_chips)]


def _attach(chips, ecc, noise, seed):
    for c, chip in enumerate(chips):
        for b, bank in enumerate(chip.banks):
            bank_seed = seed + 7 * c + b
            code = HammingSecDed.for_vendor("ABC"[bank_seed % 3], bank_seed)
            if ecc == "lens":
                bank.ecc = OnDieEcc(code)
            elif ecc in ("recover", "wrong"):
                exact = InferredEcc(
                    basis=_rref(int(m) for m in code.row_masks)[0])
                recovery = (exact if ecc == "recover" else
                            corrupt_inferred_ecc(exact, "wrong-matrix",
                                                 seed=bank_seed))
                bank.ecc = OnDieEcc(code, recovery=recovery)
            if noise == "device":
                bank.noise = DeviceNoiseModel(
                    NoiseSpec(n_vrt_cells=6, n_marginal_cells=6,
                              soft_error_rate=1e-3, active_after=1),
                    N_ROWS, bank.row_bits, bank_seed)
            elif noise == "forced":
                # Forced corruption on coupled cells, so noise lands on
                # victims that may also flip.
                pick = np.random.default_rng(bank_seed).choice(
                    len(bank.coupled), size=12, replace=False)
                bank.noise = ForcedFlipNoise(
                    bank.coupled.row[pick],
                    bank.coupled.phys[pick] % bank.row_bits)


def _patterns(seed, row_bits, n_tests, per_row):
    """Random, solid and striped patterns (broadcast or per row)."""
    rng = np.random.default_rng(seed)
    shape = (n_tests, N_ROWS, row_bits) if per_row else (n_tests, row_bits)
    pats = rng.integers(0, 2, size=shape, dtype=np.uint8)
    pats[rng.random(n_tests) < 0.2] = 0
    pats[rng.random(n_tests) < 0.2] = 1
    stripe = np.arange(row_bits) % 2
    pats[rng.random(n_tests) < 0.2] = stripe.astype(np.uint8)
    return pats


def _state(controllers):
    state = []
    for ctrl in controllers:
        s = ctrl.stats
        state.append(("stats", s.tests, s.rows_written, s.rows_read,
                      s.retention_waits))
        for bank in ctrl.chip.banks:
            state.append(bank.charge_words.copy())
            state.append(bank.faults.vrt_leaky.copy())
            state.append(("next", bank._rng.random()))
            if bank.ecc is not None:
                state.append((dict(bank.ecc.counts),
                              set(bank.ecc.ambiguous)))
            if bank.noise is not None:
                rng = getattr(bank.noise, "_coin_rng", None)
                state.append((getattr(bank.noise, "reads", None),
                              rng.random() if rng is not None else None))
    return state


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        elif isinstance(a, tuple) and a and isinstance(a[0], np.ndarray):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        else:
            assert a == b


def _run_kernel(geometry, seed, n_chips, n_banks, n_tests, per_row, ecc,
                noise, reseeded):
    chips = _chips(geometry, seed, n_chips, n_banks)
    _attach(chips, ecc, noise, seed)
    controllers = [MemoryController(chip) for chip in chips]
    row_bits = chips[0].row_bits
    # Stale content, so nothing depends on a fresh bank.
    fill = np.random.default_rng(seed + 2).integers(
        0, 2, size=(N_ROWS, row_bits), dtype=np.uint8)
    for chip in chips:
        for bank in chip.banks:
            bank.write_rows(np.arange(N_ROWS), fill)
    pats = _patterns(seed, row_bits, n_tests, per_row)
    out = []
    for chip_idx, ctrl in enumerate(controllers):
        reseed = None
        if reseeded:
            def reseed(b, t, chip_idx=chip_idx, ctrl=ctrl):
                reseed_bank(ctrl.chip.banks[b], seed, "sweep", t % 5,
                            chip_idx, b)
        for per_bank in ctrl.test_patterns(pats, reseed):
            out.append(per_bank)
    # A follow-up single test on the streams the batch left behind.
    for ctrl in controllers:
        out.extend(ctrl.test_pattern(pats[-1]))
    return out + _state(controllers)


GEOMETRIES = st.sampled_from(["A", "B", "C", "64", "200"])


@given(st.integers(min_value=0, max_value=2**31 - 1), GEOMETRIES,
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=60), st.booleans(),
       st.sampled_from([None, "lens", "recover", "wrong"]),
       st.sampled_from([None, "device", "forced"]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_sweep_kernel_matches_per_test_oracle(seed, geometry, n_chips,
                                              n_banks, n_tests, per_row,
                                              ecc, noise, reseeded):
    if geometry == "200":
        ecc = None
    args = (geometry, seed, n_chips, n_banks, n_tests, per_row, ecc, noise,
            reseeded)
    got = _run_kernel(*args)
    with oracle.oracle_substrate():
        want = _run_kernel(*args)
    _assert_same(got, want)


def test_kernel_is_one_traced_test_span():
    """One ``test`` span per kernel call, carrying ``tests=T``, and the
    same ``io`` accounting as the per-test loop."""
    n_tests = 9
    pats = _patterns(3, 8192, n_tests, False)
    for patched, spans_expected in ((False, 1), (True, n_tests)):
        chip = vendor("A").make_chip(seed=3, n_rows=N_ROWS, n_banks=2)
        ctrl = MemoryController(chip)
        with obs.session("sweep-kernel") as sess:
            if patched:
                with oracle.oracle_substrate():
                    ctrl.test_patterns(pats)
            else:
                ctrl.test_patterns(pats)
        spans = [r for r in sess.tracer.records
                 if r["kind"] == "span" and r["name"] == "test"]
        assert len(spans) == spans_expected
        if not patched:
            assert spans[0]["attrs"]["tests"] == n_tests
            assert spans[0]["attrs"]["banks"] == 2
        assert ctrl.stats.tests == n_tests
        assert ctrl.stats.retention_waits == n_tests
        assert ctrl.stats.rows_written == n_tests * 2 * N_ROWS
        assert ctrl.stats.rows_read == n_tests * 2 * N_ROWS


def test_discovery_histogram_counts_duplicate_events():
    """A cell reported twice by one read (a soft error on a failing
    victim, or noise on a flipped cell) counts twice: the batched
    kernel keeps the multiplicity the per-test reads had."""
    from repro.core.victims import CellKeys, whole_chip_failures

    chip = _chips("64", 1, 1, 1)[0]
    bank = chip.banks[0]
    bank.noise = ForcedFlipNoise(bank.coupled.row, bank.coupled.phys % 64)
    ctrl = MemoryController(chip)
    pats = _patterns(1, 64, 20, False)
    tests, cells = whole_chip_failures([ctrl], pats, CellKeys([ctrl]))
    pairs = np.stack([tests, cells], axis=1)
    assert len(np.unique(pairs, axis=0)) < len(pairs)


def _sweep(vendor_name, seed, n_banks, policy, noise):
    chips = _chips(vendor_name, seed, 1, n_banks)
    _attach(chips, None, noise, seed)
    controllers = [MemoryController(chip) for chip in chips]
    schedule = build_schedule(chips[0].row_bits,
                              chips[0].ground_truth_distances())
    # Looked up at call time: oracle_substrate() swaps in the
    # set-based ledger.
    sweep = vote.robust_sweep(controllers, schedule, policy, seed=seed)
    return sweep, _state(controllers)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(["A", "B", "C"]),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.sampled_from([0.3, 0.5, 0.8, 1.0]),
       st.sampled_from([None, True, False]),
       st.sampled_from([None, "device"]))
@settings(max_examples=25, deadline=None)
def test_vote_ledger_matches_set_oracle(seed, vendor_name, n_banks, rounds,
                                        early, threshold, controls, noise):
    policy = RoundsPolicy(rounds=rounds, early_definite=early,
                          probabilistic_threshold=threshold,
                          controls=controls)
    got, got_state = _sweep(vendor_name, seed, n_banks, policy, noise)
    with oracle.oracle_substrate():
        want, want_state = _sweep(vendor_name, seed, n_banks, policy, noise)
    assert got.verdicts.votes == want.verdicts.votes
    assert got.verdicts.scored == want.verdicts.scored
    assert got.verdicts.control_failures == want.verdicts.control_failures
    assert got.quarantine.signature() == want.quarantine.signature()
    assert got.detected == want.detected
    assert got.rounds_executed == want.rounds_executed
    assert got.control_rounds == want.control_rounds
    _assert_same(got_state, want_state)


def test_vote_ledger_exits_early_and_quarantines():
    """The ledger cases above are not vacuous: the early exit skips
    rounds, and both quarantine reasons occur."""
    reasons = set()
    skipped = False
    for seed in range(4):
        policy = RoundsPolicy(rounds=4)
        noise = (None, "device")[seed % 2]
        sweep, _ = _sweep("ABC"[seed % 3], seed, 1, policy, noise)
        with oracle.oracle_substrate():
            want, _ = _sweep("ABC"[seed % 3], seed, 1, policy, noise)
        assert sweep.verdicts.votes == want.verdicts.votes
        assert sweep.quarantine.signature() == want.quarantine.signature()
        schedule_rounds = 4 * len(build_schedule(
            8192, vendor("ABC"[seed % 3]).mapping(8192)
            .neighbour_distance_set()).patterns) * 2
        skipped |= sweep.rounds_executed < schedule_rounds
        reasons |= set(sweep.quarantine.reason_counts())
    assert skipped
    assert reasons == {"control-failure", "inconsistent-votes"}
