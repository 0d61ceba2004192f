"""The packed ECC lens and BEER classifier against their per-word oracles.

Lens-mode :meth:`OnDieEcc.transform_read` folds a read into one
``uint64`` error mask per word and decodes them all in one packed
call; BEER's probe rounds classify every slot replica with mask
algebra.  ``tests/oracle.py`` keeps the per-word / dict-of-frozensets
formulations they replaced.  Both must agree exactly: output arrays
in order and dtype, stage counters, ``profile.ecc.*`` obs counters,
probe outcome lists, and the inference and validation they feed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dram import vendor
from repro.ecc import (HammingSecDed, OnDieEcc, attach_on_die_ecc,
                       beer_backgrounds, infer_ecc, validate_inference)
from repro.ecc import beer
from repro.ecc.beer import COPIES
from repro.runtime import ladder_seed
from repro.runtime.chaos import corrupt_inferred_ecc
from tests import oracle

CODES = {v: HammingSecDed.for_vendor(v, 0) for v in "ABC"}


def _run_both(code, rows, phys, noise_rows, noise_phys, row_bits):
    """Production and oracle lens on fresh stages; outputs + counters."""
    results = []
    for fn in (lambda e, *a: e.transform_read(*a),
               oracle.lens_transform_read):
        ecc = OnDieEcc(code)
        with obs.session("lens-diff") as sess:
            out = fn(ecc, rows, phys, noise_rows, noise_phys, row_bits)
        counters = {name: value
                    for name, value in sess.metrics.counters.items()
                    if name.startswith("profile.ecc.")}
        results.append((out, dict(ecc.counts), counters))
    return results


def _assert_identical(got, want):
    (out_g, counts_g, obs_g), (out_w, counts_w, obs_w) = got, want
    for a, b in zip(out_g, out_w):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert counts_g == counts_w
    assert obs_g == obs_w


@st.composite
def reads(draw):
    """A read concentrated on a few words: duplicate and cancelling
    events, noise on top of events, several rows."""
    row_bits = draw(st.sampled_from([64, 128, 8192]))
    n_words = row_bits // 64
    cell = st.tuples(st.integers(0, 3),
                     st.integers(0, min(n_words, 3) - 1),
                     st.integers(0, 63))
    pool = draw(st.lists(cell, min_size=1, max_size=12))
    events = draw(st.lists(st.sampled_from(pool), max_size=30))
    noise = draw(st.lists(st.one_of(st.sampled_from(pool), cell),
                          max_size=10))
    spread = max(n_words // 3, 1)

    def coords(cells):
        rows = np.array([r for r, _, _ in cells], dtype=np.int64)
        phys = np.array([w * spread * 64 + b for _, w, b in cells],
                        dtype=np.int64)
        return rows, phys

    return (*coords(events), *coords(noise), row_bits)


@given(v=st.sampled_from(sorted(CODES)), read=reads())
@settings(max_examples=200, deadline=None)
def test_lens_matches_oracle(v, read):
    got, want = _run_both(CODES[v], *read)
    _assert_identical(got, want)


@pytest.mark.parametrize("v", sorted(CODES))
def test_lens_matches_oracle_on_dense_reads(v):
    """Seeded reads dense enough to reach every decode status."""
    rng = np.random.default_rng(ladder_seed(18, "lens-diff", v))
    totals = dict.fromkeys(OnDieEcc(None).counts, 0)
    for _ in range(100):
        n_ev, n_noise = rng.integers(0, 400, size=2)
        rows = rng.integers(0, 8, size=n_ev)
        phys = rng.integers(0, 256, size=n_ev)
        noise_rows = rng.integers(0, 8, size=n_noise)
        noise_phys = rng.integers(0, 256, size=n_noise)
        got, want = _run_both(CODES[v], rows, phys, noise_rows,
                              noise_phys, 256)
        _assert_identical(got, want)
        for name, value in got[1].items():
            totals[name] += value
    for name in ("masked", "miscorrections", "corrected_words",
                 "detected_words", "undetected"):
        assert totals[name] > 0, name


# -- BEER -----------------------------------------------------------------

N_ROWS = 64


def _probe_chip(v, seed=0):
    chip = vendor(v).make_chip(
        seed=ladder_seed(seed, "ecc", "probe-chip"), n_rows=N_ROWS)
    attach_on_die_ecc(chip, HammingSecDed.for_vendor(v, seed))
    return chip


@pytest.mark.parametrize("v", sorted(CODES))
def test_probe_outcomes_match_oracle(v):
    chip = _probe_chip(v)
    seed = ladder_seed(0, "beer", v)
    n_backgrounds = len(beer_backgrounds(chip.banks[0].row_bits, N_ROWS))
    for round_idx in range(n_backgrounds):
        got = beer._paired_outcomes(chip, seed, round_idx)
        want = oracle.beer_paired_outcomes(chip, seed, round_idx)
        assert got == want
        assert any(o[0] == "flip" for _, o in got)


def _dirty_replicas(chip, seed, round_idx):
    """Slot replicas the oracle classifies dirty in one probe round."""
    slots, triples, observed = oracle.beer_probe_round(chip, seed,
                                                       round_idx)
    stride = N_ROWS // COPIES
    n_words = chip.banks[0].row_bits >> 6
    return sum(
        oracle.beer_classify(
            observed.get((row + k * stride,
                          (word + k * (n_words // COPIES)) % n_words),
                         frozenset()),
            frozenset(triples[s].tolist()))[0] == "dirty"
        for s, (row, word) in enumerate(slots) for k in range(COPIES))


def test_striped_rounds_drop_dirty_slots():
    """Non-solid backgrounds wake natural failures: some replicas
    classify dirty, and their slots are dropped from the outcomes."""
    n_slots = (N_ROWS // COPIES) * (8192 // 64)
    dirty_rounds = 0
    for v in sorted(CODES):
        chip = _probe_chip(v)
        seed = ladder_seed(0, "beer", v)
        for round_idx, (name, _) in enumerate(beer_backgrounds(
                chip.banks[0].row_bits, N_ROWS)):
            if name.startswith("solid"):
                continue
            if _dirty_replicas(chip, seed, round_idx):
                dirty_rounds += 1
                kept = beer._paired_outcomes(chip, seed, round_idx)
                assert len(kept) < n_slots
    assert dirty_rounds > 0


def test_only_checkered_rounds_dirty_replicas():
    """Contamination comes from the checkered background alone.

    At 64 rows the checkered round dirties at least one replica on
    vendors B and C, whose odd neighbour distances put opposite
    charges side by side.  The solids, the row stripe (whole rows of
    one value; coupling is intra-row) and vendor A's checkered round
    (even distances) leave every replica clean.
    """
    for v in sorted(CODES):
        chip = _probe_chip(v)
        seed = ladder_seed(0, "beer", v)
        for round_idx, (name, _) in enumerate(beer_backgrounds(
                chip.banks[0].row_bits, N_ROWS)):
            dirty = _dirty_replicas(chip, seed, round_idx)
            if name == "checkered" and v in "BC":
                assert dirty >= 1, (v, name)
            else:
                assert dirty == 0, (v, name, dirty)


def _report_fields(report):
    return (report.ok, report.checked, report.mismatches, report.reason)


@pytest.mark.parametrize("v", sorted(CODES))
def test_inference_and_validation_match_oracle(v, monkeypatch):
    seed = ladder_seed(0, "beer", v)
    vseed = ladder_seed(0, "beer", "validate", v)
    inferred = infer_ecc(_probe_chip(v), seed=seed)
    report = validate_inference(_probe_chip(v), inferred, seed=vseed)
    monkeypatch.setattr(beer, "_paired_outcomes",
                        oracle.beer_paired_outcomes)
    inferred_o = infer_ecc(_probe_chip(v), seed=seed)
    report_o = oracle.validate_inference(_probe_chip(v), inferred_o,
                                         seed=vseed)
    assert inferred.ok and report.ok
    assert (inferred.basis, inferred.relations, inferred.rounds) == (
        inferred_o.basis, inferred_o.relations, inferred_o.rounds)
    assert _report_fields(report) == _report_fields(report_o)


@pytest.mark.parametrize("fault_seed", [1, 2, 3])
@pytest.mark.parametrize("v", sorted(CODES))
def test_validation_of_wrong_matrix_matches_oracle(v, fault_seed):
    """A corrupted basis: the packed decode counts every mismatch the
    per-slot loop counts, and fails the same way."""
    chip = _probe_chip(v)
    inferred = infer_ecc(chip, seed=ladder_seed(0, "beer", v))
    bad = corrupt_inferred_ecc(inferred, "wrong-matrix", seed=fault_seed)
    vseed = ladder_seed(0, "beer", "validate", v)
    report = validate_inference(chip, bad, seed=vseed)
    assert _report_fields(report) == _report_fields(
        oracle.validate_inference(chip, bad, seed=vseed))
    assert report.mismatches > 0 and not report.ok
    for low in (10**6, 16):
        assert _report_fields(validate_inference(
            chip, inferred, seed=vseed, min_checked=low)) == _report_fields(
            oracle.validate_inference(chip, inferred, seed=vseed,
                                      min_checked=low))
