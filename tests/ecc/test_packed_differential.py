"""The packed ECC stage and BEER solver against their per-word oracles.

Lens-mode :meth:`OnDieEcc.transform_read` folds a read into one
``uint64`` error mask per word and decodes them all in one packed
call; recovery mode inverts every multi-input word in one packed
pass; BEER's probe reads stay word masks, every slot replica is
classified with mask algebra, and relations are eliminated as arrays.
``tests/oracle.py`` keeps the per-word / dict-of-frozensets /
one-relation-at-a-time formulations they replaced.  Both must agree
exactly: output arrays in order and dtype, stage counters, ambiguous
sets, ``profile.ecc.*`` obs counters, probe outcome lists, relation
ranks, and the inference and validation they feed.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dram import vendor
from repro.dram.faults import ForcedFlipNoise
from repro.ecc import (HammingSecDed, InferredEcc, OnDieEcc,
                       attach_on_die_ecc, beer_backgrounds, infer_ecc,
                       validate_inference)
from repro.ecc import beer
from repro.ecc.beer import COPIES, DATA_BITS, _nullspace, _rref
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


# -- recovery ---------------------------------------------------------------


def _exact(code):
    """The exact recovery: the true rowspace in canonical form."""
    return InferredEcc(basis=_rref(int(m) for m in code.row_masks)[0])


RECOVERIES = {
    "exact": _exact,
    # A full-rank but wrong basis: the inversion mispredicts, and the
    # packed pass must mispredict exactly like the per-word loop.
    "wrong-matrix": lambda code: corrupt_inferred_ecc(
        _exact(code), "wrong-matrix", seed=2),
}


def _run_recovery_both(code, recovery, read, n_rows=None):
    """Production and oracle recovery on fresh stages."""
    results = []
    for fn in (lambda e, *a, **k: e.transform_read(*a, **k),
               oracle.recover_transform_read):
        ecc = OnDieEcc(code, recovery=recovery)
        with obs.session("recover-diff") as sess:
            out = fn(ecc, *read, n_rows=n_rows)
        counters = {name: value
                    for name, value in sess.metrics.counters.items()
                    if name.startswith("profile.ecc.")}
        results.append((out, dict(ecc.counts), counters, ecc.ambiguous))
    (out_g, *rest_g), (out_w, *rest_w) = results
    for a, b in zip(out_g, out_w):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert rest_g == rest_w


def _word_cases(code, recovery, rows, phys, noise_rows, noise_phys,
                _row_bits):
    """How the per-word oracle settles each multi-input word of a read:
    "unique" (one verified candidate), "several", "none" verified, or
    "cancelled" (every input cancelled)."""
    errs, inputs = {}, {}
    for r, p in zip(rows.tolist(), phys.tolist()):
        key = (r, p // 64)
        errs[key] = errs.get(key, frozenset()) ^ {p % 64}
        inputs[key] = inputs.get(key, 0) + 1
    noise = {}
    for r, p in zip(noise_rows.tolist(), noise_phys.tolist()):
        noise.setdefault((r, p // 64), set()).add(p % 64)
        inputs[(r, p // 64)] = inputs.get((r, p // 64), 0) + 1
    cases = dict.fromkeys(("unique", "several", "none", "cancelled"), 0)
    for key, count in inputs.items():
        if count == 1:
            continue
        word = errs.get(key, frozenset()) | noise.get(key, set())
        if not word:
            cases["cancelled"] += 1
            continue
        reals, unsure = oracle.recover_word(
            code, recovery.code.data_columns, word)
        if not unsure:
            cases["unique"] += 1
        elif unsure == set(range(DATA_BITS)):
            cases["none"] += 1
        else:
            cases["several"] += 1
    return cases


@given(v=st.sampled_from(sorted(CODES)),
       kind=st.sampled_from(sorted(RECOVERIES)), read=reads())
@settings(max_examples=200, deadline=None)
def test_recovery_matches_oracle(v, kind, read):
    _run_recovery_both(CODES[v], RECOVERIES[kind](CODES[v]), read)


def _dense_read(rng):
    """One seeded read over 16 rows of four words.

    Events and part of the noise come from a small cell pool, so
    words collect several inputs and repeated events cancel; two more
    words each take both companion bits 0 and 1 plus two other bits,
    the words where a companion pass has two distinct candidates.
    """
    n_pool = int(rng.integers(1, 40))
    pool_rows = rng.integers(0, 16, size=n_pool)
    pool_phys = rng.integers(0, 256, size=n_pool)
    ev = rng.integers(0, n_pool, size=rng.integers(0, 60))
    nz = rng.integers(0, n_pool, size=rng.integers(0, 20))
    pair_rows = np.repeat(rng.integers(0, 16, size=2), 4)
    pair_phys = (np.repeat(rng.integers(0, 4, size=2), 4) * 64
                 + np.concatenate([[0, 1, *rng.integers(2, 64, size=2)]
                                   for _ in range(2)]))
    return (np.concatenate([pool_rows[ev], pair_rows]),
            np.concatenate([pool_phys[ev], pair_phys]),
            np.concatenate([pool_rows[nz], rng.integers(0, 16, size=3)]),
            np.concatenate([pool_phys[nz], rng.integers(0, 256, size=3)]),
            256)


@pytest.mark.parametrize("v", sorted(CODES))
def test_recovery_matches_oracle_on_dense_reads(v):
    """Seeded reads that reach every way a multi-input word settles,
    in several-reads-per-call form (rows ``read * n_rows + row``).
    No word has several verified candidates (see
    :func:`test_inversion_matches_oracle_exhaustively`)."""
    code = CODES[v]
    totals = dict.fromkeys(("unique", "several", "none", "cancelled"), 0)
    for kind in sorted(RECOVERIES):
        recovery = RECOVERIES[kind](code)
        rng = np.random.default_rng(ladder_seed(25, "recover-diff", v,
                                                kind))
        for _ in range(60):
            read = _dense_read(rng)
            _run_recovery_both(code, recovery, read, n_rows=8)
            for case, n in _word_cases(code, recovery, *read).items():
                totals[case] += n
    assert not totals.pop("several")
    assert all(totals.values()), totals


def _small_words():
    """The in-word bits of every error word of weight 1 to 3, and of
    every weight-4 word holding both companion bits 0 and 1."""
    sets = [bits for k in (1, 2, 3) for bits in combinations(range(64), k)]
    sets += [(0, 1, *pair) for pair in combinations(range(2, 64), 2)]
    return sets


@pytest.mark.parametrize("kind", sorted(RECOVERIES))
@pytest.mark.parametrize("v", sorted(CODES))
def test_inversion_matches_oracle_exhaustively(v, kind):
    """The single-candidate rule: over every small error word, the
    packed inversion equals the per-word oracle bit for bit, and the
    oracle never settles a word by several verified candidates."""
    code = CODES[v]
    recovery = RECOVERIES[kind](code)
    sets = _small_words()
    masks = np.array([sum(1 << p for p in bits) for bits in sets],
                     dtype=np.uint64)
    real, unsure = OnDieEcc(code, recovery=recovery)._invert(masks)
    all_bits = set(range(DATA_BITS))
    want_real, want_unsure = [], []
    for bits in sets:
        reals, unsures = oracle.recover_word(
            code, recovery.code.data_columns, frozenset(bits))
        assert unsures in (set(), all_bits), bits
        want_real.append(sum(1 << p for p in reals))
        want_unsure.append(sum(1 << p for p in unsures))
    assert real.tolist() == want_real
    assert unsure.tolist() == want_unsure


# -- BEER -----------------------------------------------------------------

N_ROWS = 64


def _probe_chip(v, seed=0):
    chip = vendor(v).make_chip(
        seed=ladder_seed(seed, "ecc", "probe-chip"), n_rows=N_ROWS)
    attach_on_die_ecc(chip, HammingSecDed.for_vendor(v, seed))
    return chip


def _paired(chip, seed, *path):
    """:func:`beer._confirmed` as the oracle's outcome pairs."""
    triples, extra = beer._confirmed(chip, seed, *path)
    return [(frozenset(triple),
             ("flip", e.bit_length() - 1) if e else ("detect",))
            for triple, e in zip(triples.tolist(), extra.tolist())]


@pytest.mark.parametrize("v", sorted(CODES))
def test_probe_outcomes_match_oracle(v):
    chip = _probe_chip(v)
    seed = ladder_seed(0, "beer", v)
    n_backgrounds = len(beer_backgrounds(chip.banks[0].row_bits, N_ROWS))
    for round_idx in range(n_backgrounds):
        got = _paired(chip, seed, round_idx)
        want = oracle.beer_paired_outcomes(chip, seed, round_idx)
        assert got == want
        assert any(o[0] == "flip" for _, o in got)


@pytest.mark.parametrize("v", sorted(CODES))
def test_probe_masks_read_like_coordinates(v):
    """A probe read kept as word masks equals the coordinate read:
    the same masks, stage counters, ``profile.ecc.*`` metrics and
    bank RNG position."""
    chips = [_probe_chip(v), _probe_chip(v)]
    reads = []
    for chip, read in zip(chips, ("masks", "coords")):
        bank = chip.banks[0]
        # One random triple per row, in word 0: many miscorrect.
        rng = np.random.default_rng(ladder_seed(25, "probe-masks"))
        noise_rows = np.repeat(np.arange(N_ROWS), 3)
        noise_phys = np.argsort(rng.random((N_ROWS, 64)),
                                axis=1)[:, :3].ravel()
        bank.noise = ForcedFlipNoise(noise_rows, noise_phys)
        bank.write_rows(np.arange(N_ROWS),
                        beer_backgrounds(bank.row_bits, N_ROWS)[1][1])
        observed = np.zeros((N_ROWS, bank.row_bits // 64), dtype=np.uint64)
        with obs.session("probe-diff") as sess:
            if read == "masks":
                keys, masks = bank.retention_word_errors()
                observed.ravel()[keys] = masks
            else:
                rows, sys_cols = bank.retention_failures()
                phys = bank.mapping.sys_to_phys()[sys_cols]
                np.bitwise_or.at(observed, (rows, phys >> 6),
                                 np.uint64(1) << (phys & 63).astype(
                                     np.uint64))
        counters = {name: value
                    for name, value in sess.metrics.counters.items()
                    if name.startswith("profile.ecc.")}
        reads.append((observed, dict(bank.ecc.counts), counters,
                      bank._rng.random()))
    (m_g, *rest_g), (m_w, *rest_w) = reads
    assert np.array_equal(m_g, m_w)
    assert rest_g == rest_w
    assert rest_g[0]["miscorrections"] > 0


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
                kept, _ = beer._confirmed(chip, seed, round_idx)
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


def _inferred_fields(inferred):
    return (inferred.basis, inferred.relations, inferred.rounds,
            inferred.ok, inferred.note)


def _infer_both(v, n_rows, **kw):
    """Production and oracle inference plus validation, each on fresh
    probe chips: the packed solver against the oracle's coordinate
    probe reads and one-relation-at-a-time elimination."""
    def chip():
        probe = vendor(v).make_chip(
            seed=ladder_seed(0, "ecc", "probe-chip"), n_rows=n_rows)
        attach_on_die_ecc(probe, HammingSecDed.for_vendor(v, 0))
        return probe

    seed = ladder_seed(0, "beer", v)
    vseed = ladder_seed(0, "beer", "validate", v)
    results = []
    for infer, validate in ((infer_ecc, validate_inference),
                            (oracle.infer_ecc, oracle.validate_inference)):
        inferred = infer(chip(), seed=seed, **kw)
        results.append((_inferred_fields(inferred), _report_fields(
            validate(chip(), inferred, seed=vseed))))
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("v", sorted(CODES))
def test_inference_and_validation_match_oracle(v):
    inferred, report = _infer_both(v, N_ROWS)
    assert inferred[3] and report[0]


@pytest.mark.parametrize("v", sorted(CODES))
def test_multi_round_inference_matches_oracle(v):
    """At 3 rows a round confirms too few relations: inference takes
    several rounds, and a short budget runs out at a lower rank."""
    inferred, report = _infer_both(v, COPIES)
    assert inferred[3] and inferred[2] > 1 and report[0]
    for budget in (0, 1):
        inferred, _ = _infer_both(v, COPIES, max_rounds=budget)
        assert not inferred[3] and "relation rank" in inferred[4]


@st.composite
def relation_rounds(draw):
    """Rounds of confirmed ``(triples, extra)`` slot arrays: sorted
    distinct triples, each a detect (0) or a flip onto a fourth bit."""
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 40))
        triples = np.empty((n, 3), dtype=np.int64)
        extra = np.zeros(n, dtype=np.uint64)
        for i in range(n):
            bits = draw(st.lists(st.integers(0, DATA_BITS - 1), min_size=4,
                                 max_size=4, unique=True))
            triples[i] = sorted(bits[:3])
            if draw(st.booleans()):
                extra[i] = np.uint64(1) << np.uint64(bits[3])
        rounds.append((triples, extra))
    return rounds


def _outcome_pairs(triples, extra):
    return [(frozenset(t), ("flip", e.bit_length() - 1) if e
             else ("detect",))
            for t, e in zip(triples.tolist(), extra.tolist())]


@given(rounds=relation_rounds())
@settings(max_examples=200, deadline=None)
def test_relation_elimination_matches_oracle(rounds):
    """Array elimination vs one relation at a time: the rank after
    every round, the relation count and the rowspace agree."""
    pivots = np.zeros(DATA_BITS, dtype=np.uint64)
    elim = {}
    for triples, extra in rounds:
        rel = beer._flip_relations(triples, extra)
        assert len(rel) == oracle.eliminate(elim,
                                            _outcome_pairs(triples, extra))
        beer._reduce(pivots, rel)
        assert int(np.count_nonzero(pivots)) == len(elim)
        for b in np.flatnonzero(pivots).tolist():
            assert int(pivots[b]).bit_length() - 1 == b
    rows = pivots[pivots != 0].tolist()
    assert _rref(rows) == _rref(elim.values())
    assert _rref(_nullspace(rows)) == _rref(_nullspace(elim.values()))


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
