"""The on-die ECC read-path stage: lens, recovery, and null modes."""

import numpy as np
import pytest

from repro.ecc import (COMPANION_PASSES, HammingSecDed, InferredEcc,
                       OnDieEcc, attach_on_die_ecc)
from repro.ecc.beer import _rref
from tests import oracle

CODE = HammingSecDed.for_vendor("A", 0)


def _recovery_for(code):
    """An exact recovery object: the true rowspace in canonical form."""
    basis, _ = _rref(int(m) for m in code.row_masks)
    return InferredEcc(basis=basis)


def _cells(rows, phys):
    return set(zip(rows.tolist(), phys.tolist()))


def _arr(values):
    return np.array(values, dtype=np.int64)


def _transform(ecc, rows, phys, row_bits):
    """Lens view of an error *set* carrying no forced-noise cells."""
    empty = np.empty(0, dtype=np.int64)
    out_rows, out_phys, _, _ = ecc.transform_read(rows, phys, empty,
                                                  empty, row_bits)
    return out_rows, out_phys


class TestLens:
    def test_single_bit_masked(self):
        ecc = OnDieEcc(CODE)
        rows, phys = _transform(ecc, _arr([3]), _arr([70]), 8192)
        assert len(rows) == 0
        assert ecc.counts["masked"] == 1
        assert ecc.counts["corrected_words"] == 1

    def test_double_bit_detected_visible(self):
        ecc = OnDieEcc(CODE)
        rows, phys = _transform(ecc, _arr([3, 3]), _arr([70, 100]), 8192)
        assert _cells(rows, phys) == {(3, 70), (3, 100)}
        assert ecc.counts["detected_words"] == 1

    def test_miscorrection_fabricates_cell(self):
        # Find a miscorrecting triple, then check the stage reports
        # the fabricated cell as a real observation.
        rng = np.random.default_rng(5)
        for _ in range(500):
            triple = sorted(rng.choice(64, size=3, replace=False)
                            .tolist())
            observed, status = oracle.decode_set(CODE.data_columns,
                                                 frozenset(triple))
            if status == oracle.MISCORRECTED:
                rows, phys = _transform(
                    OnDieEcc(CODE), _arr([0] * 3), _arr(triple), 8192)
                assert _cells(rows, phys) == {(0, p) for p in observed}
                extra = observed - frozenset(triple)
                assert len(extra) == 1
                return
        pytest.fail("no miscorrecting triple found")

    def test_words_are_independent(self):
        # One error in word 0, one in word 1: both masked separately.
        ecc = OnDieEcc(CODE)
        rows, phys = _transform(ecc, _arr([0, 0]), _arr([5, 70]), 8192)
        assert len(rows) == 0
        assert ecc.counts["words"] == 2

    def test_row_bits_must_be_word_aligned(self):
        with pytest.raises(ValueError):
            _transform(OnDieEcc(CODE), _arr([0]), _arr([1]), 100)


class TestNullCode:
    def test_null_is_identity(self):
        ecc = OnDieEcc(None)
        rows, phys = _arr([1, 1, 2]), _arr([5, 5, 9])
        noise_r, noise_p = _arr([4]), _arr([8])
        out = ecc.transform_read(rows, phys, noise_r, noise_p, 8192)
        assert out[0] is rows and out[1] is phys
        assert out[2] is noise_r and out[3] is noise_p
        assert ecc.counts["words"] == 0


def _bits(mask):
    return {b for b in range(64) if int(mask) >> b & 1}


def _invert_word(errs):
    """Invert one word under the exact recovery, through the per-word
    oracle and through production's packed ``OnDieEcc._invert``; the
    two must agree bit for bit."""
    recovery = _recovery_for(CODE)
    reals, unsure = oracle.recover_word(CODE, recovery.code.data_columns,
                                        errs)
    mask = np.array([sum(1 << p for p in errs)], dtype=np.uint64)
    real, uncertain = OnDieEcc(CODE, recovery=recovery)._invert(mask)
    assert _bits(real[0]) == reals
    assert _bits(uncertain[0]) == unsure
    return reals, unsure


class TestRecovery:
    def test_exact_inversion_random_sets(self):
        """Random error sets up to 3 errors invert exactly."""
        rng = np.random.default_rng(13)
        for _ in range(300):
            k = int(rng.integers(1, 4))
            errs = frozenset(rng.choice(64, size=k, replace=False)
                             .tolist())
            reals, unsure = _invert_word(errs)
            # Never a wrong claim; missed cells go to the unsure set.
            assert reals <= errs
            assert errs - reals <= unsure

    def test_single_and_double_always_exact(self):
        for errs in ({5}, {0}, {1}, {0, 1}, {5, 60}, {1, 33}):
            reals, unsure = _invert_word(frozenset(errs))
            assert reals == errs and not unsure

    def test_event_stream_preserved_verbatim(self):
        """Exactly recovered words pass raw events through untouched -
        order, duplicates and the event/noise split included."""
        ecc = OnDieEcc(CODE, recovery=_recovery_for(CODE))
        rows = _arr([7, 2, 7, 7])
        phys = _arr([130, 5, 128, 130])   # duplicate (7, 130) events
        noise_r, noise_p = _arr([2]), _arr([9])
        o_rows, o_phys, on_r, on_p = ecc.transform_read(
            rows, phys, noise_r, noise_p, 8192)
        assert np.array_equal(o_rows, rows)
        assert np.array_equal(o_phys, phys)
        assert np.array_equal(on_r, noise_r)
        assert np.array_equal(on_p, noise_p)
        assert ecc.counts["recovered_words"] == 2
        assert not ecc.ambiguous

    def test_unrecoverable_word_surrendered(self):
        """A word the inversion cannot pin down yields no claimed
        cells it isn't sure of - they land in ``ambiguous``."""
        ecc = OnDieEcc(CODE, recovery=_recovery_for(CODE))
        rng = np.random.default_rng(3)
        surrendered = None
        for _ in range(3000):
            errs = frozenset(rng.choice(64, size=4, replace=False)
                             .tolist())
            reals, unsure = _invert_word(errs)
            if unsure:
                surrendered = (errs, reals, unsure)
                break
        if surrendered is None:
            pytest.skip("no ambiguous 4-error word for this code")
        errs, reals, unsure = surrendered
        word_base = 3 * 64
        rows = np.full(len(errs), 9, dtype=np.int64)
        phys = _arr([word_base + p for p in sorted(errs)])
        empty = np.empty(0, dtype=np.int64)
        o_rows, o_phys, _, _ = ecc.transform_read(
            rows, phys, empty, empty, 8192)
        assert _cells(o_rows, o_phys) == {(9, word_base + p)
                                          for p in reals}
        assert ecc.ambiguous == {(9, word_base + p) for p in unsure}

    def test_companion_passes_fixed(self):
        assert COMPANION_PASSES == (frozenset(), frozenset({0}),
                                    frozenset({1}))


class TestAttach:
    def test_attach_covers_every_bank(self):
        from repro.dram import vendor
        chip = vendor("A").make_chip(seed=0, n_rows=16)
        attach_on_die_ecc(chip, CODE)
        assert all(isinstance(b.ecc, OnDieEcc) for b in chip.banks)
        assert all(b.ecc.code is CODE for b in chip.banks)
