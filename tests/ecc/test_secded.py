"""Bit-exactness of the (72, 64) SEC-DED code.

These are the hypothesis tests backing the mitigation classifier's
three bands: every single-bit error corrects, every double-bit error
detects without correction, and miscorrections arise only at three or
more simultaneous errors.  The packed word-wise path is also pinned
byte-identical to the independent column-by-column reference path in
``tests/oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import (CLEAN, CORRECTED, CORRECTED_CHECK, DETECTED,
                       MISCORRECTED, UNDETECTED, HammingSecDed)
from tests.oracle import decode_ref, encode_ref

CODES = {
    "standard": HammingSecDed.standard(),
    "A": HammingSecDed.for_vendor("A", 0),
    "B": HammingSecDed.for_vendor("B", 0),
    "C": HammingSecDed.for_vendor("C", 0),
}

words_strategy = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
    max_size=16).map(lambda ws: np.array(ws, dtype=np.uint64))


class TestConstruction:
    def test_columns_distinct_with_parity_row(self):
        for code in CODES.values():
            cols = code.data_columns + code.check_columns
            assert len(set(cols)) == 72
            # Every H column participates in the overall-parity row,
            # so a double-bit error's syndrome has that bit clear and
            # can never alias a column - the DED guarantee.
            assert all(c & 0x80 for c in cols)

    def test_vendor_codes_distinct(self):
        seen = {CODES[k].data_columns for k in ("A", "B", "C")}
        assert len(seen) == 3
        # Deterministic per (vendor, build).
        assert (HammingSecDed.for_vendor("A", 0).data_columns
                == CODES["A"].data_columns)
        assert (HammingSecDed.for_vendor("A", 1).data_columns
                != CODES["A"].data_columns)

    def test_bad_columns_rejected(self):
        good = HammingSecDed.standard().data_columns
        with pytest.raises(ValueError):
            HammingSecDed(good[:63] + (good[0],))   # duplicate
        with pytest.raises(ValueError):
            HammingSecDed(good[:63] + (0x01,))      # parity bit unset


class TestRoundTrip:
    @given(words=words_strategy)
    @settings(max_examples=50, deadline=None)
    def test_decode_encode_identity(self, words):
        """decode(encode(w)) is the identity with CLEAN status."""
        code = CODES["A"]
        checks = code.encode_words(words)
        out, status = code.decode_words(words, checks)
        assert np.array_equal(out, words)
        assert (status == CLEAN).all()

    @given(words=words_strategy)
    @settings(max_examples=50, deadline=None)
    def test_packed_matches_reference(self, words):
        """The packed path is byte-identical to the reference path."""
        code = CODES["B"]
        bits = ((words[:, None] >> np.arange(64, dtype=np.uint64))
                & np.uint64(1)).astype(np.uint8)
        assert np.array_equal(code.encode_words(words),
                              encode_ref(code, bits))
        checks = code.encode_words(words)
        out_w, st_w = code.decode_words(words, checks)
        out_b, st_b = decode_ref(code, bits, checks)
        packed_ref = (out_b.astype(np.uint64)
                      << np.arange(64, dtype=np.uint64)).sum(axis=1)
        assert np.array_equal(out_w, packed_ref)
        assert np.array_equal(st_w, st_b)

    @given(words=words_strategy,
           bit=st.integers(min_value=0, max_value=63))
    @settings(max_examples=50, deadline=None)
    def test_single_bit_corrected(self, words, bit):
        code = CODES["C"]
        checks = code.encode_words(words)
        corrupted = words ^ (np.uint64(1) << np.uint64(bit))
        out, status = code.decode_words(corrupted, checks)
        assert np.array_equal(out, words)
        assert (status == CORRECTED).all()

    @given(words=words_strategy,
           bits=st.sets(st.integers(min_value=0, max_value=63),
                        min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_double_bit_detected_not_corrected(self, words, bits):
        code = CODES["A"]
        checks = code.encode_words(words)
        corrupted = words.copy()
        for b in bits:
            corrupted ^= np.uint64(1) << np.uint64(b)
        out, status = code.decode_words(corrupted, checks)
        assert (status == DETECTED).all()
        # Detected-not-corrected: the decoder must not touch the data.
        assert np.array_equal(out, corrupted)


class TestErrorSets:
    def test_single_error_set_corrected(self):
        code = CODES["A"]
        for p in range(64):
            observed, status = code.decode_error_set(frozenset({p}))
            assert status == CORRECTED
            assert observed == frozenset()

    def test_double_error_set_detected(self):
        code = CODES["A"]
        errs = frozenset({3, 41})
        observed, status = code.decode_error_set(errs)
        assert status == DETECTED
        assert observed == errs

    def test_miscorrection_needs_three_errors(self):
        """Sweep all pairs: no double-bit pattern ever miscorrects,
        and some triple does (the BEER signal exists)."""
        code = CODES["A"]
        for i in range(0, 64, 7):
            for j in range(i + 1, 64, 5):
                _, status = code.decode_error_set(frozenset({i, j}))
                assert status == DETECTED
        seen = set()
        rng = np.random.default_rng(7)
        for _ in range(200):
            triple = frozenset(
                rng.choice(64, size=3, replace=False).tolist())
            _, status = code.decode_error_set(triple)
            assert status in (DETECTED, MISCORRECTED, CORRECTED_CHECK,
                              UNDETECTED)
            seen.add(status)
        assert MISCORRECTED in seen

    def test_miscorrection_flips_healthy_bit(self):
        code = CODES["A"]
        rng = np.random.default_rng(11)
        for _ in range(500):
            triple = frozenset(
                rng.choice(64, size=3, replace=False).tolist())
            observed, status = code.decode_error_set(triple)
            if status == MISCORRECTED:
                extra = observed - triple
                assert len(extra) == 1 and triple < observed
                return
        pytest.fail("no miscorrecting triple found in 500 draws")
