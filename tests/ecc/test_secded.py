"""Bit-exactness of the (72, 64) SEC-DED code.

These are the tests backing the mitigation classifier's three bands,
run exhaustively on the one packed decode of error masks: every
single-bit error corrects, every double-bit error detects without
correction, and miscorrections arise only at three or more
simultaneous errors.  The packed decode is also pinned to the
independent column-by-column reference ``decode_ref`` in
``tests/oracle.py``.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import CLEAN, CORRECTED, DETECTED, HammingSecDed
from tests.oracle import decode_ref

CODES = {
    "standard": HammingSecDed.standard(),
    "A": HammingSecDed.for_vendor("A", 0),
    "B": HammingSecDed.for_vendor("B", 0),
    "C": HammingSecDed.for_vendor("C", 0),
}

words_strategy = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
    max_size=16).map(lambda ws: np.array(ws, dtype=np.uint64))

#: The check columns of the device construction: the 7 Hamming checks
#: and the overall-parity row.
CHECK_COLUMNS = tuple((1 << j) | 0x80 for j in range(7)) + (0x80,)


def _masks(weight):
    """Every 64-bit error mask of one weight, as ``uint64``."""
    return np.array([sum(1 << p for p in bits)
                     for bits in combinations(range(64), weight)],
                    dtype=np.uint64)


def _bits(masks):
    """Dense 0/1 rows of shape (n, 64) of ``uint64`` masks."""
    return ((masks[:, None] >> np.arange(64, dtype=np.uint64))
            & np.uint64(1)).astype(np.uint8)


def _decode_both(code, masks):
    """The packed decode, checked equal to the reference decode."""
    observed, status = code.decode_masks(masks)
    ref_bits, ref_status = decode_ref(code, _bits(masks))
    assert np.array_equal(_bits(observed), ref_bits)
    assert np.array_equal(status, ref_status)
    return observed, status


class TestConstruction:
    def test_columns_distinct_with_parity_row(self):
        for code in CODES.values():
            cols = code.data_columns + CHECK_COLUMNS
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
        for bad in (good[:63] + (good[0],),   # duplicate
                    good[:63] + (0,),         # zero
                    good[:63] + (0x100,),     # wider than 8 bits
                    good[:63]):               # too few
            with pytest.raises(ValueError):
                HammingSecDed(bad)

    def test_from_basis_inverts_row_masks(self):
        for code in CODES.values():
            assert HammingSecDed.from_basis(code.row_masks) == code


class TestRoundTrip:
    @given(masks=st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                          min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_packed_matches_reference(self, masks):
        """Error masks of any weight decode as in the reference."""
        for code in CODES.values():
            _decode_both(code, np.array(masks, dtype=np.uint64))

    @given(words=words_strategy,
           bit=st.integers(min_value=0, max_value=63))
    @settings(max_examples=50, deadline=None)
    def test_single_bit_corrected(self, words, bit):
        """A stored word with one flipped bit reads back intact: the
        data read is the word XOR its post-correction error mask."""
        masks = np.full(len(words), np.uint64(1) << np.uint64(bit))
        observed, status = _decode_both(CODES["C"], masks)
        assert np.array_equal(words ^ observed, words)
        assert (status == CORRECTED).all()

    @given(words=words_strategy,
           bits=st.sets(st.integers(min_value=0, max_value=63),
                        min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_double_bit_detected_not_corrected(self, words, bits):
        masks = np.full(len(words), np.uint64(sum(1 << b for b in bits)))
        observed, status = _decode_both(CODES["A"], masks)
        assert (status == DETECTED).all()
        # Detected-not-corrected: the decoder must not touch the data.
        assert np.array_equal(words ^ observed, words ^ masks)


class TestErrorSets:
    """The three bands, over every mask of weight 1, 2 and 3."""

    def test_single_error_set_corrected(self):
        for code in CODES.values():
            observed, status = _decode_both(code, _masks(1))
            assert (status == CORRECTED).all()
            assert not observed.any()

    def test_double_error_set_detected(self):
        masks = _masks(2)
        for code in CODES.values():
            observed, status = _decode_both(code, masks)
            assert (status == DETECTED).all()
            # Detected-not-corrected: the decoder must not touch the
            # data.
            assert np.array_equal(observed, masks)

    def test_miscorrection_needs_three_errors(self):
        """No clean, single or double error ever gains a bit; some
        triple does (the BEER signal exists)."""
        triples = _masks(3)
        for code in CODES.values():
            observed, status = code.decode_masks(np.zeros(1, np.uint64))
            assert observed[0] == 0 and status[0] == CLEAN
            for weight in (1, 2):
                masks = _masks(weight)
                assert not (code.decode_masks(masks)[0] & ~masks).any()
            assert (code.decode_masks(triples)[0] & ~triples).any()

    def test_miscorrection_flips_healthy_bit(self):
        """A triple the decoder acts on keeps all three errors and
        gains exactly one healthy bit: it is never corrected."""
        masks = _masks(3)
        for code in CODES.values():
            observed, status = code.decode_masks(masks)
            acted = status == CORRECTED
            assert acted.any()
            assert np.array_equal(observed[acted] & masks[acted],
                                  masks[acted])
            extra = observed[acted] & ~masks[acted]
            assert (extra != 0).all()
            assert not (extra & (extra - np.uint64(1))).any()
