"""Property tests of the bit-packed substrate kernels.

The packed kernels in :mod:`repro._kernels` must be the word-wise
image of the dense per-cell operations for *any* geometry - including
row widths that do not divide into whole 64-bit words - and the packed
bank must match the dense per-cell oracle (``tests/oracle.py``) on
random bank states under random scramblers and every vendor mapping.
The layout contract these tests pin down is documented in
``docs/KERNELS.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernels import (WORD_BITS, gather_bits, pack_rows, packed_words,
                            popcount, scatter_assign_bits,
                            scatter_span_masks, tail_mask, unpack_rows)
from repro.dram import (CoupledCellPopulation, CouplingSpec, DramChip,
                        FaultSpec, vendor)
from repro.dram.faults import ForcedFlipNoise
from repro.dram.mapping import AddressMapping

from tests import oracle

# Deliberately awkward row widths: 1 bit, sub-word, word-aligned,
# word+1, and multi-word with a partial tail.
SIZES = [1, 7, 63, 64, 65, 128, 200, 8192]


def _bits(rng, shape):
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


# -- pack / unpack --------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_pack_unpack_roundtrip(seed, n_bits):
    rng = np.random.default_rng(seed)
    bits = _bits(rng, (5, n_bits))
    words = pack_rows(bits)
    assert words.shape == (5, packed_words(n_bits))
    assert np.array_equal(unpack_rows(words, n_bits), bits)
    # Tail invariant: bits beyond n_bits are zero by construction.
    assert not (words[:, -1] & ~tail_mask(n_bits)).any()


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_popcount_matches_dense_sum(seed, n_bits):
    rng = np.random.default_rng(seed)
    bits = _bits(rng, (4, n_bits))
    assert np.array_equal(popcount(pack_rows(bits)).sum(axis=-1),
                          bits.sum(axis=-1, dtype=np.uint64))


def test_bit_order_is_lsb_first():
    """The documented convention: cell p is bit p%64 of word p//64."""
    bits = np.zeros(130, dtype=np.uint8)
    bits[[0, 3, 64, 129]] = 1
    words = pack_rows(bits)
    assert words[0] == (1 << 0) | (1 << 3)
    assert words[1] == 1 << 0
    assert words[2] == 1 << 1


# -- gather / scatter -----------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_gather_scatter_match_dense(seed, n_bits):
    rng = np.random.default_rng(seed)
    dense = _bits(rng, (6, n_bits))
    words = pack_rows(dense)
    k = int(rng.integers(0, 40))
    rows = rng.integers(0, 6, size=k)
    cols = rng.integers(0, n_bits, size=k)

    assert np.array_equal(gather_bits(words, rows, cols),
                          dense[rows, cols])

    # Assign: numpy fancy-assignment semantics (last duplicate wins).
    values = _bits(rng, k)
    dense[rows, cols] = values
    scatter_assign_bits(words, rows, cols, values)
    assert np.array_equal(unpack_rows(words, n_bits), dense)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_scatter_span_masks_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n_bits = 200
    n_rows = 5
    dense = _bits(rng, (n_rows, n_bits))
    words = pack_rows(dense)
    k = int(rng.integers(1, 12))
    rows = rng.integers(0, n_rows, size=k)
    starts = rng.integers(0, n_bits - 9, size=k)
    set_bits = np.zeros(k, dtype=bool)
    set_bits[:] = bool(rng.integers(0, 2))  # uniform per call: no
    # ordering between the set and clear passes is guaranteed on
    # overlapping spans of one row, so keep the value per-row-safe.
    span = 9
    n_w = packed_words(n_bits)
    word_idx = np.zeros((k, span), dtype=np.int64)
    masks = np.zeros((k, span), dtype=np.uint64)
    for i in range(k):
        cols = np.arange(starts[i], starts[i] + span)
        word_idx[i] = cols >> 6
        masks[i] = np.uint64(1) << (cols % 64).astype(np.uint64)
        dense[rows[i], cols] = np.uint8(1) if set_bits[i] else np.uint8(0)
    scatter_span_masks(words, rows, word_idx, masks, set_bits)
    assert np.array_equal(unpack_rows(words, n_bits), dense)


# -- bank-level equivalence against the oracle ---------------------------

# Odd widths for the bank cycle: 1 bit, sub-word, word-1, word+1, and
# multi-word with a partial tail.
ODD_WIDTHS = [1, 7, 63, 65, 200]


def _random_chip(row_bits, seed):
    """A chip over a random scrambler with the given row width."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(row_bits)
    mapping = AddressMapping(row_bits=row_bits, block_bits=row_bits,
                             block_path=tuple(int(p) for p in perm),
                             tile_bits=row_bits)
    return DramChip(mapping=mapping, n_rows=12,
                    coupling_spec=CouplingSpec(n_cells=150),
                    fault_spec=FaultSpec(soft_error_rate=1e-6,
                                         n_vrt_cells=10,
                                         n_marginal_cells=10,
                                         n_weak_cells=10),
                    seed=seed)


def _random_patches(rng, n, row_bits):
    """Span + point patches; half the time region-aligned spans."""
    value = int(rng.integers(0, 2))
    k = int(rng.integers(0, 6))
    if rng.random() < 0.5:
        divisors = [d for d in range(1, row_bits + 1) if row_bits % d == 0]
        size = int(rng.choice(divisors))
        starts = size * rng.integers(0, row_bits // size, size=k)
    else:
        size = int(rng.integers(1, row_bits + 1))
        starts = rng.integers(0, row_bits - size + 1, size=k)
    spans = (rng.integers(0, n, size=k), starts, size, value)
    m = int(rng.integers(0, 10))
    points = (rng.integers(0, n, size=m), rng.integers(0, row_bits, size=m),
              1 - value)
    return spans, points


def _cycle(bank, seed):
    """Write -> decay -> read through every bank entry point."""
    rng = np.random.default_rng(seed)
    n_rows, row_bits = bank.n_rows, bank.row_bits
    rows = np.arange(n_rows)
    out = []
    bank.write_rows(rows, _bits(rng, (n_rows, row_bits)))
    out.append(bank.charge)
    sub = np.unique(rng.integers(0, n_rows, size=6))
    bank.write_rows(sub, _bits(rng, row_bits))
    out.append(bank.charge)
    out.append(bank.retention_read_all())
    out.extend(bank.retention_failures())
    base = int(rng.integers(0, 2))
    spans, points = _random_patches(rng, len(sub), row_bits)
    bank.write_rows_patched(sub, base, spans=spans, points=points)
    out.append(bank.charge)
    k = 30
    check_idx = rng.integers(0, len(sub), size=k)
    check_cols = rng.integers(0, row_bits, size=k)
    out.append(bank.retention_check_cells(sub, check_idx, check_cols))
    out.append(bank.retention_read_rows(sub))
    return out


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(ODD_WIDTHS))
@settings(max_examples=15, deadline=None)
def test_bank_cycle_matches_reference_on_odd_widths(seed, row_bits):
    """Write -> decay -> read parity on rows that end mid-word.

    Both banks carry forced read-time noise, so the union semantics of
    injected corruption are checked against the flip events' XOR.
    """
    banks = []
    for _ in range(2):
        bank = _random_chip(row_bits, seed % 1009).banks[0]
        noise_rng = np.random.default_rng(seed)
        bank.noise = ForcedFlipNoise(noise_rng.integers(0, 12, size=4),
                                     noise_rng.integers(0, row_bits,
                                                        size=4))
        banks.append(bank)
    with oracle.oracle_substrate():
        expected = _cycle(banks[0], seed)
    got = _cycle(banks[1], seed)
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert np.array_equal(a, b)
    # Same RNG consumption: the streams continue identically.
    assert banks[0]._rng.random() == banks[1]._rng.random()


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_evaluators_match_reference_across_vendors(vendor_name):
    """Coupled + fault evaluation parity on random states, per vendor."""
    chip_ref = vendor(vendor_name).make_chip(seed=23, n_rows=16)
    chip_fast = vendor(vendor_name).make_chip(seed=23, n_rows=16)
    data_rng = np.random.default_rng(99)
    for trial in range(5):
        data = _bits(data_rng, (16, chip_ref.row_bits))
        ref = chip_ref.banks[trial % len(chip_ref.banks)]
        fast = chip_fast.banks[trial % len(chip_fast.banks)]
        with oracle.oracle_substrate():
            ref.write_rows(np.arange(16), data)
            ref_fail = ref.retention_failures()
        fast.write_rows(np.arange(16), data)
        fast_fail = fast.retention_failures()
        for a, b in zip(ref_fail, fast_fail):
            assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([100, 200]))
@settings(max_examples=10, deadline=None)
def test_population_packed_evaluation_matches_dense(seed, row_bits):
    """exposure over packed slot gathers == the dense evaluation."""
    rng = np.random.default_rng(seed)
    pop = CoupledCellPopulation.generate(
        CouplingSpec(n_cells=400), n_rows=20, row_bits=row_bits,
        tile_bits=100, rng=rng)
    charge = _bits(rng, (20, row_bits))
    slots = pop.slot_cols()
    charged = gather_bits(pack_rows(charge),
                          np.repeat(pop.row, slots.shape[1]),
                          slots.ravel()).reshape(slots.shape) == 1
    ref_rng = np.random.default_rng(13)
    fast_rng = np.random.default_rng(13)
    for stress in (1.0, 0.5):
        ref = oracle.evaluate_failures(pop, charge, ref_rng, stress=stress)
        packed = pop.exposure(charged, fast_rng.random(len(pop)), stress)
        assert np.array_equal(ref, packed)
    assert ref_rng.random() == fast_rng.random()


def test_charge_property_is_a_copy():
    """Mutating the unpacked view must not corrupt packed state."""
    bank = vendor("A").make_chip(seed=3, n_rows=4).banks[0]
    bank.write_rows(np.arange(4), np.ones(8192, dtype=np.uint8))
    view = bank.charge
    view[:] = 0
    assert bank.charge.any()
