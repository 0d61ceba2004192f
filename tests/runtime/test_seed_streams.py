"""Batched stream derivation builds exactly ``default_rng``'s streams.

Every bank reseed derives its streams in batches
(``repro.robust.vote.bank_reseeds``; ``reseed_bank`` is a batch of
one): numpy's ``SeedSequence`` mixing run as one array program
(``stream_words``), then PCG64 seeded from those words
(``seeded_stream``).  Every draw must equal what
``default_rng(seed)`` - or ``default_rng([seed, tag])`` for the
noise coins - would have drawn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import vendor
from repro.dram.faults import COIN_TAG, DeviceNoiseModel, NoiseSpec
from repro.robust.vote import bank_reseeds, reseed_bank
from repro.runtime.seeds import (_Derived, ladder_seed, seeded_stream,
                                 stream_words)

EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]
SEEDS = st.integers(0, 2**63 - 1)
TAGS = st.sampled_from([0, COIN_TAG, 7, 2**32 - 1])


def _draws(g):
    return (g.random(5).tolist(), g.integers(0, 1000, size=4).tolist(),
            int(g.poisson(3.0)), g.bit_generator.state)


@given(st.lists(st.tuples(SEEDS, TAGS), max_size=20), TAGS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_stream_words_equal_seed_sequence(pairs, tag, one_tag):
    pairs = pairs + [(seed, tag) for seed in EDGES]
    if one_tag:
        pairs = [(seed, tag) for seed, _ in pairs]
    seeds, tags = zip(*pairs)
    words = stream_words(seeds, tag if one_tag else tags)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for (seed, t), row in zip(pairs, words):
        entropy = [seed, t] if t else seed
        seq = np.random.SeedSequence(entropy)
        assert np.array_equal(row, seq.generate_state(4, np.uint64))
        assert _draws(seeded_stream(row)) == _draws(
            np.random.default_rng(entropy))


def test_no_seeds():
    assert stream_words([]).shape == (0, 4)
    assert stream_words([], COIN_TAG).shape == (0, 4)
    assert stream_words([], []).shape == (0, 4)


def _bank(noisy):
    bank = vendor("B").make_chip(seed=4, n_rows=16).banks[0]
    if noisy:
        bank.noise = DeviceNoiseModel(
            NoiseSpec(n_vrt_cells=3, vrt_fail_prob=0.5, n_marginal_cells=2,
                      marginal_fail_prob=0.5),
            n_rows=bank.n_rows, row_bits=bank.row_bits, seed=11)
    return bank


def _state(bank):
    noise = getattr(bank.noise, "_coin_rng", None)
    return (bank._rng.random(3).tolist(), bank.faults._rng is bank._rng,
            bank.faults.vrt_leaky.tolist(),
            None if noise is None else noise.random(3).tolist())


def _reference(bank, seed, path):
    """What a reseed must do, built with ``default_rng`` directly."""
    g = np.random.default_rng(ladder_seed(seed, *path))
    bank._rng = bank.faults._rng = g
    bank.faults.vrt_leaky = (g.random(len(bank.faults.vrt_leaky))
                             < bank.faults.spec.vrt_leaky_start_fraction)
    if bank.noise is not None:
        bank.noise.reseed_coins(np.random.default_rng(
            [ladder_seed(seed, "noise", *path), COIN_TAG]))


@given(st.integers(0, 2**31 - 1), st.booleans(),
       st.sampled_from([1, 2, 12]))
@settings(max_examples=30, deadline=None)
def test_reseeds_match_default_rng(seed, noisy, n_paths):
    paths = [("robust.sweep", rep, r, 0, 0)
             for rep in range(3) for r in range(4)][:n_paths]
    batched, single, ref = _bank(noisy), _bank(noisy), _bank(noisy)
    reseed = bank_reseeds([batched] * len(paths), seed, paths)
    for i in (n_paths - 1, 0, n_paths // 2, n_paths - 1):
        reseed(i)
        reseed_bank(single, seed, *paths[i])
        _reference(ref, seed, paths[i])
        want = _state(ref)
        assert _state(batched) == want
        assert _state(single) == want


def test_derived_words_serve_pcg64_only():
    words = stream_words([5])[0]
    assert _draws(seeded_stream(words)) == _draws(np.random.default_rng(5))
    with pytest.raises(ValueError):
        _Derived(words).generate_state(8)
