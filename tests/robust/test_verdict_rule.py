"""The array verdict rule vs the scalar reference rule.

:func:`repro.robust.verdicts.classify` writes the definite /
probabilistic / unstable rule once, over per-cell arrays, and every
:class:`CellVerdicts` method goes through it.  ``tests/oracle.py``
keeps the rule one cell at a time (:func:`tests.oracle.verdict`); on
random ledgers - votes <= scored <= rounds, missing scores, control
and discovery-only cells, overlaps between them, degraded on and off,
varied policies - the two must agree cell for cell.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust import (DEFINITE, PROBABILISTIC, UNSTABLE, CellVerdicts,
                          RoundsPolicy)
from repro.robust.verdicts import VERDICTS, classify

from tests import oracle


@st.composite
def ledgers(draw):
    rounds = draw(st.integers(min_value=1, max_value=6))
    policy = RoundsPolicy(
        rounds=rounds,
        early_definite=draw(st.integers(min_value=1, max_value=4)),
        probabilistic_threshold=draw(st.one_of(
            st.sampled_from([1 / 3, 0.5, 2 / 3, 1.0]),
            st.floats(min_value=0.01, max_value=1.0))),
        controls=draw(st.sampled_from([None, True, False])))
    verdicts = CellVerdicts(rounds=rounds, policy=policy,
                            degraded=draw(st.booleans()))
    for row in range(draw(st.integers(min_value=0, max_value=24))):
        coord = (row % 2, row % 3, row, 7 * row)
        if draw(st.booleans()):
            scored = draw(st.integers(min_value=0, max_value=rounds))
            verdicts.votes[coord] = draw(
                st.integers(min_value=0, max_value=scored))
            if draw(st.integers(min_value=0, max_value=4)):
                verdicts.scored[coord] = scored
            # else: the score defaults to ``rounds``
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            verdicts.control_failures.add(coord)
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            verdicts.discovery_only.add(coord)
    return verdicts


def _reference(verdicts, wanted):
    return {c for c in verdicts.observed()
            if oracle.verdict(verdicts, c) in wanted}


@given(ledgers())
@settings(max_examples=300, deadline=None)
def test_cell_verdicts_match_scalar_rule(verdicts):
    for row in range(25):
        coord = (row % 2, row % 3, row, 7 * row)
        assert verdicts.verdict(coord) == oracle.verdict(verdicts, coord)
    assert verdicts.definite() == _reference(verdicts, {DEFINITE})
    assert verdicts.probabilistic() == _reference(verdicts,
                                                  {PROBABILISTIC})
    assert verdicts.unstable() == _reference(verdicts, {UNSTABLE})
    assert verdicts.detected() == _reference(verdicts,
                                             {DEFINITE, PROBABILISTIC})
    tally = dict.fromkeys(VERDICTS, 0)
    for coord in verdicts.observed():
        tally[oracle.verdict(verdicts, coord)] += 1
    assert verdicts.counts() == tally


@given(ledgers())
@settings(max_examples=300, deadline=None)
def test_classify_matches_scalar_rule(verdicts):
    cells = sorted(verdicts.observed())
    codes = classify(
        np.array([verdicts.votes.get(c, 0) for c in cells], dtype=np.int64),
        np.array([verdicts.scored.get(c, verdicts.rounds) for c in cells],
                 dtype=np.int64),
        np.array([c in verdicts.control_failures for c in cells],
                 dtype=bool),
        np.array([c not in verdicts.votes for c in cells], dtype=bool),
        verdicts.policy, verdicts.degraded)
    assert ([VERDICTS[code] for code in codes.tolist()]
            == [oracle.verdict(verdicts, c) for c in cells])


@given(st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.01, max_value=1.0),
       st.lists(st.integers(min_value=0, max_value=64), max_size=20))
@settings(max_examples=200, deadline=None)
def test_required_votes_arrays_match_scalars(rounds, threshold, scored):
    policy = RoundsPolicy(rounds=rounds, probabilistic_threshold=threshold)
    want = [max(1, math.ceil(threshold * s)) for s in scored]
    need = policy.required_votes(np.array(scored, dtype=np.int64))
    assert need.tolist() == want
    assert [policy.required_votes(s) for s in scored] == want
    assert all(isinstance(policy.required_votes(s), int) for s in scored)
