"""RoundsPolicy validation and the three-way verdict classification."""

import pytest

from repro.robust import (DEFINITE, PROBABILISTIC, UNSTABLE, CellVerdicts,
                          RoundsPolicy)


class TestRoundsPolicy:
    def test_defaults_are_legacy(self):
        policy = RoundsPolicy()
        assert policy.rounds == 1
        assert policy.is_legacy
        assert not policy.run_controls

    def test_rounds_above_one_is_robust(self):
        policy = RoundsPolicy(rounds=4)
        assert not policy.is_legacy
        assert policy.run_controls

    def test_controls_override(self):
        assert RoundsPolicy(rounds=4, controls=False).run_controls is False
        assert RoundsPolicy(rounds=1, controls=True).run_controls is True
        # Forced controls break the byte-identical legacy contract.
        assert not RoundsPolicy(rounds=1, controls=True).is_legacy

    @pytest.mark.parametrize("kwargs", [
        dict(rounds=0),
        dict(early_definite=0),
        dict(probabilistic_threshold=0.0),
        dict(probabilistic_threshold=1.5),
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RoundsPolicy(**kwargs)

    def test_required_votes_ceiling(self):
        policy = RoundsPolicy(rounds=4, probabilistic_threshold=0.5)
        assert policy.required_votes(1) == 1
        assert policy.required_votes(3) == 2
        assert policy.required_votes(4) == 2

    def test_definite_votes_capped_by_rounds(self):
        assert RoundsPolicy(rounds=4, early_definite=2).definite_votes() == 2
        assert RoundsPolicy(rounds=1, early_definite=2).definite_votes() == 1


def ledger(rounds=4, **kwargs):
    policy = RoundsPolicy(rounds=rounds, **kwargs)
    return CellVerdicts(rounds=rounds, policy=policy)


COORD = (0, 0, 7, 42)


class TestCellVerdicts:
    def test_unseen_cell_has_no_verdict(self):
        assert ledger().verdict(COORD) is None

    def test_all_votes_is_definite(self):
        v = ledger()
        v.votes[COORD] = 4
        v.scored[COORD] = 4
        assert v.verdict(COORD) == DEFINITE

    def test_early_decided_cell_is_definite(self):
        v = ledger()
        v.votes[COORD] = 2  # early-exited after early_definite reps
        v.scored[COORD] = 2
        assert v.verdict(COORD) == DEFINITE

    def test_single_scored_round_is_not_definite(self):
        v = ledger()
        v.votes[COORD] = 1
        v.scored[COORD] = 1
        # One observation cannot clear early_definite=2: it is merely
        # probabilistic (observed, majority of its one scored round).
        assert v.verdict(COORD) == PROBABILISTIC

    def test_majority_votes_is_probabilistic(self):
        v = ledger()
        v.votes[COORD] = 3
        v.scored[COORD] = 4
        assert v.verdict(COORD) == PROBABILISTIC

    def test_minority_votes_is_unstable(self):
        v = ledger()
        v.votes[COORD] = 1
        v.scored[COORD] = 4
        assert v.verdict(COORD) == UNSTABLE

    def test_control_failure_overrides_votes(self):
        v = ledger()
        v.votes[COORD] = 4
        v.scored[COORD] = 4
        v.control_failures.add(COORD)
        assert v.verdict(COORD) == UNSTABLE

    def test_discovery_only_counts_as_probabilistic(self):
        v = ledger()
        v.discovery_only.add(COORD)
        assert v.verdict(COORD) == PROBABILISTIC

    def test_detected_is_definite_plus_probabilistic(self):
        v = ledger()
        v.votes[(0, 0, 1, 1)] = 4
        v.scored[(0, 0, 1, 1)] = 4
        v.votes[(0, 0, 2, 2)] = 3
        v.scored[(0, 0, 2, 2)] = 4
        v.votes[(0, 0, 3, 3)] = 1
        v.scored[(0, 0, 3, 3)] = 4
        assert v.detected() == {(0, 0, 1, 1), (0, 0, 2, 2)}
        assert v.definite() == {(0, 0, 1, 1)}
        assert v.probabilistic() == {(0, 0, 2, 2)}
        assert v.unstable() == {(0, 0, 3, 3)}

    def test_counts_cover_every_observed_cell(self):
        v = ledger()
        v.votes[(0, 0, 1, 1)] = 4
        v.scored[(0, 0, 1, 1)] = 4
        v.control_failures.add((0, 0, 2, 2))
        v.discovery_only.add((0, 0, 3, 3))
        counts = v.counts()
        assert counts == {DEFINITE: 1, PROBABILISTIC: 1, UNSTABLE: 1}
        assert sum(counts.values()) == len(v.observed())

    def test_stricter_threshold_demotes_to_unstable(self):
        v = ledger(probabilistic_threshold=1.0)
        v.votes[COORD] = 3
        v.scored[COORD] = 4
        assert v.verdict(COORD) == UNSTABLE
