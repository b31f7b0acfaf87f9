"""Tests for the incremental probe-assignment matcher."""

import itertools
import random

import pytest

from repro.core import BudgetVector, Epoch, ExecutionInterval, TInterval
from repro.offline import ProbeAssigner

from tests.offline import oracle


def _eta(*specs: tuple[int, int, int]) -> TInterval:
    return TInterval([ExecutionInterval(r, s, f) for r, s, f in specs])


def _replay(etas, epoch, budget):
    """Insert ``etas`` one by one, asserting each accept/reject is the
    oracle's verdict on the accepted set plus the newcomer."""
    assigner = ProbeAssigner(epoch, budget)
    accepted = []
    for eta in etas:
        expected = oracle.schedulable([*accepted, eta], epoch, budget)
        assert assigner.try_add(eta) == expected
        if expected:
            accepted.append(eta)


class TestTryAdd:
    def test_single_ei(self):
        assigner = ProbeAssigner(Epoch(10), BudgetVector(1))
        assert assigner.try_add(_eta((0, 2, 5)))
        assert assigner.assigned_count == 1

    def test_conflicting_units_rejected(self):
        assigner = ProbeAssigner(Epoch(10), BudgetVector(1))
        assert assigner.try_add(_eta((0, 3, 3)))
        assert not assigner.try_add(_eta((1, 3, 3)))

    def test_budget_two_allows_two_at_same_chronon(self):
        assigner = ProbeAssigner(Epoch(10), BudgetVector(2))
        assert assigner.try_add(_eta((0, 3, 3)))
        assert assigner.try_add(_eta((1, 3, 3)))

    def test_augmenting_path_rearranges(self):
        # A wants [1,2], B wants [2,2]; adding B must push A to 1.
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        assert assigner.try_add(_eta((0, 1, 2)))
        assert assigner.try_add(_eta((1, 2, 2)))
        schedule = assigner.schedule()
        assert schedule.probe_chronons(0) == [1]
        assert schedule.probe_chronons(1) == [2]

    def test_all_or_nothing_rollback(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        assert assigner.try_add(_eta((0, 1, 1)))
        # eta needs chronon 1 (taken, no alternative) and chronon 3.
        assert not assigner.try_add(_eta((1, 1, 1), (2, 3, 3)))
        # The failed add must not leave chronon 3 occupied.
        assert assigner.try_add(_eta((3, 3, 3)))

    def test_identical_eis_share_slot(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        assert assigner.try_add(_eta((0, 2, 2)))
        # An identical unit EI on the same resource rides for free.
        assert assigner.try_add(_eta((0, 2, 2)))
        assert assigner.assigned_count == 1

    def test_long_chain_augmentation(self):
        # n t-intervals each wanting [1, i] force a full chain reshuffle.
        assigner = ProbeAssigner(Epoch(50), BudgetVector(1))
        for i in range(1, 41):
            assert assigner.try_add(_eta((i, 1, i)))
        assert assigner.assigned_count == 40


class TestRemove:
    def test_remove_frees_slot(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        eta = _eta((0, 3, 3))
        assert assigner.try_add(eta)
        assigner.remove(eta)
        assert assigner.try_add(_eta((1, 3, 3)))

    def test_refcounted_shared_eis(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        first = _eta((0, 2, 2))
        second = _eta((0, 2, 2))
        assert assigner.try_add(first)
        assert assigner.try_add(second)
        assigner.remove(first)
        # Still held by the second t-interval.
        assert not assigner.try_add(_eta((1, 2, 2)))
        assigner.remove(second)
        assert assigner.try_add(_eta((1, 2, 2)))

    def test_remove_unknown_is_noop(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        assigner.remove(_eta((0, 1, 1)))
        assert assigner.assigned_count == 0


class TestRollback:
    """A failed try_add must restore the matching *exactly*."""

    def test_failed_add_restores_rearranged_chains(self):
        # A ([1,2]) sits at chronon 1. The rejected eta's first EI
        # ((1,1,1)) succeeds by pushing A to chronon 2; its second EI
        # ((2,1,2)) then finds everything full and fails. The undo must
        # put A back at chronon 1, not leave it rehomed at 2.
        assigner = ProbeAssigner(Epoch(2), BudgetVector(1))
        assert assigner.try_add(_eta((0, 1, 2)))
        before = sorted(assigner.schedule().probes())
        assert before == [(0, 1)]
        assert not assigner.try_add(_eta((1, 1, 1), (2, 1, 2)))
        assert sorted(assigner.schedule().probes()) == before

    def test_interleaved_insert_reject_sequences(self):
        # Deterministic pseudo-random interleavings of accepted and
        # rejected inserts; after every reject the schedule must be
        # identical to the pre-call one, and every accept/reject must be
        # the oracle's verdict.
        rng = random.Random(7)
        etas = []
        for _ in range(60):
            eis = []
            for _ in range(rng.randint(1, 3)):
                resource = rng.randint(0, 3)
                start = rng.randint(1, 12)
                finish = min(12, start + rng.randint(0, 3))
                eis.append((resource, start, finish))
            etas.append(_eta(*eis))
        epoch, budget = Epoch(12), BudgetVector(1)
        assigner = ProbeAssigner(epoch, budget)
        accepted = []
        for eta in etas:
            before = sorted(assigner.schedule().probes())
            expected = oracle.schedulable([*accepted, eta], epoch, budget)
            assert assigner.try_add(eta) == expected
            if expected:
                accepted.append(eta)
            else:
                assert sorted(assigner.schedule().probes()) == before

    def test_refcounted_shared_key_survives_rejected_sibling(self):
        # Regression: eta2 shares EI (0,2,2) with accepted eta1 and adds
        # a doomed sibling. The rejection must neither steal eta1's slot
        # nor bump the shared key's refcount.
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        shared = _eta((0, 2, 2))
        assert assigner.try_add(shared)
        blocker = _eta((1, 4, 4))
        assert assigner.try_add(blocker)
        assert not assigner.try_add(_eta((0, 2, 2), (2, 4, 4)))
        # eta1's probe is still there...
        assert assigner.schedule().captures_tinterval(shared)
        # ...and one remove releases it (refcount untouched by the
        # rejected sibling).
        assigner.remove(shared)
        assert assigner.try_add(_eta((3, 2, 2)))

    def test_remove_after_interleaving_restores_capacity(self):
        assigner = ProbeAssigner(Epoch(6), BudgetVector(1))
        first = _eta((0, 1, 3))
        second = _eta((1, 1, 3))
        third = _eta((2, 1, 3))
        assert assigner.try_add(first)
        assert assigner.try_add(second)
        assert assigner.try_add(third)
        assert not assigner.try_add(_eta((3, 1, 3)))
        assigner.remove(second)
        assert assigner.try_add(_eta((3, 1, 3)))


class TestFastParity:
    """The accelerations must be invisible in accept/reject outcomes."""

    @pytest.mark.parametrize("budget", [1, 2])
    def test_exhaustive_small_sequences(self, budget):
        pool = [
            _eta((0, 1, 1)), _eta((1, 1, 1)), _eta((0, 1, 2)),
            _eta((1, 2, 3), (0, 3, 3)), _eta((2, 2, 2)),
        ]
        for sequence in itertools.permutations(pool, 4):
            _replay(sequence, Epoch(3), BudgetVector(budget))

    def test_unit_shortcut_matches_kuhn_outcomes(self):
        rng = random.Random(99)
        for trial in range(20):
            etas = [
                _eta(*[(rng.randint(0, 4), c, c)
                       for c in {rng.randint(1, 8)
                                 for _ in range(rng.randint(1, 3))}])
                for _ in range(25)
            ]
            _replay(etas, Epoch(8), BudgetVector(1))

    def test_the_unit_shortcut_returns_once_no_wide_key_is_held(
            self, monkeypatch):
        # The rejected insert assigns its wide key (0,12,13) before
        # (0,13,13) fails and the rollback releases it; a removed wide
        # t-interval releases its key too. Either way the matching is
        # all unit-width again, so a unit insert is decided by counting
        # alone: no Hall precheck, no Kuhn augmentation.
        assigner = ProbeAssigner(Epoch(13), BudgetVector(1))
        assert assigner.try_add(_eta((0, 12, 12)))
        assert not assigner.try_add(_eta((0, 1, 1), (0, 12, 13),
                                         (0, 13, 13)))
        wide = _eta((1, 3, 5))
        assert assigner.try_add(wide)
        assigner.remove(wide)
        shortcuts = []
        match_unit = assigner._match_unit

        def counted(new_keys):
            shortcuts.append(new_keys)
            return match_unit(new_keys)

        def no_precheck(new_keys):
            raise AssertionError(f"precheck ran for {new_keys}")

        monkeypatch.setattr(assigner, "_match_unit", counted)
        monkeypatch.setattr(assigner, "_admissible", no_precheck)
        assert assigner.try_add(_eta((0, 1, 1)))
        assert shortcuts == [[(0, 1, 1)]]
        assert sorted(assigner.schedule().probes()) == [(0, 1), (0, 12)]

    def test_unit_eta_outside_epoch_rejected(self):
        # The unit shortcut must not hallucinate slots beyond the epoch.
        eta = _eta((0, 7, 7))
        assert not ProbeAssigner(Epoch(5), BudgetVector(1)).try_add(eta)
        assert not oracle.schedulable([eta], Epoch(5), BudgetVector(1))


class TestSchedule:
    def test_schedule_matches_assignments(self):
        epoch = Epoch(10)
        budget = BudgetVector(1)
        assigner = ProbeAssigner(epoch, budget)
        assert assigner.try_add(_eta((0, 1, 3), (1, 1, 3)))
        schedule = assigner.schedule()
        assert schedule.respects_budget(budget, epoch)
        assert schedule.captures_tinterval(_eta((0, 1, 3), (1, 1, 3)))

    def test_windows_clipped_to_epoch(self):
        assigner = ProbeAssigner(Epoch(5), BudgetVector(1))
        assert assigner.try_add(_eta((0, 4, 20)))
        chronon = assigner.schedule().probe_chronons(0)[0]
        assert 4 <= chronon <= 5
