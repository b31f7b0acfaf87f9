"""Columns from the generator: the column-born set IS the reference set.

Generation groups every profile's t-intervals at once as EI-row columns
(``AuctionWatchTemplate.build_columns``) and returns a
:class:`ProfileSet` that holds only those. For every configuration the
columns must equal the objects→columns walk of the set the
specification (``tests/workloads/oracle.py``) builds object by object —
values, dtype and row order — and the objects the set materialises on
first read must equal the specification's objects. A column-born set
that is only lowered and run never builds an object.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Epoch, ExecutionInterval, Profile, ProfileSet, TInterval
from repro.core.profile import ProfileColumns
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import make_instance
from repro.experiments.instances import InstanceCache, generate_instance
from repro.online.registry import parse_policy_spec
from repro.simulation.columnar import ColumnarInstance
from repro.simulation.shard import federated_run
from repro.traces import UpdateEvent, UpdateTrace
from repro.workloads import (
    AuctionWatchTemplate,
    OverwriteRestriction,
    WindowRestriction,
)
from tests.properties.strategies import profile_sets
from tests.workloads import oracle


def assert_columns_equal(left: ProfileColumns, right: ProfileColumns):
    assert left.names == right.names
    for name, ours, theirs in zip(left._fields[1:], left[1:], right[1:]):
        assert ours.dtype == theirs.dtype == np.int32, name
        assert np.array_equal(ours, theirs), name


def assert_sets_equal(left: ProfileSet, right: ProfileSet):
    """Ids, names, t-intervals and EIs — and therefore the hashes."""
    assert len(left) == len(right)
    for ours, theirs in zip(left, right):
        assert (ours.profile_id, ours.name) == (theirs.profile_id,
                                                theirs.name)
        assert ours.tintervals == theirs.tintervals
        assert [hash(eta) for eta in ours] == [hash(eta) for eta in theirs]
        for eta in ours:
            assert eta.profile_id == ours.profile_id
            assert [ei.ei_id for ei in eta] == list(range(len(eta)))


@st.composite
def configs(draw) -> ExperimentConfig:
    alpha, beta = draw(st.sampled_from(
        [(0.0, 0.0), (1.37, 0.0), (0.0, 0.8), (1.37, 0.8)]))
    return ExperimentConfig(
        epoch_length=draw(st.sampled_from([20, 40, 60])),
        num_resources=draw(st.integers(1, 12)),
        num_profiles=draw(st.integers(0, 12)),
        max_rank=draw(st.integers(1, 5)),
        intensity=draw(st.sampled_from([0.2, 0.5, 2.0, 6.0, 12.0])),
        window=draw(st.sampled_from([None, 0, 2, 5, 10])),
        grouping=draw(st.sampled_from(["indexed", "overlap"])),
        repetitions=1, seed=draw(st.integers(0, 2**16)),
        alpha=alpha, beta=beta)


class TestGeneratorColumns:
    @given(config=configs(), source=st.sampled_from(["poisson", "auction"]))
    @settings(max_examples=120, deadline=None)
    def test_columns_and_objects_equal_the_reference(self, config, source):
        _trace, born = generate_instance(config, 0, source)
        _trace, reference = oracle.instance(config, 0, source)
        assert len(born) == len(reference) == config.num_profiles
        assert_columns_equal(born.columns(), reference.columns())
        assert_sets_equal(born, reference)
        # Reading the objects leaves the columns what they were.
        assert_columns_equal(born.columns(), reference.columns())


class TestHandBuiltSets:
    @given(profiles=profile_sets(max_profiles=4, quotas=True))
    @settings(max_examples=60, deadline=None)
    def test_walk_then_materialise_is_the_identity(self, profiles):
        columns = profiles.columns()
        assert columns.ei_profile.size == sum(
            len(eta) for eta in profiles.tintervals())
        born = ProfileSet.from_columns(columns)
        assert len(born) == len(profiles)
        assert_sets_equal(born, profiles)
        assert_columns_equal(born.columns(), columns)

    def test_empty_profiles_survive_in_names_only(self):
        eta = TInterval([ExecutionInterval(3, 2, 4)])
        profiles = ProfileSet([Profile([], name="a"), Profile([eta]),
                               Profile([], name="z")])
        columns = profiles.columns()
        assert columns.names == ("a", "p?", "z")
        assert columns.ei_profile.tolist() == [1]
        born = ProfileSet.from_columns(columns)
        assert [len(profile) for profile in born] == [0, 1, 0]
        assert_sets_equal(born, profiles)

    def test_a_need_column_is_carried_and_checked(self):
        eis = [ExecutionInterval(0, 1, 2), ExecutionInterval(1, 1, 2)]
        profiles = ProfileSet([Profile([TInterval(eis, need=1),
                                        TInterval(eis)])])
        columns = profiles.columns()
        assert columns.ei_need.tolist() == [1, 1, 2, 2]
        born = ProfileSet.from_columns(columns)
        assert [eta.need for eta in born[0]] == [1, 2]
        for need, words in (([1, 2, 2, 2], "one need per t-interval"),
                            ([0, 0, 2, 2], "needs 1..2 of them"),
                            ([1, 1, 3, 3], r"\(0, 1\) of 2 EIs")):
            with pytest.raises(ValueError, match=words):
                ProfileSet.from_columns(columns._replace(
                    ei_need=np.array(need)))

    def test_the_walk_happens_once(self):
        profiles = ProfileSet([Profile([TInterval([
            ExecutionInterval(3, 2, 4)])])])
        with mock.patch.object(ProfileColumns, "of", autospec=True,
                               side_effect=ProfileColumns.of) as walks:
            columns = profiles.columns()
            assert profiles.columns() is columns
            ColumnarInstance.build(profiles, Epoch(6))
        assert walks.call_count == 1

    @given(profiles=profile_sets(max_profiles=4, quotas=True),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_and_concat_are_the_object_lists(self, profiles, data):
        members = list(profiles)
        picked = data.draw(st.lists(st.integers(0, len(members) - 1),
                                    max_size=6))
        columns = profiles.columns()
        taken = columns.take(np.array(picked, dtype=np.int64))
        assert_columns_equal(
            taken, ProfileColumns.of([members[at] for at in picked]))
        assert_columns_equal(
            ProfileColumns.concat((columns, taken, columns)),
            ProfileColumns.of(members + [members[at] for at in picked]
                              + members))
        assert_columns_equal(ProfileColumns.concat(()), ProfileColumns.of(()))


def _trace(updates: dict[int, list[int]], epoch: Epoch) -> UpdateTrace:
    return UpdateTrace(
        [UpdateEvent(chronon, resource_id)
         for resource_id, chronons in updates.items()
         for chronon in chronons], epoch)


RESTRICTIONS = (WindowRestriction(0), WindowRestriction(3),
                OverwriteRestriction())


@pytest.mark.parametrize("grouping", ["indexed", "overlap"])
@pytest.mark.parametrize("restriction", RESTRICTIONS, ids=repr)
class TestBuildColumnsEdges:
    """``build_columns`` against ``build_profile`` on hand-made traces."""

    EPOCH = Epoch(30)

    def _check(self, restriction, grouping, updates, watched):
        trace = _trace(updates, self.EPOCH)
        template = AuctionWatchTemplate(restriction, grouping=grouping)
        names = [f"w{index}" for index in range(len(watched))]
        reference = ProfileSet(
            template.build_profile(resources, trace, self.EPOCH, name=name)
            for resources, name in zip(watched, names))
        born = ProfileSet.from_columns(template.build_columns(
            np.array([len(resources) for resources in watched],
                     dtype=np.int64),
            np.array([rid for resources in watched for rid in resources],
                     dtype=np.int64),
            names, trace, self.EPOCH))
        assert_columns_equal(born.columns(), reference.columns())
        assert_sets_equal(born, reference)
        return born

    def test_zero_profiles(self, restriction, grouping):
        born = self._check(restriction, grouping, {0: [1, 5]}, [])
        assert len(born) == 0 and list(born) == []

    def test_empty_trace(self, restriction, grouping):
        born = self._check(restriction, grouping, {}, [[0], [1, 2]])
        assert [len(profile) for profile in born] == [0, 0]

    def test_resource_without_update_empties_the_profile(
            self, restriction, grouping):
        born = self._check(restriction, grouping,
                           {0: [2, 9, 20], 2: [2, 10]},
                           [[0, 1], [0, 2], [1]])
        assert len(born) == 3 == len(born.columns().names)
        assert len(born[0]) == 0 and len(born[2]) == 0 and len(born[1]) > 0

    def test_rank_one_only(self, restriction, grouping):
        born = self._check(restriction, grouping,
                           {0: [1, 2, 3], 1: [30], 2: [7, 7, 8]},
                           [[2], [0], [1], [0]])
        assert [len(profile) for profile in born] == [2, 3, 1, 3]

    def test_every_anchor_unmatched(self, restriction, grouping):
        # Resource 0's EIs all close before resource 1's first opens
        # (under window(W); overwrite's last EI runs to the epoch end).
        self._check(restriction, grouping,
                    {0: [1, 2], 1: [20, 25, 29]}, [[0, 1], [1, 0]])

    def test_sparsest_stream_anchors_ties_to_the_first(
            self, restriction, grouping):
        self._check(restriction, grouping,
                    {0: [1, 4, 9, 15], 1: [2, 10], 2: [3, 11],
                     3: [1, 2, 3, 4, 5, 6]},
                    [[0, 1, 2], [3, 2, 1], [1, 0], [2, 1, 0, 3]])

    def test_trailing_empty_profiles(self, restriction, grouping):
        born = self._check(restriction, grouping, {0: [4, 8], 1: [4]},
                           [[0, 1], [7], [7, 0]])
        assert [len(profile) > 0 for profile in born] == [True, False, False]

    def test_large_sparse_resource_ids(self, restriction, grouping):
        big = 2 ** 31 - 8
        self._check(restriction, grouping,
                    {big: [1, 6, 12], big + 7: [2, 7], 3: [1, 30]},
                    [[big + 7, big], [3, big], [big]])

    def test_a_resource_id_past_int32_has_no_columns(self, restriction,
                                                     grouping):
        """The trace's bounds narrow before any row is gathered, so the
        refusal names the column whether or not a profile watches it;
        the objects walk refuses the watching set the same way."""
        big = 2 ** 31
        trace = _trace({big: [1, 6], 3: [1, 30]}, self.EPOCH)
        template = AuctionWatchTemplate(restriction, grouping=grouping)
        for watched in ([[3]], [[3, big]]):
            with pytest.raises(ValueError, match="ei_resource"):
                template.build_columns(
                    np.array([len(rids) for rids in watched]),
                    np.array([rid for rids in watched for rid in rids]),
                    ["w"], trace, self.EPOCH)
        profile = template.build_profile([3, big], trace, self.EPOCH)
        with pytest.raises(ValueError, match="ei_resource"):
            ProfileSet([profile]).columns()


class TestFewerResourcesThanRank:
    def test_rank_clamps_to_the_universe(self):
        config = ExperimentConfig(epoch_length=40, num_resources=2,
                                  num_profiles=9, max_rank=5, intensity=6.0,
                                  window=4, repetitions=1, seed=11)
        _trace, born = generate_instance(config, 0)
        _trace, reference = oracle.instance(config, 0)
        assert_columns_equal(born.columns(), reference.columns())
        assert born.rank <= 2


@pytest.fixture
def built(monkeypatch):
    """Counts every ExecutionInterval / TInterval / Profile constructed,
    through ``__init__`` or the stamped (``__new__``-based) constructors."""
    counts = {ExecutionInterval: 0, TInterval: 0, Profile: 0}

    def spy(cls, name):
        original = cls.__dict__[name]
        plain = getattr(original, "__func__", original)

        def counting(*args, **kwargs):
            counts[cls] += 1
            return plain(*args, **kwargs)

        monkeypatch.setattr(
            cls, name, classmethod(counting)
            if isinstance(original, classmethod) else counting)

    spy(ExecutionInterval, "__init__")
    for cls in (TInterval, Profile):
        spy(cls, "__init__")
        spy(cls, "from_stamped")
    return counts


class TestObjectsOnlyForObjectReaders:
    CONFIG = ExperimentConfig(epoch_length=30, num_resources=12,
                              num_profiles=40, intensity=6.0, window=4,
                              budget=3, repetitions=1, seed=5)

    def _lowered_and_run(self):
        _trace, profiles = make_instance(self.CONFIG, 0,
                                         cache=InstanceCache())
        columnar = ColumnarInstance.build(profiles, self.CONFIG.epoch)
        policy, preemptive = parse_policy_spec("M-EDF(P)")
        federated = federated_run(
            profiles, self.CONFIG.epoch, self.CONFIG.budget_vector, policy,
            preemptive=preemptive, shards=4, columnar=columnar)
        assert federated.result.report.total == columnar.S > 0
        return profiles, columnar

    def test_generate_lower_run_builds_no_object(self, built):
        profiles, _columnar = self._lowered_and_run()
        assert len(profiles) == self.CONFIG.num_profiles
        assert set(built.values()) == {0}

    @pytest.mark.parametrize("read", [
        lambda profiles: list(iter(profiles)),
        lambda profiles: profiles[0],
        lambda profiles: profiles.profiles,
    ], ids=["iter", "getitem", "profiles"])
    def test_first_object_read_builds_each_once(self, built, read):
        profiles, columnar = self._lowered_and_run()
        read(profiles)
        expected = {ExecutionInterval: columnar.E, TInterval: columnar.S,
                    Profile: self.CONFIG.num_profiles}
        assert built == expected
        read(profiles)
        assert profiles.total_tintervals == columnar.S
        assert built == expected

    def test_disk_hit_builds_no_object_either(self, built, tmp_path):
        InstanceCache(cache_dir=tmp_path).get_or_generate(self.CONFIG, 0)
        reader = InstanceCache(cache_dir=tmp_path)
        _trace, profiles = reader.get_or_generate(self.CONFIG, 0)
        assert reader.disk_hits == 1
        ColumnarInstance.build(profiles, self.CONFIG.epoch)
        assert set(built.values()) == {0}
