"""EI-row columns are int32 from every producer, and only int32 fits.

:class:`~repro.core.profile.ProfileColumns` is the interchange form of a
profile set: the generator builds it, :meth:`ProfileColumns.of` walks
objects into it, ``concat`` / ``take`` rearrange it, the instance cache
and a churn plan's union read it back through ``checked``. Each of them
must hand out ``int32`` vectors, and a value outside ``int32`` must be
refused by the name of its column, never wrapped.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ExecutionInterval, Profile, ProfileSet, TInterval
from repro.core.profile import ProfileColumns
from repro.experiments.churn import CHURN_SCALES, build_churn_workload
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import generate_instance
from repro.simulation.churn import lower_plan

INT32 = np.dtype(np.int32)

CONFIG = ExperimentConfig(epoch_length=40, num_resources=8, num_profiles=12,
                          max_rank=3, intensity=4.0, window=3, repetitions=1,
                          seed=7)


def assert_int32(columns: ProfileColumns) -> None:
    for name, column in zip(columns._fields[1:], columns[1:]):
        assert column.dtype == INT32, name


def small_set() -> ProfileSet:
    return ProfileSet([
        Profile([TInterval([ExecutionInterval(0, 1, 3),
                            ExecutionInterval(2, 2, 5)], need=1)]),
        Profile([]),
        Profile([TInterval([ExecutionInterval(1, 4, 6)]),
                 TInterval([ExecutionInterval(0, 2, 2)])])])


class TestEveryProducerIsInt32:
    @pytest.mark.parametrize("source", ["poisson", "auction"])
    def test_the_generator(self, source):
        _trace, profiles = generate_instance(CONFIG, 0, source)
        assert profiles._profiles is None
        assert profiles.columns().ei_start.size > 0
        assert_int32(profiles.columns())

    def test_of_concat_and_take(self):
        columns = small_set().columns()
        assert_int32(columns)
        assert_int32(ProfileColumns.of(()))
        assert_int32(ProfileColumns.concat((columns, columns)))
        assert_int32(ProfileColumns.concat(()))
        assert_int32(columns.take(np.array([2, 0], dtype=np.int64)))
        assert_int32(columns.take(np.zeros(0, dtype=np.int64)))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64,
                                       np.uint64])
    def test_checked_takes_any_integer_width(self, dtype):
        columns = small_set().columns()
        wide = columns._replace(**{name: column.astype(dtype) for name,
                                   column in zip(columns._fields[1:],
                                                 columns[1:])})
        born = ProfileSet.from_columns(wide)
        assert_int32(born.columns())
        assert all(np.array_equal(ours, theirs) for ours, theirs
                   in zip(born.columns()[1:], columns[1:]))

    def test_the_churn_union(self):
        initial, plan, epoch = build_churn_workload(replace(
            CHURN_SCALES["smoke"], join_spread=0.6, leave_probability=0.5))
        assert_int32(initial.columns())
        assert_int32(plan.columns().added)
        lowered = lower_plan(initial, plan, epoch)
        assert lowered.added > 0
        assert_int32(lowered.profiles.columns())


class TestOnlyInt32Fits:
    @pytest.mark.parametrize("name", ProfileColumns._fields[1:])
    @pytest.mark.parametrize("value", [2 ** 31, -2 ** 31 - 1])
    def test_checked_refuses_a_value_past_int32_by_its_column(self, name,
                                                               value):
        columns = small_set().columns()
        column = columns._asdict()[name].astype(np.int64)
        column[-1] = value
        with pytest.raises(ValueError, match=f"^{name} holds a value "
                                             "outside int32"):
            columns._replace(**{name: column}).checked()

    def test_int32_bounds_pass_checked(self):
        """The bound itself is inside: ``2**31 - 1`` as a chronon and a
        resource id lowers to columns unchanged."""
        top = 2 ** 31 - 1
        columns = ProfileSet([Profile([TInterval([
            ExecutionInterval(top, top, top)])])]).columns()
        assert columns.ei_resource.tolist() == [top]
        assert columns.ei_finish.tolist() == [top]

    @pytest.mark.parametrize("name, ei", [
        ("ei_resource", (2 ** 31, 1, 2)),
        ("ei_start", (0, 2 ** 31, 2 ** 31)),
        ("ei_finish", (0, 1, 2 ** 31)),
    ])
    def test_objects_past_int32_have_no_columns(self, name, ei):
        profiles = ProfileSet([Profile([TInterval([
            ExecutionInterval(*ei)])])])
        with pytest.raises(ValueError, match=f"^{name} holds a value "
                                             "outside int32"):
            profiles.columns()
