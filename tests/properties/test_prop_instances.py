"""Equivalence properties: generated instances ARE the specification.

``src`` generates an instance through one batched path (the update
models' batched sampling, the templates' bulk-derived EI columns). For
every seed, source and configuration it must produce the instance of the
event-at-a-time specification in ``tests/workloads/oracle.py`` — the
identical update trace, structurally equal profiles and identical EI
columns — and leave its generator where the specification would, so a
second ``generate`` call draws the same stream. The content-addressed
:class:`~repro.experiments.instances.InstanceCache` must likewise be
invisible: a cache hit returns the same instance a fresh miss would have
generated.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeline import Epoch
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import (
    InstanceCache,
    generate_instance,
)
from repro.traces.auctions import AuctionTraceSynthesizer
from repro.traces.models import PoissonUpdateModel

from tests.workloads import oracle


def profiles_equal(left, right) -> bool:
    """Structural ProfileSet equality (ids, names, t-intervals, EIs)."""
    ls, rs = list(left), list(right)
    if len(ls) != len(rs):
        return False
    for a, b in zip(ls, rs):
        if (a.profile_id != b.profile_id or a.name != b.name
                or tuple(a) != tuple(b)):
            return False
    return True


@st.composite
def configs(draw) -> ExperimentConfig:
    window = draw(st.sampled_from([None, 0, 2, 5, 10]))
    alpha, beta = draw(st.sampled_from(
        [(0.0, 0.0), (1.37, 0.0), (0.0, 0.8), (1.37, 0.8)]))
    return ExperimentConfig(
        epoch_length=draw(st.sampled_from([20, 40, 60])),
        num_resources=draw(st.integers(2, 12)),
        num_profiles=draw(st.integers(1, 12)),
        intensity=draw(st.sampled_from([0.5, 2.0, 6.0, 12.0])),
        window=window,
        repetitions=1,
        grouping=draw(st.sampled_from(["indexed", "overlap"])),
        seed=draw(st.integers(0, 2**16)),
        alpha=alpha,
        beta=beta,
    )


class TestFastEqualsReference:
    @given(config=configs(),
           source=st.sampled_from(["poisson", "auction"]),
           repetition=st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_identical_instances(self, config, source, repetition):
        trace, profiles = generate_instance(config, repetition, source)
        ref_trace, ref_profiles = oracle.instance(config, repetition, source)
        assert list(trace) == list(ref_trace)
        assert profiles_equal(profiles, ref_profiles)
        born, walked = profiles.columns(), ref_profiles.columns()
        assert born.names == walked.names
        for ours, theirs in zip(born[1:], walked[1:]):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    @given(config=configs(), source=st.sampled_from(["poisson", "auction"]))
    @settings(max_examples=40, deadline=None)
    def test_regeneration_is_deterministic(self, config, source):
        first = generate_instance(config, 0, source)
        second = generate_instance(config, 0, source)
        assert list(first[0]) == list(second[0])
        assert profiles_equal(first[1], second[1])


class TestTheStreamContinues:
    """A model keeps its generator: a second ``generate`` call draws on
    from where the first left it, as the specification's would."""

    @given(intensity=st.sampled_from([0.0, 0.5, 3.0, 12.0]),
           overrides=st.dictionaries(st.integers(0, 9),
                                     st.sampled_from([0.0, 1.0, 40.0]),
                                     max_size=4),
           resources=st.integers(0, 10), length=st.sampled_from([1, 20, 60]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_poisson(self, intensity, overrides, resources, length, seed):
        model = PoissonUpdateModel(intensity, seed=seed,
                                   per_resource_intensity=overrides)
        rng = np.random.default_rng(seed)
        epoch = Epoch(length)
        for _call in range(2):
            trace = model.generate(range(resources), epoch)
            expected = oracle.poisson_trace(rng, model.intensity_for,
                                            range(resources), epoch)
            assert list(trace) == list(expected)
            assert model._rng.bit_generator.state \
                == rng.bit_generator.state

    @given(auctions=st.integers(0, 8), length=st.sampled_from([5, 40]),
           mean_bids=st.sampled_from([1.0, 6.0, 20.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_auction(self, auctions, length, mean_bids, seed):
        synthesizers = [AuctionTraceSynthesizer(
            auctions, Epoch(length), mean_bids=mean_bids, seed=seed)
            for _ in range(2)]
        for _call in range(2):
            trace = synthesizers[0].generate()
            expected = oracle.auction_trace(synthesizers[1])
            assert list(trace) == list(expected)
            assert synthesizers[0]._rng.bit_generator.state \
                == synthesizers[1]._rng.bit_generator.state


class TestCacheTransparency:
    @given(config=configs(), source=st.sampled_from(["poisson", "auction"]))
    @settings(max_examples=40, deadline=None)
    def test_memory_hit_equals_fresh_miss(self, config, source):
        cache = InstanceCache(max_entries=4)
        miss_trace, miss_profiles = cache.get_or_generate(config, 0, source)
        hit_trace, hit_profiles = cache.get_or_generate(config, 0, source)
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["memory_hits"] == 1
        assert hit_trace is miss_trace and hit_profiles is miss_profiles
        fresh_trace, fresh_profiles = generate_instance(config, 0, source)
        assert list(hit_trace) == list(fresh_trace)
        assert profiles_equal(hit_profiles, fresh_profiles)

    @given(config=configs(), source=st.sampled_from(["poisson", "auction"]))
    @settings(max_examples=30, deadline=None)
    def test_disk_round_trip_equals_fresh(self, config, source):
        with tempfile.TemporaryDirectory() as tmp:
            store = InstanceCache(max_entries=4, cache_dir=tmp)
            store.get_or_generate(config, 0, source)
            reload = InstanceCache(max_entries=4, cache_dir=tmp)
            disk_trace, disk_profiles = reload.get_or_generate(
                config, 0, source)
            assert reload.stats()["disk_hits"] == 1
            assert reload.stats()["disk_errors"] == 0
        fresh_trace, fresh_profiles = generate_instance(config, 0, source)
        assert list(disk_trace) == list(fresh_trace)
        assert profiles_equal(disk_profiles, fresh_profiles)
