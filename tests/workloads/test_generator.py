"""Tests for the three-stage profile generator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Epoch, WorkloadError
from repro.core.profile import ProfileColumns
from repro.traces import PoissonUpdateModel, UpdateTrace
from repro.workloads import (
    AuctionWatchTemplate,
    BoundedZipf,
    GeneratorConfig,
    OverwriteRestriction,
    ProfileGenerator,
    WindowRestriction,
)
from repro.workloads.generator import draw_profiles


@pytest.fixture
def epoch() -> Epoch:
    return Epoch(200)


@pytest.fixture
def trace(epoch):
    return PoissonUpdateModel(10, seed=1).generate(range(20), epoch)


class TestGeneratorConfig:
    def test_defaults(self):
        config = GeneratorConfig(num_profiles=5, max_rank=3)
        assert config.alpha == 0.0
        assert config.window == 20

    def test_restriction_window(self):
        config = GeneratorConfig(num_profiles=1, max_rank=1, window=7)
        restriction = config.restriction()
        assert isinstance(restriction, WindowRestriction)
        assert restriction.window == 7

    def test_restriction_overwrite(self):
        config = GeneratorConfig(num_profiles=1, max_rank=1, window=None)
        assert isinstance(config.restriction(), OverwriteRestriction)

    def test_invalid_values_rejected(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(num_profiles=-1, max_rank=1)
        with pytest.raises(WorkloadError):
            GeneratorConfig(num_profiles=1, max_rank=0)
        with pytest.raises(WorkloadError):
            GeneratorConfig(num_profiles=1, max_rank=1, alpha=-1)
        with pytest.raises(WorkloadError):
            GeneratorConfig(num_profiles=1, max_rank=1, window=-1)


class TestGeneration:
    def test_profile_count(self, trace, epoch):
        config = GeneratorConfig(num_profiles=15, max_rank=3, seed=2)
        profiles = ProfileGenerator(config).generate(trace, epoch)
        assert len(profiles) == 15

    def test_rank_bounded(self, trace, epoch):
        config = GeneratorConfig(num_profiles=30, max_rank=3, seed=3)
        profiles = ProfileGenerator(config).generate(trace, epoch)
        assert profiles.rank <= 3

    def test_deterministic_given_seed(self, trace, epoch):
        config = GeneratorConfig(num_profiles=10, max_rank=2, seed=4)
        first = ProfileGenerator(config).generate(trace, epoch)
        second = ProfileGenerator(config).generate(trace, epoch)
        for p1, p2 in zip(first, second):
            assert [eta.eis for eta in p1] == [eta.eis for eta in p2]

    def test_zero_profiles(self, trace, epoch):
        config = GeneratorConfig(num_profiles=0, max_rank=1)
        profiles = ProfileGenerator(config).generate(trace, epoch)
        assert len(profiles) == 0

    def test_no_resources_rejected(self, epoch):
        empty_trace = PoissonUpdateModel(0).generate([], epoch)
        config = GeneratorConfig(num_profiles=2, max_rank=1)
        with pytest.raises(WorkloadError, match="no resources"):
            ProfileGenerator(config).generate(empty_trace, epoch)

    def test_no_profiles_over_no_resources(self):
        # Nothing to draw from and nothing to draw: an empty set, not a
        # Zipf table over an empty universe.
        config = GeneratorConfig(num_profiles=0, max_rank=3)
        profiles = ProfileGenerator(config).generate(
            UpdateTrace([], Epoch(10)), Epoch(10))
        assert len(profiles) == 0
        assert profiles.columns().ei_start.size == 0

    def test_beta_skews_toward_simple_profiles(self, trace, epoch):
        flat = GeneratorConfig(num_profiles=200, max_rank=4, beta=0.0,
                               seed=5)
        skew = GeneratorConfig(num_profiles=200, max_rank=4, beta=2.0,
                               seed=5)
        flat_ranks = [p.rank for p in
                      ProfileGenerator(flat).generate(trace, epoch)
                      if len(p) > 0]
        skew_ranks = [p.rank for p in
                      ProfileGenerator(skew).generate(trace, epoch)
                      if len(p) > 0]
        assert (sum(skew_ranks) / len(skew_ranks)
                < sum(flat_ranks) / len(flat_ranks))

    def test_alpha_concentrates_on_popular_resources(self, epoch):
        # Make resource popularity unambiguous: heavier update streams
        # for lower ids (the default popularity ordering).
        model = PoissonUpdateModel(
            5, seed=6,
            per_resource_intensity={0: 60, 1: 50, 2: 40})
        trace = model.generate(range(20), epoch)
        skew = GeneratorConfig(num_profiles=150, max_rank=1, alpha=2.5,
                               seed=7)
        profiles = ProfileGenerator(skew).generate(trace, epoch)
        top_hits = sum(1 for p in profiles
                       if p.resource_ids and p.resource_ids <= {0, 1, 2})
        assert top_hits > 100

    def test_explicit_resource_ordering(self, trace, epoch):
        config = GeneratorConfig(num_profiles=50, max_rank=1, alpha=3.0,
                                 seed=8)
        profiles = ProfileGenerator(config).generate(
            trace, epoch, resource_ids=[5, 6, 7])
        used = set()
        for profile in profiles:
            used |= profile.resource_ids
        assert used <= {5, 6, 7}

    def test_window_zero_yields_unit_width(self, trace, epoch):
        config = GeneratorConfig(num_profiles=10, max_rank=2, window=0,
                                 grouping="indexed", seed=9)
        profiles = ProfileGenerator(config).generate(trace, epoch)
        assert profiles.is_unit_width

    def test_rank_clamped_to_resource_count(self, epoch):
        model = PoissonUpdateModel(10, seed=10)
        trace = model.generate(range(2), epoch)
        config = GeneratorConfig(num_profiles=10, max_rank=5, seed=11)
        profiles = ProfileGenerator(config).generate(trace, epoch)
        assert profiles.rank <= 2


class TestDrawBuildSeam:
    """``generate`` is ``draw_profiles`` then ``build_columns``: several
    streams' draws, over shared Zipf tables, through one build are each
    stream's own ``generate``, one after another."""

    SEEDS = (11, 12, 40)

    @pytest.mark.parametrize("grouping", ["overlap", "indexed"])
    @pytest.mark.parametrize("window", [None, 0, 6])
    @pytest.mark.parametrize("skew", [0.0, 1.3])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_one_build_over_several_seeds(self, trace, epoch, grouping,
                                          window, skew, shuffled):
        config = GeneratorConfig(num_profiles=7, max_rank=4, alpha=skew,
                                 beta=skew, window=window, grouping=grouping)
        universe = sorted(trace.resource_ids)
        if shuffled:
            np.random.default_rng(3).shuffle(universe)
        rank_dist = BoundedZipf(config.beta, config.max_rank)
        resource_dist = BoundedZipf(config.alpha, len(universe))
        draws = [draw_profiles(np.random.default_rng(seed),
                               config.num_profiles, rank_dist, resource_dist)
                 for seed in self.SEEDS]
        built = AuctionWatchTemplate(
            config.restriction(), grouping=grouping).build_columns(
                np.concatenate([ranks for ranks, _ in draws]),
                np.asarray(universe)[np.concatenate(
                    [positions for _, positions in draws])],
                [f"AuctionWatch({rank})#{index}" for ranks, _ in draws
                 for index, rank in enumerate(ranks.tolist())],
                trace, epoch)
        want = ProfileColumns.concat([
            ProfileGenerator(replace(config, seed=seed)).generate(
                trace, epoch, resource_ids=universe).columns()
            for seed in self.SEEDS])
        assert built.names == want.names
        assert built.ei_profile.size > 0
        for got, expected in zip(built[1:], want[1:]):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_draws_are_ranks_and_zero_based_positions(self):
        rank_dist, resource_dist = BoundedZipf(0.0, 5), BoundedZipf(0.0, 3)
        ranks, positions = draw_profiles(np.random.default_rng(8), 40,
                                         rank_dist, resource_dist)
        assert ranks.dtype == positions.dtype == np.int64
        # Ranks past the universe are clamped to its size.
        assert set(ranks.tolist()) <= {1, 2, 3} and 3 in ranks
        assert positions.size == ranks.sum()
        assert set(positions.tolist()) == {0, 1, 2}
        empty = draw_profiles(np.random.default_rng(8), 0, rank_dist,
                              resource_dist)
        assert [part.size for part in empty] == [0, 0]
