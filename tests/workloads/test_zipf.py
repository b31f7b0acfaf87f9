"""Tests for the bounded Zipf table.

A :class:`BoundedZipf` maps uniforms the caller draws to values; the
draws it stands in for — one ``rng.random()`` per value, one
``rng.choice(replace=False, p=pmf)`` per distinct set — are
``tests/workloads/oracle.py``'s, and the stream equivalences below hold
the table to them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.workloads import BoundedZipf

from tests.workloads import oracle


class TestValidation:
    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            BoundedZipf(-0.1, 10)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            BoundedZipf(1.0, 0)


class TestPmf:
    def test_uniform_when_theta_zero(self):
        dist = BoundedZipf(0.0, 4)
        assert all(dist.pmf(i) == pytest.approx(0.25) for i in range(1, 5))

    def test_pmf_sums_to_one(self):
        dist = BoundedZipf(1.37, 100)
        assert sum(dist.pmf(i) for i in range(1, 101)) == pytest.approx(1)

    def test_pmf_decreasing_for_positive_theta(self):
        dist = BoundedZipf(1.0, 10)
        values = [dist.pmf(i) for i in range(1, 11)]
        assert values == sorted(values, reverse=True)

    def test_pmf_zero_outside_support(self):
        dist = BoundedZipf(1.0, 10)
        assert dist.pmf(0) == 0.0
        assert dist.pmf(11) == 0.0

    def test_exact_ratio(self):
        dist = BoundedZipf(1.0, 2)
        # P(1)/P(2) = 2 for theta=1.
        assert dist.pmf(1) / dist.pmf(2) == pytest.approx(2.0)


class TestSampling:
    def test_samples_in_support(self):
        dist = BoundedZipf(1.5, 7)
        samples = [dist.sample_from(u)
                   for u in np.random.default_rng(1).random(1000)]
        assert min(samples) >= 1
        assert max(samples) <= 7

    def test_skew_prefers_small_values(self):
        dist = BoundedZipf(2.0, 50)
        samples = np.array([dist.sample_from(u)
                            for u in np.random.default_rng(2).random(5000)])
        assert np.mean(samples == 1) > 0.5

    def test_uniform_sampling_flat(self):
        dist = BoundedZipf(0.0, 4)
        samples = np.array([dist.sample_from(u)
                            for u in np.random.default_rng(3).random(8000)])
        for value in range(1, 5):
            assert np.mean(samples == value) == pytest.approx(0.25,
                                                              abs=0.03)

    def test_single_sample(self):
        assert 1 <= BoundedZipf(1.0, 5).sample_from(0.999999) <= 5
        assert BoundedZipf(1.0, 5).sample_from(0.0) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            BoundedZipf(0.0, 3).sample_distinct_from(
                -1, np.random.default_rng(0).random)


    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.37, 2.0])
    @pytest.mark.parametrize("size", [3, 5, 10, 50, 500])
    def test_the_largest_uniform_below_one_stays_in_support(self, theta,
                                                             size):
        """The cumulative sum can round under 1.0 (1.37 over 3 values
        ends at 0.9999999999999999), and a uniform in that gap used to
        invert to ``size + 1``; the last CDF entry is 1.0."""
        dist = BoundedZipf(theta, size)
        assert dist.cdf[-1] == 1.0
        below_one = float(np.nextafter(1.0, 0.0))
        assert dist.sample_from(below_one) == size
        stream = SimpleNamespace(random=lambda: below_one)
        assert oracle.zipf_sample(stream, oracle.zipf_pmf(theta, size)) \
            == size


class TestSampleDistinct:
    def test_distinct_values(self):
        dist = BoundedZipf(1.0, 10)
        rng = np.random.default_rng(5)
        for _ in range(20):
            drawn = dist.sample_distinct_from(5, rng.random)
            assert len(set(drawn)) == 5

    def test_full_support_draw(self):
        dist = BoundedZipf(1.0, 5)
        drawn = dist.sample_distinct_from(5, np.random.default_rng(6).random)
        assert sorted(drawn) == [1, 2, 3, 4, 5]

    def test_over_draw_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            BoundedZipf(1.0, 3).sample_distinct_from(
                4, np.random.default_rng(0).random)

    def test_zero_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert BoundedZipf(1.0, 3).sample_distinct_from(0, rng.random) == []
        assert rng.bit_generator.state == state


class TestStreamEquivalence:
    """The table inverts the uniforms the oracle's draws consume."""

    def test_pmf_is_the_oracles(self):
        for theta, size in ((0.0, 4), (0.8, 40), (1.37, 100)):
            dist = BoundedZipf(theta, size)
            assert [dist.pmf(value) for value in range(1, size + 1)] \
                == oracle.zipf_pmf(theta, size).tolist()

    def test_batch_sample_matches_scalar_sequence(self):
        """A batch of uniforms mapped through the table is the scalar
        draws one ``rng.random()`` at a time, and leaves the stream at
        the same position."""
        for theta in (0.0, 0.8, 1.37):
            dist = BoundedZipf(theta, 40)
            scalar, batch = (np.random.default_rng(7) for _ in range(2))
            pmf = oracle.zipf_pmf(theta, 40)
            one_at_a_time = [oracle.zipf_sample(scalar, pmf)
                             for _ in range(64)]
            assert one_at_a_time == [dist.sample_from(u)
                                     for u in batch.random(64)]
            assert scalar.bit_generator.state == batch.bit_generator.state

    def test_sample_from_matches_sample(self):
        for theta in (0.0, 1.37):
            dist = BoundedZipf(theta, 25)
            direct = np.random.default_rng(8)
            pmf = oracle.zipf_pmf(theta, 25)
            uniforms = np.random.default_rng(8).random(50)
            assert [oracle.zipf_sample(direct, pmf) for _ in range(50)] \
                == [dist.sample_from(u) for u in uniforms]

    def test_sample_distinct_from_replays_choice(self):
        """External-uniform replay equals Generator.choice exactly, and
        consumes the same uniforms."""
        for theta in (0.0, 0.8, 1.37):
            dist = BoundedZipf(theta, 12)
            pmf = oracle.zipf_pmf(theta, 12)
            for seed in range(10):
                for count in (1, 3, 7, 12):
                    reference = np.random.default_rng(seed)
                    replay = np.random.default_rng(seed)
                    expected = reference.choice(12, size=count,
                                                replace=False, p=pmf)
                    got = dist.sample_distinct_from(count, replay.random)
                    assert [int(value) + 1 for value in expected] == got
                    assert reference.bit_generator.state \
                        == replay.bit_generator.state
