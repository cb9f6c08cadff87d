"""Streaming statistics: Welford moments, P² sketches, CI widths."""

import math

import numpy as np
import pytest

from repro.utils.stats import (
    P2Quantile,
    StreamingMoments,
    StreamingStats,
    ci95_half_width,
)


class TestWelford:
    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(loc=3.0, scale=2.0, size=n)
        m = StreamingMoments()
        for v in values:
            m.push(float(v))
        assert m.count == n
        assert m.mean == pytest.approx(values.mean(), rel=1e-12)
        if n >= 2:
            assert m.variance == pytest.approx(values.var(ddof=1), rel=1e-12)
        else:
            assert m.variance == 0.0
        assert m.minimum == values.min()
        assert m.maximum == values.max()

    def test_catastrophic_cancellation_resistant(self):
        """The textbook sum-of-squares formula fails here; Welford must not."""
        offset = 1e9
        values = [offset + v for v in (4.0, 7.0, 13.0, 16.0)]
        m = StreamingMoments()
        for v in values:
            m.push(v)
        assert m.variance == pytest.approx(30.0, rel=1e-6)

    def test_deterministic_fold(self):
        """Same values, same order -> bit-identical summary (resume contract)."""
        values = [0.1 * i for i in range(17)]
        a, b = StreamingStats(), StreamingStats()
        for v in values:
            a.push(v)
            b.push(v)
        assert a.summary() == b.summary()


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        sketch = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            sketch.push(v)
        assert sketch.value == 3.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            P2Quantile(1.5)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_tracks_numpy_quantile_on_normal_stream(self, p):
        rng = np.random.default_rng(7)
        values = rng.normal(size=2000)
        sketch = P2Quantile(p)
        for v in values:
            sketch.push(float(v))
        exact = float(np.quantile(values, p))
        # P² is an O(1)-memory estimate; a loose absolute band suffices to
        # catch marker-update bugs (which produce wildly wrong values).
        assert sketch.value == pytest.approx(exact, abs=0.15)

    def test_exactly_five_samples_stays_exact_per_quantile(self):
        """Regression: at n=5 the markers are untouched and h[2] is the
        median whatever p is — p05/p50/p95 must not all collapse to it
        (the 5-replication campaign case)."""
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        estimates = {}
        for p in (0.05, 0.5, 0.95):
            sketch = P2Quantile(p)
            for v in values:
                sketch.push(v)
            estimates[p] = sketch.value
            assert sketch.value == pytest.approx(
                float(np.quantile(values, p)), rel=1e-12
            )
        assert estimates[0.05] < estimates[0.5] < estimates[0.95]

    def test_median_of_uniform_grid(self):
        sketch = P2Quantile(0.5)
        for v in range(1, 101):
            sketch.push(float(v))
        assert sketch.value == pytest.approx(50.5, abs=1.5)


class TestCI95:
    def test_zero_below_two_samples(self):
        assert ci95_half_width(0, 0.0) == 0.0
        assert ci95_half_width(1, 5.0) == 0.0

    def test_matches_scipy_t(self):
        from scipy.stats import t

        expected = t.ppf(0.975, 7) * 2.0 / math.sqrt(8)
        assert ci95_half_width(8, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_shrinks_with_replications(self):
        assert ci95_half_width(64, 1.0) < ci95_half_width(8, 1.0)

    @pytest.mark.parametrize("count", [2, 3, 7, 16, 31, 32, 64])
    def test_tabled_and_computed_quantiles_match_scipy(self, count):
        """Small counts read a table instead of importing scipy.stats; it
        holds SciPy's own values, and larger counts still ask SciPy."""
        from scipy.stats import t

        expected = float(t.ppf(0.975, count - 1)) * 3.0 / math.sqrt(count)
        assert ci95_half_width(count, 3.0) == pytest.approx(expected, rel=1e-14)


class TestSummary:
    def test_summary_keys_are_the_codec_schema(self):
        from repro.campaign.result import STAT_KEYS

        stats = StreamingStats()
        for v in (1.0, 2.0, 3.0):
            stats.push(v)
        assert tuple(stats.summary()) == STAT_KEYS
