"""Streaming statistics: Welford moments and P² percentile sketches.

The campaign layer (:mod:`repro.campaign`) aggregates one scalar metric
over R seed replications without holding the samples: a
:class:`StreamingMoments` accumulator (Welford's online mean/variance,
min/max) paired with :class:`P2Quantile` sketches (Jain & Chlamtac's P²
algorithm: five markers per tracked quantile, O(1) memory, exact until the
sixth observation).

Determinism contract: feeding the same values in the same order always
produces bit-identical summaries — there is no randomness and no
environment dependence — which is what lets a resumed campaign reproduce
an uninterrupted run's aggregates byte for byte.

>>> stats = StreamingStats()
>>> for v in [3.0, 1.0, 4.0, 1.0, 5.0]:
...     stats.push(v)
>>> stats.count, stats.mean
(5, 2.8)
>>> round(stats.std, 6)
1.788854
>>> stats.minimum, stats.maximum
(1.0, 5.0)
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

__all__ = ["P2Quantile", "StreamingMoments", "StreamingStats", "ci95_half_width"]

#: Quantiles every campaign metric tracks (median + a 90% spread).
DEFAULT_QUANTILES = (0.05, 0.5, 0.95)


class StreamingMoments:
    """Welford's online mean/variance plus min/max, O(1) memory."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def push(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 until two observations exist."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class P2Quantile:
    """P² single-quantile sketch (Jain & Chlamtac 1985).

    Maintains five markers whose heights approximate the ``p`` quantile of
    everything pushed so far.  Exact for the first five observations (falls
    back to sorted-order interpolation), then O(1) per update.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = float(p)
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []

    def push(self, value: float) -> None:
        value = float(value)
        if len(self._initial) < 5:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._start()
            return
        h = self._heights
        n = self._positions
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = next(i for i in range(4) if h[i] <= value < h[i + 1])
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in range(1, 4):
            d = self._desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _start(self) -> None:
        ordered = sorted(self._initial)
        self._heights = list(ordered)
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        p = self.p
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @staticmethod
    def _interpolate(ordered: List[float], p: float) -> float:
        """Exact quantile of a sorted sample: rank ``p·(n−1)`` interpolation."""
        rank = p * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def value(self) -> float:
        """Current quantile estimate (nan before the first observation)."""
        count = len(self._initial)
        if count == 0:
            return math.nan
        if not self._heights:
            return self._interpolate(sorted(self._initial), self.p)
        if self._positions[4] <= 5.0:
            # Exactly five observations: the markers are still the sorted
            # sample and h[2] is the *median* whatever p is — stay exact
            # until the marker adjustment has actually run.
            return self._interpolate(self._heights, self.p)
        return self._heights[2]


#: ``scipy.stats.t.ppf(0.975, df)`` for ``df = 1 … 30``, as SciPy computes
#: it: aggregating a campaign of up to 31 seeds then needs no
#: ``scipy.stats`` import (~0.7 s, paid inside every campaign run).
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


def ci95_half_width(count: int, std: float) -> float:
    """Half-width of the 95% confidence interval on the mean.

    Student-t for small replication counts (the campaign regime), so 8-seed
    cells get honest error bars; 0.0 when fewer than two samples exist.
    """
    if count < 2 or std == 0.0:
        return 0.0
    if count - 1 <= len(_T975):
        quantile = _T975[count - 2]
    else:
        from scipy.stats import t

        quantile = float(t.ppf(0.975, count - 1))
    return quantile * std / math.sqrt(count)


class StreamingStats:
    """Moments + the default percentile sketches, one metric's aggregate."""

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        self.moments = StreamingMoments()
        self.sketches = {q: P2Quantile(q) for q in quantiles}

    def push(self, value: float) -> None:
        self.moments.push(value)
        for sketch in self.sketches.values():
            sketch.push(value)

    @property
    def count(self) -> int:
        return self.moments.count

    @property
    def mean(self) -> float:
        return self.moments.mean

    @property
    def std(self) -> float:
        return self.moments.std

    @property
    def minimum(self) -> float:
        return self.moments.minimum

    @property
    def maximum(self) -> float:
        return self.moments.maximum

    def summary(self) -> Dict[str, float]:
        """JSON-ready aggregate: the ``campaign_result`` per-metric schema."""
        m = self.moments
        out = {
            "count": m.count,
            "mean": m.mean,
            "std": m.std,
            "min": m.minimum if m.count else math.nan,
            "max": m.maximum if m.count else math.nan,
            "ci95": ci95_half_width(m.count, m.std),
        }
        for q, sketch in self.sketches.items():
            out[f"p{round(q * 100):02d}"] = sketch.value
        return out
