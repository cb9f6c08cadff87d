"""Unit + property tests for the Werner-state link model (paper Eq. 3-5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quantum.werner import (
    F_SKF_ZERO_CROSSING,
    end_to_end_werner,
    link_capacity,
    secret_key_fraction,
    secret_key_fraction_derivative,
)

#: Werner inputs holding a NaN: every range comparison with NaN is false,
#: so a check written as "below 0 or above 1" lets them through.
NAN_INPUTS = pytest.mark.parametrize(
    "w", [np.nan, np.array([np.nan, 0.9]), np.array([0.9, np.nan])],
    ids=["scalar", "array-first", "array-last"],
)


class TestSecretKeyFraction:
    def test_perfect_pair_yields_full_fraction(self):
        assert secret_key_fraction(1.0) == pytest.approx(1.0)

    def test_maximally_mixed_yields_zero(self):
        assert secret_key_fraction(0.0) == 0.0

    def test_zero_below_crossing(self):
        assert secret_key_fraction(F_SKF_ZERO_CROSSING - 1e-6) == 0.0

    def test_positive_above_crossing(self):
        assert secret_key_fraction(F_SKF_ZERO_CROSSING + 1e-3) > 0.0

    def test_crossing_value_matches_paper_constant(self):
        # The paper: 0.779944 is the largest w with F_skf(w) = 0.
        assert secret_key_fraction(0.779944) == pytest.approx(0.0, abs=1e-5)

    def test_matches_paper_formula_explicitly(self):
        # Compare against the verbatim Eq. 4 expression at a few points.
        for w in (0.85, 0.9, 0.95, 0.99):
            expected = 1.0 + (1 + w) * np.log2((1 + w) / 2) + (1 - w) * np.log2((1 - w) / 2)
            assert secret_key_fraction(w) == pytest.approx(max(0.0, expected), rel=1e-12)

    def test_array_input_shape(self):
        w = np.array([0.0, 0.5, 0.9, 1.0])
        out = secret_key_fraction(w)
        assert out.shape == w.shape

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            secret_key_fraction(1.5)
        with pytest.raises(ValueError):
            secret_key_fraction(-0.1)

    @NAN_INPUTS
    def test_rejects_nan(self, w):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            secret_key_fraction(w)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_bounded_between_zero_and_one(self, w):
        assert 0.0 <= secret_key_fraction(w) <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_nondecreasing(self, w1, w2):
        lo, hi = sorted((w1, w2))
        assert secret_key_fraction(lo) <= secret_key_fraction(hi) + 1e-12


class TestDerivative:
    def test_zero_below_crossing(self):
        assert secret_key_fraction_derivative(0.5) == 0.0

    def test_positive_above_crossing(self):
        assert secret_key_fraction_derivative(0.9) > 0.0

    def test_matches_finite_difference(self):
        for w in (0.85, 0.9, 0.95):
            h = 1e-7
            numeric = (secret_key_fraction(w + h) - secret_key_fraction(w - h)) / (2 * h)
            assert secret_key_fraction_derivative(w) == pytest.approx(numeric, rel=1e-5)

    def test_infinite_at_one(self):
        assert np.isinf(secret_key_fraction_derivative(1.0))

    @NAN_INPUTS
    def test_rejects_nan(self, w):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            secret_key_fraction_derivative(w)


class TestLinkCapacity:
    def test_eq3_formula(self):
        assert link_capacity(89.84, 0.9766) == pytest.approx(89.84 * (1 - 0.9766))

    def test_zero_at_full_fidelity(self):
        assert link_capacity(50.0, 1.0) == 0.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            link_capacity(0.0, 0.5)

    @NAN_INPUTS
    def test_rejects_nan_werner(self, w):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            link_capacity(50.0, w)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_capacity_nonnegative_and_below_beta(self, beta, w):
        c = link_capacity(beta, w)
        assert 0.0 <= c <= beta


class TestEndToEndWerner:
    def test_single_link_identity(self):
        assert end_to_end_werner([0.9], [0]) == pytest.approx(0.9)

    def test_product_over_route(self):
        w = [0.9, 0.8, 0.95]
        assert end_to_end_werner(w, [0, 1, 2]) == pytest.approx(0.9 * 0.8 * 0.95)

    def test_subset_of_links(self):
        w = [0.9, 0.8, 0.95, 0.7]
        assert end_to_end_werner(w, [0, 2]) == pytest.approx(0.9 * 0.95)

    def test_empty_route_rejected(self):
        with pytest.raises(ValueError):
            end_to_end_werner([0.9], [])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            end_to_end_werner(np.array([np.nan, 0.5]), [0, 1])

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
    def test_swapping_never_improves_fidelity(self, ws):
        varpi = end_to_end_werner(ws, list(range(len(ws))))
        assert varpi <= min(ws) + 1e-12
