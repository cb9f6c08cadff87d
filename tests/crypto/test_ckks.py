"""Correctness tests for the CKKS implementation.

Every homomorphic operation is validated against plaintext arithmetic; the
tolerances reflect CKKS's inherent approximation noise at the small test
parameters (n=32, Δ=2^22).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ckks import CKKSContext

ATOL = 2e-3


def vec(ckks, fill):
    return np.full(ckks.num_slots, fill)


class TestEncryptDecrypt:
    def test_roundtrip(self, ckks):
        values = np.linspace(-1.5, 1.5, ckks.num_slots)
        decrypted = ckks.decrypt(ckks.encrypt(values))
        assert np.allclose(decrypted.real, values, atol=ATOL)

    def test_fresh_ciphertext_at_top_level(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0))
        assert ct.level == ckks.depth
        assert ct.scale == ckks.scale

    def test_encrypt_at_lower_level(self, ckks):
        ct = ckks.encrypt(vec(ckks, 0.5), level=1)
        assert ct.level == 1
        assert np.allclose(ckks.decrypt(ct).real, 0.5, atol=ATOL)

    def test_ciphertext_is_randomised(self, ckks):
        a = ckks.encrypt(vec(ckks, 1.0))
        b = ckks.encrypt(vec(ckks, 1.0))
        assert a.c0 != b.c0

    def test_decrypting_garbage_differs_from_message(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0))
        tampered = type(ct)(
            c0=list(ct.c1), c1=list(ct.c0), level=ct.level, scale=ct.scale
        )
        assert not np.allclose(ckks.decrypt(tampered).real, 1.0, atol=0.1)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_roundtrip_constant_vectors(self, value):
        ckks = CKKSContext(ring_degree=16, depth=1, seed=5)
        decrypted = ckks.decrypt(ckks.encrypt(np.full(ckks.num_slots, value)))
        assert np.allclose(decrypted.real, value, atol=ATOL)


class TestAdditive:
    def test_add(self, ckks):
        a, b = vec(ckks, 1.25), vec(ckks, -0.75)
        out = ckks.decrypt(ckks.add(ckks.encrypt(a), ckks.encrypt(b)))
        assert np.allclose(out.real, 0.5, atol=ATOL)

    def test_sub(self, ckks):
        a, b = vec(ckks, 1.25), vec(ckks, 0.75)
        out = ckks.decrypt(ckks.sub(ckks.encrypt(a), ckks.encrypt(b)))
        assert np.allclose(out.real, 0.5, atol=ATOL)

    def test_negate(self, ckks):
        out = ckks.decrypt(ckks.negate(ckks.encrypt(vec(ckks, 2.0))))
        assert np.allclose(out.real, -2.0, atol=ATOL)

    def test_add_plain(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0))
        out = ckks.decrypt(ckks.add_plain(ct, vec(ckks, 0.5)))
        assert np.allclose(out.real, 1.5, atol=ATOL)

    def test_level_mismatch_rejected(self, ckks):
        a = ckks.encrypt(vec(ckks, 1.0))
        b = ckks.encrypt(vec(ckks, 1.0), level=1)
        with pytest.raises(ValueError, match="level"):
            ckks.add(a, b)

    def test_elementwise_addition(self, ckks):
        rng = np.random.default_rng(3)
        a = rng.normal(size=ckks.num_slots)
        b = rng.normal(size=ckks.num_slots)
        out = ckks.decrypt(ckks.add(ckks.encrypt(a), ckks.encrypt(b)))
        assert np.allclose(out.real, a + b, atol=ATOL)


class TestMultiplicative:
    def test_multiply_plain(self, ckks):
        ct = ckks.encrypt(vec(ckks, 2.0))
        out = ckks.decrypt(ckks.multiply_plain(ct, vec(ckks, 1.5)))
        assert np.allclose(out.real, 3.0, atol=ATOL)

    def test_multiply_plain_drops_level(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0))
        out = ckks.multiply_plain(ct, vec(ckks, 1.0))
        assert out.level == ct.level - 1
        # The rescale divides by the dropped chain prime p ≈ Δ, so the scale
        # returns to Δ only up to the prime's drift from the power of two.
        assert out.scale == pytest.approx(ckks.scale, rel=0.01)

    def test_multiply_ciphertexts(self, ckks):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1.5, 1.5, ckks.num_slots)
        b = rng.uniform(-1.5, 1.5, ckks.num_slots)
        out = ckks.decrypt(ckks.multiply(ckks.encrypt(a), ckks.encrypt(b)))
        assert np.allclose(out.real, a * b, atol=5e-3)

    def test_square(self, ckks):
        a = np.linspace(-1.0, 1.0, ckks.num_slots)
        out = ckks.decrypt(ckks.square(ckks.encrypt(a)))
        assert np.allclose(out.real, a**2, atol=5e-3)

    def test_depth_two_polynomial(self, ckks):
        # Evaluate x² · y with two chained multiplications.
        x = vec(ckks, 0.8)
        y = vec(ckks, -1.1)
        ct_x = ckks.encrypt(x)
        ct_y = ckks.encrypt(y)
        ct_x2 = ckks.multiply(ct_x, ct_x)
        ct_y_down = ckks.level_down(ct_y, ct_x2.level)
        out = ckks.decrypt(ckks.multiply(ct_x2, ct_y_down))
        assert np.allclose(out.real, 0.8**2 * -1.1, atol=1e-2)

    def test_multiplication_at_level_zero_rejected(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0), level=0)
        with pytest.raises(ValueError, match="level"):
            ckks.multiply(ct, ct)


class TestRescaleAndLevels:
    def test_rescale_divides_scale(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0))
        raised = type(ct)(
            c0=ct.c0, c1=ct.c1, level=ct.level, scale=ct.scale * ckks.scale
        )
        # Rescaling a Δ²-scaled ciphertext returns to ≈Δ (exactly Δ·Δ/p for
        # the dropped chain prime p ≈ Δ).
        out = ckks.rescale(raised)
        assert out.scale == pytest.approx(ckks.scale, rel=0.01)
        assert out.level == ct.level - 1

    def test_rescale_at_bottom_rejected(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0), level=0)
        with pytest.raises(ValueError):
            ckks.rescale(ct)

    def test_level_down_preserves_message(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.3))
        down = ckks.level_down(ct, 0)
        assert down.level == 0
        assert np.allclose(ckks.decrypt(down).real, 1.3, atol=ATOL)

    def test_level_down_validates_target(self, ckks):
        ct = ckks.encrypt(vec(ckks, 1.0), level=1)
        with pytest.raises(ValueError):
            ckks.level_down(ct, 2)


class TestParameters:
    def test_modulus_chain_structure(self, ckks):
        # Q_ℓ = Q_{ℓ-1} · p_ℓ with every chain prime within 1% of Δ, so the
        # rescale at each level divides by ≈Δ.
        for level in range(1, ckks.depth + 1):
            assert ckks.moduli[level] % ckks.moduli[level - 1] == 0
            divisor = ckks.moduli[level] // ckks.moduli[level - 1]
            assert divisor == ckks.rescale_divisor(level)
            assert divisor == pytest.approx(ckks.scale, rel=0.01)

    def test_ntt_chain_is_prime_product(self, ckks):
        from repro.crypto.ntt import is_ntt_friendly

        assert ckks.backend == "rns"
        assert ckks.chain_primes is not None
        for p in ckks.chain_primes + ckks.aux_primes:
            assert is_ntt_friendly(p, ckks.n)
        product = 1
        for p in ckks.chain_primes:
            product *= p
        assert product == ckks.moduli[-1]

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            CKKSContext(ring_degree=16, depth=-1)

    def test_scale_must_fit_in_base_modulus(self):
        with pytest.raises(ValueError, match="base_modulus_bits"):
            CKKSContext(ring_degree=16, scale_bits=30, base_modulus_bits=20)

    def test_num_slots(self, ckks):
        assert ckks.num_slots == ckks.n // 2
