"""Property tests: the RNS/NTT backend is bit-for-bit equal to the reference ring.

Three layers of evidence:

1. **NTT layer** — the transform is an exact bijection and its negacyclic
   product matches schoolbook convolution, for small and 62-bit primes.
2. **Ring layer** — every :class:`RNSPolyRing` operation (add/sub/neg/
   scalar/mul/centered/rescale/change_modulus/norm, plus the random
   samplers) returns exactly what the big-int :class:`PolyRing` returns on
   the same inputs, across several (degree, prime-chain) shapes.
3. **Scheme layer** — whole CKKS and BFV pipelines (encrypt → multiply →
   rescale/relinearise → decrypt) produce bit-identical ciphertexts and
   decryptions under both backends from the same seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bfv import BFVContext
from repro.crypto.ckks import CKKSContext
from repro.crypto.ntt import (
    NTTContext,
    find_ntt_primes,
    find_prime_chain,
    get_ntt_context,
    is_ntt_friendly,
    is_prime,
)
from repro.crypto.poly import PolyRing
from repro.crypto.rns import RNSPolyRing, get_ring


def schoolbook_negacyclic(a, b, n, q):
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = i + j
            if k < n:
                out[k] = (out[k] + x * y) % q
            else:
                out[k - n] = (out[k - n] - x * y) % q
    return out


# -- shared shapes: (degree, prime chain) covering small/large primes ---------

CHAIN_SHAPES = [
    (8, find_ntt_primes(14, 8, 2)),
    (32, find_ntt_primes(22, 32, 3)),
    (64, find_ntt_primes(58, 64, 2)),
    (16, find_ntt_primes(30, 16, 1) + find_ntt_primes(61, 16, 1)),
]


def ring_pair(degree, primes):
    q = 1
    for p in primes:
        q *= p
    return PolyRing(degree, q), RNSPolyRing(degree, primes)


class TestPrimeSearch:
    def test_miller_rabin_agrees_with_small_primes(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_prime(n) == sieve[n]

    @pytest.mark.parametrize("degree,bits", [(8, 14), (64, 22), (1024, 40), (4096, 55)])
    def test_found_primes_are_ntt_friendly(self, degree, bits):
        primes = find_ntt_primes(bits, degree, 3)
        assert len(set(primes)) == 3
        for p in primes:
            assert is_ntt_friendly(p, degree)
            assert p % (2 * degree) == 1
            # Near the target: within a factor of two.
            assert (1 << (bits - 1)) < p < (1 << (bits + 1))

    def test_exclusion_respected(self):
        first = find_ntt_primes(22, 32, 2)
        more = find_ntt_primes(22, 32, 2, exclude=first)
        assert not set(first) & set(more)

    def test_prime_chain_reaches_requested_bits(self):
        chain = find_prime_chain(130, 64)
        product = 1
        for p in chain:
            product *= p
        assert product.bit_length() > 130
        assert len(set(chain)) == len(chain)

    def test_impossible_chain_raises(self):
        # p ≡ 1 mod 2n needs p > 2n; 14-bit primes cannot serve n = 8192.
        with pytest.raises(ValueError):
            find_ntt_primes(14, 8192, 1)


class TestNTTTransform:
    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_roundtrip_identity(self, degree, primes, rng):
        for p in primes:
            ctx = get_ntt_context(degree, p)
            a = rng.integers(0, p, degree).astype(np.uint64)
            assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_negacyclic_multiply_matches_schoolbook(self, degree, primes, rng):
        p = primes[-1]
        ctx = get_ntt_context(degree, p)
        a = rng.integers(0, p, degree).astype(np.uint64)
        b = rng.integers(0, p, degree).astype(np.uint64)
        got = [int(v) for v in ctx.negacyclic_multiply(a, b)]
        want = schoolbook_negacyclic(
            [int(v) for v in a], [int(v) for v in b], degree, p
        )
        assert got == want

    def test_batched_transform_matches_per_row(self, rng):
        (p,) = find_ntt_primes(40, 16, 1)
        ctx = NTTContext(16, p)
        batch = rng.integers(0, p, (4, 16)).astype(np.uint64)
        stacked = ctx.forward(batch)
        for i in range(4):
            assert np.array_equal(stacked[i], ctx.forward(batch[i]))

    def test_rejects_unfriendly_prime(self):
        with pytest.raises(ValueError):
            NTTContext(8, 89)  # 89 ≡ 9 mod 16, no 16th root of unity


class TestRingEquivalence:
    """Every RNS op matches the reference ring bit-for-bit."""

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_all_ops_match_reference(self, degree, primes, rng):
        ref, fast = ring_pair(degree, primes)
        q = ref.q
        for _ in range(3):
            a = [int(x) % q for x in rng.integers(0, 2**62, degree)]
            b = [int(x) % q for x in rng.integers(0, 2**62, degree)]
            fa, fb = fast.from_coefficients(a), fast.from_coefficients(b)
            assert fast.coefficients(fa) == a
            assert fast.add(fa, fb) == ref.add(a, b)
            assert fast.sub(fa, fb) == ref.sub(a, b)
            assert fast.neg(fa) == ref.neg(a)
            scalar = int(rng.integers(0, 2**40))
            assert fast.scalar_mul(fa, scalar) == ref.scalar_mul(a, scalar)
            assert fast.mul(fa, fb) == ref.mul(a, b)
            assert fast.centered(fa) == ref.centered(a)
            assert fast.infinity_norm(fa) == ref.infinity_norm(a)
            divisor = int(rng.integers(2, 2**30))
            new_mod = int(rng.integers(2, 2**30))
            assert fast.rescale(fa, divisor, new_mod) == ref.rescale(a, divisor, new_mod)
            assert fast.change_modulus(fa, new_mod) == ref.change_modulus(a, new_mod)

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_samplers_consume_rng_identically(self, degree, primes):
        ref, fast = ring_pair(degree, primes)
        assert fast.random_uniform(rng=11) == ref.random_uniform(rng=11)
        assert fast.random_ternary(rng=12) == ref.random_ternary(rng=12)
        assert fast.random_gaussian(rng=13) == ref.random_gaussian(rng=13)
        weight = min(4, degree)
        assert fast.random_ternary(
            rng=14, hamming_weight=weight
        ) == ref.random_ternary(rng=14, hamming_weight=weight)

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_long_vector_folding_matches(self, degree, primes, rng):
        ref, fast = ring_pair(degree, primes)
        long = [int(v) for v in rng.integers(-(2**40), 2**40, 3 * degree + 2)]
        assert fast.from_coefficients(long) == ref.from_coefficients(long)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**30), min_size=8, max_size=8),
        st.lists(st.integers(min_value=0, max_value=10**30), min_size=8, max_size=8),
    )
    def test_mul_property(self, a, b):
        degree, primes = CHAIN_SHAPES[0]
        ref, fast = ring_pair(degree, primes)
        a = [x % ref.q for x in a]
        b = [x % ref.q for x in b]
        assert fast.mul(a, b) == ref.mul(a, b)

    def test_constant_and_zero(self):
        degree, primes = CHAIN_SHAPES[1]
        ref, fast = ring_pair(degree, primes)
        assert fast.zero() == ref.zero()
        assert fast.constant(-5) == ref.constant(-5)
        assert fast.constant(ref.q + 3) == ref.constant(ref.q + 3)

    def test_element_of_wrong_ring_rejected(self):
        _, fast_a = ring_pair(*CHAIN_SHAPES[0])
        _, fast_b = ring_pair(*CHAIN_SHAPES[1])
        with pytest.raises(ValueError):
            fast_b.add(fast_a.zero(), fast_b.zero())


class TestStructuredFastPaths:
    """project_to (row selection) and rescale_to (exact RNS rescale) match
    the generic centred-lift / divide-and-round bridge bit for bit."""

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_project_to_subset_matches_reference(self, degree, primes, rng):
        ref, fast = ring_pair(degree, primes)
        for keep in (primes[:1], primes[:-1], primes[::-1]):
            sub_ref, sub_fast = ring_pair(degree, keep)
            a = [int(x) % ref.q for x in rng.integers(0, 2**62, degree)]
            got = fast.project_to(fast.from_coefficients(a), sub_fast)
            want = sub_ref.from_coefficients(ref.centered(a))
            assert sub_fast.coefficients(got) == want

    @pytest.mark.parametrize("degree,primes", CHAIN_SHAPES)
    def test_rescale_to_dropped_primes_matches_reference(self, degree, primes, rng):
        ref, fast = ring_pair(degree, primes)
        # Drop the last prime (the CKKS rescale shape) and the first ones
        # (the relinearisation P-division shape).
        for keep, dropped in (
            (primes[:-1], primes[-1:]),
            (primes[1:], primes[:1]),
        ):
            divisor = 1
            for p in dropped:
                divisor *= p
            sub_ref, sub_fast = ring_pair(degree, keep)
            for _ in range(3):
                a = [int(x) % ref.q for x in rng.integers(0, 2**62, degree)]
                got = fast.rescale_to(fast.from_coefficients(a), divisor, sub_fast)
                want = sub_ref.from_coefficients(
                    ref.rescale(a, divisor, sub_ref.q)
                )
                assert sub_fast.coefficients(got) == want

    def test_rescale_to_generic_divisor_falls_back(self, rng):
        degree, primes = CHAIN_SHAPES[1]
        ref, fast = ring_pair(degree, primes)
        sub_ref, sub_fast = ring_pair(degree, primes[:-1])
        a = [int(x) % ref.q for x in rng.integers(0, 2**62, degree)]
        divisor = 1000  # not a chain-prime product
        got = fast.rescale_to(fast.from_coefficients(a), divisor, sub_fast)
        want = sub_ref.from_coefficients(ref.rescale(a, divisor, sub_ref.q))
        assert sub_fast.coefficients(got) == want

    def test_project_to_extension_ring(self, rng):
        # Lifting *up* (to a superset basis) must use the centred bridge.
        degree, primes = CHAIN_SHAPES[0]
        ref, fast = ring_pair(degree, primes)
        extra = find_ntt_primes(20, degree, 1, exclude=primes)
        big_ref, big_fast = ring_pair(degree, primes + extra)
        a = [int(x) % ref.q for x in rng.integers(0, 2**62, degree)]
        got = fast.project_to(fast.from_coefficients(a), big_fast)
        want = big_ref.from_coefficients(ref.centered(a))
        assert big_fast.coefficients(got) == want


class TestBackendSelection:
    def test_auto_prefers_rns(self):
        degree, primes = CHAIN_SHAPES[1]
        assert isinstance(get_ring(degree, primes=primes), RNSPolyRing)

    def test_reference_on_unfactored_modulus(self):
        assert isinstance(get_ring(32, (1 << 64) + 13), PolyRing)

    def test_rings_are_cached(self):
        degree, primes = CHAIN_SHAPES[1]
        assert get_ring(degree, primes=primes) is get_ring(degree, primes=primes)

    def test_explicit_rns_requires_friendly_primes(self):
        with pytest.raises(ValueError):
            get_ring(8, primes=(89,), backend="rns")


class TestCKKSBackendEquivalence:
    """Same seed + same chain ⇒ bit-identical CKKS pipelines."""

    @pytest.mark.parametrize("degree,depth", [(16, 1), (32, 3)])
    def test_encrypt_multiply_rescale_decrypt_equal(self, degree, depth):
        fast = CKKSContext(ring_degree=degree, depth=depth, seed=99, backend="rns")
        ref = CKKSContext(ring_degree=degree, depth=depth, seed=99, backend="reference")
        assert fast.backend == "rns" and ref.backend == "reference"
        assert fast.moduli == ref.moduli
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, degree // 2)
        b = rng.uniform(-1, 1, degree // 2)
        ct_f = [fast.encrypt(v) for v in (a, b)]
        ct_r = [ref.encrypt(v) for v in (a, b)]
        for f, r in zip(ct_f, ct_r):
            assert fast.ring(f.level).coefficients(f.c0) == ref.ring(r.level).coefficients(r.c0)
            assert fast.ring(f.level).coefficients(f.c1) == ref.ring(r.level).coefficients(r.c1)
        prod_f = fast.multiply(ct_f[0], ct_f[1])
        prod_r = ref.multiply(ct_r[0], ct_r[1])
        assert prod_f.scale == prod_r.scale
        assert prod_f.level == prod_r.level
        assert fast.ring(prod_f.level).coefficients(prod_f.c0) == ref.ring(
            prod_r.level
        ).coefficients(prod_r.c0)
        assert fast.decrypt_coefficients(prod_f) == ref.decrypt_coefficients(prod_r)
        assert np.allclose(fast.decrypt(prod_f), ref.decrypt(prod_r))

    def test_level_down_and_plain_ops_equal(self):
        fast = CKKSContext(ring_degree=16, depth=2, seed=5, backend="rns")
        ref = CKKSContext(ring_degree=16, depth=2, seed=5, backend="reference")
        v = np.linspace(-1, 1, 8)
        cf, cr = fast.encrypt(v), ref.encrypt(v)
        df, dr = fast.level_down(cf, 0), ref.level_down(cr, 0)
        assert fast.ring(0).coefficients(df.c0) == ref.ring(0).coefficients(dr.c0)
        pf = fast.multiply_plain(cf, v)
        pr = ref.multiply_plain(cr, v)
        assert fast.decrypt_coefficients(pf) == ref.decrypt_coefficients(pr)


class TestBFVBackendEquivalence:
    def test_full_pipeline_equal(self):
        fast = BFVContext(ring_degree=32, plaintext_modulus=257, seed=7, backend="rns")
        ref = BFVContext(ring_degree=32, plaintext_modulus=257, seed=7, backend="reference")
        assert fast.backend == "rns" and ref.backend == "reference"
        assert fast.q == ref.q and fast.delta == ref.delta
        a = list(range(32))
        b = [5, 250, 3] + [0] * 29
        ca_f, cb_f = fast.encrypt(a), fast.encrypt(b)
        ca_r, cb_r = ref.encrypt(a), ref.encrypt(b)
        assert fast.ring.coefficients(ca_f.c0) == ref.ring.coefficients(ca_r.c0)
        prod_f, prod_r = fast.multiply(ca_f, cb_f), ref.multiply(ca_r, cb_r)
        assert fast.ring.coefficients(prod_f.c0) == ref.ring.coefficients(prod_r.c0)
        assert fast.ring.coefficients(prod_f.c1) == ref.ring.coefficients(prod_r.c1)
        assert fast.decrypt(prod_f) == ref.decrypt(prod_r)
        sum_f, sum_r = fast.add(ca_f, cb_f), ref.add(ca_r, cb_r)
        assert fast.decrypt(sum_f) == ref.decrypt(sum_r)

    def test_bfv_uses_rns_by_default(self):
        ctx = BFVContext(ring_degree=16, plaintext_modulus=257, seed=1)
        assert ctx.backend == "rns"
        assert isinstance(ctx.ring, RNSPolyRing)
