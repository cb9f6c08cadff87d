"""BFV (Brakerski/Fan-Vercauteren) homomorphic encryption over exact integers.

CKKS (paper [15]) computes approximately over reals; the transciphering
framework the paper builds on ([17], and the lattice implementations of
reference [12]) also targets *exact* schemes, where stream-cipher evaluation
is bit-precise.  This module provides that second scheme on top of the same
polynomial-ring substrate:

* plaintexts are polynomials over ``Z_t`` (vectors of integers mod ``t``),
* encryption scales by ``Δ = floor(q/t)``: ``ct = (Δ·m + small noise)``,
* addition is exact; multiplication uses the scale-invariant
  ``round(t/q · c1·c2)`` BFV tensor followed by relinearisation.

The ciphertext modulus ``q`` is built as a product of NTT-friendly primes
totalling ``ciphertext_modulus_bits`` whenever possible, so all ring
arithmetic (including the widened tensor ring and the raised
relinearisation ring) runs on the vectorized RNS/NTT backend
(:mod:`repro.crypto.rns`).  ``backend="reference"`` keeps the same prime
moduli on the big-integer ring — bit-identical results, reference speed.
When no NTT-friendly chain exists the context falls back to the historical
``2^bits + 1`` modulus on the reference ring.

Supports keygen, encrypt/decrypt, add/sub/negate, plaintext add/multiply and
one ciphertext multiplication level — enough for the exact-transciphering
experiments and as a reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.ntt import find_prime_chain
from repro.crypto.poly import PolyRing, divide_round_half_away
from repro.crypto.rns import get_ring
from repro.utils.rng import SeedLike, as_generator


@dataclass
class BFVCiphertext:
    """A BFV ciphertext ``(c0, c1)`` over ``R_q`` (backend ring elements)."""

    c0: Any
    c1: Any


class BFVContext:
    """Parameter set, keys and homomorphic operations for BFV."""

    def __init__(
        self,
        *,
        ring_degree: int = 64,
        plaintext_modulus: int = 257,
        ciphertext_modulus_bits: int = 120,
        error_sigma: float = 3.2,
        seed: SeedLike = None,
        backend: str = "auto",
    ) -> None:
        if plaintext_modulus < 2:
            raise ValueError("plaintext modulus must be >= 2")
        if ciphertext_modulus_bits < plaintext_modulus.bit_length() + 20:
            raise ValueError(
                "ciphertext modulus too small for the plaintext modulus"
            )
        if backend not in ("auto", "rns", "reference"):
            raise ValueError(f"unknown backend {backend!r}")
        self.n = ring_degree
        self.t = int(plaintext_modulus)
        self.error_sigma = float(error_sigma)
        self._rng = as_generator(seed)
        self.chain_primes: Optional[Tuple[int, ...]] = None
        try:
            self.chain_primes = find_prime_chain(
                ciphertext_modulus_bits, ring_degree
            )
        except ValueError:
            if backend == "rns":
                raise
        if self.chain_primes is not None:
            self.q = prod(self.chain_primes)
            self.backend = "reference" if backend == "reference" else "rns"
            self.ring = get_ring(
                ring_degree, primes=self.chain_primes, backend=self.backend
            )
            # Widened tensor ring: large enough that the centred products in
            # `multiply` never wrap (true coefficients are bounded by
            # n·(q/2)², so 2^(2·log q + log n + 1) has slack).
            wide_bits = 2 * self.q.bit_length() + ring_degree.bit_length() + 1
            self._wide_primes = find_prime_chain(
                wide_bits, ring_degree, exclude=self.chain_primes
            )
            self.wide_ring = get_ring(
                ring_degree, primes=self._wide_primes, backend=self.backend
            )
            # Raised relinearisation ring R_{P·q}.
            self._aux_primes = find_prime_chain(
                self.q.bit_length() + 8,
                ring_degree,
                exclude=self.chain_primes + self._wide_primes,
            )
            self.aux_modulus = prod(self._aux_primes)
            self._big_ring = get_ring(
                ring_degree,
                primes=self._aux_primes + self.chain_primes,
                backend=self.backend,
            )
        else:
            self.q = (1 << ciphertext_modulus_bits) + 1
            self.backend = "reference"
            self.ring = get_ring(ring_degree, self.q, backend="reference")
            self.wide_ring = get_ring(
                ring_degree,
                self.q * self.q * 4 * ring_degree,
                backend="reference",
            )
            self.aux_modulus = 1 << (self.q.bit_length() + 8)
            self._big_ring = get_ring(
                ring_degree, self.aux_modulus * self.q, backend="reference"
            )
        self.delta = self.q // self.t
        self.plain_ring = PolyRing(ring_degree, self.t)
        # Secret / public keys.
        self._s = self.ring.random_ternary(self._rng)
        a = self.ring.random_uniform(self._rng)
        e = self.ring.random_gaussian(self._rng, sigma=self.error_sigma)
        b = self.ring.add(self.ring.neg(self.ring.mul(a, self._s)), e)
        self._pk = (b, a)
        # Relinearisation key under the raised modulus P·q.
        big = self._big_ring
        s_big = self.ring.project_to(self._s, big)
        a_prime = big.random_uniform(self._rng)
        e_prime = big.random_gaussian(self._rng, sigma=self.error_sigma)
        rk0 = big.add(
            big.add(big.neg(big.mul(a_prime, s_big)), e_prime),
            big.scalar_mul(big.mul(s_big, s_big), self.aux_modulus),
        )
        self._rk = (rk0, a_prime)

    # -- encode / decode ---------------------------------------------------------

    def encode(self, values: Sequence[int]) -> List[int]:
        """Pack integers mod t into plaintext polynomial coefficients."""
        if len(values) > self.n:
            raise ValueError(f"at most {self.n} values per plaintext")
        coeffs = [int(v) % self.t for v in values]
        return coeffs + [0] * (self.n - len(coeffs))

    def decode(self, plaintext: Sequence[int], length: int | None = None) -> List[int]:
        """Unpack plaintext coefficients back to integers mod t."""
        out = [int(v) % self.t for v in plaintext]
        return out[: self.n if length is None else length]

    # -- encryption ----------------------------------------------------------------

    def encrypt(self, values: Sequence[int]) -> BFVCiphertext:
        """Encrypt integers mod t."""
        m = self.encode(values)
        scaled = [self.delta * c for c in m]
        b, a = self._pk
        u = self.ring.random_ternary(self._rng)
        e0 = self.ring.random_gaussian(self._rng, sigma=self.error_sigma)
        e1 = self.ring.random_gaussian(self._rng, sigma=self.error_sigma)
        c0 = self.ring.add(
            self.ring.add(self.ring.mul(b, u), e0),
            self.ring.from_coefficients(scaled),
        )
        c1 = self.ring.add(self.ring.mul(a, u), e1)
        return BFVCiphertext(c0=c0, c1=c1)

    def decrypt(self, ct: BFVCiphertext, length: int | None = None) -> List[int]:
        """Decrypt to integers mod t: ``round(t/q · (c0 + c1·s)) mod t``."""
        raw = self.ring.add(ct.c0, self.ring.mul(ct.c1, self._s))
        out = [
            divide_round_half_away(c * self.t, self.q) % self.t
            for c in self.ring.centered(raw)
        ]
        return out[: self.n if length is None else length]

    # -- homomorphic operations ------------------------------------------------------

    def add(self, x: BFVCiphertext, y: BFVCiphertext) -> BFVCiphertext:
        """Exact slot-wise addition mod t."""
        return BFVCiphertext(
            c0=self.ring.add(x.c0, y.c0), c1=self.ring.add(x.c1, y.c1)
        )

    def sub(self, x: BFVCiphertext, y: BFVCiphertext) -> BFVCiphertext:
        """Exact slot-wise subtraction mod t."""
        return BFVCiphertext(
            c0=self.ring.sub(x.c0, y.c0), c1=self.ring.sub(x.c1, y.c1)
        )

    def negate(self, x: BFVCiphertext) -> BFVCiphertext:
        """Exact negation mod t."""
        return BFVCiphertext(c0=self.ring.neg(x.c0), c1=self.ring.neg(x.c1))

    def add_plain(self, x: BFVCiphertext, values: Sequence[int]) -> BFVCiphertext:
        """Add unencrypted integers mod t."""
        scaled = [self.delta * c for c in self.encode(values)]
        return BFVCiphertext(
            c0=self.ring.add(x.c0, self.ring.from_coefficients(scaled)),
            c1=x.c1,
        )

    def multiply_plain_scalar(self, x: BFVCiphertext, scalar: int) -> BFVCiphertext:
        """Multiply every slot by one integer mod t (no relinearisation needed)."""
        s = int(scalar) % self.t
        return BFVCiphertext(
            c0=self.ring.scalar_mul(x.c0, s), c1=self.ring.scalar_mul(x.c1, s)
        )

    def multiply_plain(self, x: BFVCiphertext, values: Sequence[int]) -> BFVCiphertext:
        """Multiply by an unencrypted plaintext polynomial (mod t).

        The message transforms as negacyclic convolution with the plaintext
        polynomial; for a *constant-message* ciphertext this realises the
        per-coefficient scaling ``m · p_i`` used by exact transciphering.
        No relinearisation or rescaling is needed (the plaintext carries no Δ).
        """
        p = self.ring.from_coefficients(self.encode(values))
        return BFVCiphertext(
            c0=self.ring.mul(x.c0, p), c1=self.ring.mul(x.c1, p)
        )

    def multiply(self, x: BFVCiphertext, y: BFVCiphertext) -> BFVCiphertext:
        """One exact ciphertext-ciphertext multiplication.

        Note: BFV packs values into polynomial *coefficients* here, so the
        ciphertext product corresponds to *negacyclic convolution* of the
        packed vectors, not slot-wise products — the test suite checks
        against exactly that semantics.  (Slot-wise semantics would need a
        CRT/NTT packing, out of scope.)
        """
        # Scale-invariant tensor: round(t/q · ci·cj) on the centred lift,
        # computed in a ring wide enough that products never wrap.
        wide = self.wide_ring
        x0 = self.ring.project_to(x.c0, wide)
        x1 = self.ring.project_to(x.c1, wide)
        y0 = self.ring.project_to(y.c0, wide)
        y1 = self.ring.project_to(y.c1, wide)

        d0 = wide.mul(x0, y0)
        d1 = wide.add(wide.mul(x0, y1), wide.mul(x1, y0))
        d2 = wide.mul(x1, y1)

        def tensor_rescale(poly) -> Any:
            return self.ring.from_coefficients(
                [
                    divide_round_half_away(c * self.t, self.q) % self.q
                    for c in wide.centered(poly)
                ]
            )

        d0, d1, d2 = tensor_rescale(d0), tensor_rescale(d1), tensor_rescale(d2)
        # Relinearise d2 with the raised-modulus key.
        big = self._big_ring
        rk0, rk1 = self._rk
        d2_big = self.ring.project_to(d2, big)
        t0 = big.mul(d2_big, rk0)
        t1 = big.mul(d2_big, rk1)
        c0 = self.ring.add(d0, big.rescale_to(t0, self.aux_modulus, self.ring))
        c1 = self.ring.add(d1, big.rescale_to(t1, self.aux_modulus, self.ring))
        return BFVCiphertext(c0=c0, c1=c1)

    def noise_budget_bits(self, ct: BFVCiphertext, reference: Sequence[int]) -> float:
        """Remaining noise budget: log2(Δ / (2·|noise|∞)) given the true plaintext."""
        raw = self.ring.add(ct.c0, self.ring.mul(ct.c1, self._s))
        m = self.encode(reference)
        expected = self.ring.from_coefficients([self.delta * c for c in m])
        noise = self.ring.sub(raw, expected)
        magnitude = max(1, self.ring.infinity_norm(noise))
        return float(np.log2(self.delta / (2.0 * magnitude)))
