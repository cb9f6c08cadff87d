"""A from-scratch CKKS implementation (paper [15] substrate, §III-A-2/4).

Implements the leveled CKKS scheme over ``R_Q = Z_Q[X]/(X^n+1)``:

* key generation (ternary secret, RLWE public key, relinearisation key),
* encryption / decryption,
* homomorphic addition, plaintext addition,
* homomorphic multiplication with relinearisation and rescaling,
* plaintext multiplication with rescaling.

Modulus chain and backends
--------------------------
The modulus chain is ``Q_ℓ = q0 · p_1 ··· p_ℓ`` for levels ``ℓ = 0..depth``.
When NTT-friendly primes exist for the requested parameters (``p ≡ 1 mod
2n``, found near ``2^base_modulus_bits`` for ``q0`` and near the scale
``Δ = 2^scale_bits`` for the level primes), the chain is built from such
primes and all ring arithmetic runs on the vectorized RNS/NTT backend
(:mod:`repro.crypto.rns`).  A rescale then divides by the dropped prime
``p_ℓ ≈ Δ``, so the ciphertext scale drifts by a fraction of a percent per
level — the standard RNS-CKKS behaviour; scales are tracked exactly as
floats and the decoder divides by the true scale, so no accuracy is lost.

If no NTT-friendly chain exists (degenerate parameters), the context falls
back to the historical power-of-two chain ``Q_ℓ = q0 · Δ^ℓ`` on the
reference big-integer ring.  ``backend="reference"`` forces the reference
ring while keeping the prime chain, which makes the two backends produce
bit-identical ciphertexts from the same seed (property-tested).

Rings, twiddle tables and per-level key material are cached — contexts at
the same (degree, chain) share them through :func:`repro.crypto.rns.get_ring`.

This is an educational but *real* implementation — every homomorphic result
in the tests is checked against plaintext arithmetic.  Production parameter
sizes (``λ = 2^15..2^17``) are represented in the resource-allocation layer
by the paper's CPU-cycle cost curves (Eq. 29, 31); see DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.encoding import CKKSEncoder
from repro.crypto.ntt import find_ntt_primes, find_prime_chain
from repro.crypto.poly import PolyRingBase
from repro.crypto.rns import get_ring
from repro.utils.rng import SeedLike, as_generator

#: Relative scale difference below which two ciphertexts may *multiply*.
#: Prime-chain rescaling drifts the scale by |p/Δ - 1| (< ~1%) per level, so
#: ciphertexts with different rescale histories legitimately differ slightly;
#: multiplication tracks the product of the true scales, so the drift costs
#: no accuracy there.  Addition is NOT given this slack: adding ciphertexts
#: whose scales differ would silently bias one operand, so add/sub require
#: (floating-point-)identical scales, which same-history ciphertexts have.
SCALE_RTOL = 0.05


@dataclass(frozen=True)
class CKKSKeyPair:
    """Public material plus the secret key.

    ``public_key`` is the RLWE pair ``(b, a)`` with ``b = -a·s + e`` modulo
    the top-level modulus; ``relin_key`` is the evaluation key for degree-2
    ciphertexts under the raised modulus ``P·Q_L``.
    """

    secret: Any
    public_key: tuple
    relin_key: tuple
    aux_modulus: int


@dataclass
class CKKSCiphertext:
    """A CKKS ciphertext ``(c0, c1)`` at a given level and scale.

    ``c0``/``c1`` are ring elements of the backend in use — integer lists
    for the reference ring, residue matrices for the RNS ring.
    """

    c0: Any
    c1: Any
    level: int
    scale: float

    def __len__(self) -> int:
        return len(self.c0)


class CKKSContext:
    """Parameter set + key material + homomorphic operations."""

    def __init__(
        self,
        *,
        ring_degree: int = 64,
        scale_bits: int = 22,
        base_modulus_bits: int = 30,
        depth: int = 2,
        error_sigma: float = 3.2,
        seed: SeedLike = None,
        backend: str = "auto",
    ) -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if scale_bits < 4:
            raise ValueError("scale_bits must be at least 4")
        if base_modulus_bits <= scale_bits:
            raise ValueError(
                "base_modulus_bits must exceed scale_bits so the last level "
                "can still hold a scaled message"
            )
        if backend not in ("auto", "rns", "reference"):
            raise ValueError(f"unknown backend {backend!r}")
        self.n = ring_degree
        self.scale = float(1 << scale_bits)
        self.depth = depth
        self.error_sigma = float(error_sigma)
        self._rng = as_generator(seed)
        self.chain_primes: Optional[Tuple[int, ...]] = None
        self.aux_primes: Optional[Tuple[int, ...]] = None
        try:
            self._build_prime_chain(scale_bits, base_modulus_bits, depth)
        except ValueError:
            if backend == "rns":
                raise
            self.chain_primes = None
        if self.chain_primes is not None:
            #: moduli[ℓ] = Q_ℓ = q0 · p_1 ··· p_ℓ
            self.moduli = [
                prod(self.chain_primes[: level + 1])
                for level in range(depth + 1)
            ]
            self.aux_modulus = prod(self.aux_primes)
            self.backend = "reference" if backend == "reference" else "rns"
        else:
            # Fallback: the historical power-of-two chain; the big-int ring
            # is the only exact option for non-NTT-friendly moduli.
            delta, q0 = 1 << scale_bits, 1 << base_modulus_bits
            self.moduli = [q0 * delta**level for level in range(depth + 1)]
            self.aux_modulus = 1 << (self.moduli[-1].bit_length() + 8)
            self.backend = "reference"
        self._rings = [
            self._make_ring(level) for level in range(depth + 1)
        ]
        self._big_rings: Dict[int, PolyRingBase] = {}
        self.encoder = CKKSEncoder(ring_degree, self.scale)
        self._pk_cache: Dict[int, tuple] = {}
        self._sk_cache: Dict[int, Any] = {}
        self._rk_cache: Dict[int, tuple] = {}
        self.keys = self._generate_keys()

    # -- chain / ring construction ---------------------------------------------

    def _build_prime_chain(
        self, scale_bits: int, base_modulus_bits: int, depth: int
    ) -> None:
        """Pick the NTT-friendly chain (raises ValueError when impossible)."""
        base = find_ntt_primes(base_modulus_bits, self.n, 1)
        level_primes = (
            find_ntt_primes(scale_bits, self.n, depth, exclude=base)
            if depth
            else ()
        )
        # Rescaling consumes the chain from the top (highest index) down, so
        # place the primes nearest Δ at the END: shallow circuits then see
        # the least scale drift.
        target = 1 << scale_bits
        ordered = sorted(
            level_primes, key=lambda p: abs(p - target), reverse=True
        )
        self.chain_primes = base + tuple(ordered)
        q_top = prod(self.chain_primes)
        self.aux_primes = find_prime_chain(
            q_top.bit_length() + 8, self.n, exclude=self.chain_primes
        )

    def _make_ring(self, level: int) -> PolyRingBase:
        if self.chain_primes is not None:
            return get_ring(
                self.n,
                primes=self.chain_primes[: level + 1],
                backend=self.backend,
            )
        return get_ring(self.n, self.moduli[level], backend="reference")

    def _big_ring(self, level: int) -> PolyRingBase:
        """The raised ring ``R_{P·Q_ℓ}`` used by relinearisation."""
        ring = self._big_rings.get(level)
        if ring is None:
            if self.chain_primes is not None:
                ring = get_ring(
                    self.n,
                    primes=self.aux_primes + self.chain_primes[: level + 1],
                    backend=self.backend,
                )
            else:
                ring = get_ring(
                    self.n,
                    self.aux_modulus * self.moduli[level],
                    backend="reference",
                )
            self._big_rings[level] = ring
        return ring

    # -- key generation ---------------------------------------------------------

    def _generate_keys(self) -> CKKSKeyPair:
        top = self._rings[-1]
        s = top.random_ternary(self._rng)
        a = top.random_uniform(self._rng)
        e = top.random_gaussian(self._rng, sigma=self.error_sigma)
        b = top.add(top.neg(top.mul(a, s)), e)
        # Relinearisation key in R_{P·Q_L}: (-a'·s + e' + P·s², a').
        p = self.aux_modulus
        big = self._big_ring(self.depth)
        s_big = top.project_to(s, big)
        a_prime = big.random_uniform(self._rng)
        e_prime = big.random_gaussian(self._rng, sigma=self.error_sigma)
        s_squared = big.mul(s_big, s_big)
        rk0 = big.add(
            big.add(big.neg(big.mul(a_prime, s_big)), e_prime),
            big.scalar_mul(s_squared, p),
        )
        return CKKSKeyPair(
            secret=s,
            public_key=(b, a),
            relin_key=(rk0, a_prime),
            aux_modulus=p,
        )

    # -- helpers ---------------------------------------------------------------

    def ring(self, level: int) -> PolyRingBase:
        """The ring at a chain level."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in [0, {self.depth}], got {level}")
        return self._rings[level]

    @property
    def num_slots(self) -> int:
        return self.n // 2

    def _public_key_at(self, level: int) -> tuple:
        """Public key reduced to the level's modulus (chain moduli divide Q_L)."""
        cached = self._pk_cache.get(level)
        if cached is None:
            top, ring = self._rings[-1], self._rings[level]
            b, a = self.keys.public_key
            cached = (top.project_to(b, ring), top.project_to(a, ring))
            self._pk_cache[level] = cached
        return cached

    def _secret_at(self, level: int):
        """Secret key reduced to the level's modulus (cached)."""
        cached = self._sk_cache.get(level)
        if cached is None:
            top, ring = self._rings[-1], self._rings[level]
            cached = top.project_to(self.keys.secret, ring)
            self._sk_cache[level] = cached
        return cached

    def _relin_key_at(self, level: int) -> tuple:
        """Relin key lifted into ``R_{P·Q_ℓ}`` (cached per level)."""
        cached = self._rk_cache.get(level)
        if cached is None:
            big_top = self._big_ring(self.depth)
            big = self._big_ring(level)
            rk0, rk1 = self.keys.relin_key
            cached = (
                big_top.project_to(rk0, big),
                big_top.project_to(rk1, big),
            )
            self._rk_cache[level] = cached
        return cached

    # -- encryption / decryption --------------------------------------------------

    def encrypt_coefficients(
        self,
        plaintext: Sequence[int],
        *,
        level: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> CKKSCiphertext:
        """Encrypt an already-encoded integer polynomial."""
        lvl = self.depth if level is None else level
        ring = self.ring(lvl)
        m = ring.from_coefficients(plaintext)
        b, a = self._public_key_at(lvl)
        v = ring.random_ternary(self._rng)
        e0 = ring.random_gaussian(self._rng, sigma=self.error_sigma)
        e1 = ring.random_gaussian(self._rng, sigma=self.error_sigma)
        c0 = ring.add(ring.add(ring.mul(b, v), e0), m)
        c1 = ring.add(ring.mul(a, v), e1)
        return CKKSCiphertext(
            c0=c0, c1=c1, level=lvl, scale=self.scale if scale is None else scale
        )

    def encrypt(
        self,
        values: Sequence[complex],
        *,
        level: Optional[int] = None,
        scale: Optional[float] = None,
    ) -> CKKSCiphertext:
        """Encode then encrypt a complex/real vector (≤ ``num_slots`` long).

        ``scale`` encodes at a non-default scale — used to build ciphertexts
        compatible with rescaled ones under the prime-chain modulus.
        """
        return self.encrypt_coefficients(
            self.encoder.encode(values, scale=scale), level=level, scale=scale
        )

    def decrypt_coefficients(self, ct: CKKSCiphertext) -> List[int]:
        """Raw decryption: centred coefficients of ``c0 + c1·s``."""
        ring = self.ring(ct.level)
        s = self._secret_at(ct.level)
        return ring.centered(ring.add(ct.c0, ring.mul(ct.c1, s)))

    def decrypt(self, ct: CKKSCiphertext) -> np.ndarray:
        """Decrypt and decode back to a complex vector."""
        return self.encoder.decode(self.decrypt_coefficients(ct), scale=ct.scale)

    # -- homomorphic operations ------------------------------------------------------

    def _check_compatible(
        self, x: CKKSCiphertext, y: CKKSCiphertext, *, rtol: float = 1e-12
    ) -> None:
        if x.level != y.level:
            raise ValueError(f"level mismatch: {x.level} vs {y.level}")
        if not np.isclose(x.scale, y.scale, rtol=rtol):
            raise ValueError(f"scale mismatch: {x.scale} vs {y.scale}")

    def add(self, x: CKKSCiphertext, y: CKKSCiphertext) -> CKKSCiphertext:
        """Slot-wise homomorphic addition."""
        self._check_compatible(x, y)
        ring = self.ring(x.level)
        return CKKSCiphertext(
            c0=ring.add(x.c0, y.c0),
            c1=ring.add(x.c1, y.c1),
            level=x.level,
            scale=x.scale,
        )

    def sub(self, x: CKKSCiphertext, y: CKKSCiphertext) -> CKKSCiphertext:
        """Slot-wise homomorphic subtraction."""
        self._check_compatible(x, y)
        ring = self.ring(x.level)
        return CKKSCiphertext(
            c0=ring.sub(x.c0, y.c0),
            c1=ring.sub(x.c1, y.c1),
            level=x.level,
            scale=x.scale,
        )

    def negate(self, x: CKKSCiphertext) -> CKKSCiphertext:
        """Slot-wise homomorphic negation."""
        ring = self.ring(x.level)
        return CKKSCiphertext(
            c0=ring.neg(x.c0), c1=ring.neg(x.c1), level=x.level, scale=x.scale
        )

    def add_plain(self, x: CKKSCiphertext, values: Sequence[complex]) -> CKKSCiphertext:
        """Add an unencrypted vector (encoded at the ciphertext's scale)."""
        ring = self.ring(x.level)
        m = ring.from_coefficients(self.encoder.encode(values, scale=x.scale))
        return CKKSCiphertext(
            c0=ring.add(x.c0, m), c1=x.c1, level=x.level, scale=x.scale
        )

    def multiply_plain(self, x: CKKSCiphertext, values: Sequence[complex]) -> CKKSCiphertext:
        """Multiply by an unencrypted vector; rescales, consuming one level."""
        if x.level < 1:
            raise ValueError("no level left to rescale after a multiplication")
        ring = self.ring(x.level)
        m = ring.from_coefficients(self.encoder.encode(values))
        product = CKKSCiphertext(
            c0=ring.mul(x.c0, m),
            c1=ring.mul(x.c1, m),
            level=x.level,
            scale=x.scale * self.scale,
        )
        return self.rescale(product)

    def multiply(self, x: CKKSCiphertext, y: CKKSCiphertext) -> CKKSCiphertext:
        """Homomorphic multiplication: tensor, relinearise, rescale."""
        self._check_compatible(x, y, rtol=SCALE_RTOL)
        if x.level < 1:
            raise ValueError("no level left to rescale after a multiplication")
        ring = self.ring(x.level)
        d0 = ring.mul(x.c0, y.c0)
        d1 = ring.add(ring.mul(x.c0, y.c1), ring.mul(x.c1, y.c0))
        d2 = ring.mul(x.c1, y.c1)
        c0, c1 = self._relinearise(d0, d1, d2, x.level)
        product = CKKSCiphertext(c0=c0, c1=c1, level=x.level, scale=x.scale * y.scale)
        return self.rescale(product)

    def square(self, x: CKKSCiphertext) -> CKKSCiphertext:
        """Homomorphic squaring (one multiplication)."""
        return self.multiply(x, x)

    def _relinearise(self, d0, d1, d2, level: int) -> tuple:
        """Fold the degree-2 component using the raised-modulus relin key."""
        ring = self.ring(level)
        p = self.keys.aux_modulus
        big = self._big_ring(level)
        rk0, rk1 = self._relin_key_at(level)
        d2_lifted = ring.project_to(d2, big)
        t0 = big.mul(d2_lifted, rk0)
        t1 = big.mul(d2_lifted, rk1)
        # Divide by P and round back down to the level's modulus.
        c0 = ring.add(d0, big.rescale_to(t0, p, ring))
        c1 = ring.add(d1, big.rescale_to(t1, p, ring))
        return c0, c1

    def rescale(self, x: CKKSCiphertext) -> CKKSCiphertext:
        """Divide by the level's prime (≈ Δ) and drop one level."""
        if x.level < 1:
            raise ValueError("cannot rescale below level 0")
        ring = self.ring(x.level)
        new_ring = self.ring(x.level - 1)
        divisor = self.rescale_divisor(x.level)
        return CKKSCiphertext(
            c0=ring.rescale_to(x.c0, divisor, new_ring),
            c1=ring.rescale_to(x.c1, divisor, new_ring),
            level=x.level - 1,
            scale=x.scale / divisor,
        )

    def rescale_divisor(self, level: int) -> int:
        """The factor a rescale at ``level`` divides by: ``Q_ℓ / Q_{ℓ-1}``."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"no rescale divisor at level {level}")
        return self.moduli[level] // self.moduli[level - 1]

    def level_down(self, x: CKKSCiphertext, target_level: int) -> CKKSCiphertext:
        """Drop to a lower level without changing the scale (mod switch only)."""
        if not 0 <= target_level <= x.level:
            raise ValueError(f"target level {target_level} not below {x.level}")
        ring = self.ring(x.level)
        out = x
        while out.level > target_level:
            next_ring = self.ring(out.level - 1)
            out = CKKSCiphertext(
                c0=ring.project_to(out.c0, next_ring),
                c1=ring.project_to(out.c1, next_ring),
                level=out.level - 1,
                scale=out.scale,
            )
            ring = next_ring
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CKKSContext(n={self.n}, slots={self.num_slots}, depth={self.depth}, "
            f"log2(Δ)={int(np.log2(self.scale))}, backend={self.backend})"
        )
