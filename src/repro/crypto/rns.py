"""Residue-number-system (RNS) polynomial ring over NTT-friendly prime chains.

Production HE libraries never compute with the multi-hundred-bit CKKS/BFV
moduli directly: the modulus is chosen as a product of word-sized primes
``q = p_1 · p_2 ··· p_k`` and every coefficient is stored as its residue
vector ``(c mod p_1, …, c mod p_k)``.  The Chinese Remainder Theorem makes
the map ``Z_q → Z_{p_1} × … × Z_{p_k}`` a ring isomorphism, so addition and
multiplication act independently per prime — on 64-bit words, vectorizable,
and (since each ``p_i ≡ 1 mod 2n``) with an O(n log n) negacyclic NTT for
multiplication (:mod:`repro.crypto.ntt`).

Evaluation-domain representation
--------------------------------
Elements are stored *in the NTT evaluation domain* (the "double-CRT" layout
of production libraries): a residue matrix whose row ``i`` holds the
negacyclic NTT of the coefficient vector mod ``p_i``.  Addition,
subtraction, negation, scalar- and ring-multiplication are then all
pointwise ``uint64`` operations with no transform at all; the forward NTT
runs once when an element is built from integer coefficients and the
inverse runs only when integer coefficients are needed back (decryption,
centred lifts, rescaling remainders).

Prime selection
---------------
:func:`repro.crypto.ntt.find_ntt_primes` picks primes ``p ≡ 1 (mod 2n)``
closest to a target power of two.  A CKKS chain uses one base prime near
``2^base_bits`` and one prime near the scale ``Δ = 2^scale_bits`` per level,
so rescaling by the dropped prime keeps the ciphertext scale within a
fraction of a percent of Δ; BFV uses however many primes reach the requested
ciphertext-modulus size.

Exact CRT boundaries
--------------------
Operations that need the *integer* value of a coefficient — ``centered``
lifts, decryption, division-and-rounding in rescale/relinearise — leave the
residue domain through :meth:`RNSBasis.reconstruct`, an exact (not
floating-point-approximate) CRT inverse.  Those paths share their rounding
helpers with the reference :class:`~repro.crypto.poly.PolyRing`, which is
what makes the two backends bit-for-bit interchangeable.  Two structured
cases stay (mostly) inside the residue domain:

* :meth:`RNSPolyRing.project_to` a ring over a *subset* of the primes —
  because every remaining prime divides both moduli, the centred lift is a
  row selection: no transform, no reconstruction.
* :meth:`RNSPolyRing.rescale_to` by the product of the *dropped* primes —
  the classic exact RNS rescale: reconstruct only the centred remainder
  over the dropped primes, then fold it into the kept rows with one
  multiplication by the dropped product's inverse.  For an odd divisor the
  result equals round-half-away-from-zero division exactly (there are no
  ties), matching the reference ring bit for bit.

Backend selection
-----------------
:func:`get_ring` returns a cached ring for a (degree, modulus) pair:
an :class:`RNSPolyRing` when the modulus is presented as a chain of
NTT-friendly primes, the reference big-int ring otherwise; pass
``backend="reference"`` to force the big-int ring (see
``repro/crypto/__init__.py`` § Performance).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.crypto.ntt import (
    add_mod,
    get_ntt_context,
    is_ntt_friendly,
    mul_mod,
    mul_mod_shoup,
    ntt_forward_kernel,
    ntt_inverse_kernel,
    sub_mod,
)
from repro.crypto.poly import (
    PolyRing,
    PolyRingBase,
    divide_round_half_away,
    draw_gaussian_raw,
    draw_ternary_raw,
    draw_uniform_ints,
    fold_negacyclic,
)
from repro.utils.rng import SeedLike


class _BatchedNTT:
    """All-primes-at-once transforms on (k, n) residue matrices.

    Stacks the per-prime twiddle tables so each butterfly stage is a single
    broadcasted numpy kernel across every prime row — numpy call overhead is
    paid once per stage instead of once per stage per prime.
    """

    def __init__(self, contexts, primes) -> None:
        self.n = contexts[0].n
        self.k = len(contexts)
        self.q = np.array(primes, dtype=np.uint64)[:, None]
        self._fast = all(p < (1 << 31) for p in primes)
        self._psi = np.stack([c._psi_br for c in contexts])
        self._psi_shoup = np.stack([c._psi_br_shoup for c in contexts])
        self._inv_psi = np.stack([c._inv_psi_br for c in contexts])
        self._inv_psi_shoup = np.stack([c._inv_psi_br_shoup for c in contexts])
        self._n_inv = np.array([c._n_inv for c in contexts], dtype=np.uint64)[:, None]
        self._n_inv_shoup = np.stack([c._n_inv_shoup for c in contexts])[:, None]
        self._ratio = (
            np.stack([c._ratio[0] for c in contexts])[:, None],
            np.stack([c._ratio[1] for c in contexts])[:, None],
        )

    def forward(self, values: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(values, dtype=np.uint64).copy()
        return ntt_forward_kernel(
            a, self._psi, self._psi_shoup, self.q[:, :, None], self._fast
        )

    def inverse(self, values: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(values, dtype=np.uint64).copy()
        ntt_inverse_kernel(
            a, self._inv_psi, self._inv_psi_shoup, self.q[:, :, None], self._fast
        )
        if self._fast:
            return (a * self._n_inv) % self.q
        return mul_mod_shoup(a, self._n_inv, self._n_inv_shoup, self.q)

    def pointwise(self, a: np.ndarray, b) -> np.ndarray:
        if self._fast:
            return (a * b) % self.q
        return mul_mod(a, b, self.q, self._ratio)


class RNSBasis:
    """CRT constants and NTT plans for one (degree, prime-chain) pair."""

    def __init__(self, degree: int, primes: Sequence[int]) -> None:
        primes = tuple(int(p) for p in primes)
        if len(set(primes)) != len(primes):
            raise ValueError(f"RNS primes must be distinct, got {primes}")
        for p in primes:
            if not is_ntt_friendly(p, degree):
                raise ValueError(
                    f"{p} is not an NTT-friendly prime for degree {degree}"
                )
        self.degree = degree
        self.primes = primes
        self.k = len(primes)
        self.modulus = prod(primes)
        self.contexts = tuple(get_ntt_context(degree, p) for p in primes)
        self._batched = _BatchedNTT(self.contexts, primes)
        self._prime_arr = np.array(primes, dtype=np.uint64)[:, None]
        # Garner-free direct CRT: x = Σ_i ((x_i · y_i) mod p_i) · M_i  (mod M)
        # with M_i = M / p_i and y_i = M_i^{-1} mod p_i.
        self._crt_big = [self.modulus // p for p in primes]  # M_i, python ints
        self._crt_inv = np.array(
            [pow(self.modulus // p, -1, p) for p in primes], dtype=np.uint64
        )[:, None]

    # -- residue <-> integer conversion ---------------------------------------

    def reduce(self, coeffs: Sequence[int]) -> np.ndarray:
        """Residue matrix (k, n) of an integer coefficient vector."""
        arr = np.asarray(coeffs)
        if arr.dtype != object and np.issubdtype(arr.dtype, np.integer):
            # Word-sized input: vectorized remainder per prime.
            return np.stack(
                [(arr % p).astype(np.uint64) for p in self.primes]
            )
        ints = [int(c) for c in coeffs]
        return np.array(
            [[c % p for c in ints] for p in self.primes], dtype=np.uint64
        )

    def forward(self, residues: np.ndarray) -> np.ndarray:
        """Coefficient-domain residues → evaluation domain, all primes at once."""
        return self._batched.forward(residues)

    def inverse(self, residues: np.ndarray) -> np.ndarray:
        """Evaluation-domain residues → coefficient domain, all primes at once."""
        return self._batched.inverse(residues)

    def pointwise(self, a: np.ndarray, b) -> np.ndarray:
        """Element-wise modular product across all prime rows."""
        return self._batched.pointwise(a, b)

    def reconstruct(self, residues: np.ndarray) -> List[int]:
        """Exact CRT inverse of *coefficient-domain* residues, in ``[0, M)``."""
        t = self._batched.pointwise(residues, self._crt_inv)
        acc = np.zeros(residues.shape[1], dtype=object)
        for i, big in enumerate(self._crt_big):
            acc += np.array(t[i].tolist(), dtype=object) * big
        acc %= self.modulus
        return [int(v) for v in acc]


@lru_cache(maxsize=None)
def get_basis(degree: int, primes: Tuple[int, ...]) -> RNSBasis:
    """Process-wide cache of CRT/NTT tables per (degree, chain)."""
    return RNSBasis(degree, primes)


class RNSPoly:
    """One ring element: a (k, n) uint64 residue matrix, evaluation domain.

    Supports equality and iteration over canonical coefficients so that code
    (and tests) written against list-of-int elements keep working.
    """

    __slots__ = ("basis", "residues")

    def __init__(self, basis: RNSBasis, residues: np.ndarray) -> None:
        self.basis = basis
        self.residues = residues

    def coefficients(self) -> List[int]:
        """Canonical integer coefficients in ``[0, q)``."""
        return self.basis.reconstruct(self.basis.inverse(self.residues))

    def __len__(self) -> int:
        return self.basis.degree

    def __iter__(self):
        return iter(self.coefficients())

    def __eq__(self, other) -> bool:
        if isinstance(other, RNSPoly):
            return self.basis is other.basis and np.array_equal(
                self.residues, other.residues
            )
        if isinstance(other, (list, tuple)):
            return self.coefficients() == [int(v) for v in other]
        return NotImplemented

    __hash__ = None  # mutable value object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RNSPoly(n={self.basis.degree}, k={self.basis.k})"


class RNSPolyRing(PolyRingBase):
    """``Z_q[X]/(X^n + 1)`` with ``q = Π pᵢ`` a product of NTT primes.

    Drop-in replacement for :class:`~repro.crypto.poly.PolyRing`: same
    method set, same mathematical results (property-tested bit-for-bit),
    but elements are :class:`RNSPoly` residue matrices in the NTT evaluation
    domain, so every arithmetic operation — including multiplication — is a
    pointwise vectorized ``uint64`` kernel.
    """

    def __init__(self, degree: int, primes: Sequence[int]) -> None:
        self.basis = get_basis(degree, tuple(int(p) for p in primes))
        self.n = degree
        self.q = self.basis.modulus
        self.primes = self.basis.primes

    # -- element construction -------------------------------------------------

    def _wrap(self, residues: np.ndarray) -> RNSPoly:
        return RNSPoly(self.basis, residues)

    def _coerce(self, a) -> RNSPoly:
        """Accept RNSPoly elements or integer coefficient sequences."""
        if isinstance(a, RNSPoly):
            if a.basis is not self.basis:
                raise ValueError("element belongs to a different ring")
            return a
        return self.from_coefficients(a)

    def zero(self) -> RNSPoly:
        return self._wrap(np.zeros((self.basis.k, self.n), dtype=np.uint64))

    def constant(self, value: int) -> RNSPoly:
        # A constant polynomial evaluates to the constant everywhere, so its
        # evaluation-domain rows are uniform fills.
        residues = np.empty((self.basis.k, self.n), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            residues[i, :] = int(value) % p
        return self._wrap(residues)

    def from_coefficients(self, coeffs) -> RNSPoly:
        arr = np.asarray(coeffs)
        if arr.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if len(arr) != self.n:
            coeffs = fold_negacyclic(list(coeffs), self.n)
            arr = np.asarray(coeffs, dtype=object)
        return self._wrap(
            self.basis.forward(
                self.basis.reduce(coeffs if arr.dtype == object else arr)
            )
        )

    def coefficients(self, a) -> List[int]:
        return self._coerce(a).coefficients()

    def random_uniform(self, rng: SeedLike = None) -> RNSPoly:
        return self.from_coefficients(draw_uniform_ints(self.n, self.q, rng))

    def random_ternary(
        self, rng: SeedLike = None, *, hamming_weight: int | None = None
    ) -> RNSPoly:
        raw = draw_ternary_raw(self.n, rng, hamming_weight=hamming_weight)
        return self._wrap(self.basis.forward(self.basis.reduce(raw)))

    def random_gaussian(self, rng: SeedLike = None, *, sigma: float = 3.2) -> RNSPoly:
        raw = draw_gaussian_raw(self.n, rng, sigma=sigma)
        return self._wrap(self.basis.forward(self.basis.reduce(raw)))

    # -- ring operations -------------------------------------------------------

    def add(self, a, b) -> RNSPoly:
        ra, rb = self._coerce(a).residues, self._coerce(b).residues
        return self._wrap(add_mod(ra, rb, self.basis._prime_arr))

    def sub(self, a, b) -> RNSPoly:
        ra, rb = self._coerce(a).residues, self._coerce(b).residues
        return self._wrap(sub_mod(ra, rb, self.basis._prime_arr))

    def neg(self, a) -> RNSPoly:
        ra = self._coerce(a).residues
        p = self.basis._prime_arr
        return self._wrap(np.where(ra == 0, ra, p - ra))

    def scalar_mul(self, a, scalar: int) -> RNSPoly:
        ra = self._coerce(a).residues
        s = np.array(
            [int(scalar) % p for p in self.primes], dtype=np.uint64
        )[:, None]
        return self._wrap(self.basis.pointwise(ra, s))

    def mul(self, a, b) -> RNSPoly:
        """Negacyclic product: pointwise in the evaluation domain."""
        ra, rb = self._coerce(a).residues, self._coerce(b).residues
        return self._wrap(self.basis.pointwise(ra, rb))

    # -- representation changes ------------------------------------------------

    def centered(self, a) -> List[int]:
        """Symmetric representatives in ``(-q/2, q/2]`` (exact CRT lift)."""
        half = self.q // 2
        return [
            x - self.q if x > half else x
            for x in self._coerce(a).coefficients()
        ]

    def rescale(self, a, divisor: int, new_modulus: int) -> List[int]:
        """``round(a / divisor) mod new_modulus`` on the centred lift."""
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        return [
            divide_round_half_away(x, divisor) % new_modulus
            for x in self.centered(a)
        ]

    def change_modulus(self, a, new_modulus: int) -> List[int]:
        """Reinterpret the centred representative modulo a different q."""
        return [x % new_modulus for x in self.centered(a)]

    def infinity_norm(self, a) -> int:
        return max(abs(x) for x in self.centered(a))

    # -- structured cross-ring fast paths --------------------------------------

    def _subset_rows(self, new_ring) -> List[int] | None:
        """Row indices realising ``new_ring``'s chain, if it is a subset."""
        if not isinstance(new_ring, RNSPolyRing) or new_ring.n != self.n:
            return None
        index = {p: i for i, p in enumerate(self.primes)}
        try:
            return [index[p] for p in new_ring.primes]
        except KeyError:
            return None

    def project_to(self, a, new_ring):
        """Centred lift into a ring whose modulus divides ``q``.

        When ``new_ring`` is an RNS ring over a subset of this ring's primes
        the lift is a residue-row selection (each remaining prime divides
        both moduli, so ``centered(x) ≡ x`` modulo it); otherwise fall back
        to the generic integer bridge.
        """
        rows = self._subset_rows(new_ring)
        if rows is not None:
            return new_ring._wrap(self._coerce(a).residues[rows].copy())
        return new_ring.from_coefficients(self.centered(a))

    def rescale_to(self, a, divisor: int, new_ring):
        """``round(a / divisor)`` into ``new_ring``, exactly.

        Fast path when ``divisor`` is the product of exactly the primes this
        ring has and ``new_ring`` lacks: with ``P`` odd and ``r`` the centred
        remainder of ``a`` mod ``P`` (``|r| < P/2``, reconstructed over the
        dropped primes only), ``(a - r)/P`` *is* the round-to-nearest
        quotient and there are no ties — identical to the reference ring's
        round-half-away division.  Each kept row then updates as
        ``(x_j - r) · P^{-1} mod p_j`` without leaving the residue domain.
        """
        rows = self._subset_rows(new_ring)
        dropped = (
            None
            if rows is None
            else [i for i in range(self.basis.k) if i not in set(rows)]
        )
        if (
            rows is None
            or not dropped
            or prod(self.primes[i] for i in dropped) != divisor
        ):
            return new_ring.from_coefficients(
                self.rescale(a, divisor, new_ring.q)
            )
        element = self._coerce(a)
        drop_basis = get_basis(
            self.n, tuple(self.primes[i] for i in dropped)
        )
        r = drop_basis.reconstruct(
            drop_basis.inverse(element.residues[dropped])
        )
        half = divisor // 2
        r = [x - divisor if x > half else x for x in r]  # centred remainder
        out = np.empty((len(rows), self.n), dtype=np.uint64)
        for j, row in enumerate(rows):
            p = self.primes[row]
            ctx = self.basis.contexts[row]
            r_row = ctx.forward(
                np.array([x % p for x in r], dtype=np.uint64)
            )
            inv_p = np.uint64(pow(divisor, -1, p))
            out[j] = ctx.pointwise_mul(
                sub_mod(element.residues[row], r_row, np.uint64(p)), inv_p
            )
        return new_ring._wrap(out)


# -- backend selection --------------------------------------------------------


@lru_cache(maxsize=None)
def _reference_ring(degree: int, modulus: int) -> PolyRing:
    return PolyRing(degree, modulus)


@lru_cache(maxsize=None)
def _rns_ring(degree: int, primes: Tuple[int, ...]) -> RNSPolyRing:
    return RNSPolyRing(degree, primes)


def get_ring(
    degree: int,
    modulus: int | None = None,
    *,
    primes: Iterable[int] | None = None,
    backend: str = "auto",
) -> PolyRingBase:
    """Cached ring factory: pick the fastest valid backend for a modulus.

    Parameters
    ----------
    degree:
        Ring degree ``n`` (power of two).
    modulus:
        The composite modulus ``q``.  Required unless ``primes`` is given.
    primes:
        The NTT-friendly factorization of ``q``.  When provided (and valid
        for ``degree``), the RNS backend is eligible.
    backend:
        ``"auto"`` (RNS when primes are available, reference otherwise),
        ``"rns"`` (require the fast backend), or ``"reference"`` (the
        big-int ring, for A/B-ing performance or debugging the fast path).
    """
    primes = tuple(int(p) for p in primes) if primes is not None else None
    if primes is not None:
        product = prod(primes)
        if modulus is not None and modulus != product:
            raise ValueError(
                f"modulus {modulus} does not match prime product {product}"
            )
        modulus = product
    if modulus is None:
        raise ValueError("either modulus or primes must be provided")
    if backend not in ("auto", "rns", "reference"):
        raise ValueError(f"unknown backend {backend!r}")
    rns_ok = primes is not None and all(
        is_ntt_friendly(p, degree) for p in primes
    )
    if backend == "rns":
        if not rns_ok:
            raise ValueError(
                f"backend='rns' requires NTT-friendly primes for degree "
                f"{degree}, got {primes}"
            )
        return _rns_ring(degree, primes)
    if backend == "auto" and rns_ok:
        return _rns_ring(degree, primes)
    return _reference_ring(degree, modulus)
