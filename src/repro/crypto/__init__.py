"""Cryptographic substrate: stream cipher, CKKS HE, security estimation, transciphering.

Implements the encryption side of the QuHE system (paper §III-A-2/4 and §III-C):

* :mod:`repro.crypto.chacha20` — the ChaCha20 stream cipher (RFC 8439) used
  for client-side symmetric encryption with QKD-distributed keys.
* :mod:`repro.crypto.poly` — negacyclic polynomial arithmetic in
  ``Z_q[X]/(X^n + 1)``, the ring underlying CKKS (reference big-int backend).
* :mod:`repro.crypto.ntt` — vectorized negacyclic NTT/INTT over NTT-friendly
  primes (Shoup/Barrett 64-bit reductions).
* :mod:`repro.crypto.rns` — the RNS (CRT residue) polynomial ring built on
  the NTT, plus the cached :func:`~repro.crypto.rns.get_ring` backend factory.
* :mod:`repro.crypto.encoding` — CKKS canonical-embedding encoder/decoder.
* :mod:`repro.crypto.ckks` — CKKS keygen / encrypt / decrypt / add / multiply
  / relinearise / rescale.
* :mod:`repro.crypto.lwe_estimator` — core-SVP cost models for the uSVP,
  dual/BDD and hybrid-dual attacks; the minimum security level is the min
  across attacks (paper §III-C-3).
* :mod:`repro.crypto.security` — the fitted minimum-security-level curve
  ``f_msl`` (paper Eq. 30) and the fitting utility that produces such curves.
* :mod:`repro.crypto.transcipher` — server-side transciphering: turning a
  symmetric ciphertext into an HE ciphertext of the plaintext without
  decrypting (paper §III-A-4).

Performance
-----------
Polynomial arithmetic — the inner loop of every CKKS/BFV operation — has two
interchangeable backends:

* **RNS/NTT** (default): the modulus is a chain of NTT-friendly primes
  (``p ≡ 1 mod 2n``); coefficients live as numpy ``uint64`` residue
  matrices and multiplication is an O(n log n) vectorized negacyclic NTT
  per prime, and elements stay in the evaluation domain between
  operations.  Ring-level multiplication is two to three orders of
  magnitude faster than the reference path at production degrees
  (≈490× at n=4096 on the committed ``BENCH_crypto.json`` snapshot; see
  ``benchmarks/test_crypto_throughput.py`` and the crypto suite of
  ``scripts/bench.py``).
* **Reference**: arbitrary-precision Python integers with Kronecker
  substitution.  Exact for *any* modulus; used automatically when no
  NTT-friendly chain exists for the requested parameters.

Both backends are bit-for-bit equivalent on every ring operation (property
tested in ``tests/crypto/test_rns_ntt.py``).  :class:`CKKSContext` and
:class:`BFVContext` pick the fast backend automatically; pass
``backend="reference"`` to a context to force the big-int ring (e.g. for
A/B benchmarking or debugging).  Rings, NTT twiddle tables and
CRT constants are cached per (degree, modulus-chain), so repeated context
construction and cross-level operations do not rebuild them.
"""

from repro.crypto.chacha20 import ChaCha20, chacha20_decrypt, chacha20_encrypt
from repro.crypto.poly1305 import poly1305_mac, poly1305_verify
from repro.crypto.aead import AuthenticatedChannel, AuthenticationError, open_, seal
from repro.crypto.poly import PolyRing, PolyRingBase
from repro.crypto.ntt import NTTContext, find_ntt_primes, find_prime_chain, is_ntt_friendly
from repro.crypto.rns import RNSPolyRing, get_ring
from repro.crypto.encoding import CKKSEncoder
from repro.crypto.ckks import CKKSContext, CKKSCiphertext, CKKSKeyPair
from repro.crypto.lwe_estimator import (
    AttackEstimate,
    LWEParameters,
    estimate_security,
    minimum_security_level,
)
from repro.crypto.security import (
    fit_msl_curve,
    paper_msl,
    security_curve_table,
)
from repro.crypto.transcipher import TranscipherEngine
from repro.crypto.bfv import BFVCiphertext, BFVContext
from repro.crypto.exact_transcipher import ExactTranscipherEngine

__all__ = [
    "AttackEstimate",
    "AuthenticatedChannel",
    "AuthenticationError",
    "BFVCiphertext",
    "BFVContext",
    "ExactTranscipherEngine",
    "CKKSCiphertext",
    "CKKSContext",
    "CKKSEncoder",
    "CKKSKeyPair",
    "ChaCha20",
    "LWEParameters",
    "NTTContext",
    "PolyRing",
    "PolyRingBase",
    "RNSPolyRing",
    "TranscipherEngine",
    "chacha20_decrypt",
    "chacha20_encrypt",
    "estimate_security",
    "find_ntt_primes",
    "find_prime_chain",
    "fit_msl_curve",
    "get_ring",
    "is_ntt_friendly",
    "minimum_security_level",
    "open_",
    "paper_msl",
    "poly1305_mac",
    "poly1305_verify",
    "seal",
    "security_curve_table",
]
