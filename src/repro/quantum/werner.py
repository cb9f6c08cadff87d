"""Werner-state link model (paper Eq. 3-5).

A Werner state with parameter ``w`` is the mixture
``w |Φ+><Φ+| + (1-w)/4 I`` of a Bell pair and the maximally mixed state.
Measuring both halves of such a pair in matched bases yields a quantum bit
error rate (QBER) of ``(1 - w) / 2``; the asymptotic secret-key fraction of
an entanglement-based BB84/BBM92 protocol is then ``1 - 2 h(QBER)``, which is
exactly the paper's Eq. 4.
"""

from __future__ import annotations

import numpy as np

#: Largest Werner parameter at which the secret-key fraction is still zero
#: (paper §V-A, obtained there via Desmos).  ``F_skf(w) > 0`` iff
#: ``w > F_SKF_ZERO_CROSSING``.
F_SKF_ZERO_CROSSING: float = 0.779944


def _check_werner(w: np.ndarray) -> None:
    """Raise unless every entry of ``w`` lies in [0, 1]; NaN never does."""
    if not np.all((w >= 0.0) & (w <= 1.0)):
        raise ValueError("Werner parameter must lie in [0, 1]")


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    q = p[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


def secret_key_fraction(w):
    """Secret-key fraction ``F_skf(w)`` of a Werner pair (paper Eq. 4).

    ``F_skf(w) = max(0, 1 + (1+w) log2((1+w)/2) + (1-w) log2((1-w)/2))``
    which equals ``max(0, 1 - 2 h((1-w)/2))`` with ``h`` the binary entropy.

    Accepts scalars or arrays in ``[0, 1]``; returns the same shape.
    """
    w_arr = np.asarray(w, dtype=float)
    _check_werner(w_arr)
    qber = (1.0 - w_arr) / 2.0
    value = np.maximum(0.0, 1.0 - 2.0 * _binary_entropy(qber))
    if np.isscalar(w):
        return float(value)
    return value


def secret_key_fraction_derivative(w):
    """Derivative ``dF_skf/dw`` on the region where ``F_skf > 0``.

    For ``w > F_SKF_ZERO_CROSSING`` the derivative is
    ``log2((1+w)/(1-w))``; below the crossing the function is constant zero.
    At ``w == 1`` the derivative diverges; we return ``inf`` there.
    """
    w_arr = np.asarray(w, dtype=float)
    _check_werner(w_arr)
    out = np.zeros_like(w_arr)
    active = w_arr > F_SKF_ZERO_CROSSING
    with np.errstate(divide="ignore"):
        out[active] = np.log2((1.0 + w_arr[active]) / (1.0 - w_arr[active]))
    if np.isscalar(w):
        return float(out)
    return out


def link_capacity(beta, w):
    """Entanglement-rate capacity of a link (paper Eq. 3): ``c = β (1 - w)``.

    ``β = 3 κ η / (2 T)`` bundles the link inefficiency ``κ``, midpoint
    transmissivity ``η`` and generation interval ``T``; see
    :func:`repro.quantum.topology.beta_from_length` for the physics model.
    """
    beta_arr = np.asarray(beta, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if np.any(beta_arr <= 0):
        raise ValueError("link beta must be positive")
    _check_werner(w_arr)
    value = beta_arr * (1.0 - w_arr)
    if np.isscalar(beta) and np.isscalar(w):
        return float(value)
    return value


def end_to_end_werner(link_werner, route_links) -> float:
    """End-to-end Werner parameter of a route (paper Eq. 5).

    Entanglement swapping at intermediate nodes multiplies the Werner
    parameters of the constituent links: ``ϖ_n = Π_{l in route} w_l``.

    Parameters
    ----------
    link_werner:
        Sequence of per-link Werner parameters, indexed 0..L-1.
    route_links:
        Iterable of 0-based link indices forming the route.
    """
    w = np.asarray(link_werner, dtype=float)
    _check_werner(w)
    indices = list(route_links)
    if not indices:
        raise ValueError("a route must contain at least one link")
    return float(np.prod(w[indices]))
