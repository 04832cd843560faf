"""Prolate and oblate spheroidal radial functions, Ferrers functions on
[-1, 1], and log-factorials.

Radial functions are computed "ratio-normalized",

    nP_l^m = sqrt((l-m)!/(l+m)!) * P_l^m,   nQ_l^m = sqrt((l-m)!/(l+m)!) * Q_l^m,

which keeps magnitudes free of factorial growth.  Prolate tables are the
Ferrers-type functions continued to x > 1 (no Condon-Shortley phase).
Oblate tables are their real-valued continuation x -> i*zeta:
P_l^m(i z) = i^l p_l^m(z), Q_l^m(i z) = (-i)^{l+1} q_l^m(z), with p, q
real.  Both families run through one kernel, :func:`_radial_kernel`,
parametrized by the continuation sign sigma (+1 prolate, -1 oblate) and
w = x^2 - sigma:

    (2l+1) x nP_l = s_{l+1} nP_{l+1} + sigma s_l nP_{l-1},  s_l = sqrt(l^2 - m^2),
    (2l+1) x nQ_l = sigma s_{l+1} nQ_{l+1} + s_l nQ_{l-1},
    w nP'_l = l x nP_l - sigma s_l nP_{l-1},
    w nQ'_l = l x nQ_l - s_l nQ_{l-1},
    nP nQ' - nP' nQ = -(-1)^m / w.

P is generated by forward recurrence in l; Q by a downward continued
fraction for the ratio nQ_{l+1}/nQ_l, anchored with the Wronskian.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import SpecFunDomainError, SpecFunOverflowError

_LOG2 = math.log(2.0)
_CF_CAP = 4000


def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0 or int(n) != n:
        raise SpecFunDomainError("log_factorial requires a non-negative integer")
    return float(gammaln(n + 1.0))


def _cf_extra_terms(theta_min: float) -> int:
    """Downward-recurrence buffer: enough steps that the minimal solution
    dominates to ~1e-18, with per-step decay exp(-2*theta)."""
    if theta_min <= 0.0:
        return _CF_CAP
    return min(_CF_CAP, max(60, int(42.0 / theta_min) + 10))


def _seed_log_pmm(m: int) -> float:
    # log of sqrt(1/(2m)!) * (2m-1)!!  =  0.5*lf(2m) - m*log2 - lf(m)
    return 0.5 * log_factorial(2 * m) - m * _LOG2 - log_factorial(m)


def _check_degrees(m: int, l_max: int):
    if m < 0 or l_max < m:
        raise SpecFunDomainError("need 0 <= m <= l_max")


def _radial_kernel(m: int, l_max: int, x: np.ndarray, sigma: float):
    """Normalized P, dP, Q, dQ for l = m..l_max of the family with
    continuation sign sigma, at points x already checked to lie in its
    domain."""
    L = max(l_max, m + 1)
    npts = x.size
    w = x * x - sigma

    nP = np.zeros((L + 1, npts))
    # seed: nP_m^m = sqrt(1/(2m)!) (2m-1)!! w^{m/2}
    nP[m] = np.exp(_seed_log_pmm(m) + 0.5 * m * np.log(w))
    for l in range(m, L):
        s_hi = math.sqrt((l + 1.0 - m) * (l + 1.0 + m))
        lower = nP[l - 1] if l > m else 0.0
        s_lo = math.sqrt((l - m) * (l + m)) if l > m else 0.0
        nP[l + 1] = ((2 * l + 1) * x * nP[l] - sigma * s_lo * lower) / s_hi
    if not np.all(np.isfinite(nP)):
        raise SpecFunOverflowError(
            f"P_l^m overflow for m={m}, l_max={l_max}: reduce l_max or aspect"
        )

    # continued fraction for the ratios, computed downward;
    # ratios[l] = nQ_{l+1}/nQ_l
    theta = np.arccosh(x) if sigma > 0 else np.arcsinh(x)
    extra = _cf_extra_terms(float(np.min(theta)))
    ratios = np.zeros((L + 1, npts))
    r = np.zeros(npts)
    for l in range(L + extra, m, -1):
        s_lo = math.sqrt(float(l * l - m * m))
        s_hi = math.sqrt((l + 1.0 - m) * (l + 1.0 + m))
        # downward: nQ_{l-1} = ((2l+1) x nQ_l - sigma s_{l+1} nQ_{l+1}) / s_l
        r = s_lo / ((2 * l + 1) * x - sigma * s_hi * r)
        if l - 1 <= L:
            ratios[l - 1] = r

    # anchor nQ_m via the Wronskian at l = m+1:
    # nP_{m+1} nQ'_{m+1} - nP'_{m+1} nQ_{m+1} = T,  T = -(-1)^m / w
    T = -((-1.0) ** m) / w
    r_m = ratios[m]  # nQ_{m+1}/nQ_m
    s1 = math.sqrt(2.0 * m + 1.0)  # sqrt((m+1)^2 - m^2)
    nP1 = nP[m + 1]
    dP1 = ((m + 1) * x * nP[m + 1] - sigma * s1 * nP[m]) / w
    denom = nP1 * ((m + 1) * x * r_m - s1) / w - dP1 * r_m
    nQ = np.zeros((L + 1, npts))
    nQ[m] = T / denom
    for l in range(m, L):
        nQ[l + 1] = ratios[l] * nQ[l]

    ndP = np.zeros((L + 1, npts))
    ndQ = np.zeros((L + 1, npts))
    # l = m: the lower term is absent, and the Wronskian gives nQ'_m
    ndP[m] = m * x * nP[m] / w
    ndQ[m] = (T + ndP[m] * nQ[m]) / nP[m]
    for l in range(m + 1, L + 1):
        s_l = math.sqrt(float(l * l - m * m))
        ndP[l] = (l * x * nP[l] - sigma * s_l * nP[l - 1]) / w
        ndQ[l] = (l * x * nQ[l] - s_l * nQ[l - 1]) / w

    tables = (nP, ndP, nQ, ndQ)
    if not all(np.all(np.isfinite(t)) for t in tables):
        raise SpecFunOverflowError(
            f"radial table overflow/underflow for m={m}, l_max={l_max}"
        )
    return tuple(t[: l_max + 1] for t in tables)


def prolate_radial_table(m: int, l_max: int, x):
    """Normalized P, dP, Q, dQ for l = m..l_max at points x > 1.

    Returns four arrays of shape (l_max+1, len(x)); rows below l = m are
    zero.  Derivatives are with respect to x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 1.0):
        raise SpecFunDomainError("prolate radial functions require x > 1")
    _check_degrees(m, l_max)
    return _radial_kernel(m, l_max, x, 1.0)


def oblate_radial_table(m: int, l_max: int, zeta):
    """Normalized oblate radial functions p, dp, q, dq for l = m..l_max.

    Real-valued continuation of the prolate table to x = i*zeta, zeta > 0.
    Derivatives are with respect to zeta.  The second-kind functions carry
    the sign (-1)^m (they are (1+z^2)^{m/2} q_l^{(m)}(z) with q_l
    completely monotone), matching the continuation phases.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if np.any(zeta <= 0.0):
        raise SpecFunDomainError("oblate radial functions require zeta > 0")
    _check_degrees(m, l_max)
    return _radial_kernel(m, l_max, zeta, -1.0)


def normalized_ferrers_table(m: int, l_max: int, eta):
    """Orthonormal Ferrers functions Pbar_l^m(eta) on [-1, 1],
    int_{-1}^{1} Pbar^2 = 1, for l = m..l_max.  Shape (l_max+1, len(eta))."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(np.abs(eta) > 1.0):
        raise SpecFunDomainError("normalized Ferrers functions require |eta| <= 1")
    _check_degrees(m, l_max)
    npts = eta.size
    s2 = 1.0 - eta * eta
    out = np.zeros((l_max + 1, npts))
    # Pbar_m^m = sqrt((2m+1)/2) * sqrt(1/(2m)!) (2m-1)!! (1-eta^2)^{m/2}
    log_pre = 0.5 * math.log((2 * m + 1) / 2.0) + _seed_log_pmm(m)
    with np.errstate(divide="ignore"):
        logs2 = np.where(s2 > 0.0, np.log(np.maximum(s2, 1e-300)), -np.inf)
    vals = np.exp(log_pre + 0.5 * m * logs2)
    if m > 0:
        vals = np.where(s2 > 0.0, vals, 0.0)
    out[m] = vals
    if l_max == m:
        return out
    # fully-normalized forward recurrence
    prev = out[m]
    a = math.sqrt(2.0 * m + 3.0)
    cur = a * eta * prev
    out[m + 1] = cur
    for l in range(m + 1, l_max):
        A = math.sqrt((4.0 * (l + 1) ** 2 - 1.0) / ((l + 1.0) ** 2 - m * m))
        B = math.sqrt(((l * l - m * m) * (2.0 * l + 3.0)) / (2.0 * l - 1.0)) / math.sqrt(
            (l + 1.0) ** 2 - m * m
        )
        nxt = A * eta * cur - B * prev
        out[l + 1] = nxt
        prev, cur = cur, nxt
    return out
