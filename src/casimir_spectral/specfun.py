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
from scipy.special import gammaln  # math.lgamma moves far-field Xi by up to 2.9e-10

from .errors import SpecFunDomainError, SpecFunOverflowError

_LOG2 = math.log(2.0)
_CF_CAP = 4000


def log_factorial(n: int) -> float:
    """ln(n!) for integer n >= 0."""
    if n < 0 or int(n) != n:
        raise SpecFunDomainError("log_factorial requires a non-negative integer")
    return float(gammaln(n + 1.0))


def log_factorials(n_max: int) -> np.ndarray:
    """ln(n!) for n = 0..n_max; entry n equals log_factorial(n) bit for bit."""
    return gammaln(np.arange(n_max + 1) + 1.0)


def _cf_extra_terms(theta_min: float) -> int:
    """Downward-recurrence buffer: enough steps that the minimal solution
    dominates to ~1e-18, with per-step decay exp(-2*theta).  Raises where
    _CF_CAP steps fall short: spheroids of aspect above coth(21/_CF_CAP) ~ 190."""
    if theta_min * _CF_CAP < 21.0:
        raise SpecFunDomainError(f"Q continued fraction cannot converge: theta={theta_min:.3g}")
    return min(_CF_CAP, max(60, int(42.0 / theta_min) + 10))


def _seed_log_pmm(m: int) -> float:
    # log of sqrt(1/(2m)!) * (2m-1)!!  =  0.5*lf(2m) - m*log2 - lf(m)
    return 0.5 * log_factorial(2 * m) - m * _LOG2 - log_factorial(m)


def _orders(m, l_max: int) -> range:
    """The orders of a table call as a range: one int m, or a non-empty
    range of consecutive orders, each within 0..l_max."""
    ms = m if isinstance(m, range) else range(m, m + 1)
    if ms.step != 1 or len(ms) == 0:
        raise SpecFunDomainError("orders must be an int or a non-empty range with step 1")
    if ms.start < 0 or l_max < ms[-1]:
        raise SpecFunDomainError("need 0 <= m <= l_max")
    return ms


def _radial_kernel(ms: range, l_max: int, x: np.ndarray, sigma: float, derivatives: bool):
    """Normalized P, dP, Q, dQ for l = m..l_max of every order m in ms, for
    the family with continuation sign sigma, at points x already checked to
    lie in its domain.

    Returns four stacks of shape (len(ms), l_max+1, len(x)), with None for
    dP and dQ unless derivatives is set; they are computed and checked
    either way.  Each order's entries go through the same floating-point
    operations whatever the range, so a stack's k-th table is bit-identical
    to the table of a call for ms[k] alone.  A step in l touches the orders
    with m <= l <= L_m, and because both grow with m, they are one slice.
    Raises SpecFunOverflowError for the lowest order whose tables are not
    finite.
    """
    n, m0 = len(ms), ms.start
    # a table ends at L_m = l_max, except at m = l_max, whose Wronskian
    # anchor needs l = m + 1; rows [0, n_short) end at l_max
    n_short = n - (ms[-1] == l_max)
    L = l_max + (n_short < n)
    theta = np.arccosh(x) if sigma > 0 else np.arcsinh(x)
    extra = _cf_extra_terms(float(np.min(theta)))
    mv = np.arange(m0, m0 + n)
    rows = np.arange(n)
    w = x * x - sigma
    # s[l, k] = s_l = sqrt(l^2 - m^2) of order ms[k], as a column over the
    # points; NaN where l < m, which no step reads
    s = np.sqrt(np.subtract.outer(np.arange(L + extra + 2) ** 2, mv * mv).astype(float))
    s = s[..., None]
    ss = sigma * s

    nP = np.zeros((n, L + 1, x.size))
    # seed: nP_m^m = sqrt(1/(2m)!) (2m-1)!! w^{m/2}
    seed = np.array([_seed_log_pmm(m) for m in ms])
    nP[rows, mv] = np.exp(seed[:, None] + (0.5 * mv)[:, None] * np.log(w))
    # l = m: the lower term of the recurrence is absent
    nP[rows, mv + 1] = (2 * mv + 1)[:, None] * x * nP[rows, mv] / s[mv + 1, rows]
    for l in range(m0 + 1, l_max):
        b = min(l - m0, n)  # rows with m < l
        nP[:b, l + 1] = ((2 * l + 1) * x * nP[:b, l] - ss[l, :b] * nP[:b, l - 1]) / s[l + 1, :b]
    finite = np.isfinite(nP).all(axis=(1, 2))
    p_finite = finite.copy()

    # continued fraction for the ratios nQ_l/nQ_{l-1}, computed downward
    # from L_m + extra and kept in q[k, l] for l = m+1..L_m
    q = np.zeros_like(nP)
    r = np.zeros((n, x.size))
    for l in range(L + extra, m0, -1):
        a = n_short if l > l_max + extra else 0  # rows with L_m + extra >= l
        b = min(l - m0, n)  # rows with m < l
        # downward: nQ_{l-1} = ((2l+1) x nQ_l - sigma s_{l+1} nQ_{l+1}) / s_l
        r[a:b] = s[l, a:b] / ((2 * l + 1) * x - ss[l + 1, a:b] * r[a:b])
        if l <= L:
            a = n_short if l > l_max else 0  # rows with L_m >= l
            q[a:b, l] = r[a:b]

    # anchor nQ_m via the Wronskian at l = m+1:
    # nP_{m+1} nQ'_{m+1} - nP'_{m+1} nQ_{m+1} = T,  T = -(-1)^m / w
    T = np.where(mv % 2, 1.0, -1.0)[:, None] / w
    r_m = q[rows, mv + 1]  # nQ_{m+1}/nQ_m
    s1 = s[mv + 1, rows]  # sqrt((m+1)^2 - m^2)
    nPm, nP1 = nP[rows, mv], nP[rows, mv + 1]
    dP1 = ((mv + 1)[:, None] * x * nP1 - ss[mv + 1, rows] * nPm) / w
    denom = nP1 * ((mv + 1)[:, None] * x * r_m - s1) / w - dP1 * r_m
    q[rows, mv] = T / denom
    for l in range(m0, L):
        a = n_short if l == l_max else 0  # rows with L_m > l
        b = min(l - m0 + 1, n)  # rows with m <= l
        q[a:b, l + 1] *= q[a:b, l]  # nQ_{l+1} = ratio * nQ_l
    finite &= np.isfinite(q).all(axis=(1, 2))

    # l = m: the lower term is absent, and the Wronskian gives nQ'_m
    dPm = mv[:, None] * x * nPm / w
    dQm = (T + dPm * q[rows, mv]) / nPm
    finite &= np.isfinite(dPm).all(axis=1) & np.isfinite(dQm).all(axis=1)
    ndP = ndQ = None
    if derivatives:
        ndP, ndQ = np.zeros_like(nP), np.zeros_like(q)
        ndP[rows, mv], ndQ[rows, mv] = dPm, dQm
    for k, m in enumerate(ms):
        hi = (L if k >= n_short else l_max) + 1
        lx = np.arange(m + 1, hi)[:, None] * x
        dP = (lx * nP[k, m + 1 : hi] - ss[m + 1 : hi, k] * nP[k, m : hi - 1]) / w
        dQ = (lx * q[k, m + 1 : hi] - s[m + 1 : hi, k] * q[k, m : hi - 1]) / w
        finite[k] &= np.isfinite(dP).all() and np.isfinite(dQ).all()
        if derivatives:
            ndP[k, m + 1 : hi], ndQ[k, m + 1 : hi] = dP, dQ

    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        m = ms[k]
        if p_finite[k]:
            message = f"radial table overflow/underflow for m={m}, l_max={l_max}"
        else:
            message = f"P_l^m overflow for m={m}, l_max={l_max}: reduce l_max or aspect"
        raise SpecFunOverflowError(message, m=m)
    return tuple(None if t is None else t[:, : l_max + 1] for t in (nP, ndP, q, ndQ))


def _radial_call(m, l_max: int, x: np.ndarray, sigma: float, derivatives: bool):
    with np.errstate(all="ignore"):  # non-finite entries raise below
        tables = _radial_kernel(_orders(m, l_max), l_max, x, sigma, derivatives)
    if isinstance(m, range):
        return tables
    return tuple(None if t is None else t[0] for t in tables)


def prolate_radial_table(m, l_max: int, x, derivatives: bool = True):
    """Normalized P, dP, Q, dQ for l = m..l_max at points x > 1.

    Returns four arrays of shape (l_max+1, len(x)); rows below l = m are
    zero.  Derivatives are with respect to x; with derivatives=False, dP
    and dQ are None (they are still computed and checked for overflow).
    With m a range of consecutive orders, each array is a stack of shape
    (len(m), l_max+1, len(x)) of the tables of those orders.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 1.0):
        raise SpecFunDomainError("prolate radial functions require x > 1")
    return _radial_call(m, l_max, x, 1.0, derivatives)


def oblate_radial_table(m, l_max: int, zeta, derivatives: bool = True):
    """Normalized oblate radial functions p, dp, q, dq for l = m..l_max.

    Real-valued continuation of the prolate table to x = i*zeta, zeta > 0.
    Derivatives are with respect to zeta.  The second-kind functions carry
    the sign (-1)^m (they are (1+z^2)^{m/2} q_l^{(m)}(z) with q_l
    completely monotone), matching the continuation phases.  derivatives
    and a range of orders m work as for prolate_radial_table.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if np.any(zeta <= 0.0):
        raise SpecFunDomainError("oblate radial functions require zeta > 0")
    return _radial_call(m, l_max, zeta, -1.0, derivatives)


def normalized_ferrers_table(m, l_max: int, eta):
    """Orthonormal Ferrers functions Pbar_l^m(eta) on [-1, 1],
    int_{-1}^{1} Pbar^2 = 1, for l = m..l_max.  Shape (l_max+1, len(eta)),
    or (len(m), l_max+1, len(eta)) for a range of consecutive orders m,
    whose k-th table is bit-identical to a call for m[k] alone."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(np.abs(eta) > 1.0):
        raise SpecFunDomainError("normalized Ferrers functions require |eta| <= 1")
    ms = _orders(m, l_max)
    n, m0 = len(ms), ms.start
    mv = np.arange(m0, m0 + n)
    mf = mv.astype(float)
    rows = np.arange(n)
    out = np.zeros((n, l_max + 1, eta.size))
    # Pbar_m^m = sqrt((2m+1)/2) * sqrt(1/(2m)!) (2m-1)!! (1-eta^2)^{m/2}
    log_pre = np.array([0.5 * math.log((2 * m + 1) / 2.0) + _seed_log_pmm(m) for m in ms])
    k0 = int(m0 == 0)
    if k0:
        out[0, 0] = math.exp(log_pre[0])
    # at eta = +-1, log(0) = -inf makes the seed of m > 0 exactly 0
    with np.errstate(divide="ignore"):
        out[rows[k0:], mv[k0:]] = np.exp(
            log_pre[k0:, None] + (0.5 * mf[k0:])[:, None] * np.log(1.0 - eta * eta)
        )
    # fully-normalized forward recurrence; at l = m the lower term is absent
    k1 = n - (ms[-1] == l_max)  # rows with m < l_max
    out[rows[:k1], mv[:k1] + 1] = (
        np.sqrt(2.0 * mf[:k1] + 3.0)[:, None] * eta * out[rows[:k1], mv[:k1]]
    )
    # A[l, k] and B[l, k] of order ms[k], as columns over eta; entries with
    # l <= m are not read
    l = np.arange(l_max + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.sqrt((4.0 * (l + 1) ** 2 - 1.0) / ((l + 1.0) ** 2 - mf * mf))
        B = np.sqrt(((l * l - mf * mf) * (2.0 * l + 3.0)) / (2.0 * l - 1.0)) / np.sqrt(
            (l + 1.0) ** 2 - mf * mf
        )
    A, B = A[..., None], B[..., None]
    for l in range(m0 + 1, l_max):
        b = min(l - m0, n)  # rows with m < l
        out[:b, l + 1] = A[l, :b] * eta * out[:b, l] - B[l, :b] * out[:b, l - 1]
    return out if isinstance(m, range) else out[0]
