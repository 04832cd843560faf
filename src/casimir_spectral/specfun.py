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

The tables hold P and Q only; a derivative follows from them where it is
read, by the recurrences above, except nQ'_m: its lower neighbour has a
singular normalization, so it takes the upward form
w nQ'_l = sigma s_{l+1} nQ_{l+1} - (l+1) x nQ_l.

P is generated by forward recurrence in l; Q by a downward continued
fraction for the ratio nQ_{l+1}/nQ_l, anchored with the Wronskian.

Every table takes a range of consecutive orders m0..m1, computed in one
pass, and returns a stack holding only the rows l = m0..l_max of each
order: no order of the range reads a row below m0.  One order m is
range(m, m + 1).  Every order's working rows run to l_max + 1, the row
l = m + 1 that the Wronskian anchor of m = l_max reads, so every order
goes through the same loops, and a continued fraction started deeper
gives the same rows l <= l_max bit for bit.

ln(n!) has one entry point, the read-only table :func:`log_factorials`,
which the seeds of both kernels and the sphere coupling read.  Its entries
are Cephes lgam (Moshier, Methods and Programs for Mathematical Functions,
1989) at x = n + 1, the code scipy.special.gammaln runs, so they equal
gammaln(n + 1.0) bit for bit without importing scipy.special; math.lgamma
differs from it in the last bit at about half of the integers, which moves
far-field Xi by up to 2.9e-10 relative.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SpecFunDomainError, SpecFunOverflowError

_LOG2 = math.log(2.0)
_CF_CAP = 4000
# Cephes lgam: Stirling-series coefficients for 13 <= x < 1000, and
# ln(sqrt(2 pi))
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _lgam_int(n: int) -> float:
    """Cephes lgam at x = n + 1, in its operation order."""
    x = n + 1.0
    if x < 13.0:  # the log of the exact product
        return math.log(math.prod(range(2, n + 1)))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


@lru_cache(maxsize=None)
def log_factorials(n_max: int) -> np.ndarray:
    """Read-only ln(n!) for n = 0..n_max, equal to
    scipy.special.gammaln(n + 1.0) bit for bit."""
    table = np.array([_lgam_int(n) for n in range(n_max + 1)])
    table.flags.writeable = False
    return table


def _cf_extra_terms(theta_min: float) -> int:
    """Downward-recurrence buffer: with per-step decay exp(-2*theta), 28/theta
    steps bring the tail to exp(-56) ~ 5e-25, below 1e-8 of an ulp, and 10
    more are a margin.  Against the former max(60, 42/theta + 10) steps, no
    bit moved in 2 448 random table calls (both families, l_max 1-159,
    1-19 points, theta_min down to the cap); 21/theta + 10, whose tail is
    exp(-42), moved Q by up to 1.0e-15 relative in 9 of 1 224 at
    theta_min <= 0.052.  The depth is not capped, so a call one row deeper
    nests bit for bit at every theta; it is at most 5 343 steps, since
    this raises where _CF_CAP steps cannot reach exp(-42): spheroids of
    aspect above coth(21/_CF_CAP) ~ 190."""
    if theta_min * _CF_CAP < 21.0:
        raise SpecFunDomainError(f"Q continued fraction cannot converge: theta={theta_min:.3g}")
    return int(28.0 / theta_min) + 10


def _seed_log_pmm(mv: np.ndarray, l_max: int) -> np.ndarray:
    # log of sqrt(1/(2m)!) * (2m-1)!!  =  0.5*lf(2m) - m*log2 - lf(m), m <= l_max
    lf = log_factorials(2 * l_max + 1)
    return 0.5 * lf[2 * mv] - mv * _LOG2 - lf[mv]


def _orders(ms, l_max: int) -> range:
    """The orders of a table call: a non-empty range of consecutive
    orders, each within 0..l_max."""
    if not isinstance(ms, range) or ms.step != 1 or len(ms) == 0:
        raise SpecFunDomainError("orders must be a non-empty range with step 1")
    if ms.start < 0 or l_max < ms[-1]:
        raise SpecFunDomainError("need 0 <= m <= l_max")
    return ms


def _radial_kernel(ms: range, l_max: int, x: np.ndarray, sigma: float):
    """Normalized P and Q for l = m..l_max of every order m in ms, for the
    family with continuation sign sigma, at points x already checked to lie
    in its domain.

    Returns two stacks of shape (len(ms), l_max + 1 - ms.start, len(x)),
    whose row i holds l = ms.start + i; rows below an order's own l = m are
    zero.  Each order's entries go through the same floating-point
    operations whatever the range, so a stack's k-th table is bit-identical
    to the rows l >= ms.start of a call for range(ms[k], ms[k] + 1).
    Every order's working rows run to L = l_max + 1, so a step in l
    touches the orders with m <= l (m < l in the continued fraction), a
    leading slice of the stack.  Raises SpecFunOverflowError for the lowest
    order whose P or Q table is not finite.
    """
    n, m0 = len(ms), ms.start
    L = l_max + 1  # the Wronskian anchor of m = l_max reads l = m + 1
    theta = np.arccosh(x) if sigma > 0 else np.arcsinh(x)
    extra = _cf_extra_terms(float(np.min(theta)))
    mv = np.arange(m0, m0 + n)
    rows = np.arange(n)  # also the row of l = m of each order
    w = x * x - sigma
    # s[l, k] = s_l = sqrt(l^2 - m^2) of order ms[k], as a column over the
    # points; NaN where l < m, which no step reads
    s = np.sqrt(np.subtract.outer(np.arange(L + extra + 2) ** 2, mv * mv).astype(float))
    s = s[..., None]
    ss = sigma * s

    nP = np.zeros((n, L + 1 - m0, x.size))
    # seed: nP_m^m = sqrt(1/(2m)!) (2m-1)!! w^{m/2}
    seed = _seed_log_pmm(mv, l_max)
    nP[rows, rows] = np.exp(seed[:, None] + (0.5 * mv)[:, None] * np.log(w))
    # l = m: the lower term of the recurrence is absent
    nP[rows, rows + 1] = (2 * mv + 1)[:, None] * x * nP[rows, rows] / s[mv + 1, rows]
    for l in range(m0 + 1, l_max):
        b = min(l - m0, n)  # rows with m < l
        i = l - m0
        nP[:b, i + 1] = ((2 * l + 1) * x * nP[:b, i] - ss[l, :b] * nP[:b, i - 1]) / s[l + 1, :b]
    p_finite = np.isfinite(nP).all(axis=(1, 2))

    # continued fraction for the ratios nQ_l/nQ_{l-1}, computed downward
    # from L + extra and kept in q[k, l - m0] for l = m+1..L
    q = np.zeros_like(nP)
    r = np.zeros((n, x.size))
    for l in range(L + extra, m0, -1):
        b = min(l - m0, n)  # rows with m < l
        # downward: nQ_{l-1} = ((2l+1) x nQ_l - sigma s_{l+1} nQ_{l+1}) / s_l
        r[:b] = s[l, :b] / ((2 * l + 1) * x - ss[l + 1, :b] * r[:b])
        if l <= L:
            q[:b, l - m0] = r[:b]

    # anchor nQ_m via the Wronskian at l = m+1:
    # nP_{m+1} nQ'_{m+1} - nP'_{m+1} nQ_{m+1} = T,  T = -(-1)^m / w
    T = np.where(mv % 2, 1.0, -1.0)[:, None] / w
    r_m = q[rows, rows + 1]  # nQ_{m+1}/nQ_m
    s1 = s[mv + 1, rows]  # sqrt((m+1)^2 - m^2)
    nPm, nP1 = nP[rows, rows], nP[rows, rows + 1]
    dP1 = ((mv + 1)[:, None] * x * nP1 - ss[mv + 1, rows] * nPm) / w
    denom = nP1 * ((mv + 1)[:, None] * x * r_m - s1) / w - dP1 * r_m
    q[rows, rows] = T / denom
    for l in range(m0, l_max):
        b = min(l - m0 + 1, n)  # rows with m <= l
        q[:b, l + 1 - m0] *= q[:b, l - m0]  # nQ_{l+1} = ratio * nQ_l
    nP, q = nP[:, : l_max + 1 - m0], q[:, : l_max + 1 - m0]
    nQ1 = r_m * q[rows, rows]  # nQ_{m+1}, not returned at m = l_max but checked
    finite = p_finite & np.isfinite(q).all(axis=(1, 2)) & np.isfinite(nQ1).all(axis=1)

    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        m = ms[k]
        if p_finite[k]:
            message = f"Q_l^m overflow/underflow for m={m}, l_max={l_max}"
        else:
            message = f"P_l^m overflow for m={m}, l_max={l_max}: reduce l_max or aspect"
        raise SpecFunOverflowError(message, m=m)
    return nP, q


def _radial_call(ms, l_max: int, x: np.ndarray, sigma: float):
    with np.errstate(all="ignore"):  # non-finite entries raise below
        return _radial_kernel(_orders(ms, l_max), l_max, x, sigma)


def prolate_radial_table(ms, l_max: int, x):
    """Normalized P and Q for l = m..l_max at points x > 1, of every order
    m in the range of consecutive orders ms.

    Returns two stacks of shape (len(ms), l_max+1-ms.start, len(x)) of the
    tables of those orders, holding only the rows l = ms.start..l_max; rows
    below an order's own l = m are zero.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(x > 1.0):  # NaN fails it too
        raise SpecFunDomainError("prolate radial functions require x > 1")
    return _radial_call(ms, l_max, x, 1.0)


def oblate_radial_table(ms, l_max: int, zeta):
    """Normalized oblate radial functions p and q for l = m..l_max.

    Real-valued continuation of the prolate table to x = i*zeta, zeta > 0.
    The second-kind functions carry the sign (-1)^m (they are
    (1+z^2)^{m/2} q_l^{(m)}(z) with q_l completely monotone), matching the
    continuation phases.  The range of orders ms and the stacks returned
    are as for prolate_radial_table.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if not np.all(zeta > 0.0):
        raise SpecFunDomainError("oblate radial functions require zeta > 0")
    return _radial_call(ms, l_max, zeta, -1.0)


def normalized_ferrers_table(ms, l_max: int, eta):
    """Orthonormal Ferrers functions Pbar_l^m(eta) on [-1, 1],
    int_{-1}^{1} Pbar^2 = 1, for l = m..l_max, of every order m in the
    range of consecutive orders ms: a stack of shape
    (len(ms), l_max+1-ms.start, len(eta)) holding rows l = ms.start..l_max,
    rows below an order's own l = m zero, whose k-th table is bit-identical
    to those rows of a call for range(ms[k], ms[k] + 1)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not np.all(np.abs(eta) <= 1.0):
        raise SpecFunDomainError("normalized Ferrers functions require |eta| <= 1")
    ms = _orders(ms, l_max)
    n, m0 = len(ms), ms.start
    mv = np.arange(m0, m0 + n)
    mf = mv.astype(float)
    rows = np.arange(n)
    # row i holds l = m0 + i, up to l_max + 1 so that every order's
    # l = m + 1 has a row; rows l <= l_max are returned
    out = np.zeros((n, l_max + 2 - m0, eta.size))
    # Pbar_m^m = sqrt((2m+1)/2) * sqrt(1/(2m)!) (2m-1)!! (1-eta^2)^{m/2};
    # np.log equals math.log on (2m+1)/2 for every m below 54 731
    log_pre = 0.5 * np.log((2 * mv + 1) / 2.0) + _seed_log_pmm(mv, l_max)
    # at eta = +-1, log(0) = -inf makes the seed of m > 0 exactly 0
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(mv[:, None] > 0, (0.5 * mf)[:, None] * np.log(1.0 - eta * eta), 0.0)
    out[rows, rows] = np.exp(log_pre[:, None] + power)
    # fully-normalized forward recurrence; at l = m the lower term is absent
    out[rows, rows + 1] = np.sqrt(2.0 * mf + 3.0)[:, None] * eta * out[rows, rows]
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
        i = l - m0
        out[:b, i + 1] = A[l, :b] * eta * out[:b, i] - B[l, :b] * out[:b, i - 1]
    return out[:, : l_max + 1 - m0]
