"""Spectral core: per-azimuthal-sector coupling matrices, their
eigendecomposition and mode frequencies.

The surface-mode eigenproblem in the spectral variable u reads, per
azimuthal number m,

    u x = H x,    H = diag(n_iso) + f_c * D,

with n_iso the depolarization factors of the isolated particle and D the
substrate-induced multipolar coupling (f_c excluded).  For a sphere D has
a closed form from the solid-harmonic image translation; for spheroids it
is built by reflecting each exterior spheroidal harmonic in the substrate
plane and projecting the reflected field back onto regular spheroidal
harmonics on the particle surface.  The direct projection converges
whenever the particle does not touch the substrate, including flat oblate
particles at small gaps where an intermediate spherical re-expansion
would diverge.

The unit of work is a block of consecutive sectors, which _sectors alone
sizes: one pass over a block gives every D, check and H of the block,
each block holding its sectors' matrices, l = max(1, m)..l_max, packed
one after another (_layout).  A block reads its sectors' surface rows
(n_iso, the weight amplitudes and nP at xi0, which depend on the spheroid
alone) once, from _surface_block, and the D build takes them from its
caller.  A call for one sector (spectral_block, coupling_matrix_D) is a
block of that sector.  Only the projection integral and the eigensolve
run per sector, each at its sector's own shape, and a sector that fails a
check raises in its turn, so no output depends on where a block starts
or ends.

What outlives a block lives in a _Workspace: an energy_sweep's lives for
the sweep, a lone ladder's for its rungs, and a call given none makes its
own, so nothing outlives a public call.

Basis amplitudes are normalized so that H is symmetric; observables
(eigenvalues, strengths, energies) are invariant under that gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

from .errors import (
    ContractViolationError,
    SpecFunDomainError,
    SpecFunOverflowError,
    UnphysicalModeError,
)
from .model import Family, PlacedParticle, Spheroid, SystemConfig, spheroid_xi0
from .specfun import (
    log_factorials,
    normalized_ferrers_table,
    oblate_radial_table,
    prolate_radial_table,
)

_SYM_TOL = 1e-9
# cells (l, point) summed over the sectors of one block of mirror tables,
# 2 MiB per float64 table stack: bounds the memory a block holds (one block
# is alive at a time) while keeping its table calls few, each of which runs
# the kernels' l loops of about l_max + 60 steps in Python.  At oblate 1.5,
# z/r_min 0.05, l_max = 90 over a perfect conductor, zero_point_energy's
# tracemalloc peak is 5.03 MiB, against 1.60 MiB at 1 << 16 cells, where
# the rung took 20 blocks instead of 5.  It also bounds the weighted Ferrers
# tables a sweep's _Workspace keeps: all of them together hold at most
# this many cells
_BLOCK_CELLS = 1 << 18


# continuation sign of each spheroidal family: w = x^2 - sigma
_SIGMA = {Family.PROLATE: 1.0, Family.OBLATE: -1.0}


def _radial_rows(sigma: float, ms: range, l_max: int, coord, where: str):
    """(ms', tables) for the longest leading part ms' of the orders ms whose
    radial tables build.  Only a failure at ms.start raises, naming where
    the tables were built, so a failing sector raises when the sector loop
    reaches it, after every check of the sectors before it, as if each
    sector built its own table."""
    # resolved through the module globals at call time, so a wrapper put
    # on either name (the benchmark trace does this) sees every call
    table = prolate_radial_table if sigma > 0 else oblate_radial_table
    try:
        return ms, table(ms, l_max, coord)
    except SpecFunOverflowError as err:
        if err.m == ms.start:
            raise SpecFunOverflowError(f"{err} (radial tables at {where})", m=err.m) from None
        ms = range(ms.start, err.m)
        return ms, table(ms, l_max, coord)


def _block_orders(start: int, stop: int, l_max: int) -> range:
    """The sectors of one block from start, below stop: as many as fit
    _BLOCK_CELLS, each charged for its mirror tables, rows
    l = start..l_max + 1 over the 2 l_max + 64 quadrature nodes.  Each
    table stack of the block (the mirror points' P and Q, the two Ferrers
    tables) then holds at most 2 MiB of float64, unless one sector alone
    is larger than the budget and makes a block of its own."""
    per_block = max(1, _BLOCK_CELLS // ((l_max + 2 - start) * (2 * l_max + 64)))
    return range(start, min(start + per_block, stop))


def _layout(ms: range, l_max: int):
    """(s, o, r, valid) of a block of the sectors ms packed sector after
    sector: sector ms[k]'s matrix, l = max(1, m)..l_max, has order s[k]
    and its entries in row-major order at o[k]:o[k+1], and a vector over
    its l lies at r[k]:r[k+1].  Over the block's l = max(1, ms.start)..l_max,
    valid[k, i] says whether the i-th l is one of sector ms[k]'s.

    Packed, as measured against the alternatives: a padded (n, R, R)
    stack of the sectors grows fig1's shared D to 1.47 MiB, past the 1 MiB
    that test_fig1_holds_under_one_mib allows; one array per sector raised
    figures' peak RSS from 84.59 to 84.80 MiB (medians of 6 alternating
    pairs); and assembling H sector by sector took 1.5-2x as long per rung
    at l_max <= 30."""
    s = l_max + 1 - np.maximum(np.arange(ms.start, ms.stop), 1)
    valid = np.arange(s[0]) >= (s[0] - s)[:, None]
    return s, np.cumsum([0, *s * s]), np.cumsum([0, *s]), valid


@lru_cache(maxsize=None)
def _quad_nodes(n_quad: int):
    """Read-only Gauss-Legendre nodes and weights of degree n_quad."""
    eta, gw = leggauss(n_quad)
    eta.flags.writeable = gw.flags.writeable = False
    return eta, gw


def _read_only(*tables):
    for table in tables:
        table.flags.writeable = False
    return tables


@dataclass
class _Workspace:
    """What outlives a block, for as long as the sweep, ladder or call that
    made the workspace holds it.

    held: (spheroid, l_max, ms, tables) of the surface block built last,
    which _surface_block alone reads.  Rows l <= L of the surface tables
    built at l_max >= L are those built at L, so the block of a ladder's
    largest rung so far (0.92 MiB at l_cap = 200) serves every rung below
    it, and the rungs of the later gaps of its spheroid.

    D: {particle: {(m, l_max): (ms, D)}}, every coupling block built for a
    listed particle, under its first sector m.  D does not depend on the
    substrate, and every config of a particle asks for the same block
    starts: a geometry failure cuts a block alike for every substrate, and
    an UnphysicalModeError only ends one config's run of blocks early.

    weighted: {(ms, l_max): Pbar(eta) gw}, which depends on neither the
    particle nor the gap, each kept, read-only, while they together hold
    at most _BLOCK_CELLS cells (rungs 5-25, 1.3 MiB, on the figure grids);
    None keeps none."""

    held: tuple | None = None
    D: dict = field(default_factory=dict)
    weighted: dict | None = None


def _surface_tables(spheroid: Spheroid, l_max: int, start: int):
    """(ms, tables): read-only n_iso, signed weight amplitudes
    w = sign(c) sqrt|c| of the normalization weights c and nP at the
    surface xi0 of a spheroid, l = 0..l_max, for the sectors ms from start
    up to l_max, from one one-point radial call of P and Q; _surface_block
    holds them.  dnP/dxi, read here alone, follows from nP as in the
    kernel's Wronskian anchor, w0 nP'_l = l x0 nP_l - sigma s_l nP_{l-1}
    with w0 = x0^2 - sigma and s_l = sqrt(l^2 - m^2), which is
    m x0 nP_m / w0 at l = m.  A sphere's one table is n_iso = l / (2l + 1)."""
    if spheroid.family is Family.SPHERE:
        l = np.arange(l_max + 1.0)
        orders = np.arange(start, l_max + 1)[:, None]
        n_iso = np.where(l >= np.maximum(orders, 1), l / (2.0 * l + 1.0), 0.0)
        return range(start, l_max + 1), _read_only(n_iso)
    sigma = _SIGMA[spheroid.family]
    x0 = spheroid_xi0(spheroid)
    ms, rows = _radial_rows(
        sigma, range(start, l_max + 1), l_max, np.array([x0]), f"the surface xi0 = {x0!r}"
    )
    # rows l = start..l_max, put in tables of every l: rows l < m are zero
    nP, nQ = (np.zeros((len(ms), l_max + 1)) for _ in rows)
    nP[:, start:], nQ[:, start:] = (t[..., 0] for t in rows)
    l = np.arange(l_max + 1)
    m = np.array(ms)[:, None]
    w0 = x0 * x0 - sigma
    T = np.where(m % 2, 1.0, -1.0) / w0  # Wronskian constant
    # a non-finite n_iso or D fails the check of H or of D
    with np.errstate(over="ignore"):
        ndP = l * x0 * nP
        # sigma s_l nP_{l-1}, s_l = sqrt(l^2 - m^2); 0 at l <= m
        ndP[:, 1:] -= sigma * np.sqrt(np.maximum(l[1:] ** 2 - m * m, 0)) * nP[:, :-1]
        ndP /= w0
        n_iso = -ndP * nQ / T
        c = -nP * ndP / T
        w = np.sign(c) * np.sqrt(np.abs(c))
        # where c or the product under it is below the smallest normal
        # double (nP tiny at high m near xi0 = 1), c has lost its digits or
        # underflowed to 0: take the amplitude from the factors instead
        lost = ~(np.minimum(np.abs(nP * ndP), np.abs(c)) >= np.finfo(float).tiny)
        amp = np.sqrt(np.abs(nP)) * np.sqrt(np.abs(ndP / T))
        w[lost] = (-np.sign(nP) * np.sign(ndP) * np.sign(T) * amp)[lost]
    n_iso[l < m] = 0.0
    return ms, _read_only(n_iso, w, nP)


def _surface_block(workspace: _Workspace, spheroid: Spheroid, ms: range, l_max: int):
    """(ms', rows): the leading part ms' of the sectors ms that the surface
    block serves, and its tables (n_iso, w, nP0), or a sphere's (n_iso,),
    at rows ms' and columns l = max(1, ms.start)..l_max; read from the held
    block if it holds rung l_max and sector ms.start, else from a new block
    of this rung from ms.start, held in the workspace once built."""
    held = workspace.held
    if held is not None and held[0] != spheroid:
        held = workspace.held = None  # dropped before the new spheroid's block is built
    if held is None or held[1] < l_max or ms.start not in held[2]:
        held = workspace.held = (spheroid, l_max, *_surface_tables(spheroid, l_max, ms.start))
    served, tables = held[2:]
    i = ms.start - served.start
    ms = range(ms.start, min(ms.stop, served.stop))
    return ms, tuple(t[i : i + len(ms), max(1, ms.start) : l_max + 1] for t in tables)


def _check_sector(m: int, l_max: int) -> None:
    if not 0 <= m <= l_max or l_max < 1:
        raise SpecFunDomainError(
            f"need 0 <= m <= l_max and l_max >= 1, got m={m}, l_max={l_max}"
        )


def isolated_depolarization_table(spheroid: Spheroid, m: int, l_max: int) -> np.ndarray:
    """Read-only n_lm(infinity) for l = max(1, m)..l_max, the rows of
    sector m's D and H."""
    _check_sector(m, l_max)
    _, (n_iso, *_) = _surface_block(_Workspace(), spheroid, range(m, m + 1), l_max)
    return n_iso[0]


def isolated_depolarization(spheroid: Spheroid, l: int, m: int) -> float:
    """Depolarization factor of the isolated particle for multipole (l, m)."""
    return float(isolated_depolarization_table(spheroid, m, l)[l - max(1, m)])


def _sphere_coupling(a: float, d: float, m: int, l_max: int) -> np.ndarray:
    """Closed-form image coupling for a sphere of radius a at center height d.

    D_ls = sqrt(l s / ((2l+1)(2s+1))) (l+s)! /
           sqrt((l+m)!(l-m)!(s+m)!(s-m)!) * (a/(2d))^{l+s+1}

    normalized so the l=s=1 elements give the image-dipole factors
    2/3 (m=0) and 1/3 (m=1).  The positive-sign convention differs from
    the alternating-signs translation matrix only by a diag(+-1)
    similarity, which leaves all observables unchanged.
    """
    ls = np.arange(max(1, m), l_max + 1)
    log_ratio = math.log(a / (2.0 * d))
    lf = log_factorials(2 * l_max + 1)
    half = np.array(
        [0.5 * (math.log(l / (2.0 * l + 1.0)) - lf[l + m] - lf[l - m]) for l in ls]
    )
    lps = ls[:, None] + ls[None, :]  # l + s
    exponent = half[:, None] + half[None, :] + lf[lps] + (lps + 1) * log_ratio
    # math.exp per entry: np.exp differs from it in the last bit
    return np.fromiter(
        map(math.exp, exponent.ravel().tolist()), float, exponent.size
    ).reshape(exponent.shape)


def _sphere_block(workspace, particle: PlacedParticle, ms: range, l_max: int, surface):
    """(ms, D) of the sectors ms for a sphere: D is read-only and packed
    as _layout lays it out.  The workspace and surface rows are not read."""
    o = _layout(ms, l_max)[1]
    D = np.empty(o[-1])
    for k, m in enumerate(ms):
        D[o[k] : o[k + 1]] = _sphere_coupling(
            particle.spheroid.r_major, particle.center_height, m, l_max
        ).ravel()
    return ms, *_read_only(D)


def _invert(rho, z, F, sigma):
    """(xi, eta) from cylindrical (rho, z): prolate (sigma = +1) with
    semi-focal distance F, oblate (sigma = -1) with focal-ring radius F."""
    rr = (rho * rho + z * z) / (F * F)
    S = rr + sigma
    disc = np.sqrt(np.maximum(S * S - 4.0 * sigma * (z / F) ** 2, 0.0))
    xi = np.sqrt(np.maximum(0.5 * (S + disc), 0.0))
    eta = np.where(xi > 0.0, z / (F * xi), 0.0)
    return xi, np.clip(eta, -1.0, 1.0)


def _mirror_tables(workspace: _Workspace, particle: PlacedParticle, l_max: int, ms: range):
    """What _spheroid_coupling needs of the sectors ms, or of their longest
    leading part whose tables build: the reflected harmonics
    psi = nQ(xi_m) Pbar(eta_m) at the mirror points (xi_m, eta_m) of the
    Gauss nodes eta, which do not depend on m, and the Gauss-weighted
    Ferrers table Pbar(eta) gw at the nodes, each a stack of the rows
    l = max(1, ms.start)..l_max of every sector."""
    sph = particle.spheroid
    sigma = _SIGMA[sph.family]
    F = sph.focal_scale
    x0 = spheroid_xi0(sph)
    eta, gw = _quad_nodes(2 * l_max + 64)
    z_s = F * x0 * eta
    rho = F * np.sqrt(np.maximum((x0 * x0 - sigma) * (1.0 - eta * eta), 0.0))
    # mirror of the surface point through the substrate plane, in the
    # particle-centered frame: z -> -(2d) - z
    z_m = -2.0 * particle.center_height - z_s
    xi_m, eta_m = _invert(rho, z_m, F, sigma)

    ms, (unread_P, nQ_m) = _radial_rows(sigma, ms, l_max, xi_m, "the mirror points")
    del unread_P  # freed before the Ferrers tables: only Q is read here
    psi = normalized_ferrers_table(ms, l_max, eta_m)
    psi *= nQ_m
    del nQ_m  # free the Q tables before the next Ferrers table is built
    weighted = _weighted_ferrers(workspace, ms, l_max, eta, gw)
    skip = max(1, ms.start) - ms.start  # row l = 0, which no sector reads
    return ms, psi[:, skip:], weighted[:, skip:]


def _weighted_ferrers(workspace: _Workspace, ms: range, l_max: int, eta, gw):
    """Pbar(eta) gw of the sectors ms at rung l_max: the one the workspace
    keeps, or a new build, kept if it fits the workspace's budget."""
    kept = workspace.weighted
    if kept is not None and (ms, l_max) in kept:
        return kept[ms, l_max]
    weighted = normalized_ferrers_table(ms, l_max, eta)
    weighted *= gw
    if kept is not None and weighted.size + sum(t.size for t in kept.values()) <= _BLOCK_CELLS:
        kept[ms, l_max] = _read_only(weighted)[0]
    return weighted


def _passing(ms: range, failed: np.ndarray, message: str) -> range:
    """The sectors of ms before the first that failed a check; if that is
    ms.start, ContractViolationError(message) instead."""
    n = int(np.argmax(failed)) if failed.any() else len(ms)
    if n == 0:
        raise ContractViolationError(message)
    return ms[:n]


def _spheroid_coupling(workspace, particle: PlacedParticle, ms: range, l_max: int, surface):
    """(ms', D) of the sectors ms by direct mirror projection, packed as by
    _sphere_block, from the surface rows (n_iso, w, nP0) that
    _surface_block gives for ms.  ms' is the leading part of ms that ends
    before the first sector that fails, in the order each sector meets
    them, the sign of its weights, its mirror tables or the symmetry of its
    D; a failure of sector ms.start raises here."""
    _, w, nP0 = surface
    s, _, _, valid = _layout(ms, l_max)
    R = s[0]  # the block is built as a stack whose D[k, a:, a:],
    # a = R - s[k], is sector ms[k]'s matrix
    sign = np.where(np.arange(ms.start, ms.stop) % 2, -1.0, 1.0)
    ms = _passing(
        ms,
        (valid & (sign[:, None] * w <= 0.0)).any(axis=1),
        "unexpected sign pattern in spheroidal normalization weights",
    )
    ms, psi, weighted = _mirror_tables(workspace, particle, l_max, ms)
    n = len(ms)
    D = np.zeros((n, R, R))
    for k in range(n):
        a = R - s[k]
        # proj[n, s] = int Pbar_n psi_s d(eta), at the sector's own shape
        np.matmul(weighted[k, a:], psi[k, a:].T, out=D[k, a:, a:])
    del psi, weighted
    valid, sign, w = valid[:n], sign[:n], w[:n]
    sym = np.empty_like(D)
    # entries outside a sector's matrix stay 0, so a max over D[k] is one
    # over the matrix; the sectors after a failing one are not read
    with np.errstate(all="ignore"):
        D /= np.where(valid, nP0[:n], 1.0)[:, :, None]  # K = proj / nP0
        w_amp = np.where(valid, np.abs(w), 0.0)
        D *= w_amp[:, :, None]  # D = sign (w_amp K w_amp)
        D *= w_amp[:, None, :]
        D *= sign[:, None, None]
        np.subtract(D, D.transpose(0, 2, 1), out=sym)
        np.abs(sym, out=sym)
        asym = sym.max(axis=(1, 2))
        np.abs(D, out=sym)
        asym /= np.maximum(sym.max(axis=(1, 2)), 1e-300)
        np.add(D, D.transpose(0, 2, 1), out=sym)
        sym *= 0.5
    del D
    ms = _passing(  # NaN, from a non-finite D, fails too
        ms,
        ~(asym <= 1e-6),
        f"spheroid coupling matrix not finite or asymmetric beyond tolerance: {asym[0]:.2e}",
    )
    valid = valid[: len(ms)]
    return ms, *_read_only(sym[: len(ms)][valid[:, :, None] & valid[:, None, :]])


def _coupling(workspace: _Workspace, particle: PlacedParticle, ms: range, l_max: int, surface):
    """(ms', D) of a coupling block that starts at sector ms.start: the
    one the workspace keeps, or a new build from the sectors' surface rows."""
    kept = workspace.D.get(particle, {})  # a throwaway unless the particle is listed
    if (ms.start, l_max) not in kept:
        build = _sphere_block if particle.spheroid.family is Family.SPHERE else _spheroid_coupling
        kept[ms.start, l_max] = build(workspace, particle, ms, l_max, surface)
    return kept[ms.start, l_max]


def coupling_matrix_D(particle: PlacedParticle, m: int, l_max: int) -> np.ndarray:
    """Read-only substrate-induced multipolar coupling matrix (f_c not
    included).

    Indexed by l = max(1, m)..l_max.  Every entry decays like
    (scale/2d)^{l+s+1} as the center height d grows.  A spheroid's D is
    built anew for sector m alone at each call, mirror tables included.

    Not exported from the package: no package code calls it.  It stays
    for the tests that read one sector's D, and because the benchmark's
    trace map wraps it by name.
    """
    _check_sector(m, l_max)
    workspace = _Workspace()
    ms, surface = _surface_block(workspace, particle.spheroid, range(m, m + 1), l_max)
    ms, D = _coupling(workspace, particle, ms, l_max, surface)
    s, o, _, _ = _layout(ms, l_max)
    return D[: o[1]].reshape(s[0], s[0])


def _sectors(workspace: _Workspace, config: SystemConfig, m: int, stop: int):
    """(m, isolated, H) of the sectors m..stop-1 in turn: its ascending
    n_iso and H = diag(n_iso) + f_c D, built for a block of sectors at a
    time, the blocks sized here alone.  A failing sector raises in its
    turn, when the sectors before it have been read."""
    particle, l_max, f_c = config.particle, config.l_max, config.f_c
    while m < stop:
        # the block's surface rows, read once: a failing n_iso raises
        # here, before its D
        orders = _block_orders(m, stop, l_max)
        ms, surface = _surface_block(workspace, particle.spheroid, orders, l_max)
        ms, D = _coupling(workspace, particle, ms, l_max, surface) if f_c != 0.0 else (ms, None)
        n_iso = surface[0][: len(ms)]
        s, o, r, valid = _layout(ms, l_max)
        # the rows outside a sector sort in front of its n_iso
        isolated = np.where(valid, n_iso, -np.inf)
        isolated.sort(axis=1)
        isolated, n_iso = isolated[valid], n_iso[valid]
        # entry j of a vector over l lies on the diagonal of H at
        # o[k] + (j - r[k]) (s[k] + 1)
        step = np.repeat(s + 1, s)
        diagonal = np.repeat(o[:-1] - r[:-1] * (s + 1), s) + np.arange(r[-1]) * step
        # diag(n_iso) + f_c D, built in place: 0 + f_c D off the diagonal
        # turns -0.0 into 0.0, and on it f_c D + 0.0 + n_iso is
        # n_iso + f_c D (with no D, 0.0 + n_iso is n_iso: no n_iso is -0.0)
        H = np.zeros(o[-1]) if D is None else D * f_c
        H += 0.0
        H[diagonal] += n_iso
        for k in range(len(ms)):
            yield ms[k], isolated[r[k] : r[k + 1]], H[o[k] : o[k + 1]].reshape(s[k], s[k])
        m = ms.stop
        del D, H  # freed before the next block is built


@dataclass(frozen=True)
class SectorModes:
    """The modes of one azimuthal sector, all that the zero-point energy
    reads."""

    m: int
    isolated: np.ndarray  # ascending n_iso, the modes at infinite gap
    eigenvalues: np.ndarray  # ascending

    @property
    def multiplicity(self) -> int:
        return 1 if self.m == 0 else 2


@dataclass(frozen=True)
class SpectralBlock(SectorModes):
    """Eigendecomposition of one azimuthal sector's coupling matrix; the
    mode strengths are derived from the eigenvectors where they are read."""

    H: np.ndarray
    eigenvectors: np.ndarray  # columns are modes

    @property
    def strengths(self) -> np.ndarray:
        """C[l_index, mode] = U[l_index, mode]^2; each column sums to 1."""
        return self.eigenvectors**2


def eigendecompose(H: np.ndarray):
    """(eigenvalues, eigenvectors) of a real symmetric matrix: eigenvalues
    ascending, eigenvectors orthonormal, one per column."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ContractViolationError("H must be a square matrix")
    scale = np.abs(H).max()
    # NaN fails both comparisons, an inf entry the first
    if not (scale < math.inf and np.abs(H - H.T).max() <= _SYM_TOL * max(scale, 1e-300)):
        raise ContractViolationError("H is not finite and symmetric within tolerance")
    # LAPACK's dsyevr with the arguments and workspace scipy.linalg.eigh
    # gives it, without eigh's per-call argument handling; it reads the
    # lower triangle only, and every H built here is exactly symmetric
    lwork, liwork = _syevr_workspace(len(H))
    vals, vecs, _, _, info = dsyevr(H, compute_v=1, lower=1, lwork=lwork, liwork=liwork)
    if info != 0:
        raise ContractViolationError(f"LAPACK dsyevr failed with info = {info}")
    return vals, vecs


@lru_cache(maxsize=None)
def _syevr_workspace(n: int) -> tuple:
    """(lwork, liwork) that dsyevr asks for at order n, as eigh queries them."""
    work, iwork, info = dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ContractViolationError(f"LAPACK dsyevr_lwork failed with info = {info}")
    return int(work), int(iwork)


def spectral_block(config: SystemConfig, m: int) -> SpectralBlock:
    """Eigendecomposition of H = diag(n_iso) + f_c D for azimuthal sector m.

    H depends only on geometry and the substrate/ambient contrast, never on
    the particle's dielectric function.  Each call builds sector m's D
    anew, with its own mirror tables: looping this over m = 0..l_max builds
    l_max + 1 one-sector blocks where mode_spectrum builds a few blocks of
    many sectors, so read whole spectra from mode_spectrum.
    """
    _check_sector(m, config.l_max)
    ((_, isolated, H),) = _sectors(_Workspace(), config, m, m + 1)
    H = H.copy()
    vals, vecs = eigendecompose(H)
    return SpectralBlock(m=m, H=H, isolated=isolated, eigenvalues=vals, eigenvectors=vecs)


def mode_spectrum(config: SystemConfig, *, workspace: _Workspace | None = None) -> tuple:
    """The SectorModes of every sector m = 0..l_max, in order of m.

    Each sector's eigenvectors are dropped as soon as they are computed: at
    l_max = 90 every sector's H and vectors would hold about 4 MiB until
    the last sector is solved."""
    sectors = []
    for m, isolated, H in _sectors(workspace or _Workspace(), config, 0, config.l_max + 1):
        vals = eigendecompose(H)[0]
        del H  # the last view of a block's H: freed before the next block
        lo = float(vals[0])
        hi = float(vals[-1])
        if lo <= 0.0 or hi >= 1.0:
            raise UnphysicalModeError(
                f"eigenvalue outside (0,1) in sector m={m}: "
                f"min={lo:.6g}, max={hi:.6g}; increase l_max or the gap"
            )
        sectors.append(SectorModes(m, isolated, vals))
    return tuple(sectors)
