"""Spectral core: per-azimuthal-sector coupling matrices, their
eigendecomposition, mode frequencies, and the effective polarizability.

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

Basis amplitudes are normalized so that H is symmetric; observables
(eigenvalues, strengths, energies) are invariant under that gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

from .errors import (
    ContractViolationError,
    PoleError,
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
# cells (l, point) summed over the sectors of one block of mirror tables:
# bounds the memory a block holds while keeping its l loops few (one block
# is held at a time)
_BLOCK_CELLS = 1 << 16


# continuation sign of each spheroidal family: w = x^2 - sigma
_SIGMA = {Family.PROLATE: 1.0, Family.OBLATE: -1.0}


def _radial_rows(sigma: float, ms: range, l_max: int, coord, derivatives: bool):
    """(ms', tables) for the longest leading part ms' of the orders ms whose
    radial tables build.  Only a failure at ms.start raises, so a failing
    sector raises when the sector loop reaches it, after every check of the
    sectors before it, as if each sector built its own table."""
    # resolved through the module globals at call time, so a wrapper put
    # on either name (the benchmark trace does this) sees every call
    table = prolate_radial_table if sigma > 0 else oblate_radial_table
    try:
        return ms, table(ms, l_max, coord, derivatives=derivatives)
    except SpecFunOverflowError as err:
        if err.m == ms.start:
            raise
        ms = range(ms.start, err.m)
        return ms, table(ms, l_max, coord, derivatives=derivatives)


@lru_cache(maxsize=1)
def _held(spheroid: Spheroid) -> dict:
    """The tables kept for the last spheroid asked for, each as (key, ms,
    tables): "surface", one surface block of rung l_max = key, and
    "mirror", one block of mirror tables.  A new spheroid's empty dict
    replaces the old one before any of its tables is built."""
    return {}


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


# A ladder climbs the rungs l_max = 5, 10, ..., l_cap, and every gap point
# of a sweep over one spheroid climbs the same rungs.  Rows l <= L of the
# surface tables built at l_max >= L are those built at L, so _held keeps
# one block, the one built last: a ladder's largest rung so far (0.92 MiB
# at l_cap = 200), whose rows every rung below it reads; another
# spheroid's points drop the block.
def _surface_tables(spheroid: Spheroid, l_max: int, start: int):
    """Read-only n_iso, signed weight amplitudes w = sign(c) sqrt|c| of the
    normalization weights c and nP at the surface xi0 of a spheroid,
    l = 0..l_max, for the sectors from start up to l_max, from one
    one-point radial call; they serve both isolated_depolarization_table
    and _spheroid_coupling."""
    sigma = _SIGMA[spheroid.family]
    x0 = spheroid_xi0(spheroid)
    ms, (nP, ndP, nQ, _) = _radial_rows(
        sigma, range(start, l_max + 1), l_max, np.array([x0]), True
    )
    nP, ndP, nQ = nP[..., 0], ndP[..., 0], nQ[..., 0]
    signs = np.array([-((-1.0) ** m) for m in ms])
    T = (signs / (x0 * x0 - sigma))[:, None]  # Wronskian constant
    with np.errstate(over="ignore"):  # a non-finite D raises in _spheroid_coupling
        n_iso = -ndP * nQ / T
        c = -nP * ndP / T
        w = np.sign(c) * np.sqrt(np.abs(c))
        # where c or the product under it is below the smallest normal
        # double (nP tiny at high m near xi0 = 1), c has lost its digits or
        # underflowed to 0: take the amplitude from the factors instead
        lost = ~(np.minimum(np.abs(nP * ndP), np.abs(c)) >= np.finfo(float).tiny)
        amp = np.sqrt(np.abs(nP)) * np.sqrt(np.abs(ndP / T))
        w[lost] = (-np.sign(nP) * np.sign(ndP) * np.sign(T) * amp)[lost]
    n_iso[np.arange(l_max + 1) < np.array(ms)[:, None]] = 0.0  # l < m
    return ms, _read_only(n_iso, w, nP)


def _surface_table(spheroid: Spheroid, m: int, l_max: int):
    """n_iso, w and nP0 of sector m from the held surface block, or from a
    new block of this rung, held in its place once built."""
    held = _held(spheroid)
    block = held.get("surface", (-1, range(0)))
    if block[0] < l_max or m not in block[1]:
        block = held["surface"] = (l_max, *_surface_tables(spheroid, l_max, m))
    _, ms, tables = block
    return tuple(t[m - ms.start, : l_max + 1] for t in tables)


def _check_sector(m: int, l_max: int) -> None:
    if not 0 <= m <= l_max or l_max < 1:
        raise SpecFunDomainError(
            f"need 0 <= m <= l_max and l_max >= 1, got m={m}, l_max={l_max}"
        )


def isolated_depolarization_table(spheroid: Spheroid, m: int, l_max: int) -> np.ndarray:
    """Read-only n_lm(infinity) for l = m..l_max (entries below l=m are
    zero)."""
    _check_sector(m, l_max)
    if spheroid.family is Family.SPHERE:
        l = np.arange(l_max + 1, dtype=float)
        out = np.where(l >= 1, l / (2.0 * l + 1.0), 0.0)
        out[:m] = 0.0
        out.flags.writeable = False
        return out
    return _surface_table(spheroid, m, l_max)[0]


def isolated_depolarization(spheroid: Spheroid, l: int, m: int) -> float:
    """Depolarization factor of the isolated particle for multipole (l, m)."""
    if l < 1 or m < 0 or m > l:
        raise SpecFunDomainError(f"need 1 <= l and 0 <= m <= l, got l={l}, m={m}")
    return float(isolated_depolarization_table(spheroid, m, l)[l])


def _sphere_coupling(a: float, d: float, m: int, l_max: int) -> np.ndarray:
    """Closed-form image coupling for a sphere of radius a at center height d.

    D_ls = sqrt(l s / ((2l+1)(2s+1))) (l+s)! /
           sqrt((l+m)!(l-m)!(s+m)!(s-m)!) * (a/(2d))^{l+s+1}

    normalized so the l=s=1 elements give the image-dipole factors
    2/3 (m=0) and 1/3 (m=1).  The positive-sign convention differs from
    the alternating-signs translation matrix only by a diag(+-1)
    similarity, which leaves all observables unchanged.
    """
    l_min = max(1, m)
    ls = np.arange(l_min, l_max + 1)
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


def _invert(rho, z, F, sigma):
    """(xi, eta) from cylindrical (rho, z): prolate (sigma = +1) with
    semi-focal distance F, oblate (sigma = -1) with focal-ring radius F."""
    rr = (rho * rho + z * z) / (F * F)
    S = rr + sigma
    disc = np.sqrt(np.maximum(S * S - 4.0 * sigma * (z / F) ** 2, 0.0))
    xi = np.sqrt(np.maximum(0.5 * (S + disc), 0.0))
    eta = np.where(xi > 0.0, z / (F * xi), 0.0)
    return xi, np.clip(eta, -1.0, 1.0)


def _mirror_tables(particle: PlacedParticle, l_max: int, start: int):
    """What _spheroid_coupling needs of the sectors of one block from start:
    the reflected harmonics psi = nQ(xi_m) Pbar(eta_m) at the mirror points
    (xi_m, eta_m) of the Gauss nodes eta, which do not depend on m, and the
    Gauss-weighted Ferrers table Pbar(eta) gw at the nodes."""
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

    # a sector's tables have up to l_max + 2 rows over the 2 l_max + 64 nodes
    per_block = max(1, _BLOCK_CELLS // ((l_max + 2) * (2 * l_max + 64)))
    stop = min(start + per_block, l_max + 1)
    ms, (_, _, nQ_m, _) = _radial_rows(sigma, range(start, stop), l_max, xi_m, False)
    psi = normalized_ferrers_table(ms, l_max, eta_m)
    psi *= nQ_m
    del nQ_m  # free the Q tables before the next Ferrers table is built
    weighted = normalized_ferrers_table(ms, l_max, eta)
    weighted *= gw
    return ms, _read_only(psi, weighted)


def _spheroid_coupling(particle: PlacedParticle, m: int, l_max: int) -> np.ndarray:
    """Image coupling matrix for a spheroid by direct mirror projection."""
    l_min = max(1, m)
    _, w, nP0 = _surface_table(particle.spheroid, m, l_max)
    w_block = w[l_min:]
    sign = -1.0 if m % 2 else 1.0
    if np.any(sign * w_block <= 0.0):
        raise ContractViolationError(
            "unexpected sign pattern in spheroidal normalization weights"
        )
    w_amp = np.abs(w_block)

    held = _held(particle.spheroid)
    block = held.get("mirror") or (None, range(0))  # None after a failed build
    if block[0] != (particle, l_max) or m not in block[1]:
        block = held["mirror"] = None  # freed first: its 2 l_max + 64 nodes do not nest
        block = held["mirror"] = ((particle, l_max), *_mirror_tables(particle, l_max, m))
    _, ms, (psi, weighted) = block
    # proj[n, s] = int Pbar_n psi_s d(eta)
    proj = weighted[m - ms.start, l_min:] @ psi[m - ms.start, l_min:].T
    K = proj / nP0[l_min:, None]

    with np.errstate(over="ignore", invalid="ignore"):
        D = sign * (w_amp[:, None] * K * w_amp[None, :])
        asym = np.max(np.abs(D - D.T)) / max(np.max(np.abs(D)), 1e-300)
    if not asym <= 1e-6:  # NaN, from a non-finite D, fails too
        raise ContractViolationError(
            f"spheroid coupling matrix not finite or asymmetric beyond tolerance: {asym:.2e}"
        )
    return 0.5 * (D + D.T)


# D depends on the placed particle only, never on the substrate: while
# energy_sweep evaluates configs that repeat a particle, it puts an entry
# {} for the particle here, coupling_matrix_D keeps every D it builds for
# the particle in it, keyed (m, l_max), and the sweep drops the entry after
# the particle's last config and empties this on leaving.
_shared_D: dict = {}


def coupling_matrix_D(particle: PlacedParticle, m: int, l_max: int) -> np.ndarray:
    """Read-only substrate-induced multipolar coupling matrix (f_c not
    included).

    Indexed by l = max(1, m)..l_max.  Every entry decays like
    (scale/2d)^{l+s+1} as the center height d grows.
    """
    _check_sector(m, l_max)
    kept = _shared_D.get(particle) if _shared_D else None
    if kept is not None and (m, l_max) in kept:
        return kept[m, l_max]
    if particle.spheroid.family is Family.SPHERE:
        D = _sphere_coupling(particle.spheroid.r_major, particle.center_height, m, l_max)
    else:
        D = _spheroid_coupling(particle, m, l_max)
    D.flags.writeable = False
    if kept is not None:
        kept[m, l_max] = D
    return D


@dataclass(frozen=True)
class SectorModes:
    """The modes of one azimuthal sector, all that the zero-point energy
    reads."""

    m: int
    l_min: int
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
    scale = np.max(np.abs(H))
    # NaN fails both comparisons, an inf entry the first
    if not (
        scale < math.inf and np.max(np.abs(H - H.T)) <= _SYM_TOL * max(scale, 1e-300)
    ):
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
    the particle's dielectric function.
    """
    l_min = max(1, m)
    n_iso = isolated_depolarization_table(config.particle.spheroid, m, config.l_max)
    n_iso = n_iso[l_min:]
    H = np.diag(n_iso)
    f_c = config.f_c
    if f_c != 0.0:
        H = H + f_c * coupling_matrix_D(config.particle, m, config.l_max)
    vals, vecs = eigendecompose(H)
    return SpectralBlock(
        m=m,
        l_min=l_min,
        H=H,
        isolated=np.sort(n_iso),
        eigenvalues=vals,
        eigenvectors=vecs,
    )


def mode_spectrum(config: SystemConfig) -> tuple:
    """The SectorModes of every sector m = 0..l_max, in order of m.

    Each sector's H and eigenvectors are dropped once its eigenvalues pass
    the (0, 1) check: at l_max = 90 they would hold about 4 MiB until the
    last sector is solved."""
    sectors = []
    for m in range(config.l_max + 1):
        block = spectral_block(config, m)
        lo = float(block.eigenvalues[0])
        hi = float(block.eigenvalues[-1])
        if lo <= 0.0 or hi >= 1.0:
            raise UnphysicalModeError(
                f"eigenvalue outside (0,1) in sector m={m}: "
                f"min={lo:.6g}, max={hi:.6g}; increase l_max or the gap"
            )
        sectors.append(SectorModes(m, block.l_min, block.isolated, block.eigenvalues))
    return tuple(sectors)


def effective_polarizability(config: SystemConfig, omega: float, l: int, m: int) -> float:
    """alpha_eff^{lm}(omega) = -(v/4pi) sum_s C_s^{lm} / (u - n_s) of the
    Drude particle, u = omega^2 with omega in units of omega_p."""
    if l < max(1, m) or l > config.l_max:
        raise SpecFunDomainError(f"l={l} outside block range for m={m}")
    u = omega**2
    block = spectral_block(config, m)
    n_s = block.eigenvalues
    idx = np.argmin(np.abs(u - n_s))
    if u == n_s[idx]:
        raise PoleError(f"u={u} sits exactly on mode {idx} of sector m={m}")
    C = block.strengths[l - block.l_min]
    v = config.particle.spheroid.volume
    return float(-(v / (4.0 * math.pi)) * np.sum(C / (u - n_s)))
