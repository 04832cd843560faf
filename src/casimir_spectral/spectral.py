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
from scipy.linalg import eigh
from scipy.special import gammaln

from .errors import (
    ContactError,
    ContractViolationError,
    PoleError,
    SpecFunDomainError,
    SpecFunOverflowError,
    UnphysicalModeError,
)
from .model import (
    Family,
    MediumKind,
    PlacedParticle,
    Spheroid,
    SystemConfig,
    spectral_u,
    spheroid_xi0,
)
from .specfun import (
    normalized_ferrers_table,
    oblate_radial_table,
    prolate_radial_table,
)

_SYM_TOL = 1e-9
# cells (l, point) summed over the sectors of one block of mirror tables:
# bounds the memory a block holds while keeping its l loops few
_BLOCK_CELLS = 1 << 15


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


def _block_row(build, key, start: int, m: int):
    """Sector m's tables from the cached block build(*key, start), or from a
    block built from m when that block stopped at a failing sector below m."""
    ms, tables = build(*key, start)
    if m not in ms:
        ms, tables = build(*key, m)
    return tuple(t[m - ms.start] for t in tables)


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


@lru_cache(maxsize=1)
def _surface_block(spheroid: Spheroid, l_max: int, start: int):
    """Read-only n_iso, signed normalization weights c and nP at the
    surface xi0 of a spheroid, l = 0..l_max, for the sectors from start
    (0 unless a sector below failed) up to l_max, from one one-point radial
    call; they serve both isolated_depolarization_table and
    _spheroid_coupling."""
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
    n_iso[np.arange(l_max + 1) < np.array(ms)[:, None]] = 0.0  # l < m
    return ms, _read_only(n_iso, c, nP)


def _surface_table(spheroid: Spheroid, m: int, l_max: int):
    """n_iso, c and nP0 of sector m, from the rung's surface block."""
    return _block_row(_surface_block, (spheroid, l_max), 0, m)


def isolated_depolarization_table(spheroid: Spheroid, m: int, l_max: int) -> np.ndarray:
    """n_lm(infinity) for l = m..l_max (entries below l=m are zero).
    A spheroid's table is read-only."""
    if spheroid.family is Family.SPHERE:
        l = np.arange(l_max + 1, dtype=float)
        out = np.where(l >= 1, l / (2.0 * l + 1.0), 0.0)
        out[:m] = 0.0
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
    lf = gammaln(np.arange(2 * l_max + 2) + 1.0)  # lf[n] = log_factorial(n)
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


def _block_size(l_max: int) -> int:
    """Sectors per mirror block; a sector's tables have up to l_max + 2
    rows over the 2 l_max + 64 Gauss nodes."""
    return max(1, _BLOCK_CELLS // ((l_max + 2) * (2 * l_max + 64)))


@lru_cache(maxsize=1)
def _mirror_block(particle: PlacedParticle, l_max: int, start: int):
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

    stop = min(start + _block_size(l_max), l_max + 1)
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
    _, c, nP0 = _surface_table(particle.spheroid, m, l_max)
    c_block = c[l_min:]
    sign = -1.0 if m % 2 else 1.0
    if np.any(sign * c_block <= 0.0):
        raise ContractViolationError(
            "unexpected sign pattern in spheroidal normalization weights"
        )
    w_amp = np.sqrt(np.abs(c_block))

    start = m - m % _block_size(l_max)
    psi, weighted = _block_row(_mirror_block, (particle, l_max), start, m)
    # proj[n, s] = int Pbar_n psi_s d(eta)
    proj = weighted[l_min:] @ psi[l_min:].T
    K = proj / nP0[l_min:, None]

    with np.errstate(over="ignore", invalid="ignore"):
        D = sign * (w_amp[:, None] * K * w_amp[None, :])
        asym = np.max(np.abs(D - D.T)) / max(np.max(np.abs(D)), 1e-300)
    if not asym <= 1e-6:  # NaN, from a non-finite D, fails too
        raise ContractViolationError(
            f"spheroid coupling matrix not finite or asymmetric beyond tolerance: {asym:.2e}"
        )
    return 0.5 * (D + D.T)


def coupling_matrix_D(particle: PlacedParticle, m: int, l_max: int) -> np.ndarray:
    """Substrate-induced multipolar coupling matrix (f_c not included).

    Indexed by l = max(1, m)..l_max.  Every entry decays like
    (scale/2d)^{l+s+1} as the center height d grows.
    """
    if particle.gap <= 0.0:
        raise ContactError("gap must be positive")
    if m < 0:
        raise SpecFunDomainError("m must be >= 0")
    if l_max < max(1, m):
        raise SpecFunDomainError(
            f"l_max={l_max} too small to represent azimuthal number m={m}"
        )
    if particle.spheroid.family is Family.SPHERE:
        return _sphere_coupling(
            particle.spheroid.r_major, particle.center_height, m, l_max
        )
    return _spheroid_coupling(particle, m, l_max)


@dataclass(frozen=True)
class SpectralBlock:
    """Eigendecomposition of one azimuthal sector's coupling matrix."""

    m: int
    l_min: int
    H: np.ndarray
    isolated: np.ndarray  # ascending n_iso, the modes at infinite gap
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # columns are modes
    strengths: np.ndarray  # C[l_index, mode] = U[l_index, mode]^2

    @property
    def multiplicity(self) -> int:
        return 1 if self.m == 0 else 2


def eigendecompose(H: np.ndarray):
    """Eigenvalues (ascending), orthogonal eigenvectors, and strengths of a
    real symmetric matrix."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ContractViolationError("H must be a square matrix")
    scale = max(np.max(np.abs(H)), 1e-300)
    if not np.max(np.abs(H - H.T)) <= _SYM_TOL * scale:  # NaN fails too
        raise ContractViolationError("H is not finite and symmetric within tolerance")
    vals, vecs = eigh(0.5 * (H + H.T))
    return vals, vecs, vecs**2


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
    vals, vecs, C = eigendecompose(H)
    return SpectralBlock(
        m=m,
        l_min=l_min,
        H=H,
        isolated=np.sort(n_iso),
        eigenvalues=vals,
        eigenvectors=vecs,
        strengths=C,
    )


def mode_spectrum(config: SystemConfig) -> tuple:
    """The SpectralBlock of every sector m = 0..l_max, in order of m."""
    blocks = []
    for m in range(config.l_max + 1):
        block = spectral_block(config, m)
        lo = float(block.eigenvalues[0])
        hi = float(block.eigenvalues[-1])
        if lo <= 0.0 or hi >= 1.0:
            raise UnphysicalModeError(
                f"eigenvalue outside (0,1) in sector m={m}: "
                f"min={lo:.6g}, max={hi:.6g}; increase l_max or the gap"
            )
        blocks.append(block)
    return tuple(blocks)


def effective_polarizability(config: SystemConfig, omega: float, l: int, m: int) -> float:
    """alpha_eff^{lm}(omega) = -(v/4pi) sum_s C_s^{lm} / (u(omega) - n_s)."""
    if l < max(1, m) or l > config.l_max:
        raise SpecFunDomainError(f"l={l} outside block range for m={m}")
    pm = config.particle_medium
    if pm.kind is MediumKind.DRUDE:
        u = (omega / pm.omega_p) ** 2
    else:
        u = spectral_u(pm.epsilon_at(omega), config.ambient_epsilon)
    block = spectral_block(config, m)
    n_s = block.eigenvalues
    idx = np.argmin(np.abs(u - n_s))
    if u == n_s[idx]:
        raise PoleError(
            f"u={u} sits exactly on mode {idx} of sector m={m}", mode_index=int(idx)
        )
    C = block.strengths[l - block.l_min]
    v = config.particle.spheroid.volume
    return float(-(v / (4.0 * math.pi)) * np.sum(C / (u - n_s)))
