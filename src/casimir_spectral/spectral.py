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

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from .errors import (
    ContactError,
    ContractViolationError,
    PoleError,
    SpecFunDomainError,
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
    log_factorial,
    normalized_ferrers_table,
    oblate_radial_table,
    prolate_radial_table,
)

_SYM_TOL = 1e-9


# continuation sign of each spheroidal family: w = x^2 - sigma
_SIGMA = {Family.PROLATE: 1.0, Family.OBLATE: -1.0}


def _radial_table(sigma: float, m: int, l_max: int, coord):
    # resolved through the module globals at call time, so a wrapper put
    # on either name (the benchmark trace does this) sees every call
    table = prolate_radial_table if sigma > 0 else oblate_radial_table
    return table(m, l_max, coord)


def _wronskian_const(sigma: float, m: int, coord0: float) -> float:
    return -((-1.0) ** m) / (coord0 * coord0 - sigma)


def isolated_depolarization_table(spheroid: Spheroid, m: int, l_max: int) -> np.ndarray:
    """n_lm(infinity) for l = m..l_max (entries below l=m are zero)."""
    if spheroid.family is Family.SPHERE:
        l = np.arange(l_max + 1, dtype=float)
        out = np.where(l >= 1, l / (2.0 * l + 1.0), 0.0)
        out[:m] = 0.0
        return out
    sigma = _SIGMA[spheroid.family]
    x0 = spheroid_xi0(spheroid)
    nP, ndP, nQ, ndQ = _radial_table(sigma, m, l_max, np.array([x0]))
    T = _wronskian_const(sigma, m, x0)
    out = -ndP[:, 0] * nQ[:, 0] / T
    out[:m] = 0.0
    return out


def isolated_depolarization(spheroid: Spheroid, l: int, m: int) -> float:
    """Depolarization factor of the isolated particle for multipole (l, m)."""
    if l < 1 or m < 0 or m > l:
        raise SpecFunDomainError(f"need 1 <= l and 0 <= m <= l, got l={l}, m={m}")
    if spheroid.family is Family.SPHERE:
        return l / (2.0 * l + 1.0)
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
    n = ls.size
    log_ratio = math.log(a / (2.0 * d))
    half = np.array(
        [0.5 * (math.log(l / (2.0 * l + 1.0)) - log_factorial(l + m) - log_factorial(l - m))
         for l in ls]
    )
    D = np.empty((n, n))
    for i, l in enumerate(ls):
        for j, s in enumerate(ls[: i + 1]):
            val = math.exp(
                half[i] + half[j] + log_factorial(l + s) + (l + s + 1) * log_ratio
            )
            D[i, j] = D[j, i] = val
    return D


def _invert(rho, z, F, sigma):
    """(xi, eta) from cylindrical (rho, z): prolate (sigma = +1) with
    semi-focal distance F, oblate (sigma = -1) with focal-ring radius F."""
    rr = (rho * rho + z * z) / (F * F)
    S = rr + sigma
    disc = np.sqrt(np.maximum(S * S - 4.0 * sigma * (z / F) ** 2, 0.0))
    xi = np.sqrt(np.maximum(0.5 * (S + disc), 0.0))
    eta = np.where(xi > 0.0, z / (F * xi), 0.0)
    return xi, np.clip(eta, -1.0, 1.0)


def _spheroid_coupling(particle: PlacedParticle, m: int, l_max: int) -> np.ndarray:
    """Image coupling matrix for a spheroid by direct mirror projection."""
    sph = particle.spheroid
    sigma = _SIGMA[sph.family]
    F = sph.focal_scale
    x0 = spheroid_xi0(sph)
    d = particle.center_height
    l_min = max(1, m)

    nP0, ndP0, nQ0, ndQ0 = _radial_table(sigma, m, l_max, np.array([x0]))
    T = _wronskian_const(sigma, m, x0)
    c = -nP0[:, 0] * ndP0[:, 0] / T  # signed normalization weights
    c_block = c[l_min:]
    sign = -1.0 if m % 2 else 1.0
    if np.any(sign * c_block <= 0.0):
        raise ContractViolationError(
            "unexpected sign pattern in spheroidal normalization weights"
        )
    w_amp = np.sqrt(np.abs(c_block))

    # quadrature on the particle surface, eta in [-1, 1]
    n_quad = 2 * l_max + 64
    eta, gw = leggauss(n_quad)
    z_s = F * x0 * eta
    rho = F * np.sqrt(np.maximum((x0 * x0 - sigma) * (1.0 - eta * eta), 0.0))

    # mirror of the surface point through the substrate plane, in the
    # particle-centered frame: z -> -(2d) - z
    z_m = -2.0 * d - z_s
    xi_m, eta_m = _invert(rho, z_m, F, sigma)

    _, _, nQ_m, _ = _radial_table(sigma, m, l_max, xi_m)
    Pbar_m = normalized_ferrers_table(m, l_max, eta_m)
    psi = nQ_m[l_min:] * Pbar_m[l_min:]  # (n_l, n_quad): reflected harmonics

    Pbar_s = normalized_ferrers_table(m, l_max, eta)[l_min:]
    proj = (Pbar_s * gw) @ psi.T  # proj[n, s] = int Pbar_n psi_s d(eta)
    K = proj / nP0[l_min:, 0][:, None]

    D = sign * (w_amp[:, None] * K * w_amp[None, :])
    asym = np.max(np.abs(D - D.T)) / max(np.max(np.abs(D)), 1e-300)
    if asym > 1e-6:
        raise ContractViolationError(
            f"spheroid coupling matrix asymmetric beyond tolerance: {asym:.2e}"
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
    l_max: int
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
    if np.max(np.abs(H - H.T)) > _SYM_TOL * scale:
        raise ContractViolationError("H is not symmetric within tolerance")
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
        l_max=config.l_max,
        H=H,
        isolated=np.sort(n_iso),
        eigenvalues=vals,
        eigenvectors=vecs,
        strengths=C,
    )


@dataclass(frozen=True)
class ModeSpectrum:
    """Coupled and isolated eigenvalue sets across all azimuthal sectors."""

    blocks: tuple

    def mode_sum(self, func) -> float:
        """Sum multiplicity * sum_s [func(n_z) - func(n_inf)] over sectors,
        pairing modes by sorted index within each sector."""
        total = 0.0
        for block in self.blocks:
            total += block.multiplicity * float(
                np.sum(func(block.eigenvalues) - func(block.isolated))
            )
        return total


def mode_spectrum(config: SystemConfig) -> ModeSpectrum:
    blocks = []
    for m in range(0, config.m_max + 1):
        block = spectral_block(config, m)
        lo = float(block.eigenvalues[0])
        hi = float(block.eigenvalues[-1])
        if lo <= 0.0 or hi >= 1.0:
            raise UnphysicalModeError(
                f"eigenvalue outside (0,1) in sector m={m}: "
                f"min={lo:.6g}, max={hi:.6g}; increase l_max or the gap"
            )
        blocks.append(block)
    return ModeSpectrum(blocks=tuple(blocks))


def mode_frequencies(block: SpectralBlock, omega_p: float) -> np.ndarray:
    """omega_s = omega_p sqrt(n_s), ascending."""
    n = block.eigenvalues
    if np.any(n <= 0.0) or np.any(n >= 1.0):
        raise UnphysicalModeError(
            f"eigenvalues outside (0,1) in sector m={block.m}: cannot form "
            "mode frequencies"
        )
    return omega_p * np.sqrt(n)


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
