"""Independent reference implementations used to pin normalizations and
validate the spectral core.

None of these share code paths with :mod:`casimir_spectral.spectral`:
the depolarization oracle integrates the classic ellipsoid formula, and
the boundary-integral oracle discretizes the quasi-static surface-charge
operator directly, with the substrate handled through the image Green
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eig

from .errors import MeshResolutionError, OracleError, SpecFunDomainError
from .model import Family, PlacedParticle, Spheroid


def image_dipole_modes(a: float, d: float, f_c: float) -> dict:
    """Leading-order image-dipole mode positions for a sphere of radius a
    with center height d: n_perp = (1/3)(1 + 2 f_c kappa),
    n_par = (1/3)(1 + f_c kappa), kappa = (a/(2d))^3."""
    if not d > a:
        raise SpecFunDomainError("image-dipole oracle requires d > a")
    kappa = (a / (2.0 * d)) ** 3
    return {
        "n_perp": (1.0 + 2.0 * f_c * kappa) / 3.0,
        "n_par": (1.0 + f_c * kappa) / 3.0,
    }


class Axis(str, Enum):
    SYMMETRY = "symmetry"
    TRANSVERSE = "transverse"


def depolarization_integral(spheroid: Spheroid, axis: Axis) -> float:
    """Classic l = 1 depolarization factor by adaptive quadrature:

    L_axis = (abc/2) int_0^inf ds / ((s + a_axis^2) sqrt((s+a^2)(s+b^2)(s+c^2)))
    """
    axis = Axis(axis)
    if spheroid.family is Family.OBLATE:
        ax = ay = spheroid.r_major
        az = spheroid.r_minor
    else:
        ax = ay = spheroid.r_minor
        az = spheroid.r_major
    a_axis = az if axis is Axis.SYMMETRY else ax
    abc = ax * ay * az

    def integrand(t):
        # substitution s = a_axis^2 * t / (1 - t), t in (0, 1)
        s = a_axis * a_axis * t / (1.0 - t)
        jac = a_axis * a_axis / (1.0 - t) ** 2
        root = math.sqrt((s + ax * ax) * (s + ay * ay) * (s + az * az))
        return jac / ((s + a_axis * a_axis) * root)

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    result = 0.5 * abc * val
    if err > 1e-10 * max(abs(result), 1.0):
        raise OracleError("depolarization quadrature did not converge")
    return result


@dataclass(frozen=True)
class BemMesh:
    """Axisymmetric ring discretization of a spheroid surface.

    Rings are midpoints of a uniform grid in the polar parameter; ring
    weights rho ds are integrated with Gauss-Legendre sub-sampling so the
    total area check is mesh-size independent.
    """

    rho: np.ndarray  # ring radii
    z_center: np.ndarray  # ring heights relative to the particle center
    normal_rho: np.ndarray
    normal_z: np.ndarray
    ring_weight: np.ndarray  # rho * ds per ring
    area: float
    analytic_area: float

    @property
    def n_rings(self) -> int:
        return self.rho.size


def _analytic_area(spheroid: Spheroid) -> float:
    if spheroid.family is Family.SPHERE:
        return 4.0 * math.pi * spheroid.r_major**2
    e = spheroid.eccentricity
    if spheroid.family is Family.PROLATE:
        a, b = spheroid.r_major, spheroid.r_minor
        return 2.0 * math.pi * b * b + 2.0 * math.pi * a * b * math.asin(e) / e
    a, c = spheroid.r_major, spheroid.r_minor
    return (
        2.0 * math.pi * a * a
        + math.pi * (c * c / e) * math.log((1.0 + e) / (1.0 - e))
    )


def build_mesh(spheroid: Spheroid, n_rings: int = 128) -> BemMesh:
    """Ring mesh of the spheroid surface, z measured from the center."""
    if n_rings < 8:
        raise ValueError("n_rings must be >= 8")
    r_par, r_perp = spheroid.r_par, spheroid.r_perp
    edges = np.linspace(0.0, math.pi, n_rings + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    rho = r_par * np.sin(mid)
    zc = r_perp * np.cos(mid)

    # outward normal of (rho/r_par)^2 + (z/r_perp)^2 = 1
    n_rho = rho / r_par**2
    n_z = zc / r_perp**2
    norm = np.hypot(n_rho, n_z)
    n_rho /= norm
    n_z /= norm

    # ring weight rho ds per segment by 5-point Gauss-Legendre
    gx, gw = np.polynomial.legendre.leggauss(5)
    ring_weight = np.zeros(n_rings)
    for i in range(n_rings):
        t0, t1 = edges[i], edges[i + 1]
        t = 0.5 * (t1 - t0) * gx + 0.5 * (t1 + t0)
        speed = np.hypot(r_par * np.cos(t), r_perp * np.sin(t))
        ring_weight[i] = 0.5 * (t1 - t0) * np.sum(gw * speed * r_par * np.sin(t))
    area = 2.0 * math.pi * float(np.sum(ring_weight))
    analytic = _analytic_area(spheroid)
    if abs(area - analytic) > 5e-3 * analytic:
        raise MeshResolutionError("mesh area deviates from analytic spheroid area")
    return BemMesh(
        rho=rho,
        z_center=zc,
        normal_rho=n_rho,
        normal_z=n_z,
        ring_weight=ring_weight,
        area=area,
        analytic_area=analytic,
    )


# midpoint nodes of the azimuthal integrals; on the 128-ring mesh of a
# sphere at z/a = 1 over a conductor, 1024 nodes move the three lowest
# u of sectors m = 0, 1 by at most 5e-9 relative against 4096 nodes, far
# below the mesh's own error (1e-5 against the spectral core)
_N_PHI = 1024
# the oracle checks compare the three lowest modes of each sector
_N_MODES = 3


def _ring_kernels(mesh: BemMesh, d: float, f_c: float, m: int):
    """Azimuthal integrals I_m[i, j] of the normal-derivative kernel,
    including the f_c-weighted mirror kernel.

    Field points sit at phi = 0; sources on ring j at height z_j = d + zc_j
    (lab frame, substrate plane at z = 0); mirror sources at -z_j.
    The free-kernel diagonal is fixed by the Gauss column-sum identity
    sum_i rho_i ds_i I_0(i, j) = 2 pi.
    """
    n = mesh.n_rings
    phi = (np.arange(_N_PHI) + 0.5) * (2.0 * math.pi / _N_PHI)
    cphi = np.cos(phi)
    sphi = np.sin(phi)
    dphi = 2.0 * math.pi / _N_PHI
    orders = sorted({0, m})  # m = 0 backs the diagonal fix
    cos_m = {k: np.cos(k * phi) for k in orders}

    z_lab = d + mesh.z_center
    I_free = {k: np.zeros((n, n)) for k in orders}
    I_img = np.zeros((n, n))

    for i in range(n):
        # vector from source (ring j at angle phi) to field point i (phi=0)
        dx = mesh.rho[i] - mesh.rho[:, None] * cphi[None, :]
        dy = -mesh.rho[:, None] * sphi[None, :]
        dz = (z_lab[i] - z_lab)[:, None]
        rr = dx * dx + dy * dy
        r3 = np.maximum((rr + dz * dz) ** 1.5, 1e-300)
        g = (mesh.normal_rho[i] * dx + mesh.normal_z[i] * dz) / r3
        dz_img = (z_lab[i] + z_lab)[:, None]
        r3i = (rr + dz_img * dz_img) ** 1.5
        gi = (mesh.normal_rho[i] * dx + mesh.normal_z[i] * dz_img) / r3i
        for k in orders:
            I_free[k][i] = dphi * (g @ cos_m[k])
        I_img[i] = dphi * (gi @ cos_m[m])

    # Gauss column-sum fix of the singular free diagonal for m = 0, and
    # the finite difference-kernel correction for m > 0
    w = mesh.ring_weight
    for j in range(n):
        col = I_free[0][:, j].copy()
        col[j] = 0.0
        diag0 = (2.0 * math.pi - float(np.sum(w * col))) / w[j]
        # Delta_m(j,j) = int (cos m phi - 1) g(j, j-ring) dphi is finite;
        # the midpoint phi grid never hits phi = 0
        delta = 0.0
        if m:
            dxs = mesh.rho[j] * (1.0 - cphi)
            dys = -mesh.rho[j] * sphi
            r3s = np.maximum((dxs * dxs + dys * dys) ** 1.5, 1e-300)
            gs = (mesh.normal_rho[j] * dxs) / r3s
            delta = dphi * float(np.sum((cos_m[m] - 1.0) * gs))
        I_free[m][j, j] = diag0 + delta
    return I_free[m] + f_c * I_img


def quasistatic_bem(
    particle: PlacedParticle, f_c: float, m: int, mesh: BemMesh | None = None
) -> np.ndarray:
    """Lowest u-eigenvalues of the quasi-static surface-charge operator,
    with the substrate handled by the image Green function.

    u = (1 - lambda)/2 where lambda are eigenvalues of the adjoint
    double-layer (Neumann-Poincare) operator; for an isolated sphere this
    gives u_l = l/(2l+1).
    """
    if mesh is None:
        mesh = build_mesh(particle.spheroid)
    d = particle.center_height
    I_m = _ring_kernels(mesh, d, f_c, m)
    A = I_m * mesh.ring_weight[None, :] / (2.0 * math.pi)
    vals = eig(A, right=False)
    vals = np.real(vals[np.abs(np.imag(vals)) < 1e-6])
    u = (1.0 - vals) / 2.0
    u = np.sort(u[(u > 1e-4) & (u < 1.0 - 1e-9)])
    if u.size < _N_MODES:
        raise MeshResolutionError("too few physical eigenvalues resolved")
    return u[:_N_MODES]
