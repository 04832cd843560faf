import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_spectral.errors import SpecFunDomainError, SpecFunOverflowError
from casimir_spectral.specfun import (
    log_factorial,
    normalized_ferrers_table,
    oblate_radial_table,
    prolate_radial_table,
)

mpmath = pytest.importorskip("mpmath")


def _norm(l, m):
    return math.exp(0.5 * (log_factorial(l - m) - log_factorial(l + m)))


def mp_prolate(l, m, x):
    """Reference normalized radial pair via arbitrary precision."""
    with mpmath.workdps(40):
        P = complex(mpmath.legenp(l, m, x, type=3)).real
        Q = complex(mpmath.legenq(l, m, x, type=3)).real
    return _norm(l, m) * P, _norm(l, m) * Q


def mp_oblate(l, m, zeta):
    """Oblate continuation: P(i zeta) = i^l p, Q(i zeta) = (-i)^(l+1) q."""
    with mpmath.workdps(40):
        P = complex(mpmath.legenp(l, m, mpmath.mpc(0, zeta), type=3))
        Q = complex(mpmath.legenq(l, m, mpmath.mpc(0, zeta), type=3))
    p = complex((mpmath.mpc(0, 1) ** (-l)) * P).real
    q = complex((mpmath.mpc(0, 1) ** (l + 1)) * Q).real
    return _norm(l, m) * p, _norm(l, m) * q


class TestLogFactorial:
    def test_small_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120.0))

    @given(st.integers(0, 300))
    def test_recurrence(self, n):
        assert log_factorial(n + 1) - log_factorial(n) == pytest.approx(
            math.log(n + 1), rel=1e-12
        )


class TestProlateRadial:
    def test_closed_forms_at_two(self):
        # at m = 0 the ratio normalization is 1
        nP, ndP, nQ, ndQ = prolate_radial_table(0, 1, [2.0])
        assert nQ[0, 0] == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert nP[1, 0] == pytest.approx(2.0)
        assert nQ[1, 0] == pytest.approx(math.log(3.0) - 1.0, rel=1e-13)

    @pytest.mark.parametrize("m", [0, 1, 3, 8])
    @pytest.mark.parametrize("x", [1.0001, 1.05, 1.5, 4.0])
    def test_against_mpmath(self, m, x):
        l_max = 25
        nP, ndP, nQ, ndQ = prolate_radial_table(m, l_max, np.array([x]))
        for l in range(m, l_max + 1):
            refP, refQ = mp_prolate(l, m, x)
            assert nP[l, 0] == pytest.approx(refP, rel=1e-10)
            assert nQ[l, 0] == pytest.approx(refQ, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10),
        st.integers(0, 30),
        st.floats(1.0005, 6.0),
    )
    def test_wronskian_property(self, m, dl, x):
        l = m + dl
        l_max = l
        nP, ndP, nQ, ndQ = prolate_radial_table(m, l_max, np.array([x]))
        wron = nP[l, 0] * ndQ[l, 0] - ndP[l, 0] * nQ[l, 0]
        expected = (-1.0) ** m / (1.0 - x * x)
        assert wron == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "table, inside, outside",
        [(prolate_radial_table, 1.5, 1.0), (oblate_radial_table, 0.5, 0.0)],
        ids=["prolate", "oblate"],
    )
    @pytest.mark.parametrize(
        "m, l_max, bad_coord",
        [(0, 5, True), (-1, 5, False), (4, 3, False)],
        ids=["coordinate", "negative_m", "l_max_below_m"],
    )
    def test_domain_check(self, table, inside, outside, m, l_max, bad_coord):
        coord = [inside, outside] if bad_coord else [inside]
        with pytest.raises(SpecFunDomainError):
            table(m, l_max, np.array(coord))

    @pytest.mark.parametrize(
        "table", [prolate_radial_table, oblate_radial_table], ids=["prolate", "oblate"]
    )
    def test_overflow_raises(self, table):
        with pytest.raises(SpecFunOverflowError):
            table(0, 90, np.array([1e4]))


class TestOblateRadial:
    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("zeta", [0.05, 0.3, 1.0, 3.0])
    def test_against_mpmath(self, m, zeta):
        l_max = 20
        p, dp, q, dq = oblate_radial_table(m, l_max, np.array([zeta]))
        for l in range(m, l_max + 1):
            refp, refq = mp_oblate(l, m, zeta)
            assert p[l, 0] == pytest.approx(refp, rel=1e-10)
            assert q[l, 0] == pytest.approx(refq, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(0, 25),
        st.floats(0.02, 5.0),
    )
    def test_wronskian_property(self, m, dl, zeta):
        l = m + dl
        p, dp, q, dq = oblate_radial_table(m, l, np.array([zeta]))
        wron = p[l, 0] * dq[l, 0] - dp[l, 0] * q[l, 0]
        expected = -((-1.0) ** m) / (1.0 + zeta * zeta)
        assert wron == pytest.approx(expected, rel=1e-9)


class TestFerrers:
    def test_orthonormality(self):
        eta, w = np.polynomial.legendre.leggauss(80)
        for m in (0, 1, 3):
            table = normalized_ferrers_table(m, 12, eta)
            gram = (table * w) @ table.T
            expected = np.zeros_like(gram)
            for l in range(m, 13):
                expected[l, l] = 1.0
            assert np.max(np.abs(gram - expected)) < 1e-12

    def test_parity(self):
        eta = np.array([0.37])
        for m in (0, 2):
            table_p = normalized_ferrers_table(m, 8, eta)
            table_n = normalized_ferrers_table(m, 8, -eta)
            for l in range(m, 9):
                sign = (-1.0) ** (l + m)
                assert table_n[l, 0] == pytest.approx(sign * table_p[l, 0], rel=1e-12)
