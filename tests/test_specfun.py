import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir_spectral.errors import SpecFunDomainError, SpecFunOverflowError
from casimir_spectral.specfun import (
    log_factorial,
    log_factorials,
    normalized_ferrers_table,
    oblate_radial_table,
    prolate_radial_table,
)

pytest.importorskip("mpmath")

from mpmath_reference import OBLATE_POINTS, PROLATE_POINTS, load, mp_oblate, mp_prolate

# 40-digit mpmath values at every (m, coordinate, l) of the two tables,
# written by tests/mpmath_reference.py
REFERENCE = load()


class TestLogFactorial:
    def test_small_values(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120.0))

    @given(st.integers(0, 300))
    def test_recurrence(self, n):
        assert log_factorial(n + 1) - log_factorial(n) == pytest.approx(
            math.log(n + 1), rel=1e-12
        )

    def test_table_matches_scalar_bit_for_bit(self):
        table = log_factorials(401)
        assert table.shape == (402,)
        assert all(table[n] == log_factorial(n) for n in range(402))


class TestProlateRadial:
    def test_closed_forms_at_two(self):
        # at m = 0 the ratio normalization is 1
        nP, ndP, nQ, ndQ = prolate_radial_table(0, 1, [2.0])
        assert nQ[0, 0] == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert nP[1, 0] == pytest.approx(2.0)
        assert nQ[1, 0] == pytest.approx(math.log(3.0) - 1.0, rel=1e-13)

    @pytest.mark.parametrize("m", PROLATE_POINTS[0])
    @pytest.mark.parametrize("x", PROLATE_POINTS[1])
    def test_against_mpmath(self, m, x):
        l_max = PROLATE_POINTS[2]
        nP, ndP, nQ, ndQ = prolate_radial_table(m, l_max, np.array([x]))
        for l in range(m, l_max + 1):
            refP, refQ = REFERENCE["prolate", m, x, l]
            assert nP[l, 0] == pytest.approx(refP, rel=1e-10)
            assert nQ[l, 0] == pytest.approx(refQ, rel=1e-10)

    def test_against_live_mpmath(self):
        m, x, l_max = 3, 1.5, PROLATE_POINTS[2]
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
        "table, coord", [(prolate_radial_table, math.cosh), (oblate_radial_table, math.sinh)],
        ids=["prolate", "oblate"],
    )
    def test_continued_fraction_cap(self, table, coord):
        # theta = arccosh x or arcsinh zeta: below 21/4000 the Q continued
        # fraction cannot decay by exp(-42) within its 4000 steps
        table(0, 5, [coord(1.01 * 21.0 / 4000.0)])
        with pytest.raises(SpecFunDomainError):
            table(0, 5, [2.0, coord(0.99 * 21.0 / 4000.0)])

    @pytest.mark.parametrize(
        "table", [prolate_radial_table, oblate_radial_table], ids=["prolate", "oblate"]
    )
    def test_overflow_raises(self, table):
        # the kernel's own finiteness check raises, without numpy warnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecFunOverflowError):
                table(0, 90, np.array([1e4]))


class TestBatchedTables:
    """A range of orders gives the stack of the one-order tables, bit for bit."""

    @pytest.mark.parametrize("l_max", [1, 5, 30])
    @pytest.mark.parametrize(
        "table, coord",
        [(prolate_radial_table, [1.0005, 1.3, 4.0]), (oblate_radial_table, [0.02, 0.7, 3.0])],
        ids=["prolate", "oblate"],
    )
    def test_radial_rows_equal_one_order_calls(self, table, coord, l_max):
        full = table(range(l_max + 1), l_max, coord)
        upper = table(range(l_max // 2, l_max + 1), l_max, coord)
        no_derivatives = table(range(l_max + 1), l_max, coord, derivatives=False)
        for m in (0, l_max // 2, l_max):
            single = table(m, l_max, coord)
            for k, t in enumerate(single):
                assert np.array_equal(full[k][m], t)
                if m >= l_max // 2:
                    assert np.array_equal(upper[k][m - l_max // 2], t)
        assert no_derivatives[1] is None and no_derivatives[3] is None
        assert np.array_equal(no_derivatives[0], full[0])
        assert np.array_equal(no_derivatives[2], full[2])

    @pytest.mark.parametrize("l_max", [1, 5, 30])
    def test_ferrers_rows_equal_one_order_calls(self, l_max):
        eta = np.array([-1.0, -0.4, 0.0, 0.9, 1.0])
        full = normalized_ferrers_table(range(l_max + 1), l_max, eta)
        for m in (0, l_max // 2, l_max):
            assert np.array_equal(full[m], normalized_ferrers_table(m, l_max, eta))

    def test_overflow_names_lowest_failing_order(self):
        # near x = 1 the tables of the higher orders fail at l_max = 150
        x = [1.0 + 2e-5]
        with pytest.raises(SpecFunOverflowError) as batched:
            prolate_radial_table(range(151), 150, x)
        m = batched.value.m
        assert m > 0
        prolate_radial_table(m - 1, 150, x)
        with pytest.raises(SpecFunOverflowError) as single:
            prolate_radial_table(m, 150, x)
        assert str(single.value) == str(batched.value)

    @pytest.mark.parametrize("orders", [range(0), range(0, 4, 2), range(3, 7)])
    def test_bad_ranges(self, orders):
        with pytest.raises(SpecFunDomainError):
            prolate_radial_table(orders, 5, [2.0])
        with pytest.raises(SpecFunDomainError):
            normalized_ferrers_table(orders, 5, [0.5])


class TestOblateRadial:
    @pytest.mark.parametrize("m", OBLATE_POINTS[0])
    @pytest.mark.parametrize("zeta", OBLATE_POINTS[1])
    def test_against_mpmath(self, m, zeta):
        l_max = OBLATE_POINTS[2]
        p, dp, q, dq = oblate_radial_table(m, l_max, np.array([zeta]))
        for l in range(m, l_max + 1):
            refp, refq = REFERENCE["oblate", m, zeta, l]
            assert p[l, 0] == pytest.approx(refp, rel=1e-10)
            assert q[l, 0] == pytest.approx(refq, rel=1e-10)

    def test_against_live_mpmath(self):
        m, zeta, l_max = 0, 0.3, OBLATE_POINTS[2]
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

    @pytest.mark.parametrize("eta", [1.0, -1.0])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_endpoints(self, m, eta):
        # Pbar_l^0(+-1) = (+-1)^l sqrt((2l+1)/2); every m > 0 vanishes there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = normalized_ferrers_table(m, 8, [eta])
        assert np.all(np.isfinite(table))
        for l in range(m, 9):
            expected = eta**l * math.sqrt((2 * l + 1) / 2.0) if m == 0 else 0.0
            assert table[l, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)
