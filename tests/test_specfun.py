import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from casimir_spectral import specfun
from casimir_spectral.errors import SpecFunDomainError, SpecFunOverflowError
from casimir_spectral.specfun import (
    _lgam_int,
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


def _examples(share):
    """Settings of a property test that runs share of the active Hypothesis
    profile's examples: 100 * share by default, ten times that under
    HYPOTHESIS_PROFILE=deep (tests/conftest.py)."""
    return settings(max_examples=round(share * settings.default.max_examples), deadline=None)


def _derivatives(P, Q, m, l, x, sigma):
    """nP'_l and nQ'_l at one point from the order-m tables returned,
    rows l - m and l + 1 - m, by the upward forms of the derivative
    recurrences,

        w nP'_l = s_{l+1} nP_{l+1} - (l+1) x nP_l,
        w nQ'_l = sigma s_{l+1} nQ_{l+1} - (l+1) x nQ_l,

    w = x^2 - sigma, s_l = sqrt(l^2 - m^2).  They hold at l = m too, where
    the downward forms would need nQ_{m-1}, whose normalization is singular."""
    w = x * x - sigma
    s = math.sqrt((l + 1) ** 2 - m * m)
    dP = (s * P[l + 1 - m, 0] - (l + 1) * x * P[l - m, 0]) / w
    dQ = (sigma * s * Q[l + 1 - m, 0] - (l + 1) * x * Q[l - m, 0]) / w
    return dP, dQ


class TestLogFactorial:
    def test_small_values(self):
        table = log_factorials(5)
        assert table[0] == 0.0
        assert table[5] == pytest.approx(math.log(120.0))

    @given(st.integers(0, 300))
    def test_recurrence(self, n):
        table = log_factorials(301)
        assert table[n + 1] - table[n] == pytest.approx(math.log(n + 1), rel=1e-12)

    def test_table_matches_scalar_bit_for_bit(self):
        table = log_factorials(401)
        assert table.shape == (402,) and not table.flags.writeable
        assert all(table[n] == _lgam_int(n) for n in range(402))

    def test_port_is_gammaln_bit_for_bit(self):
        # the reference the Cephes port replaces in the package
        from scipy.special import gammaln

        bad = np.flatnonzero(log_factorials(100_000) != gammaln(np.arange(100_001) + 1.0))
        assert not bad.size, bad[:10]
        # past x = 1e8 lgam drops the series
        for n in (10**8 - 2, 10**8 - 1, 10**8, 10**12):
            assert _lgam_int(n) == float(gammaln(n + 1.0)), n


class TestProlateRadial:
    def test_closed_forms_at_two(self):
        # at m = 0 the ratio normalization is 1
        nP, nQ = (t[0] for t in prolate_radial_table(range(1), 1, [2.0]))
        assert nQ[0, 0] == pytest.approx(0.5 * math.log(3.0), rel=1e-14)
        assert nP[1, 0] == pytest.approx(2.0)
        assert nQ[1, 0] == pytest.approx(math.log(3.0) - 1.0, rel=1e-13)

    @pytest.mark.parametrize("m", PROLATE_POINTS[0])
    @pytest.mark.parametrize("x", PROLATE_POINTS[1])
    def test_against_mpmath(self, m, x):
        l_max = PROLATE_POINTS[2]
        nP, nQ = (t[0] for t in prolate_radial_table(range(m, m + 1), l_max, np.array([x])))
        for l in range(m, l_max + 1):
            refP, refQ = REFERENCE["prolate", m, x, l]
            assert nP[l - m, 0] == pytest.approx(refP, rel=1e-10)
            assert nQ[l - m, 0] == pytest.approx(refQ, rel=1e-10)

    def test_against_live_mpmath(self):
        m, x, l_max = 3, 1.5, PROLATE_POINTS[2]
        nP, nQ = (t[0] for t in prolate_radial_table(range(m, m + 1), l_max, np.array([x])))
        for l in range(m, l_max + 1):
            refP, refQ = mp_prolate(l, m, x)
            assert nP[l - m, 0] == pytest.approx(refP, rel=1e-10)
            assert nQ[l - m, 0] == pytest.approx(refQ, rel=1e-10)

    @_examples(0.6)
    @given(
        st.integers(0, 10),
        st.integers(0, 30),
        st.floats(1.0005, 6.0),
    )
    def test_wronskian_property(self, m, dl, x):
        l = m + dl
        nP, nQ = (t[0] for t in prolate_radial_table(range(m, m + 1), l + 1, np.array([x])))
        ndP, ndQ = _derivatives(nP, nQ, m, l, x, 1.0)
        wron = nP[l - m, 0] * ndQ - ndP * nQ[l - m, 0]
        expected = (-1.0) ** m / (1.0 - x * x)
        assert wron == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "table, inside, outside",
        [(prolate_radial_table, 1.5, 1.0), (oblate_radial_table, 0.5, 0.0)],
        ids=["prolate", "oblate"],
    )
    @pytest.mark.parametrize(
        "m, l_max, bad_coord",
        [(0, 5, "outside"), (0, 5, "nan"), (-1, 5, None), (4, 3, None)],
        ids=["coordinate", "nan_coordinate", "negative_m", "l_max_below_m"],
    )
    def test_domain_check(self, table, inside, outside, m, l_max, bad_coord):
        coord = [inside] + {"outside": [outside], "nan": [math.nan], None: []}[bad_coord]
        with pytest.raises(SpecFunDomainError):
            table(range(m, m + 1), l_max, np.array(coord))

    @pytest.mark.parametrize(
        "table, coord", [(prolate_radial_table, math.cosh), (oblate_radial_table, math.sinh)],
        ids=["prolate", "oblate"],
    )
    def test_continued_fraction_cap(self, table, coord):
        # theta = arccosh x or arcsinh zeta: below 21/4000 the Q continued
        # fraction cannot decay by exp(-42) within 4000 steps, and raises
        # rather than run deeper
        table(range(1), 5, [coord(1.01 * 21.0 / 4000.0)])
        with pytest.raises(SpecFunDomainError):
            table(range(1), 5, [2.0, coord(0.99 * 21.0 / 4000.0)])

    @pytest.mark.parametrize(
        "table", [prolate_radial_table, oblate_radial_table], ids=["prolate", "oblate"]
    )
    def test_overflow_raises(self, table):
        # the kernel's own finiteness check raises, without numpy warnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecFunOverflowError):
                table(range(1), 90, np.array([1e4]))


class TestBatchedTables:
    """A range of orders m0..m1 gives the stack of the rows l >= m0 of the
    one-order tables, bit for bit."""

    @pytest.mark.parametrize("l_max", [1, 5, 30])
    @pytest.mark.parametrize(
        "table, coord",
        [(prolate_radial_table, [1.0005, 1.3, 4.0]), (oblate_radial_table, [0.02, 0.7, 3.0])],
        ids=["prolate", "oblate"],
    )
    def test_radial_rows_equal_one_order_calls(self, table, coord, l_max):
        h = l_max // 2
        full = table(range(l_max + 1), l_max, coord)
        upper = table(range(h, l_max + 1), l_max, coord)
        assert all(t.shape == (l_max + 1 - h, l_max + 1 - h, len(coord)) for t in upper)
        for m in (0, h, l_max):
            single = table(range(m, m + 1), l_max, coord)
            for k, t in enumerate(single):
                assert t.shape == (1, l_max + 1 - m, len(coord))
                assert np.array_equal(full[k][m, m:], t[0]) and not full[k][m, :m].any()
                if m >= h:
                    assert np.array_equal(upper[k][m - h, m - h :], t[0])
                    assert not upper[k][m - h, : m - h].any()

    @pytest.mark.parametrize("l_max", [1, 5, 30])
    def test_ferrers_rows_equal_one_order_calls(self, l_max):
        eta = np.array([-1.0, -0.4, 0.0, 0.9, 1.0])
        full = normalized_ferrers_table(range(l_max + 1), l_max, eta)
        for m in (0, l_max // 2, l_max):
            single = normalized_ferrers_table(range(m, m + 1), l_max, eta)
            assert np.array_equal(full[m, m:], single[0]) and not full[m, :m].any()

    # the Q continued fraction of a call at l_max + k starts k steps deeper
    # than one at l_max; the rows l <= l_max come out bit for bit the same,
    # which lets every order of a call run to the same depth
    @_examples(0.5)
    @given(
        st.sampled_from([(prolate_radial_table, 1.0, -5.0), (oblate_radial_table, 0.0, -3.0)]),
        st.integers(1, 120),
        st.integers(1, 40),
        st.data(),
    )
    def test_deeper_calls_nest_bit_for_bit(self, family, l_max, k, data):
        table, offset, lowest = family
        m0 = data.draw(st.integers(0, l_max))
        ms = range(m0, data.draw(st.integers(m0, l_max)) + 1)
        exponents = data.draw(st.lists(st.floats(lowest, 1.5), min_size=1, max_size=8))
        coord = offset + 10.0 ** np.array(exponents)
        try:
            small = table(ms, l_max, coord)
            large = table(ms, l_max + k, coord)
        except (SpecFunDomainError, SpecFunOverflowError):
            assume(False)
        for t, t_large in zip(small, large):
            rows = np.ascontiguousarray(t_large[:, : l_max + 1 - m0])
            assert np.ascontiguousarray(t).tobytes() == rows.tobytes()

    # the Q continued fraction starts int(28/theta_min) + 10 steps above
    # l_max + 1, its tail below exp(-56); twice as deep moves no bit at
    # theta_min >= 0.05, and below that a few ulps at most (1.7e-15 was
    # the largest of 993 random calls)
    @_examples(0.5)
    @given(
        st.sampled_from(
            [
                (prolate_radial_table, np.arccosh, 1.0, -4.9),
                (oblate_radial_table, np.arcsinh, 0.0, -2.3),
            ]
        ),
        st.integers(1, 120),
        st.data(),
    )
    def test_continued_fraction_depth_suffices(self, family, l_max, data):
        table, theta, offset, lowest = family
        m0 = data.draw(st.integers(0, l_max))
        ms = range(m0, data.draw(st.integers(m0, l_max)) + 1)
        exponents = data.draw(st.lists(st.floats(lowest, 1.0), min_size=1, max_size=8))
        coord = offset + 10.0 ** np.array(exponents)
        try:
            tables = table(ms, l_max, coord)
        except (SpecFunDomainError, SpecFunOverflowError):
            assume(False)
        depth = specfun._cf_extra_terms
        with mock.patch.object(specfun, "_cf_extra_terms", lambda t: 2 * depth(t)):
            P, Q = table(ms, l_max, coord)
        assert tables[0].tobytes() == P.tobytes()  # P takes no fraction
        if theta(coord).min() >= 0.05:
            assert tables[1].tobytes() == Q.tobytes()
        else:
            assert np.all(np.abs(tables[1] - Q) <= 1e-14 * np.abs(Q))

    def test_deep_fraction_nests_bit_for_bit(self):
        # theta = 0.00587 (z = 10**-2.2316): int(28/theta) + 10 = 4 782
        # steps, which a cap of 4000 cut short, so the call at l_max = 12
        # moved a last bit of the Q rows of the call at 11
        z = np.array([0.005867006407506743])
        small = oblate_radial_table(range(12), 11, z)
        large = oblate_radial_table(range(12), 12, z)
        for t, t_large in zip(small, large):
            assert t.tobytes() == np.ascontiguousarray(t_large[:, :12]).tobytes()

    def test_overflow_names_lowest_failing_order(self):
        # near x = 1 the tables of the higher orders fail at l_max = 150
        x = [1.0 + 2e-5]
        with pytest.raises(SpecFunOverflowError) as batched:
            prolate_radial_table(range(151), 150, x)
        m = batched.value.m
        assert m > 0
        prolate_radial_table(range(m - 1, m), 150, x)
        with pytest.raises(SpecFunOverflowError) as single:
            prolate_radial_table(range(m, m + 1), 150, x)
        assert str(single.value) == str(batched.value)

    def test_values_only_call_serves_orders_whose_derivatives_overflow(self):
        # at the aspect-158 needle dnQ/dx of orders 139 and 140 overflows
        # at l_max = 150, but their P and Q, all a call returns, are finite;
        # Q overflows from order 141
        x = [1.0 + 2e-5]
        P, Q = prolate_radial_table(range(136, 141), 150, x)
        assert np.isfinite(P).all() and np.isfinite(Q).all()
        for k, m in enumerate(range(136, 141)):
            single = prolate_radial_table(range(m, m + 1), 150, x)
            i = m - 136
            assert np.array_equal(P[k, i:], single[0][0])
            assert np.array_equal(Q[k, i:], single[1][0])
            assert not P[k, :i].any() and not Q[k, :i].any()
        with pytest.raises(SpecFunOverflowError) as info:
            prolate_radial_table(range(136, 142), 150, x)
        assert info.value.m == 141
        assert str(info.value) == "Q_l^m overflow/underflow for m=141, l_max=150"

    @pytest.mark.parametrize(
        "table, coord",
        [(prolate_radial_table, (1.0005, 4.0)), (oblate_radial_table, (0.02, 3.0))],
        ids=["prolate", "oblate"],
    )
    def test_values_only_call_allocates_no_derivative_stacks(self, table, coord):
        # a mirror-point call: its peak holds the returned P and Q stacks
        # and working space, and no derivative stacks
        x = np.linspace(*coord, 244)
        table(range(2), 90, x)  # warm the caches
        tracemalloc.start()
        try:
            table(range(2), 90, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 * 91 * 244 * 8

    @pytest.mark.parametrize(
        "table, coord",
        [(prolate_radial_table, (1.0005, 4.0)), (oblate_radial_table, (0.02, 3.0))],
        ids=["prolate", "oblate"],
    )
    def test_range_call_holds_only_its_rows(self, table, coord):
        # a mirror-point call from order 45 at l_max = 90: the P and Q
        # stacks and working space hold rows l >= 45 only, half of what
        # full rows would take
        x = np.linspace(*coord, 244)
        table(range(45, 47), 90, x)  # warm the caches
        tracemalloc.start()
        try:
            table(range(45, 47), 90, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 * 47 * 244 * 8

    # an int order is not a range: one order m is range(m, m + 1)
    @pytest.mark.parametrize("orders", [range(0), range(0, 4, 2), range(3, 7), 3])
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
        p, q = (t[0] for t in oblate_radial_table(range(m, m + 1), l_max, np.array([zeta])))
        for l in range(m, l_max + 1):
            refp, refq = REFERENCE["oblate", m, zeta, l]
            assert p[l - m, 0] == pytest.approx(refp, rel=1e-10)
            assert q[l - m, 0] == pytest.approx(refq, rel=1e-10)

    def test_against_live_mpmath(self):
        m, zeta, l_max = 0, 0.3, OBLATE_POINTS[2]
        p, q = (t[0] for t in oblate_radial_table(range(m, m + 1), l_max, np.array([zeta])))
        for l in range(m, l_max + 1):
            refp, refq = mp_oblate(l, m, zeta)
            assert p[l - m, 0] == pytest.approx(refp, rel=1e-10)
            assert q[l - m, 0] == pytest.approx(refq, rel=1e-10)

    @_examples(0.6)
    @given(
        st.integers(0, 8),
        st.integers(0, 25),
        st.floats(0.02, 5.0),
    )
    def test_wronskian_property(self, m, dl, zeta):
        l = m + dl
        p, q = (t[0] for t in oblate_radial_table(range(m, m + 1), l + 1, np.array([zeta])))
        dp, dq = _derivatives(p, q, m, l, zeta, -1.0)
        wron = p[l - m, 0] * dq - dp * q[l - m, 0]
        expected = -((-1.0) ** m) / (1.0 + zeta * zeta)
        assert wron == pytest.approx(expected, rel=1e-9)


class TestFerrers:
    def test_orthonormality(self):
        eta, w = np.polynomial.legendre.leggauss(80)
        for m in (0, 1, 3):
            table = normalized_ferrers_table(range(m, m + 1), 12, eta)[0]
            gram = (table * w) @ table.T
            expected = np.zeros_like(gram)
            for l in range(m, 13):
                expected[l - m, l - m] = 1.0
            assert np.max(np.abs(gram - expected)) < 1e-12

    def test_parity(self):
        eta = np.array([0.37])
        for m in (0, 2):
            table_p = normalized_ferrers_table(range(m, m + 1), 8, eta)[0]
            table_n = normalized_ferrers_table(range(m, m + 1), 8, -eta)[0]
            for l in range(m, 9):
                sign = (-1.0) ** (l + m)
                assert table_n[l - m, 0] == pytest.approx(sign * table_p[l - m, 0], rel=1e-12)

    @pytest.mark.parametrize("eta", [1.0 + 1e-15, -2.0, math.nan])
    def test_domain_check(self, eta):
        with pytest.raises(SpecFunDomainError):
            normalized_ferrers_table(range(1), 5, [0.5, eta])

    @pytest.mark.parametrize("eta", [1.0, -1.0])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_endpoints(self, m, eta):
        # Pbar_l^0(+-1) = (+-1)^l sqrt((2l+1)/2); every m > 0 vanishes there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = normalized_ferrers_table(range(m, m + 1), 8, [eta])[0]
        assert np.all(np.isfinite(table))
        for l in range(m, 9):
            expected = eta**l * math.sqrt((2 * l + 1) / 2.0) if m == 0 else 0.0
            assert table[l - m, 0] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m0", [0, 2])
    def test_endpoint_range_equals_one_order_calls(self, m0):
        # one seed expression serves every order, m = 0 included, at eta = +-1
        eta = [-1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = normalized_ferrers_table(range(m0, 9), 8, eta)
            assert stack.shape == (9 - m0, 9 - m0, 2)
            for k, m in enumerate(range(m0, 9)):
                single = normalized_ferrers_table(range(m, m + 1), 8, eta)[0]
                assert np.array_equal(stack[k, m - m0 :], single)
                assert not stack[k, : m - m0].any()
