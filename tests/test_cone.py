import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespectra.cone import (
    C1,
    C2,
    DET_P_SLOPE,
    AsymptoticEntries,
    asymptotic_entries,
    asymptotic_t_matrix,
    bessel_i,
    bessel_k,
    cone_green_kernel,
    phi_expansion,
    phi_model,
)
from conespectra.errors import DomainError, PoleEvaluation
from conespectra.numerics import gamma


class TestBessel:
    def test_half_integer_closed_form(self):
        for x in [0.1, 1.0, 2.5, 10.0]:
            exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert abs(bessel_k(0.5, x) - exact) < 1e-10 * exact

    def test_value_at_one(self):
        assert abs(bessel_k(0.5, 1.0) - 0.4610685) < 1e-7

    def test_small_argument_expansion(self):
        nu, y = 1.0 / 3.0, 1e-3
        lead = y ** -nu / (2 ** -nu * gamma(1 - nu))
        sub = y ** nu / (2 ** nu * gamma(1 + nu))
        rem = bessel_k(nu, y) * (2 * math.sin(nu * math.pi) / math.pi) - (lead - sub)
        assert abs(rem) < 10 * y ** (2 - nu)

    def test_expansion_remainder_rate(self):
        nu = 1.0 / 3.0

        def rem(y):
            lead = y ** -nu / (2 ** -nu * gamma(1 - nu))
            sub = y ** nu / (2 ** nu * gamma(1 + nu))
            return bessel_k(nu, y) * (2 * math.sin(nu * math.pi) / math.pi) - (lead - sub)

        y = 1e-2
        slope = math.log(abs(rem(y) / rem(y / 2))) / math.log(2.0)
        assert abs(slope - (2 - nu)) < 0.05

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.1, max_value=20.0))
    def test_wronskian(self, nu, x):
        h = 1e-6 * x
        dk = (bessel_k(nu, x + h) - bessel_k(nu, x - h)) / (2 * h)
        di = (bessel_i(nu, x + h) - bessel_i(nu, x - h)) / (2 * h)
        w = bessel_i(nu, x) * dk - di * bessel_k(nu, x)
        assert abs(w + 1.0 / x) < 1e-5 / x

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_i(0.0, 1.0)


class TestGreenKernel:
    def test_resummed_value(self):
        v = cone_green_kernel(1.0, 1.0, 0.0, 0.0)
        assert abs(v - math.pi * math.cosh(math.pi) / math.sinh(math.pi)) < 1e-12

    def test_cosh_sinh_equivalence(self):
        B, mu = 3.0, 0.7 + 0.3j
        for d in [0.1, 2.0, 5.0]:
            v = cone_green_kernel(B, mu, 0.0, d)
            w = (math.pi / mu) * cmath.cosh(mu * (math.pi * B - d)) / cmath.sinh(mu * math.pi * B)
            assert abs(v - w) < 1e-10 * abs(w)

    def test_symmetry_and_periodicity(self):
        B, mu = 3.0, 0.9
        a = cone_green_kernel(B, mu, 1.0, 4.0)
        assert abs(a - cone_green_kernel(B, mu, 4.0, 1.0)) < 1e-12
        assert abs(a - cone_green_kernel(B, mu, 1.0 + 2 * math.pi * B, 4.0)) < 1e-9

    def test_satisfies_ode_off_diagonal(self):
        B, mu, w1 = 3.0, 1.3, 2.0
        h = 1e-4
        for w2 in [4.0, 7.5]:
            f = lambda w: cone_green_kernel(B, mu, w1, w)
            lap = (f(w2 + h) - 2 * f(w2) + f(w2 - h)) / h ** 2
            assert abs(-lap + mu ** 2 * f(w2)) < 1e-6

    def test_diagonal_derivative_jump(self):
        B, mu, w1 = 3.0, 1.1, 3.0
        h = 1e-5
        g = lambda w: cone_green_kernel(B, mu, w1, w)
        up = (-3 * g(w1) + 4 * g(w1 + h) - g(w1 + 2 * h)) / (2 * h)
        dn = (3 * g(w1) - 4 * g(w1 - h) + g(w1 - 2 * h)) / (2 * h)
        assert abs((up - dn) + 2 * math.pi) < 1e-6

    def test_pole_structure(self):
        B = 3.0
        for k in [1, 2, -1]:
            near = 1j * k / B + 1e-8
            assert abs(cone_green_kernel(B, near, 0.0, 1.0)) > 1e6
        with pytest.raises(PoleEvaluation):
            cone_green_kernel(B, 1j / B, 0.0, 1.0)

    def test_analytic_on_test_line(self):
        # no blow-up along Re mu = 0.5
        B = 3.0
        vals = [abs(cone_green_kernel(B, 0.5 + 1j * t, 0.0, 1.0))
                for t in np.linspace(-3, 3, 61)]
        assert max(vals) < 50.0


class TestPhiModel:
    def test_leading_coefficient_is_one(self):
        lam, r = -4.0, 1e-6
        for nu in (1.0 / 3.0, 2.0 / 3.0):
            zeta = r ** (1.0 / 3.0)
            lead = phi_model(nu, lam, r, 0.0) * zeta ** (3 * nu)
            assert abs(lead - 1.0) < 1e-3

    def test_subleading_fit_on_circle(self):
        # fit Phi - 1/zeta^{3 nu} against conj(zeta)^{3 nu} on a small circle;
        # the neglected r^{2-nu} term contaminates the slope at O(r^{2-2nu})
        lam = -4.0
        for nu, r, tol in [(1.0 / 3.0, 1e-5, 1e-6), (2.0 / 3.0, 1e-6, 3e-4)]:
            phis = np.linspace(0, 6 * math.pi, 48, endpoint=False)
            zeta = r ** (1.0 / 3.0) * np.exp(1j * phis / 3.0)
            vals = np.array([phi_model(nu, lam, r, p) for p in phis])
            resid = vals - zeta ** (-3 * nu)
            basis = np.conj(zeta) ** (3 * nu)
            slope = np.vdot(basis, resid) / np.vdot(basis, basis)
            _, b = phi_expansion(nu, lam)
            assert abs(slope - b) < tol * abs(b)

    def test_expansion_product_identity(self):
        # the two subleading amplitudes multiply to (9/8)(-lam)
        lam = -7.0
        _, b1 = phi_expansion(1.0 / 3.0, lam)
        _, b2 = phi_expansion(2.0 / 3.0, lam)
        assert abs(b1 * b2 - 9.0 / 8.0 * (-lam)) < 1e-12 * abs(lam)

    def test_exponential_decay(self):
        lam = -4.0
        r = 40.0 / math.sqrt(-lam)
        assert abs(phi_model(1.0 / 3.0, lam, r, 0.3)) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_model(0.5, -1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            phi_model(1.0 / 3.0, 1.0, 1.0, 0.0)


class TestAsymptoticEntries:
    def test_constant_values(self):
        assert abs(C1 - 1.05342) < 1e-4
        assert abs(C1 * C2 - DET_P_SLOPE) < 1e-10
        assert abs(DET_P_SLOPE - 1.367836) < 1e-6
        assert abs(DET_P_SLOPE - 27.0 / (2.0 * math.pi ** 2)) < 1e-15

    def test_det_p_at_minus_one(self):
        e = asymptotic_entries(-1.0)
        assert abs(e.det_p - DET_P_SLOPE) < 1e-12

    def test_entries_negative(self):
        e = asymptotic_entries(-10.0)
        assert e.s1 < 0 and e.s2 < 0

    def test_product_identity(self):
        for lam in [-1.0, -10.0, -123.4]:
            e = asymptotic_entries(lam)
            assert abs(e.s1 * e.s2 / lam + DET_P_SLOPE) < 1e-10
            assert abs(e.s1 * e.s2 - e.det_p) < 1e-9 * abs(e.det_p)
            assert abs(e.det_t - (e.s1 * e.s2) ** 2) < 1e-9 * abs(e.det_t)

    def test_sparse_matrix_determinants(self):
        lam = -10.0
        t = asymptotic_t_matrix(lam)
        e = asymptotic_entries(lam)
        assert np.count_nonzero(t) == 4
        assert abs(np.linalg.det(t) - e.det_t) < 1e-9 * abs(e.det_t)

    def test_trace_of_logarithmic_derivative(self):
        for lam in [-10.0, -100.0]:
            h = 1e-5 * abs(lam)
            t0 = asymptotic_t_matrix(lam)
            dt = (asymptotic_t_matrix(lam + h) - asymptotic_t_matrix(lam - h)) / (2 * h)
            val = -np.trace(np.linalg.solve(t0, dt))
            assert abs(val + 2.0 / lam) < 1e-6 * abs(2.0 / lam) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            asymptotic_entries(-0.5)

    @pytest.mark.parametrize("lam", [-math.inf, math.nan, -1e308, -1.3e154,
                                     -1e154])
    def test_non_finite_or_overflowing_rejected(self, lam):
        # -1.3e154 squares to a finite float, but det_t overflows; beyond
        # about -1.34e154 lam ** 2 alone overflows
        with pytest.raises(DomainError):
            asymptotic_entries(lam)

    def test_largest_finite_entries(self):
        e = asymptotic_entries(-9.7e153)
        assert all(math.isfinite(v) for v in (e.s1, e.s2, e.det_t, e.det_p))
