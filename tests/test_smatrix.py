"""Assembly and diagnostics of the scattering-matrix blocks at lambda=0."""

import json

import numpy as np
import pytest

from conespectra import bidiff, smatrix
from conespectra.curveperiods import make_curve, make_z5_curve, period_data
from conespectra.errors import MissingJet

GENERIC_BP = [0.0, 1.0, 0.3 + 1.1j, -0.8 + 0.7j, -1.1 - 0.4j, 0.5 - 0.9j]


def build_model(branch_points, cone_point, eta=0):
    curve = (make_curve(branch_points)
             if not isinstance(branch_points, tuple)
             else make_z5_curve(*branch_points))
    pd = period_data(curve, cone_point)
    model = bidiff.normalize_bidifferential(curve, pd)
    frame = bidiff.distinguished_frame(curve, pd, cone_point, order=20, eta=eta)
    model = bidiff.h_expansion(model, frame, order=8)
    bidiff.projective_connections(model)
    return model


@pytest.fixture(scope="module")
def z5_sm():
    return smatrix.t_matrix_zero(build_model((0.0, 1.0), 0))


@pytest.fixture(scope="module")
def generic_sm():
    return smatrix.t_matrix_zero(build_model(GENERIC_BP, 2))


class TestSymplecticPairing:
    def test_darboux_pair(self):
        a = smatrix.ExpansionCoefficients(L=1.0)
        b = smatrix.ExpansionCoefficients(c=1.0)
        assert smatrix.symplectic_pairing(a, b) == -1.0

    def test_antisymmetry_pair(self):
        a = smatrix.ExpansionCoefficients(H1=1.0)
        b = smatrix.ExpansionCoefficients(h1=1.0)
        assert smatrix.symplectic_pairing(a, b) == -1.0
        assert smatrix.symplectic_pairing(b, a) == 1.0

    def test_self_pairing_zero(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = smatrix.ExpansionCoefficients(*vals)
        assert abs(smatrix.symplectic_pairing(a, a)) < 1e-14

    def test_bilinear_antisymmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            a = smatrix.ExpansionCoefficients(*(rng.standard_normal(10)))
            b = smatrix.ExpansionCoefficients(*(rng.standard_normal(10)))
            pab = smatrix.symplectic_pairing(a, b)
            pba = smatrix.symplectic_pairing(b, a)
            assert abs(pab + pba) < 1e-12


class TestStructure:
    def test_conjugation_blocks(self, generic_sm):
        t = generic_sm.T0
        assert np.abs(t[:2, 2:] - np.conj(t[2:, :2])).max() == 0.0
        assert np.abs(t[2:, 2:] - np.conj(t[:2, :2])).max() == 0.0

    def test_p0_block(self, generic_sm):
        assert np.array_equal(generic_sm.P0, generic_sm.T0[2:4, 0:2])

    def test_dett0_real(self, generic_sm):
        scale = max(1.0, np.abs(generic_sm.T0).max() ** 4)
        assert abs(generic_sm.detT0.imag) < 1e-8 * scale

    def test_closed_form_factorization(self, generic_sm):
        # parity kills T12, T21, T32, T41, T42 at a branch point, leaving
        # detT0 = |T22|^2 (|T11|^2 - pi^2 B(0,0)^2)
        t = generic_sm.T0
        closed = abs(t[1, 1]) ** 2 * (abs(t[0, 0]) ** 2 - abs(t[2, 0]) ** 2)
        assert abs(generic_sm.detT0 - closed) < 1e-6 * abs(closed)

    def test_weierstrass_detp0(self, generic_sm):
        # every branch point is a Weierstrass point in genus 2
        d = smatrix.kernel_diagnostics(generic_sm)
        assert d["normalized_detP0"] < 1e-6
        assert d["weierstrass"]

    def test_missing_jets_rejected(self):
        curve = make_curve(GENERIC_BP)
        pd = period_data(curve, 2)
        model = bidiff.normalize_bidifferential(curve, pd)
        with pytest.raises(MissingJet):
            smatrix.t_matrix_zero(model)

    def test_eta_branch_invariance(self, generic_sm):
        sm1 = smatrix.t_matrix_zero(build_model(GENERIC_BP, 2, eta=1))
        assert abs(sm1.detT0 - generic_sm.detT0) < 1e-8 * abs(generic_sm.detT0)
        assert abs(sm1.detP0 - generic_sm.detP0) < 1e-8


class TestZ5:
    def test_vanishing_entries(self, z5_sm):
        t = z5_sm.T0
        scale = np.abs(t).max()
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (3, 0)]:
            assert abs(t[i, j]) < 1e-6 * scale, (i, j)

    def test_dimension_three_signature(self, z5_sm):
        d = smatrix.kernel_diagnostics(z5_sm)
        assert d["classification"] == "dimension 3 signature"
        assert d["normalized_detT0"] < 1e-6
        assert d["row2_residual"] < 1e-6
        assert d["row4_residual"] < 1e-6

    def test_degenerate_flag(self, z5_sm):
        _, _, flags = smatrix.det_ratios(z5_sm)
        assert any("degenerate" in f for f in flags)

    def test_perturbation_lifts_degeneracy(self):
        bp = make_z5_curve(0.0, 1.0).branch_points.copy()
        bp[3] += 0.05
        sm = smatrix.t_matrix_zero(build_model(list(bp), 0))
        d = smatrix.kernel_diagnostics(sm)
        assert d["classification"].startswith("generic")
        assert d["normalized_detT0"] > 1e-4


class TestRatios:
    def test_prefactor_value(self):
        assert abs(smatrix.DET_PREFACTOR - 0.73108181) < 1e-7
        assert abs(smatrix.DET_PREFACTOR ** 2 - 0.53448061) < 1e-7

    def test_ratio_definitions(self, generic_sm):
        rs, rh, _ = smatrix.det_ratios(generic_sm)
        assert rs == smatrix.DET_PREFACTOR ** 2 * generic_sm.detT0
        assert rh == smatrix.DET_PREFACTOR * generic_sm.detP0

    def test_continuity_under_small_perturbation(self, generic_sm):
        rng = np.random.default_rng(17)
        bp = np.asarray(GENERIC_BP, dtype=complex)
        diam = np.abs(bp[:, None] - bp[None, :]).max()
        bp = bp + 1e-3 * diam * np.exp(2j * np.pi * rng.random(6))
        sm = smatrix.t_matrix_zero(build_model(list(bp), 2))
        rel = abs(sm.detT0 - generic_sm.detT0) / abs(generic_sm.detT0)
        assert rel < 0.1


class TestReport:
    def test_json_round_trip(self, z5_sm):
        rep = smatrix.report(z5_sm)
        blob = json.dumps(rep, sort_keys=True)
        back = json.loads(blob)
        assert back["classification"] == "dimension 3 signature"
        assert len(back["T0"]) == 4 and len(back["T0"][0]) == 4
        assert "piB00" in back["audit"]

    def test_report_deterministic(self, z5_sm):
        a = json.dumps(smatrix.report(z5_sm), sort_keys=True)
        b = json.dumps(smatrix.report(z5_sm), sort_keys=True)
        assert a == b
