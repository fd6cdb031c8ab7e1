import io
import math

import numpy as np
import pytest

import branchknot as bk
from branchknot.cpoly import CPoly
from branchknot.errors import (
    BranchOnSlice,
    NonMonotoneFiberAngle,
    OpenCurve,
    PushoffCollision,
    TraceFailure,
)
from branchknot import knot as knot_module
from branchknot.knot import KnotCurve


class TestTraceSlice:
    def test_flat_plane_circle(self, flat_knot):
        assert len(flat_knot.components) == 1
        assert np.abs(np.abs(flat_knot.preimages) - 0.5).max() < 1e-9
        assert np.abs(np.linalg.norm(flat_knot.samples, axis=1) - 1).max() < 1e-10

    def test_cusp_preimage_near_sqrt_eta(self, cusp_knot):
        # |F| = eta with |F| ~ |z|^2 puts the preimage near sqrt(eta)
        r = np.abs(cusp_knot.preimages)
        assert abs(r.mean() - math.sqrt(1e-2)) < 2e-3
        assert r.std() < 1e-6

    def test_samples_on_sphere_and_trace_tol(self, cusp, cusp_knot):
        img = bk.evaluate_F(cusp, cusp_knot.preimages)
        assert np.abs(np.linalg.norm(img, axis=1) - 1e-2).max() < 1e-12 * 1e-2 * 10
        assert np.abs(np.linalg.norm(cusp_knot.samples, axis=1) - 1).max() < 1e-10

    def test_winding_matches_multiplicity(self, cusp_knot, flat_knot):
        assert bk.braid_from_knot(cusp_knot).n_strands == 2
        assert bk.braid_from_knot(flat_knot).n_strands == 1

    def test_no_slice_at_huge_radius(self, cusp):
        with pytest.raises(TraceFailure):
            bk.trace_slice(cusp, 5.0)

    def test_open_curve_on_tiny_budget(self, flat):
        with pytest.raises(OpenCurve):
            bk.trace_slice(flat, 0.5, max_steps=5)

    def test_branch_value_on_sphere(self):
        # branch point at z=0.3 with nonzero image: slicing through its
        # image norm is rejected
        a = 0.3
        # f1' = (z-a), f2' = -(z-a) z^2, f3' = f4' = z(z-a)
        w = bk.load([CPoly([-a, 1]), -1.0 * (CPoly([-a, 1]) * CPoly([0, 0, 1])),
                     CPoly([-a, 1]) * CPoly([0, 1]), CPoly([-a, 1]) * CPoly([0, 1])])
        bp = bk.branch_points(w)
        assert any(abs(b - a) < 1e-9 for b in bp)
        eta_hit = float(np.linalg.norm(bk.evaluate_F(w, a)))
        with pytest.raises(BranchOnSlice):
            bk.trace_slice(w, eta_hit)

    def test_one_gradient_per_predictor_and_corrector_step(self, cusp, monkeypatch):
        # the predictor takes its tangent from the gradient the corrector
        # accepted, so a sample costs three gradients, not four
        calls = 0
        real = knot_module._level_gradient

        def counted(w, z):
            nonlocal calls
            calls += 1
            return real(w, z)

        monkeypatch.setattr(knot_module, "_level_gradient", counted)
        k = bk.trace_slice(cusp, 1e-2)
        assert calls <= 3.05 * k.samples.shape[0]

    def test_csv_export(self, flat_knot):
        text = flat_knot.csv_text()
        header, first = text.splitlines()[:2]
        assert header == "theta,x1,x2,x3,x4,z_re,z_im"
        assert len(first.split(",")) == 7


class TestBraid:
    def test_cusp_trefoil(self, cusp_knot):
        b = bk.braid_from_knot(cusp_knot)
        assert b.n_strands == 2
        assert len(b.crossings) == 3
        assert all(c[3] == 1 for c in b.crossings)
        assert bk.algebraic_crossing_number(b) == 3

    def test_flat_unknot(self, flat_knot):
        b = bk.braid_from_knot(flat_knot)
        assert b.n_strands == 1
        assert b.crossings == ()
        assert bk.algebraic_crossing_number(b) == 0

    def test_torus_five_crossings(self, torus_knot):
        b = bk.braid_from_knot(torus_knot)
        assert b.n_strands == 2
        assert len(b.crossings) == 5
        assert all(c[3] == 1 for c in b.crossings)

    def test_stable_crossing_number(self, cusp_knot, torus_knot):
        assert bk.stable_crossing_number(cusp_knot) == 3
        assert bk.stable_crossing_number(torus_knot) == 5

    def test_mirror_data_gives_negative_crossings(self):
        w = bk.load([CPoly([0, 1]), CPoly([0, 0, 0, -8]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 8])])
        k = bk.trace_slice(w, 0.05)
        assert bk.stable_crossing_number(k) == -3

    def test_non_monotone_at_large_radius(self):
        w = bk.load([CPoly([0, 1]), CPoly([0, 0, 0, -8]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 8])])
        k = bk.trace_slice(w, 0.14)
        with pytest.raises(NonMonotoneFiberAngle):
            bk.braid_from_knot(k)

    def test_braid_json(self, cusp_knot):
        d = bk.braid_from_knot(cusp_knot).to_json_dict()
        assert d["n_strands"] == 2
        assert len(d["crossings"]) == 3
        assert set(d["crossings"][0]) == {"theta", "strand_i", "strand_j", "sign"}


class TestLinking:
    def test_matches_crossing_sum(self, cusp_knot, torus_knot, flat_knot):
        for k, e in ((cusp_knot, 3), (torus_knot, 5), (flat_knot, 0)):
            lk = bk.linking_number_gauss(k)
            assert abs(lk - round(lk)) <= 0.1
            assert int(round(lk)) == e

    def test_pushoff_collision(self, flat_knot):
        with pytest.raises(PushoffCollision):
            bk.linking_number_gauss(flat_knot, pushoff_delta=100.0)

    def test_explicit_delta(self, cusp_knot):
        lk = bk.linking_number_gauss(cusp_knot, pushoff_delta=0.02)
        assert int(round(lk)) == 3


class TestSelfLinking:
    def test_identity_instances(self):
        assert bk.self_linking(3, 2) == 1
        assert bk.self_linking(0, 1) == -1
        assert bk.self_linking(5, 2) == 3


class TestContactMargin:
    def test_flat_plane_unit_margin(self, flat_knot):
        for orientation in (+1, -1):
            m = bk.contact_transversality_margin(flat_knot, orientation)
            assert abs(m - 1.0) <= 1e-6

    def test_positive_on_branch_knots(self, cusp_knot, torus_knot):
        for k in (cusp_knot, torus_knot):
            assert bk.contact_transversality_margin(k, +1) > 0.5
            assert bk.contact_transversality_margin(k, -1) > 0.5

    def test_contact_tangent_circle_has_zero_margin(self):
        # great circle through the (x1, x3)-plane: its tangent is
        # orthogonal to J q everywhere for the + structure
        th = 2 * np.pi * np.arange(256) / 256
        q = np.stack([np.cos(th), np.zeros_like(th),
                      np.sin(th), np.zeros_like(th)], axis=1)
        k = KnotCurve(samples=q, preimages=np.exp(1j * th),
                      eta=1.0, components=((0, 256),))
        assert bk.contact_transversality_margin(k, +1) < 1e-12


class TestEtaSelection:
    def test_cusp_accepts_first_braidable(self, cusp):
        k = bk.select_eta(cusp, start=0.1)
        assert k.eta == 0.1  # every radius braids for an exact complex curve
        assert np.array_equal(k.samples, bk.trace_slice(cusp, k.eta).samples)

    def test_strong_mixing_scans_down(self):
        w = bk.load([CPoly([0, 1]), CPoly([0, 0, 0, -8]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 8])])
        k = bk.select_eta(w, start=0.2)
        assert k.eta < 0.2
        assert np.array_equal(k.samples, bk.trace_slice(w, k.eta).samples)
        bk.braid_from_knot(k)

    def test_failure_names_every_eta_tried(self, cusp):
        with pytest.raises(TraceFailure) as exc:
            bk.select_eta(cusp, start=5.0, min_eta=2.0)
        msg = str(exc.value)
        assert "5.0 (TraceFailure)" in msg and "2.5 (TraceFailure)" in msg


class TestVerify:
    def test_cusp_pipeline(self, cusp, cusp_member):
        rep = bk.verify_double_point_formula(cusp, cusp_member.params, 1e-2)
        assert (rep.D, rep.e, rep.N, rep.sl) == (1, 3, 2, 1)
        assert rep.identity_ok and rep.isotopy_ok
        assert rep.e_deformed == 3
        assert abs(rep.e_gauss - 3) <= 0.1
        assert rep.margins_base[+1] > 0 and rep.margins_base[-1] > 0

    def test_flat_control(self, flat):
        rep = bk.verify_double_point_formula(flat, None, 0.5)
        assert (rep.D, rep.e, rep.N) == (0, 0, 1)
        assert rep.sl == -1
        assert rep.identity_ok

    def test_report_json(self, flat):
        rep = bk.verify_double_point_formula(flat, None, 0.5)
        d = rep.to_json_dict()
        assert d["identity_ok"] is True
        assert d["N"] == 1
