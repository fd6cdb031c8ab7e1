import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import branchknot as bk
from branchknot.cpoly import CPoly
from branchknot.errors import (
    BranchOnSlice,
    FormulaViolation,
    NonMonotoneFiberAngle,
    PushoffCollision,
    TraceFailure,
)
from branchknot import knot as knot_module
from branchknot.knot import KnotCurve
from branchknot.weierstrass import WeierstrassData

DATA = Path(__file__).resolve().parent.parent / "data"


def torus_curve(p, q, a=1.0, b=1.0):
    """The complex curve z -> (a z^p, b z^q), given by its derivatives."""
    return bk.load([CPoly([0] * (p - 1) + [p * a]), CPoly.zero(),
                    CPoly([0] * (q - 1) + [q * b]), CPoly.zero()])


def dipping_map():
    # F = (z (z - 1/2)^2, 0.01 z^2): along the positive real ray |F| rises
    # to 1/54 at z = 1/6, falls to about 0.0022 near z = 1/2 and rises
    # again, so the slice at eta = 0.01 meets that ray three times
    return bk.load([CPoly([0.25, -2, 3]), CPoly.zero(),
                    CPoly([0, 0.02]), CPoly.zero()])


class TestTraceSlice:
    def test_flat_plane_circle(self, flat_knot):
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

    def test_one_sample_per_ray_on_the_level_set(self, cusp, cusp_knot):
        assert cusp_knot.samples.shape == (2048, 4)
        img = bk.evaluate_F(cusp, cusp_knot.preimages)
        assert np.abs(np.linalg.norm(img, axis=1) / 1e-2 - 1).max() <= 1e-14
        # one preimage on each ray, counterclockwise from angle 0
        rays = 2 * np.pi * np.arange(2048) / 2048
        dphi = np.angle(cusp_knot.preimages * np.exp(-1j * rays))
        assert np.abs(dphi).max() < 1e-12

    def test_no_slice_at_huge_radius(self, cusp):
        with pytest.raises(TraceFailure):
            bk.trace_slice(cusp, 5.0)

    @pytest.mark.parametrize("eta", [-0.01, 0.0, math.nan, math.inf])
    def test_eta_not_finite_positive(self, cusp, eta):
        with pytest.raises(ValueError, match="finite and > 0"):
            bk.trace_slice(cusp, eta)

    def test_ray_crossing_twice_is_refused(self):
        with pytest.raises(TraceFailure, match="not a radial graph"):
            bk.trace_slice(dipping_map(), 0.01)

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

    def test_csv_export(self, flat_knot):
        buf = io.StringIO()
        flat_knot.to_csv(buf)
        text = buf.getvalue()
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
        # the strands are +/- r^3 e^{3 i theta / 2}: their real parts meet
        # where 3 theta / 2 = pi / 2 mod pi
        thetas = [c[0] for c in b.crossings]
        assert np.allclose(thetas, [np.pi / 3, np.pi, 5 * np.pi / 3], atol=1e-6)

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

    def test_crossing_sum(self, cusp_knot, torus_knot):
        assert bk.algebraic_crossing_number(bk.braid_from_knot(cusp_knot)) == 3
        assert bk.algebraic_crossing_number(bk.braid_from_knot(torus_knot)) == 5

    def test_twist_between_uniform_angles_is_counted(self):
        # a 2-strand slice whose strands are +/- r e^{i psi(theta)}, with
        # psi = theta / 2 (a slow half twist) plus a full twist inside a
        # fiber-angle window 0.4 * 2 pi / 2048 wide that 64 extra samples
        # resolve: crossing sum 3.  On a uniform 2048-angle grid the whole
        # full twist falls between two grid angles and the sum reads 1.
        h = 2 * np.pi / 2048
        a, width = 326.3 * h, 0.4 * h
        window = a + width * np.linspace(0.0, 1.0, 66)[1:-1]
        phi = np.sort(np.concatenate([h * np.arange(2048), window]))
        theta = np.concatenate([phi, phi + 2 * np.pi])
        u = np.clip((np.mod(theta, 2 * np.pi) - a) / width, 0.0, 1.0)
        psi = theta / 2 + 2 * np.pi * u * u * (3 - 2 * u)
        r = 0.5
        rho = math.sqrt(1 - r * r)
        q = np.stack([rho * np.cos(theta), rho * np.sin(theta),
                      r * np.cos(psi), r * np.sin(psi)], axis=1)
        z = np.exp(2j * np.pi * np.arange(len(q)) / len(q))
        b = bk.braid_from_knot(KnotCurve(samples=q, preimages=z, eta=1.0))
        assert b.n_strands == 2
        assert [c[3] for c in b.crossings] == [1, 1, 1]

    def test_mirror_data_gives_negative_crossings(self):
        w = bk.load([CPoly([0, 1]), CPoly([0, 0, 0, -8]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 8])])
        k = bk.trace_slice(w, 0.05)
        assert bk.algebraic_crossing_number(bk.braid_from_knot(k)) == -3

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
            assert abs(bk.linking_number_gauss(k) - e) <= 1e-6

    def test_pushoff_collision(self, flat_knot):
        with pytest.raises(PushoffCollision):
            bk.linking_number_gauss(flat_knot, pushoff_delta=100.0)

    def test_explicit_delta(self, cusp_knot):
        lk = bk.linking_number_gauss(cusp_knot, pushoff_delta=0.02)
        assert int(round(lk)) == 3

    @pytest.mark.parametrize("q", [7, 9])
    def test_coarse_polygon_is_refined(self, q, monkeypatch):
        # on z -> (2 z^2, z^q), fixed 75-point polygons link the T(2,7) and
        # T(2,9) slices with their pushoffs 2 and 0 times: integers, so no
        # integrality test catches them; the clearance rule must refine
        # them to the true 7 and 9
        monkeypatch.setattr(knot_module, "_GAUSS_START", 75)
        sizes = []
        real = knot_module._kernels.linking_sum

        def spy(P, Q):
            sizes.append(len(P))
            return real(P, Q)

        monkeypatch.setattr(knot_module._kernels, "linking_sum", spy)
        k = bk.select_eta(torus_curve(2, q, a=2.0))
        assert abs(bk.linking_number_gauss(k) - q) <= 1e-6
        assert sizes and sizes[0] > 75

    def test_strand_gap_from_the_samples(self, cusp_knot, flat_knot):
        # the cusp's sheets sit at +/- z^3 / eta with |z|^4 + |z|^6 = eta^2,
        # so at equal fiber angle they are 2 |z|^3 / eta apart
        r = np.abs(cusp_knot.preimages).mean()
        gap = knot_module._min_strand_gap(cusp_knot)
        assert abs(gap / (2 * r ** 3 / 1e-2) - 1) < 1e-4
        assert knot_module._min_strand_gap(flat_knot) == math.inf

    def test_touching_pushoff_is_refused(self):
        # the four-function fixture has f3' = f4', so its slice lies in
        # {x4 = 0}, its strands meet (gap ~4e-16) and the pushoff lands on
        # the slice: even the full 2048-point polygon has no clearance
        data = json.loads((DATA / "four_function.json").read_text())
        k = bk.trace_slice(WeierstrassData.from_json_dict(data), 0.1)
        with pytest.raises(PushoffCollision, match="2048-point polygon"):
            bk.linking_number_gauss(k)


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
        k = KnotCurve(samples=q, preimages=np.exp(1j * th), eta=1.0)
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

    def test_non_radial_slice_is_rejected_and_halved(self):
        w = dipping_map()
        with pytest.raises(TraceFailure) as exc:
            bk.select_eta(w, start=0.01, min_eta=0.004)
        msg = str(exc.value)
        assert "0.01 (TraceFailure)" in msg and "0.005 (TraceFailure)" in msg
        # below the dip's floor of about 0.0022 every ray crosses once
        k = bk.select_eta(w, start=0.01)
        assert k.eta == 0.00125
        assert bk.braid_from_knot(k).n_strands == 1

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

    def test_violation_carries_report(self, cusp):
        # at t = 0.05 the sampled member's double point lies outside the
        # 0.01-ball, so D = 0 against e - (N-1) = 2
        p = bk.sample_generic(cusp, 0.05, 1)
        with pytest.raises(FormulaViolation) as exc:
            bk.verify_double_point_formula(cusp, p, 0.01)
        rep = exc.value.report
        assert (rep.D, rep.e, rep.N) == (0, 3, 2)
        assert rep.identity_ok is False
        assert exc.value.args[0] == rep.notes[-1]
        assert rep.notes[-1] == "2D = 0 differs from e - (N-1) = 2"


@st.composite
def torus_curves(draw):
    p = draw(st.integers(2, 5))
    q = draw(st.sampled_from([q for q in range(p + 1, 10) if math.gcd(p, q) == 1]))
    a, b = (draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
            for _ in range(2))
    return p, q, a, b


@settings(max_examples=25, deadline=None)
@given(torus_curves())
# real b and the ray at angle 0 make the strands meet exactly: at a sample
# angle, and at the wrap angle
@example((5, 6, 1.0, 1.8611913601552512))
@example((4, 5, -0.28181677442361797 + 0.9594682410864195j, 1.0))
def test_complex_curve_slice_is_its_torus_knot(curve):
    # the slice of z -> (a z^p, b z^q) is T(p, q): p strands and crossing
    # sum q(p - 1), by the braid and, within 1e-6, by the Gauss sum
    p, q, a, b = curve
    k = bk.trace_slice(torus_curve(p, q, a, b), 0.1)
    b = bk.braid_from_knot(k)
    assert b.n_strands == p
    assert bk.algebraic_crossing_number(b) == q * (p - 1)
    assert abs(bk.linking_number_gauss(k) - q * (p - 1)) <= 1e-6
