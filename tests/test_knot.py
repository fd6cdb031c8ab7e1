import csv
import io
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import branchknot as bk
from branchknot.cpoly import CPoly
from branchknot.errors import (
    BranchOnSlice,
    CrossingRoutesDisagree,
    FormulaViolation,
    NonMonotoneFiberAngle,
    PushoffCollision,
    SliceNotEmbedded,
    TraceFailure,
)
from branchknot import knot as knot_module
from branchknot.knot import KnotCurve
from branchknot.weierstrass import WeierstrassData

DATA = Path(__file__).resolve().parent.parent / "data"
PERFBENCH = DATA.parent / "perfbench"


def torus_curve(p, q, a=1.0, b=1.0):
    """The complex curve z -> (a z^p, b z^q), given by its derivatives."""
    return bk.load([CPoly([0] * (p - 1) + [p * a]), CPoly.zero(),
                    CPoly([0] * (q - 1) + [q * b]), CPoly.zero()])


def reference_gap(k: KnotCurve) -> float:
    """The strand gap by the per-shift rule the strand table replaced: the
    least distance of a sample from each other sheet, interpolated
    periodically at the sample's own fiber angle."""
    try:
        q, th, n = k.sheets
    except NonMonotoneFiberAngle:
        return math.inf
    if n < 2:
        return math.inf
    total, th = th[-1] - th[0], th[:-1]
    wf = q[:, 2] + 1j * q[:, 3]
    return min(float(np.min(np.abs(
        wf - np.interp(th + 2.0 * math.pi * s, th, wf, period=total))))
        for s in range(1, n))


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

    def test_csv_matches_a_csv_writer(self, flat_knot):
        # signed zeros, a negative fiber angle and values that need all
        # 15 significant digits
        hand = KnotCurve(
            samples=np.array([[1.0, -0.0, 0.1234567890123456, -1 / 3],
                              [-0.6, -0.8, 2.0 ** -40, 1e-300],
                              [-0.0, 1.0, -0.0, 123456.789012345678]]),
            preimages=np.array([complex(-0.0, 0.0), complex(1 / 7, -2 / 3),
                                complex(1e20, -1e-20)]),
            eta=0.1)
        for k in (hand, flat_knot):
            ref = io.StringIO()
            writer = csv.writer(ref)
            writer.writerow(["theta", "x1", "x2", "x3", "x4", "z_re", "z_im"])
            th = k.fiber_angles()
            for i in range(len(k.samples)):
                writer.writerow([f"{th[i]:.12g}",
                                 *(f"{x:.15g}" for x in k.samples[i]),
                                 f"{k.preimages[i].real:.15g}",
                                 f"{k.preimages[i].imag:.15g}"])
            buf = io.StringIO()
            k.to_csv(buf)
            assert buf.getvalue() == ref.getvalue()

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 4)])
    def test_bisection_stops_at_its_fixed_point(self, p, q, monkeypatch):
        # the safeguarded Newton passes end once every ray has settled: a
        # slice takes at most the 64 scan passes, 12 Newton passes and one
        # at the roots, and a larger step budget evaluates F no more often
        # and moves no preimage
        w = torus_curve(p, q)
        calls = []
        real = knot_module._complex_F

        def spy(w, z):
            calls.append(1)
            return real(w, z)

        monkeypatch.setattr(knot_module, "_complex_F", spy)
        k = bk.trace_slice(w, 0.05)
        n_default = len(calls)
        assert n_default <= 64 + 12 + 1
        monkeypatch.setattr(knot_module, "_MAX_PASSES", 200)
        calls.clear()
        assert np.array_equal(bk.trace_slice(w, 0.05).preimages, k.preimages)
        assert len(calls) == n_default

    @pytest.mark.parametrize("stem", ["cusp", "T(3,4)", "mixed_strong",
                                      "flat_plane"])
    @pytest.mark.parametrize("eta", [0.1, 0.05])
    def test_newton_roots_match_bisection(self, stem, eta):
        # every preimage lies within 4 ulps of the root that bisection to
        # adjacent floats finds, and the reference's slice braids the same
        w = (torus_curve(3, 4) if stem == "T(3,4)" else
             WeierstrassData.from_json_dict(
                 json.loads((DATA / f"{stem}.json").read_text())))
        k = bk.trace_slice(w, eta)
        r, dirs = _bisection_roots(w, eta)
        assert (np.abs(k.preimages - r * dirs) <= 4 * np.spacing(r)).all()
        F = bk.evaluate_F(w, r * dirs)
        ref = KnotCurve(samples=F / np.linalg.norm(F, axis=1, keepdims=True),
                        preimages=r * dirs, eta=eta)
        b, b_ref = bk.braid_from_knot(k), bk.braid_from_knot(ref)
        assert b.n_strands == b_ref.n_strands == w.N
        assert (bk.algebraic_crossing_number(b)
                == bk.algebraic_crossing_number(b_ref))

    def test_trace_funnel_logged(self, cusp, caplog):
        with caplog.at_level(logging.DEBUG, logger="branchknot.knot"):
            bk.trace_slice(cusp, 1e-2)
        (rec,) = [r for r in caplog.records if r.name == knot_module.__name__]
        for stage in ("rays", "Newton passes", "rays bisected",
                      "largest last step"):
            assert stage in rec.getMessage()
        eta, rays, passes, bisected, ulps = rec.args
        assert (eta, rays) == (1e-2, 2048)
        assert 1 <= passes <= 12 and bisected == 0 and ulps <= 4


def _bisection_roots(w, eta):
    """The roots of the scan's brackets by bisection on |F| < eta until
    every bracket is two adjacent floats (60 steps get there from the
    scan's spacing), and the rays."""
    dirs = np.exp(2j * np.pi * np.arange(2048) / 2048)
    radii = knot_module._SCAN_RADII
    hi = np.argmax([np.linalg.norm(bk.evaluate_F(w, r * dirs), axis=1) >= eta
                    for r in radii], axis=0)
    a, b = radii[hi - 1], radii[hi]
    for _ in range(60):
        mid = 0.5 * (a + b)
        inside = np.linalg.norm(bk.evaluate_F(w, mid * dirs), axis=1) < eta
        a, b = np.where(inside, mid, a), np.where(inside, b, mid)
    return 0.5 * (a + b), dirs


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

    def test_clockwise_loop_is_reversed(self):
        # the conjugate cusp z -> (conj z^2, conj z^3): its slice turns
        # clockwise in the fiber plane, so the braid reads it backwards and
        # gets the cusp's trefoil
        w = bk.load([CPoly.zero(), CPoly([0, 2]), CPoly.zero(),
                     CPoly([0, 0, 3])])
        k = bk.trace_slice(w, 0.05)
        th = np.unwrap(k.fiber_angles())
        assert th[-1] - th[0] < -2 * math.pi
        b = bk.braid_from_knot(k)
        assert (b.n_strands, bk.algebraic_crossing_number(b)) == (2, 3)

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

    @pytest.mark.parametrize("q", [5, 7, 9])
    def test_equal_angle_crossings_in_strand_pair_order(self, q):
        # the strands of z -> (a z^4, b z^q) at one fiber angle are c i^(qk),
        # k = 0..3, so the chords of the pairs (k, k+1) and (k+2, k+3) are
        # opposite and cross at one angle; each such pair of crossings is
        # listed by strand pair, not in an order rounding decides
        w = torus_curve(4, q, 0.7 * np.exp(0.3j), 1.6 * np.exp(2.1j))
        crossings = bk.braid_from_knot(bk.trace_slice(w, 0.1)).crossings
        assert len(crossings) == 3 * q
        groups = [[crossings[0]]]
        for c in crossings[1:]:
            if c[0] - groups[-1][-1][0] <= 1e-12:
                groups[-1].append(c)
            else:
                groups.append([c])
        # q crossings of (0, 2) or (1, 3) alone, and q pairs
        assert sorted(len(g) for g in groups) == [1] * q + [2] * q
        for g in groups:
            pairs = [c[1:3] for c in g]
            assert pairs == sorted(pairs)

    def test_braid_reads_the_strand_table(self, torus_knot, monkeypatch):
        # once the slice's strand table is built, the braid interpolates
        # nothing: it reads the table the gap was measured on
        grid, table = torus_knot.strands
        calls = []
        real = np.interp

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "interp", spy)
        b = bk.braid_from_knot(torus_knot)
        assert calls == []
        assert b.n_strands == len(table) == 2
        assert bk.algebraic_crossing_number(b) == 5

    def test_braid_json(self, cusp_knot):
        d = bk.braid_from_knot(cusp_knot).to_json_dict()
        assert d["n_strands"] == 2
        assert len(d["crossings"]) == 3
        assert set(d["crossings"][0]) == {"theta", "strand_i", "strand_j", "sign"}


class TestLinking:
    def test_matches_crossing_sum(self, cusp_knot, torus_knot, flat_knot):
        for k, e in ((cusp_knot, 3), (torus_knot, 5), (flat_knot, 0)):
            assert abs(bk.linking_number_gauss(k) - e) <= 1e-6

    def test_pushoff_collision(self):
        # a great circle of the (x3,x4)-plane: one sheet, so delta is 0.05,
        # and every pushoff direction lies in its plane, so each pushed
        # sample renormalizes back onto the circle
        th = 2 * np.pi * np.arange(256) / 256
        q = np.stack([np.zeros_like(th), np.zeros_like(th),
                      np.cos(th), np.sin(th)], axis=1)
        k = KnotCurve(samples=q, preimages=np.exp(1j * th), eta=1.0)
        assert k.strand_gap == math.inf
        with pytest.raises(PushoffCollision, match="delta=5.00e-02"):
            bk.linking_number_gauss(k)

    def test_projection_frame_is_oriented_and_orthonormal(self):
        rng = np.random.default_rng(5)
        poles = rng.standard_normal((2000, 4))
        poles /= np.linalg.norm(poles, axis=1, keepdims=True)
        # on the coordinate axes a completion that orthogonalizes the axes
        # in turn would have to skip one of them
        poles = np.vstack([poles, np.eye(4), -np.eye(4)])
        for pole in poles:
            M = np.column_stack([pole, knot_module._orthonormal_frame(pole)])
            assert abs(np.linalg.det(M) + 1.0) <= 1e-12
            assert np.abs(M.T @ M - np.eye(4)).max() <= 1e-12

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

    def test_strand_gap_from_the_samples(self, cusp_knot, flat_knot, tmp_path,
                                         monkeypatch):
        # the cusp's sheets sit at +/- z^3 / eta with |z|^4 + |z|^6 = eta^2,
        # so at equal fiber angle they are 2 |z|^3 / eta apart
        r = np.abs(cusp_knot.preimages).mean()
        gap = cusp_knot.strand_gap
        assert abs(gap / (2 * r ** 3 / 1e-2) - 1) < 1e-4
        assert flat_knot.strand_gap == math.inf
        # the mirrored loop's fiber angle falls; its sheets are read on the
        # loop reversed back, so its gap is the original one
        mirrored = KnotCurve(samples=cusp_knot.samples[::-1],
                             preimages=cusp_knot.preimages[::-1], eta=1e-2)
        assert abs(mirrored.strand_gap / gap - 1) <= 1e-15
        # two sheets 0.6 apart whose fiber angle rises over two turns, but
        # by 0.6 pi from the last sample back to the first: the braid
        # refuses the slice, and the gap is not measured on it either
        th = np.linspace(0, 3.4 * math.pi, 400)
        c = 0.3 * np.exp(0.5j * th)
        rho = math.sqrt(1 - 0.3 ** 2)
        k = KnotCurve(samples=np.stack([rho * np.cos(th), rho * np.sin(th),
                                        c.real, c.imag], axis=1),
                      preimages=0.1 * np.exp(1j * th / 2), eta=0.1)
        with pytest.raises(NonMonotoneFiberAngle, match="not strictly monotone"):
            bk.braid_from_knot(k)
        assert k.strand_gap == math.inf
        # the gap is the least distance of two strands of the strand table
        # at one fiber angle.  With three sheets or more it also compares
        # two interpolated strands at a third sheet's sample angle, so it
        # is at most the per-shift rule's gap (to rounding) and within 1e-4
        # of it; on the two-sheet fixtures the two are equal.  The slices
        # are those knot reads without --eta: the 15 knot-slices T(p,q)
        # curves at workload seed 1, and the cusp, torus5 and mixed_strong
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import build_cases
        slices = [(Path(c.argv[c.argv.index("--input") + 1]), False)
                  for c in build_cases("knot-slices", 1, DATA, tmp_path)
                  if c.name.startswith("knot T(")]
        assert len(slices) == 15
        slices += [(DATA / f"{stem}.json", True)
                   for stem in ("cusp", "torus5", "mixed_strong")]
        for path, fixture in slices:
            w = WeierstrassData.from_json_dict(json.loads(path.read_text()))
            k = bk.select_eta(w)
            grid, table = k.strands
            assert table.shape == (w.N, len(grid))
            pairwise = min(float(np.abs(table[a] - table[b]).min())
                           for a in range(w.N) for b in range(a + 1, w.N))
            gap, ref = k.strand_gap, reference_gap(k)
            assert gap == pairwise
            assert ref * (1 - 1e-4) <= gap <= ref * (1 + 1e-12), path
            if fixture:
                assert w.N == 2 and gap == ref, path

    def test_pushoff_direction_is_ranked(self):
        # on this slice the pushoff in direction 0 of the (x3,x4)-plane
        # clears the slice by less than the 0.1 delta floor; the ranked
        # direction links it with the braid's crossing sum
        data = json.loads((DATA / "mixed_strong.json").read_text())
        k = bk.trace_slice(WeierstrassData.from_json_dict(data), 0.1)
        assert bk.algebraic_crossing_number(bk.braid_from_knot(k)) == -3
        assert abs(bk.linking_number_gauss(k) + 3) <= 1e-6

    def test_touching_pushoff_is_refused(self):
        # the four-function fixture has f3' = f4', so its slice lies in
        # {x4 = 0} and its strands meet (gap ~4e-16): the trace refuses it
        # before any pushoff is tried
        data = json.loads((DATA / "four_function.json").read_text())
        with pytest.raises(SliceNotEmbedded,
                           match=r"eta=0\.1 is not embedded: .* below 1e-12"):
            bk.trace_slice(WeierstrassData.from_json_dict(data), 0.1)

    def test_touching_sheets_leave_the_pushoff_no_clearance(self):
        # two sheets x3 = +/-0.5 cos(theta / 2), x4 = 0 over the fiber angle
        # theta meet at theta = pi; the pushoff lands on the slice, so even
        # the full 2048-point polygon has no clearance
        th = 4 * math.pi * np.arange(2048) / 2048
        x3 = 0.5 * np.cos(th / 2)
        rho = np.sqrt(1 - x3 ** 2)
        k = KnotCurve(samples=np.stack([rho * np.cos(th), rho * np.sin(th),
                                        x3, 0 * x3], axis=1),
                      preimages=0.1 * np.exp(1j * th / 2), eta=0.1)
        assert k.strand_gap < 1e-15
        with pytest.raises(PushoffCollision, match="2048-point polygon"):
            bk.linking_number_gauss(k)


class TestCrossingRoutes:
    @pytest.mark.parametrize("e, lk", [(3, 3.0), (3, 3 + 9e-7), (0, -4e-17)])
    def test_agreeing_routes_pass(self, e, lk):
        bk.check_crossing_routes(e, lk)

    @pytest.mark.parametrize("e, lk, gauss", [
        (3, 4.0, "4.000"), (3, 3 + 2e-6, "3.000"), (0, 0.4, "0.400"),
        (-3, math.nan, "nan")])
    def test_disagreeing_routes_refused(self, e, lk, gauss):
        with pytest.raises(CrossingRoutesDisagree) as exc:
            bk.check_crossing_routes(e, lk)
        assert str(exc.value) == ("crossing-count routes disagree: "
                                  f"braid {e}, gauss {gauss}")


class TestReadSlice:
    @pytest.mark.parametrize("eta", [1e-2, None])
    def test_routes_that_disagree_are_refused(self, cusp, eta, monkeypatch):
        # read_slice owns the route verdict: a Gauss sum one above the
        # braid's crossing sum is refused there, with or without an eta
        def one_more(k):
            return bk.algebraic_crossing_number(bk.braid_from_knot(k)) + 1.0

        monkeypatch.setattr(knot_module, "linking_number_gauss", one_more)
        with pytest.raises(CrossingRoutesDisagree,
                           match="braid 3, gauss 4.000"):
            bk.read_slice(cusp, eta)


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
        k = bk.select_eta(cusp)
        assert k.eta == 0.1  # every radius braids for an exact complex curve
        assert np.array_equal(k.samples, bk.trace_slice(cusp, k.eta).samples)

    def test_strong_mixing_scans_down(self, monkeypatch):
        monkeypatch.setattr(knot_module, "_ETA_START", 0.2)
        w = bk.load([CPoly([0, 1]), CPoly([0, 0, 0, -8]),
                     CPoly([0, 0, 1]), CPoly([0, 0, 8])])
        k = bk.select_eta(w)
        assert k.eta < 0.2
        assert np.array_equal(k.samples, bk.trace_slice(w, k.eta).samples)
        bk.braid_from_knot(k)

    def test_non_radial_slice_is_rejected_and_halved(self, monkeypatch):
        w = dipping_map()
        eta_min = knot_module._ETA_MIN
        monkeypatch.setattr(knot_module, "_ETA_START", 0.01)
        monkeypatch.setattr(knot_module, "_ETA_MIN", 0.004)
        with pytest.raises(TraceFailure) as exc:
            bk.select_eta(w)
        msg = str(exc.value)
        assert "0.01 (TraceFailure)" in msg and "0.005 (TraceFailure)" in msg
        # below the dip's floor of about 0.0022 every ray crosses once
        monkeypatch.setattr(knot_module, "_ETA_MIN", eta_min)
        k = bk.select_eta(w)
        assert k.eta == 0.00125
        assert bk.braid_from_knot(k).n_strands == 1

    def test_winding_not_N_is_rejected_and_halved(self, monkeypatch):
        # z -> (z^2 + 5 z^3, z^5): the slice also encloses the root -0.2 of
        # the first component, and winds 3 times, down to eta = 0.0125
        w = bk.load([CPoly([0, 2, 15]), CPoly.zero(),
                     CPoly([0, 0, 0, 0, 5]), CPoly.zero()])
        k = bk.select_eta(w)
        assert k.eta == 0.1 * 0.5 ** 7
        b = bk.braid_from_knot(k)
        assert (b.n_strands, bk.algebraic_crossing_number(b)) == (2, 5)
        monkeypatch.setattr(knot_module, "_ETA_MIN", 0.01)
        with pytest.raises(TraceFailure) as exc:
            bk.select_eta(w)
        for eta in (0.1, 0.05, 0.025, 0.0125):
            assert f"{eta} (winding 3 != N = 2)" in str(exc.value)

    def test_failure_names_every_eta_tried(self, cusp, monkeypatch):
        monkeypatch.setattr(knot_module, "_ETA_START", 5.0)
        monkeypatch.setattr(knot_module, "_ETA_MIN", 2.0)
        with pytest.raises(TraceFailure) as exc:
            bk.select_eta(cusp)
        msg = str(exc.value)
        assert "5.0 (TraceFailure)" in msg and "2.5 (TraceFailure)" in msg


class TestVerify:
    def test_cusp_pipeline(self, cusp_member):
        rep = bk.verify_double_point_formula(cusp_member.base,
                                             cusp_member.deformed, 1e-2)
        assert (rep.D, rep.e, rep.N, rep.sl) == (1, 3, 2, 1)
        assert rep.identity_ok and rep.isotopy_ok
        assert rep.e_deformed == 3
        assert abs(rep.e_gauss - 3) <= 0.1
        assert rep.margins_base[+1] > 0 and rep.margins_base[-1] > 0

    def test_flat_control(self, flat):
        rep = bk.verify_double_point_formula(flat, eta=0.5)
        assert (rep.D, rep.e, rep.N) == (0, 0, 1)
        assert rep.sl == -1
        assert rep.identity_ok

    def test_report_json(self, flat):
        rep = bk.verify_double_point_formula(flat, eta=0.5)
        d = rep.to_json_dict()
        assert d["identity_ok"] is True
        assert d["N"] == 1

    @pytest.mark.parametrize("eta", [0.05, None])
    def test_relabelled_input_is_sliced_in_the_member_frame(self, eta):
        # x -> (conj z^2, z^3): relabel_orders swaps f1' and f2', which
        # mirrors one coordinate plane, so the member is the cusp's and
        # its base slice must be the cusp's trefoil too
        w = bk.load([CPoly.zero(), CPoly([0, 2]), CPoly([0, 0, 3]),
                     CPoly.zero()])
        with pytest.warns(UserWarning, match="reflects one coordinate plane"):
            fm = bk.sample_generic(w, 0.005, 1)
        rep = bk.verify_double_point_formula(fm.base, fm.deformed, eta)
        assert (rep.D, rep.e, rep.N, rep.e_deformed) == (1, 3, 2, 3)
        assert rep.identity_ok and rep.isotopy_ok

    def test_violation_carries_report(self, cusp):
        # at t = 0.05 the sampled member's double point lies outside the
        # 0.01-ball, so D = 0 against e - (N-1) = 2
        fm = bk.sample_generic(cusp, 0.05, 1)
        with pytest.raises(FormulaViolation) as exc:
            bk.verify_double_point_formula(fm.base, fm.deformed, 0.01)
        rep = exc.value.report
        assert (rep.D, rep.e, rep.N) == (0, 3, 2)
        assert rep.identity_ok is False
        assert exc.value.args[0] == rep.notes[-1]
        assert rep.notes[-1] == "2D = 0 differs from e - (N-1) = 2"

    def test_winding_violation_carries_report(self):
        # z -> (z + 5 z^2, 10 z^2) is immersed (N = 1), but its slice at
        # eta = 0.8 encloses the root -0.2 of z + 5 z^2 as well as 0, so
        # its fiber angle turns twice
        w = bk.load([CPoly([1, 10]), CPoly.zero(), CPoly([0, 20]),
                     CPoly.zero()])
        with pytest.raises(FormulaViolation) as exc:
            bk.verify_double_point_formula(w, eta=0.8)
        rep = exc.value.report
        assert (rep.D, rep.e, rep.N) == (0, 1, 1)
        assert exc.value.args[0] == rep.notes[-1]
        assert rep.notes[-1] == "slice winding 2 != N = 1"
        assert rep.e_deformed is None and rep.isotopy_ok is None

    def test_isotopy_violation_carries_report(self, cusp_member, monkeypatch):
        # one extra positive crossing on the perturbed slice's braid only:
        # the identity holds on the base slice, the isotopy check fails
        k_def = bk.trace_slice(cusp_member.deformed, 1e-2)
        real = knot_module.braid_from_knot

        def braid(k):
            b = real(k)
            if not np.array_equal(k.samples, k_def.samples):
                return b
            return bk.BraidDiagram(b.n_strands, b.crossings + ((0.0, 0, 1, 1),))

        monkeypatch.setattr(knot_module, "braid_from_knot", braid)
        with pytest.raises(FormulaViolation) as exc:
            bk.verify_double_point_formula(cusp_member.base,
                                           cusp_member.deformed, 1e-2)
        rep = exc.value.report
        assert (rep.D, rep.e, rep.N, rep.e_deformed) == (1, 3, 2, 4)
        assert rep.identity_ok and rep.isotopy_ok is False
        assert exc.value.args[0] == rep.notes[-1]
        assert rep.notes[-1] == "perturbed slice crossing sum 4 != 3"

    def test_searches_the_disk_the_slice_bounds(self):
        # this T(5,9) member has four double points in the 0.05-ball, with
        # preimages at |z| = 0.534-0.553: past a fixed search disk of
        # radius 0.5, inside the disk the deformed slice bounds
        w = torus_curve(5, 9)
        fm = bk.sample_generic(w, 0.005, 2)
        # the deformed slice is not isotopic to the base one (e_def = 12,
        # e = 36), so the identity on e fails while it holds on e_def
        with pytest.raises(FormulaViolation) as exc:
            bk.verify_double_point_formula(fm.base, fm.deformed, 0.05)
        rep = exc.value.report
        assert rep.D == 4
        e_def = bk.algebraic_crossing_number(
            bk.braid_from_knot(bk.trace_slice(fm.deformed, 0.05)))
        assert e_def == 12
        assert 2 * rep.D == e_def - (rep.N - 1)
        # every double point in the ball that a search of the whole
        # admissible disk finds is in the report, up to the pair swap
        pairs = [(dp.z1, dp.z2) for dp in rep.double_points]
        in_ball = [dp for dp in bk.find_double_points(fm.deformed, 0.9, 48)
                   if np.linalg.norm(dp.image) < 0.05]
        assert len(in_ball) == 4
        for dp in in_ball:
            assert any(max(abs(dp.z1 - a), abs(dp.z2 - b)) <= 1e-9
                       or max(abs(dp.z1 - b), abs(dp.z2 - a)) <= 1e-9
                       for a, b in pairs)


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
