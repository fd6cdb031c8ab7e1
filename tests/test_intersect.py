import json
import math
from pathlib import Path

import numpy as np
import pytest

import branchknot as bk
from branchknot import _kernels
from branchknot.cpoly import CPoly
from branchknot.errors import BranchPointInRegion
from branchknot.intersect import DoublePoint, _merge_pairs

CUSP_T = 0.05
DATA = Path(__file__).resolve().parent.parent / "data"


def pair_dist(dp, a, b):
    return min(max(abs(dp.z1 - a), abs(dp.z2 - b)),
               max(abs(dp.z1 - b), abs(dp.z2 - a)))


class TestFindDoublePoints:
    def test_perturbed_cusp(self, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, radius=0.5, grid_n=48)
        assert len(dps) == 1
        dp = dps[0]
        root = math.sqrt(3) * CUSP_T
        got = sorted([dp.z1, dp.z2], key=lambda c: c.real)
        assert abs(got[0] - (-root)) < 1e-8
        assert abs(got[1] - root) < 1e-8
        assert np.linalg.norm(dp.image - [3 * CUSP_T ** 2, 0, 0, 0]) < 1e-8
        assert dp.residual <= 1e-12

    def test_perturbed_torus(self, torus_member):
        dps = bk.find_double_points(torus_member.deformed, radius=0.5, grid_n=48)
        assert len(dps) == 2

        def pair_dist(dp, a, b):
            return min(max(abs(dp.z1 - a), abs(dp.z2 - b)),
                       max(abs(dp.z1 - b), abs(dp.z2 - a)))

        # quartic roots of -c: one real pair, one imaginary pair
        assert min(pair_dist(dp, -0.1, 0.1) for dp in dps) < 1e-6
        assert min(pair_dist(dp, -0.1j, 0.1j) for dp in dps) < 1e-6

    def test_flat_plane_empty(self, flat):
        assert bk.find_double_points(flat, radius=0.5, grid_n=48) == []

    def test_branch_point_in_region_rejected(self, cusp):
        with pytest.raises(BranchPointInRegion):
            bk.find_double_points(cusp, radius=0.5, grid_n=32)

    def test_grid_refinement_stable(self, cusp_member, torus_member):
        for fm, expect in ((cusp_member, 1), (torus_member, 2)):
            for n in (48, 96):
                assert len(bk.find_double_points(fm.deformed, 0.5, n)) == expect

    def test_odd_symmetry_of_pairs(self, cusp_member, torus_member):
        for fm in (cusp_member, torus_member):
            for dp in bk.find_double_points(fm.deformed, 0.5, 48):
                assert abs(dp.z1 + dp.z2) < 1e-8

    def test_radius_cap(self, flat):
        with pytest.raises(ValueError):
            bk.find_double_points(flat, radius=0.95, grid_n=16)


class TestSeedThinning:
    # without thinning, Newton got about 400k seeds at grid 48 on each
    # member; one seed per preimage cell pair leaves about 8k
    MAX_SEEDS = 20_000
    EXPECT = {
        "cusp_member": [(-math.sqrt(3) * CUSP_T, math.sqrt(3) * CUSP_T)],
        "torus_member": [(-0.1, 0.1), (-0.1j, 0.1j)],
    }

    @pytest.mark.parametrize("member", sorted(EXPECT))
    def test_newton_seed_count(self, member, request, monkeypatch):
        fm = request.getfixturevalue(member)
        seeds = []
        newton = _kernels.newton_double_points

        def counting(z1, *args):
            seeds.append(len(z1))
            return newton(z1, *args)

        monkeypatch.setattr(_kernels, "newton_double_points", counting)
        dps = bk.find_double_points(fm.deformed, 0.5, 48)
        assert 0 < sum(seeds) <= self.MAX_SEEDS
        expect = self.EXPECT[member]
        assert len(dps) == len(expect)
        for a, b in expect:
            assert min(pair_dist(dp, a, b) for dp in dps) < 1e-8

    # counts the finder reported before seed thinning, on sampled
    # (non-holomorphic) members; (fixture, orientation, seed) -> count
    SAMPLED = {
        ("four_function", +1, 1): 1, ("four_function", +1, 2): 0,
        ("four_function", -1, 1): 1, ("four_function", -1, 2): 0,
        ("mixed_strong", +1, 1): 4, ("mixed_strong", +1, 2): 6,
        ("mixed_strong", -1, 1): 2, ("mixed_strong", -1, 2): 3,
    }

    @pytest.mark.parametrize("stem,orientation,seed", sorted(SAMPLED))
    def test_sampled_members_stable(self, stem, orientation, seed):
        w = bk.WeierstrassData.from_json_dict(
            json.loads((DATA / f"{stem}.json").read_text()))
        p = bk.sample_generic(w, 0.05, seed, orientation=orientation)
        deformed = bk.build_family_member(w, p).deformed
        for n in (32, 48):
            dps = bk.find_double_points(deformed, 0.5, n)
            assert len(dps) == self.SAMPLED[stem, orientation, seed]


def _merge_loop(z1, z2, resid, tol):
    """The original per-pair merge, kept as the reference."""
    found = []
    for a, b, r in zip(z1, z2, resid):
        a, b = complex(a), complex(b)
        if (b.real, b.imag) < (a.real, a.imag):
            a, b = b, a
        found.append((a, b, float(r)))
    found.sort(key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
    merged = []
    for a, b, r in found:
        if not any((abs(a - ma) < tol and abs(b - mb) < tol)
                   or (abs(a - mb) < tol and abs(b - ma) < tol)
                   for ma, mb, _ in merged):
            merged.append((a, b, r))
    return merged


class TestMergePairs:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        # equal real parts in the second pair: jitter flips its canonical
        # order, so only the swapped matching merges it
        centres = [(0.2 + 0.1j, -0.2 - 0.1j), (0.3 + 0.1j, 0.3 - 0.1j),
                   (-0.1 + 0.4j, 0.1 + 0.0j)]
        z1, z2 = [], []
        for a, b in centres:
            for _ in range(50):
                ja, jb = rng.normal(scale=1e-8, size=(2, 2)) @ [1, 1j]
                if rng.uniform() < 0.5:
                    a, b = b, a
                z1.append(a + ja)
                z2.append(b + jb)
        z1, z2 = np.array(z1), np.array(z2)
        resid = rng.uniform(0, 1e-12, z1.size)
        got = _merge_pairs(z1, z2, resid, 1e-6)
        assert got == _merge_loop(z1, z2, resid, 1e-6)
        assert len(got) == len(centres)

    def test_empty(self):
        empty = np.zeros(0, np.complex128)
        assert _merge_pairs(empty, empty, np.zeros(0), 1e-6) == []


class TestTransversality:
    def test_perturbed_cusp_transverse(self, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, 0.5, 48)
        assert all(bk.is_transverse(dp, cusp_member.deformed) for dp in dps)

    def test_tangential_plane_pair_rejected(self, flat):
        # both frames span the same plane: rank 2, determinant 0
        dp = DoublePoint(z1=0.1 + 0j, z2=0.3 + 0j,
                         image=np.zeros(4), residual=0.0,
                         transversality_det=0.0)
        assert not bk.is_transverse(dp, flat)

    def test_scale_invariance(self, cusp, cusp_member):
        dps = bk.find_double_points(cusp_member.deformed, 0.5, 48)
        # globally rescaled map: same normalized verdict
        scaled = bk.load([10.0 * p for p in cusp_member.deformed.fprime])
        for dp in dps:
            assert bk.is_transverse(dp, cusp_member.deformed) == \
                bk.is_transverse(dp, scaled)


class TestBruteForce:
    def test_counts_match_newton(self, oracle_counts):
        assert oracle_counts["cusp"] == 1
        assert oracle_counts["torus"] == 2
        assert oracle_counts["flat"] == 0

    def test_explicit_prox(self, flat):
        # flat map images separate exactly as fast as preimages: nothing
        # within any proximity below the separation floor
        assert bk.brute_force_double_points(flat, 0.4, 150, prox=1e-3) == 0


def test_double_point_json(cusp_member):
    dp = bk.find_double_points(cusp_member.deformed, 0.5, 48)[0]
    d = dp.to_json_dict()
    assert set(d) == {"z1", "z2", "image", "residual", "transversality_det"}
    assert len(d["image"]) == 4
