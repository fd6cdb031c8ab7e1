import json
from pathlib import Path

import pytest

import branchknot as bk
from branchknot import _kernels

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def cusp():
    # curve z -> (z^2, z^3)
    return bk.load([bk.CPoly([0, 2]), bk.CPoly.zero(),
                    bk.CPoly([0, 0, 3]), bk.CPoly.zero()])


@pytest.fixture(scope="session")
def torus5():
    # curve z -> (z^2, z^5)
    return bk.load([bk.CPoly([0, 2]), bk.CPoly.zero(),
                    bk.CPoly([0, 0, 0, 0, 5]), bk.CPoly.zero()])


@pytest.fixture(scope="session")
def flat():
    return bk.load([bk.CPoly([1]), bk.CPoly.zero(),
                    bk.CPoly.zero(), bk.CPoly.zero()])


@pytest.fixture(scope="session")
def ex4():
    # all four components nonzero: (z, -z^3, z^2, z^2)
    return bk.load([bk.CPoly([0, 1]), bk.CPoly([0, 0, 0, -1]),
                    bk.CPoly([0, 0, 1]), bk.CPoly([0, 0, 1])])


CUSP_T = 0.05
TORUS_C = -1e-4


@pytest.fixture(scope="session")
def cusp_member(cusp):
    p = bk.PerturbParams(A=[0, 0], B=[-CUSP_T ** 2, 0, 0], orientation=+1,
                         t=CUSP_T)
    return bk.build_family_member(cusp, p)


@pytest.fixture(scope="session")
def torus_member(torus5):
    p = bk.PerturbParams(A=[0, 0], B=[TORUS_C / 5, 0, 0, 0, 0], orientation=+1,
                         t=0.1)
    return bk.build_family_member(torus5, p)


@pytest.fixture(scope="session")
def cusp_knot(cusp):
    return bk.trace_slice(cusp, 1e-2)


@pytest.fixture(scope="session")
def torus_knot(torus5):
    return bk.trace_slice(torus5, 0.02)


@pytest.fixture(scope="session")
def flat_knot(flat):
    return bk.trace_slice(flat, 0.5)


class _Captured(Exception):
    """Stops a search once a patched step has recorded its arguments."""


@pytest.fixture(scope="session")
def search_seeds(cusp_member, torus_member):
    """The Newton seeds find_double_points hands over at grid 48."""
    seeds = {}
    for name, fm in (("cusp_member", cusp_member),
                     ("torus_member", torus_member)):
        def capture(z1, z2, *args, name=name, w=fm.deformed):
            seeds[name] = (w, z1, z2)
            raise _Captured

        with pytest.MonkeyPatch.context() as m:
            m.setattr(_kernels, "newton_double_points", capture)
            with pytest.raises(_Captured):
                bk.find_double_points(fm.deformed, 0.5, 48)
    return seeds


@pytest.fixture(scope="session")
def sampled_members():
    """The members sample_generic accepts at t = 0.05 for four fixtures,
    seeds 1-3 and both orientations, keyed (stem, seed, orientation)."""
    members = {}
    for stem in ("cusp", "torus5", "four_function", "mixed_strong"):
        w = bk.WeierstrassData.from_json_dict(
            json.loads((DATA / f"{stem}.json").read_text()))
        for seed in (1, 2, 3):
            for orientation in (+1, -1):
                members[stem, seed, orientation] = bk.sample_generic(
                    w, 0.05, seed, orientation=orientation)
    return members
