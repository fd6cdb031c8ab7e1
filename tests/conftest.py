import pytest

import branchknot as bk


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


@pytest.fixture(scope="session")
def oracle_counts(cusp_member, torus_member, flat):
    """Brute-force double-point counts, shared between suites (slow)."""
    return {
        "cusp": bk.brute_force_double_points(cusp_member.deformed, 0.5, 400),
        "torus": bk.brute_force_double_points(torus_member.deformed, 0.5, 400),
        "flat": bk.brute_force_double_points(flat, 0.5, 400),
    }
