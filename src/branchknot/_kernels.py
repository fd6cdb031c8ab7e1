"""Hot numeric kernels: one numpy implementation each.

  newton_double_points  -- damped Newton on the deflated double-point
                           system G(z1, z2) = 0 over a batch of seed pairs
  linking_sum           -- Gauss linking number of two closed polylines in
                           R^3 via the segment-pair solid-angle formula,
                           on blocks of the difference grid P_i - Q_j

F(z1) = F(z2) holds on the whole diagonal z1 = z2, so the Newton kernel
divides it out: with d = z1 - z2, omega = conj(d)/d and the divided
differences Df = (f(z1) - f(z2))/d of the primitives, (F1 + i F2)(z1) -
(F1 + i F2)(z2) = d G1 and (F3 + i F4)(z1) - (F3 + i F4)(z2) = d G2 for
G = (Df1 + omega conj(Df2), Df3 + omega conj(Df4)).  Near the diagonal G
tends to dF(e)/e along the direction e of d, not zero where F is
immersed, so Newton on G cannot converge onto it.  G is evaluated once
per trial step, and each iteration's 4x4 systems are solved together as
one structure-of-arrays batch.

There is no compiled path; the False flag below stays only because
benchmark records read it to name the kernel path that ran.
"""

from __future__ import annotations

import logging

import numpy as np

from .weierstrass import WeierstrassData

# read by the benchmark record's kernel_path field
HAS_NUMBA = False

# a seed converges at a residual |F(z1) - F(z2)| <= _NEWTON_TOL, in at
# most _MAX_ITER Newton steps
_NEWTON_TOL, _MAX_ITER = 1e-12, 50

# rows of P per block of the linking sum: 16 rows of a 2048-point Q (the
# largest polygon knot.linking_number_gauss passes) keep the working set
# near 4 MB
LINK_BLOCK = 16

log = logging.getLogger(__name__)


def _deflated(w: WeierstrassData, z1, z2):
    """G at the pairs (z1, z2), shape (2, k).

    One joint Horner pass gives each Df: a Horner step P <- P z + c takes
    Df to Df z1 + P(z2).
    """
    C = np.zeros((4, max(p.coeffs.size for p in w.f)), np.complex128)
    for i, p in enumerate(w.f):
        C[i, :p.coeffs.size] = p.coeffs
    q, p2 = np.zeros((2, 4) + z1.shape, np.complex128)
    for c in C.T[::-1, :, None]:
        q *= z1
        q += p2
        p2 *= z2
        p2 += c
    d = z1 - z2
    return q[0::2] + np.conj(d) / d * np.conj(q[1::2])


def _deflated_jacobian(w: WeierstrassData, z1, z2, G):
    """The real Jacobian (4, 4, k) of G at the pairs (z1, z2), given G
    there: rows Re G1, Re G2, Im G1, Im G2 and columns x1, y1, x2, y2.

    From d G = H, the map difference F(z1) - F(z2) as two complex
    numbers: DG = (DH - G Dd)/d, with the derivatives f' + conj(g') along
    x and i (f' - conj(g')) along y of each pair f + conj(g) in DH.
    """
    fp = [np.array([p(z) for p in w.fprime]) for z in (z1, z2)]
    s1, s2 = (f[0::2] + np.conj(f[1::2]) for f in fp)
    t1, t2 = (f[0::2] - np.conj(f[1::2]) for f in fp)
    DG = np.stack([s1 - G, 1j * (t1 - G), G - s2, 1j * (G - t2)], axis=1) / (z1 - z2)
    return np.concatenate([DG.real, DG.imag])


def _solve(J: np.ndarray, r: np.ndarray):
    """x solving the 4x4 systems J x = r, J (4, 4, k) and r (4, k), by one
    Gauss-Jordan elimination with partial pivoting on a (4, 5, k) array,
    with rows exchanged by selection, and the determinants, the products
    of the pivots.  A zero pivot becomes 1 for the elimination, but x can
    still be inf or NaN where J is singular or nearly so."""
    A = np.concatenate([J, r[:, None]], axis=1)
    det = np.ones(A.shape[2])
    for c in range(4):
        p = c + np.argmax(np.abs(A[c:, c]), axis=0)
        for i in range(c + 1, 4):
            swap = p == i
            A[c], A[i] = np.where(swap, A[i], A[c]), np.where(swap, A[c], A[i])
        det *= np.where(p == c, 1.0, -1.0) * A[c, c]
        A[c, c] = np.where(A[c, c] == 0.0, 1.0, A[c, c])
        m = A[:, c] / A[c, c]
        m[c] = 0.0
        A -= m[:, None] * A[c]
    return A[:, 4] / np.diagonal(A, axis1=0, axis2=1).T, det


def newton_double_points(z1, z2, w: WeierstrassData):
    """Damped Newton on G = 0 from each seed pair (z1[k], z2[k]) of
    distinct points: the final pairs, their residuals |F(z1) - F(z2)|
    (as |d| |G|, without the cancellation of subtracting map values) and
    the mask of the seeds that reached _NEWTON_TOL within _MAX_ITER steps.

    G is evaluated at the seeds and then once per trial step; each
    iteration factorises the batch of Jacobians once.  A seed stops where
    it is, with ok False, when its Jacobian is singular (its determinant
    is within 1e-300 of 0, or its step is not finite), when its step
    would leave the unit disk (outside it branch_points does not look,
    and the polynomials overflow), or when 9 halvings of the step do not
    keep |G| from rising.  A DEBUG line counts each reason.
    """
    z1 = np.array(z1, np.complex128)
    z2 = np.array(z2, np.complex128)
    n = z1.size
    ok = np.zeros(n, bool)
    alive = np.ones(n, bool)
    G = _deflated(w, z1, z2)
    gnorm = np.linalg.norm(G, axis=0)
    n_off = n_stall = n_sing = 0
    for _ in range(_MAX_ITER):
        idx = np.nonzero(alive & ~ok)[0]
        if idx.size == 0:
            break
        Gi = G[:, idx]
        J = _deflated_jacobian(w, z1[idx], z2[idx], Gi)
        # a step that is not finite comes from a singular J: that seed stops
        with np.errstate(all="ignore"):
            delta, det = _solve(J, -np.concatenate([Gi.real, Gi.imag]))
            d1, d2 = delta[0] + 1j * delta[1], delta[2] + 1j * delta[3]
        good = (np.abs(det) > 1e-300) & np.isfinite(d1) & np.isfinite(d2)
        keep = good & (np.abs(z1[idx] + d1) <= 1.0) & (np.abs(z2[idx] + d2) <= 1.0)
        n_sing += int((~good).sum())
        n_off += int((good & ~keep).sum())
        alive[idx[~keep]] = False
        idx, d1, d2 = idx[keep], d1[keep], d2[keep]
        # damped update: halve the step until |G| does not rise, at most
        # 9 times; the disk is convex, so every trial stays in it
        todo = np.arange(idx.size)
        for half in range(10):
            if todo.size == 0:
                break
            n1 = z1[idx[todo]] + 0.5 ** half * d1[todo]
            n2 = z2[idx[todo]] + 0.5 ** half * d2[todo]
            trial = _deflated(w, n1, n2)
            new = np.linalg.norm(trial, axis=0)
            done = new <= gnorm[idx[todo]]
            k = idx[todo[done]]
            z1[k], z2[k], gnorm[k] = n1[done], n2[done], new[done]
            G[:, k] = trial[:, done]
            ok[k] = np.abs(n1[done] - n2[done]) * new[done] <= _NEWTON_TOL
            todo = todo[~done]
        n_stall += todo.size
        alive[idx[todo]] = False
    log.debug("newton: %d seeds, %d stopped off the disk, %d stalled, "
              "%d singular, %d converged", n, n_off, n_stall, n_sing,
              int(ok.sum()))
    return z1, z2, np.abs(z1 - z2) * gnorm, ok


def linking_sum(P, Q) -> float:
    """Gauss linking of closed polylines P (n,3) and Q (m,3).

    Each segment pair (P_i P_i+1, Q_j Q_j+1) adds the solid angle of its
    quadrilateral, two arctan2 terms, to the sum.  Its corners are the
    neighbouring differences a = R[i,j], b = R[i,j+1], c = R[i+1,j+1] and
    d = R[i+1,j] of the grid R[i,j] = P_i - Q_j, so each block of rows
    takes the grid once as x/y/z planes, one norm grid, and the dots of
    neighbours along Q and along P; only c.a is a dot of its own.
    """
    P = np.asarray(P, np.float64)
    Q = np.asarray(Q, np.float64)
    n = P.shape[0]
    Pn = np.vstack([P, P[:1]])
    Qn = np.vstack([Q, Q[:1]])
    total = 0.0
    for i0 in range(0, n, LINK_BLOCK):
        i1 = min(i0 + LINK_BLOCK, n)
        # R[i, j] for rows i0..i1, one plane per coordinate
        x, y, z = (Pn[i0:i1 + 1, k, None] - Qn[None, :, k] for k in range(3))
        r = np.sqrt(x * x + y * y + z * z)
        along_q = x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:] + z[:, :-1] * z[:, 1:]
        along_p = x[:-1] * x[1:] + y[:-1] * y[1:] + z[:-1] * z[1:]
        ax, ay, az = x[:-1, :-1], y[:-1, :-1], z[:-1, :-1]
        bx, by, bz = x[:-1, 1:], y[:-1, 1:], z[:-1, 1:]
        cx, cy, cz = x[1:, 1:], y[1:, 1:], z[1:, 1:]
        p = ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)
        an, bn, cn, dn = r[:-1, :-1], r[:-1, 1:], r[1:, 1:], r[1:, :-1]
        ab, dc = along_q[:-1], along_q[1:]
        ad, bc = along_p[:, :-1], along_p[:, 1:]
        ca = cx * ax + cy * ay + cz * az
        shared = an * cn + ca  # |a||c| + c.a, a factor of both denominators
        d1 = shared * bn + ab * cn + bc * an
        d2 = shared * dn + ad * cn + dc * an
        total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
    return total / (2.0 * np.pi)
