"""Hot numeric kernels: one numpy implementation each.

  newton_double_points  -- damped Newton on F(z1) - F(z2) = 0 over a batch
                           of seed pairs (the double-point solver core)
  linking_sum           -- Gauss linking number of two closed polylines in
                           R^3 via the segment-pair solid-angle formula,
                           on blocks of the difference grid P_i - Q_j

The Newton kernel evaluates the map through weierstrass.evaluate_F and
weierstrass.jacobian, so it has no polynomial arithmetic of its own.
There is no compiled path; the False flag below stays only because
benchmark records read it to name the kernel path that ran.
"""

from __future__ import annotations

import numpy as np

from .weierstrass import WeierstrassData, evaluate_F, jacobian

# read by the benchmark record's kernel_path field
HAS_NUMBA = False

# rows of P per block of the linking sum: 16 rows of a 1500-point Q keep
# the working set near 3 MB
LINK_BLOCK = 16


def newton_double_points(z1, z2, w: WeierstrassData, tol: float, max_iter: int):
    """Damped Newton from each seed pair (z1[k], z2[k]).

    Returns the final pairs, their residuals |F(z1) - F(z2)| and a mask
    of the seeds that reached tol.  A seed whose 4x4 Jacobian is singular
    (a preimage at a branch point) stops where it is, with ok False.
    """
    z1 = np.array(z1, np.complex128)
    z2 = np.array(z2, np.complex128)
    tol, max_iter = float(tol), int(max_iter)
    n = z1.size
    ok = np.zeros(n, bool)
    alive = np.ones(n, bool)
    resid = np.linalg.norm(evaluate_F(w, z1) - evaluate_F(w, z2), axis=1)

    for _ in range(max_iter):
        idx = np.nonzero(alive & ~ok)[0]
        if idx.size == 0:
            break
        a, b = z1[idx], z2[idx]
        r = evaluate_F(w, a) - evaluate_F(w, b)
        fx1, fy1 = jacobian(w, a)
        fx2, fy2 = jacobian(w, b)
        J = np.stack([fx1, fy1, -fx2, -fy2], axis=-1)  # (k,4,4) columns
        det = np.abs(np.linalg.det(J))
        good = det > 1e-300
        alive[idx[~good]] = False
        idx = idx[good]
        if idx.size == 0:
            continue
        delta = np.linalg.solve(J[good], -r[good][..., None])[..., 0]
        # damped update: halve until the residual does not increase
        base1, base2 = z1[idx], z2[idx]
        cur = resid[idx]
        step = np.ones(idx.size)
        n1 = base1.copy()
        n2 = base2.copy()
        for _half in range(9):
            n1 = base1 + step * (delta[:, 0] + 1j * delta[:, 1])
            n2 = base2 + step * (delta[:, 2] + 1j * delta[:, 3])
            new = np.linalg.norm(evaluate_F(w, n1) - evaluate_F(w, n2), axis=1)
            worse = new > cur
            if not worse.any():
                break
            step[worse] *= 0.5
        z1[idx], z2[idx], resid[idx] = n1, n2, new
        ok[idx] = new <= tol
    return z1, z2, resid, ok


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
