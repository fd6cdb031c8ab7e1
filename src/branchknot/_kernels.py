"""Hot numeric kernels: one numpy implementation each.

  newton_double_points  -- damped Newton on F(z1) - F(z2) = 0 over a batch
                           of seed pairs (the double-point solver core)
  linking_sum           -- Gauss linking number of two closed polylines in
                           R^3 via the segment-pair solid-angle formula

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
    """Gauss linking of closed polylines P (n,3) and Q (m,3)."""
    P = np.asarray(P, np.float64)
    Q = np.asarray(Q, np.float64)
    n = P.shape[0]
    Pn = np.vstack([P, P[:1]])
    Qn = np.vstack([Q, Q[:1]])
    total = 0.0
    for i in range(n):
        a = Pn[i] - Qn[:-1]
        b = Pn[i] - Qn[1:]
        c = Pn[i + 1] - Qn[1:]
        d = Pn[i + 1] - Qn[:-1]
        p = np.einsum("ij,ij->i", a, np.cross(b, c))
        an = np.linalg.norm(a, axis=1)
        bn = np.linalg.norm(b, axis=1)
        cn = np.linalg.norm(c, axis=1)
        dn = np.linalg.norm(d, axis=1)
        ab = np.einsum("ij,ij->i", a, b)
        bc = np.einsum("ij,ij->i", b, c)
        ca = np.einsum("ij,ij->i", c, a)
        ad = np.einsum("ij,ij->i", a, d)
        dc = np.einsum("ij,ij->i", d, c)
        d1 = an * bn * cn + ab * cn + bc * an + ca * bn
        d2 = an * dn * cn + ad * cn + dc * an + ca * dn
        total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
    return total / (2.0 * np.pi)
