"""Null-space constructions for motion restricted to an affine piece.

Everything here is exact linear algebra, no sampling: complete QR splits of
the constraint matrix A (n x d) and their rank test, the center, whitened
tangent basis and log-volume constant of the within-region dynamics, and the
continuity residuals of a stack of faces where two affine pieces meet at a
hyperplane.

Sign convention: the constraint is ell(x) = A'x + y = 0 throughout, so the
particular solution satisfies R1'z1 = -y.
"""

from __future__ import annotations

import numpy as np

# Length below which a boundary row S'f on a piece (a hyperplane normal in
# the metric M) is numerically zero, so no in-manifold normal exists; also
# the rank test's margin.
NORMAL_DEGENERACY_TOL = 1e-12


def rank_margin(R1):
    """1/(||R1^-1||_F max(1, ||R1||_F)) for A = Q1 R1: at most sigma_min(A)
    and min|diag R1| / max(1, max|diag R1|).  A is full rank for the sampler
    and for validate_model iff this exceeds NORMAL_DEGENERACY_TOL.

    R1 is one triangle (d, d) or a stack (..., d, d).  Its norms are taken
    after scaling by max|R1|, so neither overflows.  A zero on the diagonal,
    exact or after that scaling, or a non-finite entry, gives margin 0.
    """
    R1 = np.asarray(R1, dtype=float)
    s = np.abs(R1).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        U = R1 / s[..., None, None]       # ||R1^-1||_F = iu / s, ||R1||_F = s u
        singular = ~np.all(np.abs(np.diagonal(U, axis1=-2, axis2=-1)) > 0.0, axis=-1)
        U = np.where(singular[..., None, None], np.eye(U.shape[-1]), U)
        iu, u = (np.linalg.norm(X, axis=(-2, -1)) for X in (np.linalg.inv(U), U))
        margin = np.where(s * u >= 1.0, 1.0 / (iu * u), s / iu)
    return np.where(singular, 0.0, margin)[()]


def spd_factor(W):
    """(L, pd): lower factors W = L L' of one symmetric matrix or a stack,
    with the identity's where a matrix is not positive definite (pd false)."""
    try:
        return np.linalg.cholesky(W), np.ones(W.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:    # numpy fails a whole stack: split it
        if W.ndim == 2:
            return np.eye(len(W)), np.zeros((), dtype=bool)
        L, pd = zip(*map(spd_factor, W))
        return np.array(L), np.array(pd)


def ode_param(M, r, A, y):
    """The dynamics of one region, or of a stack: (x_p, S, c, margin).

    The piece A'x + y = 0 is x = x_p + S z with S'MS = I (whitened tangent
    coordinates z), where the center x_p is the conditional mean of the
    potential 1/2 x'Mx - r'x, which is 1/2 |z|^2 plus its value at x_p.
    S = Q2 L'^-1 with Q2 the manifold columns of A's complete QR basis and
    Q2'MQ2 = L L'.  c = 1/2 log det M + 1/2 log det(A'M^-1 A) = sum log|diag
    R1| + sum log diag L (A = Q1 R1) turns the flow's law, exp(-V) against
    the volume of the metric M, into exp(-V) det(A'A)^(-1/2) against surface
    measure.  margin = rank_margin(R1).  Each region of a stack gets its own
    call's results, and none raises: R1 = I stands in where the margin
    fails and L = I where Q2'MQ2 is not positive definite, with c = NaN.
    """
    M, r, A, y = (np.asarray(a, dtype=float) for a in (M, r, A, y))
    d = A.shape[-1]
    Q, R = np.linalg.qr(A, mode="complete")
    margin = rank_margin(R[..., :d, :d])
    full = margin > NORMAL_DEGENERACY_TOL
    R1 = np.where(full[..., None, None], R[..., :d, :d], np.eye(d))
    Q2T = np.swapaxes(Q[..., d:], -1, -2)
    W = Q2T @ M @ Q[..., d:]
    L, pd = spd_factor(0.5 * W + 0.5 * np.swapaxes(W, -1, -2))  # no overflow
    ST = np.linalg.solve(L, Q2T)
    S = np.swapaxes(ST, -1, -2)
    # a center beyond the float range comes out inf or NaN, without a
    # warning; validate_model names it
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = Q[..., :d] @ np.linalg.solve(np.swapaxes(R1, -1, -2), -y[..., None])
        x_p = S @ (ST @ (r[..., None] - M @ x1)) + x1
    c = sum(np.log(np.abs(np.diagonal(T, axis1=-2, axis2=-1))).sum(-1)
            for T in (R1, L))
    return x_p[..., 0], S, np.where(full & pd, c, np.nan)[()], margin


def face_residuals(f, g, A1, A2, y1, y2):
    """Continuity residuals (e1, e2) of K faces f'x + g = 0 between pieces.

    Face k solves A1'x + y1 = 0 and f'x + g = 0 (f (K, n), g (K,), A1, A2
    (K, n, d), y1, y2 (K, d)).  With [A1 f] = Q1 R1, the second piece is
    continuous across it iff A2 annihilates the face's free directions,
    e2 = ||A2 - Q1 Q1'A2||_F = ||A2'Q0||, and agrees at the particular
    solution x0 = Q1 z1 with R1'z1 = -[y1; g], e1 = ||A2'x0 + y2||.  A face
    whose [A1 f] fails the rank test (f in A1's span) gets e1 = e2 = inf,
    and so does one whose Q1 is not finite, which numpy's QR can return
    beside a finite R1 when [A1 f] has an entry near the float range.
    """
    B = np.concatenate([A1, f[:, :, None]], axis=2)
    Q1, R1 = np.linalg.qr(B)
    ok = (rank_margin(R1) > NORMAL_DEGENERACY_TOL) & np.isfinite(Q1).all(axis=(1, 2))
    R1 = np.where(ok[:, None, None], R1, np.eye(R1.shape[-1]))
    Q1 = np.where(ok[:, None, None], Q1, 0.0)
    yg = np.concatenate([y1, g[:, None]], axis=1)
    z1 = np.linalg.solve(np.swapaxes(R1, 1, 2), -yg[:, :, None])
    x0 = Q1 @ z1
    # a residual beyond the float range reads inf, and fails
    with np.errstate(over="ignore"):
        e1 = np.linalg.norm((np.swapaxes(A2, 1, 2) @ x0)[:, :, 0] + y2, axis=1)
        if B.shape[1] > B.shape[2]:
            e2 = np.linalg.norm(A2 - Q1 @ (np.swapaxes(Q1, 1, 2) @ A2), axis=(1, 2))
        else:
            e2 = np.zeros(len(B))       # a point face has no free directions
    return np.where(ok, e1, np.inf), np.where(ok, e2, np.inf)
