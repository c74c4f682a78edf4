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
from scipy.linalg import cholesky, solve_triangular

# Norm below which a hyperplane normal is numerically inside the constraint
# column space (its projection off A, or its row S'f on the piece) and no
# in-manifold normal exists; also the rank test's margin.
NORMAL_DEGENERACY_TOL = 1e-12

# Tolerance of the sampler's initial-point check: the start's manifold
# residual and cell breach, and the cell breach of every kept row.
COEF_TOL = 1e-8


def rank_margin(R1):
    """1/(||R1^-1||_F max(1, ||R1||_F)) for A = Q1 R1: at most sigma_min(A)
    and min|diag R1| / max(1, max|diag R1|).  A is full rank for the sampler
    and for validate_model iff this exceeds NORMAL_DEGENERACY_TOL.

    R1 is one triangle (d, d) or a stack (..., d, d); a triangle with an
    exact zero on its diagonal has no inverse and margin 0.
    """
    R1 = np.asarray(R1, dtype=float)
    singular = np.any(np.diagonal(R1, axis1=-2, axis2=-1) == 0.0, axis=-1)
    inv = np.linalg.inv(np.where(singular[..., None, None],
                                 np.eye(R1.shape[-1]), R1))
    with np.errstate(over="ignore"):
        ss = np.einsum("...ij,...ij->...", inv, inv) * np.maximum(
            1.0, np.einsum("...ij,...ij->...", R1, R1))
    return np.where(singular, 0.0, 1.0 / np.sqrt(ss))[()]


def _qr_complete(A):
    """Complete QR with a rank guard on the leading triangle."""
    Q, R = np.linalg.qr(A, mode="complete")
    d = A.shape[1]
    R1 = R[:d, :d]
    if d > 0 and rank_margin(R1) <= NORMAL_DEGENERACY_TOL:
        raise np.linalg.LinAlgError(
            "constraint matrix is numerically rank deficient"
        )
    return Q, R1


def ode_param(M, r, A, y):
    """The dynamics of one region: (x_p, S, c).

    The piece A'x + y = 0 is x = x_p + S z with S'MS = I (whitened tangent
    coordinates z), where the center x_p is the conditional mean of the
    potential 1/2 x'Mx - r'x, which is 1/2 |z|^2 plus its value at x_p.
    S = Q2 U^-1 with Q2 the manifold columns of A's complete QR basis and
    Q2'MQ2 = U'U.  c = 1/2 log det M + 1/2 log det(A'M^-1 A) = sum log|diag
    R1| + sum log diag U (A = Q1 R1) turns the flow's law, exp(-V) against
    the volume of the metric M, into exp(-V) det(A'A)^(-1/2) against surface
    measure.
    """
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float)
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    d = A.shape[1]

    Q, R1 = _qr_complete(A)
    z1 = solve_triangular(R1, -y, trans=1, lower=False)
    x1 = Q[:, :d] @ z1
    Q2 = Q[:, d:]

    omega22 = Q2.T @ M @ Q2
    omega22 = 0.5 * (omega22 + omega22.T)
    U = cholesky(omega22, lower=False)        # omega22 = U'U
    S = solve_triangular(U, Q2.T, trans=1, lower=False).T

    x_p = S @ (S.T @ (r - M @ x1)) + x1
    c = float(np.log(np.abs(np.diag(R1))).sum() + np.log(np.diag(U)).sum())
    return x_p, S, c


def face_residuals(f, g, A1, A2, y1, y2):
    """Continuity residuals (e1, e2) of K faces f'x + g = 0 between pieces.

    Face k solves A1'x + y1 = 0 and f'x + g = 0 (f (K, n), g (K,), A1, A2
    (K, n, d), y1, y2 (K, d)).  With [A1 f] = Q1 R1, the second piece is
    continuous across it iff A2 annihilates the face's free directions,
    e2 = ||A2 - Q1 Q1'A2||_F = ||A2'Q0||, and agrees at the particular
    solution x0 = Q1 z1 with R1'z1 = -[y1; g], e1 = ||A2'x0 + y2||.  A face
    whose [A1 f] fails the rank test (f in A1's span) gets e1 = e2 = inf.
    """
    B = np.concatenate([A1, f[:, :, None]], axis=2)
    Q1, R1 = np.linalg.qr(B)
    ok = rank_margin(R1) > NORMAL_DEGENERACY_TOL
    R1 = np.where(ok[:, None, None], R1, np.eye(R1.shape[-1]))
    yg = np.concatenate([y1, g[:, None]], axis=1)
    z1 = np.linalg.solve(np.swapaxes(R1, 1, 2), -yg[:, :, None])
    x0 = Q1 @ z1
    e1 = np.linalg.norm((np.swapaxes(A2, 1, 2) @ x0)[:, :, 0] + y2, axis=1)
    if B.shape[1] > B.shape[2]:
        e2 = np.linalg.norm(A2 - Q1 @ (np.swapaxes(Q1, 1, 2) @ A2), axis=(1, 2))
    else:
        e2 = np.zeros(len(B))       # a point face has no free directions
    return np.where(ok, e1, np.inf), np.where(ok, e2, np.inf)
