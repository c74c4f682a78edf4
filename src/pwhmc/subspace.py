"""Null-space constructions for motion restricted to an affine piece.

Everything here is exact linear algebra, no sampling: complete QR splits of
the constraint matrix A (n x d), the oscillation center and velocity factor
of the within-region dynamics, in-manifold boundary normals, the segment
start check, and the continuity check where two affine pieces meet at a
hyperplane.

Sign convention: the constraint is ell(x) = A'x + y = 0 throughout, so the
particular solution satisfies R1'z1 = -y.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .errors import ContractError, DegenerateNormalError

# Residual norm below which a hyperplane normal is numerically inside the
# constraint column space and no in-manifold normal exists.
NORMAL_DEGENERACY_TOL = 1e-12

# Default tolerance on the on-manifold / tangency preconditions of check_state.
COEF_TOL = 1e-8


def rank_margin(R1) -> float:
    """1/(||R1^-1||_F max(1, ||R1||_F)) for A = Q1 R1: at most sigma_min(A)
    and min|diag R1| / max(1, max|diag R1|).  A is full rank for the sampler
    and for validate_model iff this exceeds NORMAL_DEGENERACY_TOL."""
    try:
        inv = np.linalg.inv(R1)
    except np.linalg.LinAlgError:           # an exact zero on the diagonal
        return 0.0
    return 1.0 / sqrt(float(np.vdot(inv, inv)) * max(1.0, float(np.vdot(R1, R1))))


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
    """The dynamics of one region: (x_p, S, Q).

    The trajectory inside the region is x(t) = x_p + a sin t + b cos t about
    the center x_p (the conditional mean on the manifold of the potential
    1/2 x'Mx - r'x), with velocities drawn as S @ eps,
    SS' = Q2 (Q2'M Q2)^{-1} Q2'.  Q is the complete QR basis of A: its first
    d columns span the constraint normals, the rest (Q2) the manifold
    directions.
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
    return x_p, S, Q


def boundary_normal(f, Q, d) -> np.ndarray:
    """Unit normal to a boundary hyperplane within the manifold.

    Projects f off the constraint column space (the first d columns of Q)
    and normalizes.  The result u automatically satisfies f'u > 0.
    """
    f = np.asarray(f, dtype=float)
    Q1 = Q[:, :d]
    w = f - Q1 @ (Q1.T @ f)
    nw = float(np.linalg.norm(w))
    if nw < NORMAL_DEGENERACY_TOL:
        raise DegenerateNormalError(
            "hyperplane normal lies in the constraint column space "
            f"(residual norm {nw:.3e})"
        )
    return w / nw


def check_state(At, y, Q1t, x, xdot=None, tol=COEF_TOL):
    """Enforce a segment start's preconditions at tol.

    x must lie on the manifold (A'x + y = 0) and xdot, when given, be tangent
    to it (Q1'xdot = 0).  At and Q1t are the transposes A' and Q1'.  Raises
    ContractError carrying the residual norm.
    """
    r = At.dot(x) + y
    res = sqrt(r.dot(r))
    if res > tol:
        raise ContractError(
            "start point is off the region's manifold", residual=res
        )
    if xdot is not None:
        r = Q1t.dot(xdot)
        res = sqrt(r.dot(r))
        if res > tol:
            raise ContractError(
                "start velocity is not tangent to the manifold", residual=res
            )


def continuity_check(f, g, A1, A2, y1, y2, tol=1e-8):
    """Do two affine pieces agree on the hyperplane f'x + g = 0 between them?

    The shared face solves A1'x + y1 = 0 and f'x + g = 0; the second piece is
    continuous across it iff A2 annihilates the face's free directions
    (e2 = ||A2'Q0||) and agrees at one particular solution
    (e1 = ||A2'Q1z1 + y2||).  Returns (ok, e1, e2).
    """
    f = np.asarray(f, dtype=float)
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)

    B1 = np.column_stack([A1, f])
    Q, R1 = _qr_complete(B1)          # raises if f is parallel to A1's span
    dp1 = B1.shape[1]
    yg = np.concatenate([y1, [float(g)]])
    z1 = solve_triangular(R1, -yg, trans=1, lower=False)
    Q0 = Q[:, dp1:]

    e1 = float(np.linalg.norm(A2.T @ (Q[:, :dp1] @ z1) + y2))
    e2 = float(np.linalg.norm(A2.T @ Q0))
    return (e1 < tol) and (e2 < tol), e1, e2

