"""Null-space constructions for motion restricted to an affine piece.

Everything here is exact linear algebra, no sampling: complete QR splits of
the constraint matrix A (n x d), the oscillation center and velocity factor
of the within-region dynamics, in-manifold boundary normals, and the
checks/decompositions used when two affine pieces meet at a hyperplane.

Sign convention: the constraint is ell(x) = A'x + y = 0 throughout, so the
particular solution satisfies R1'z1 = -y.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
from scipy.linalg import cholesky, null_space, solve_triangular

from .errors import ContractError, DegenerateNormalError

# Residual norm below which a hyperplane normal is numerically inside the
# constraint column space and no in-manifold normal exists.
NORMAL_DEGENERACY_TOL = 1e-12

# Default tolerance on the on-manifold / tangency preconditions of ode_coef.
COEF_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RegionDynamics:
    """Precomputed quantities driving the exact dynamics inside one region.

    x_p is the center of oscillation (the conditional mean on the manifold),
    Q the complete QR basis of A (Q1 = first d columns spans the constraint
    normals, Q2 = rest spans the manifold directions), S the velocity factor
    with SS' = Q2 (Q2'M Q2)^{-1} Q2', and R1 the triangular QR factor.
    """

    x_p: np.ndarray        # (n,)
    Q: np.ndarray          # (n, n)
    S: np.ndarray          # (n, n-d)
    R1: np.ndarray         # (d, d)
    d: int
    z1: np.ndarray         # (d,)
    omega22: np.ndarray    # (n-d, n-d) = Q2' M Q2
    A: np.ndarray          # (n, d), the constraint this was built from
    y: np.ndarray          # (d,)

    def __post_init__(self):
        for name in ("x_p", "Q", "S", "R1", "z1", "omega22", "A", "y"):
            arr = getattr(self, name)
            if not arr.flags.writeable:
                continue
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def Q1(self) -> np.ndarray:
        return self.Q[:, : self.d]

    @property
    def Q2(self) -> np.ndarray:
        return self.Q[:, self.d :]


@dataclass(frozen=True, eq=False)
class NullSpaceDecomposition:
    """Joint orthonormal split of two tangent spaces meeting at a hyperplane.

    U0 spans the directions tangent to both pieces, u1/u2 are the in-manifold
    unit normals on either side (oriented f'u1 > 0, f'u2 < 0), and Uc
    completes [U0 u_i Uc] to an orthonormal set.
    """

    U0: np.ndarray         # (n, n-d-1)
    u1: np.ndarray         # (n,)
    u2: np.ndarray         # (n,)
    Uc: np.ndarray         # (n, width from the actual joint null space)


def _qr_complete(A):
    """Complete QR with a rank guard on the leading triangle."""
    Q, R = np.linalg.qr(A, mode="complete")
    d = A.shape[1]
    R1 = R[:d, :d]
    if d > 0:
        diag = np.abs(np.diag(R1))
        if float(diag.min()) <= NORMAL_DEGENERACY_TOL * max(1.0, float(diag.max())):
            raise np.linalg.LinAlgError(
                "constraint matrix is numerically rank deficient"
            )
    return Q, R1


def ode_param(M, r, A, y, mean_flag=False) -> RegionDynamics:
    """Build the dynamics of one region: center x_p and velocity factor S.

    The trajectory inside the region is x(t) = x_p + a sin t + b cos t; this
    computes everything that depends only on (M, r, A, y).  mean_flag says r
    is the region mean rather than the linear coefficient of the potential.
    """
    M = np.asarray(M, dtype=float)
    r = np.asarray(r, dtype=float)
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = A.shape

    Q, R1 = _qr_complete(A)
    z1 = solve_triangular(R1, -y, trans=1, lower=False)
    x1 = Q[:, :d] @ z1
    Q2 = Q[:, d:]

    omega22 = Q2.T @ M @ Q2
    omega22 = 0.5 * (omega22 + omega22.T)
    U = cholesky(omega22, lower=False)        # omega22 = U'U
    S = solve_triangular(U, Q2.T, trans=1, lower=False).T

    rtil = M @ (r - x1) if mean_flag else r - M @ x1
    x_p = S @ (S.T @ rtil) + x1
    return RegionDynamics(
        x_p=x_p, Q=Q, S=S, R1=R1, d=d, z1=z1, omega22=omega22,
        A=A.copy(), y=y.copy(),
    )


def isotropic_ode_param(phi, mu, A, y) -> RegionDynamics:
    """ode_param specialization for M = phi*I with mean mu.

    Skips the Cholesky: S is Q2 scaled so that SS' = Q2 Q2'/phi.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    mu = np.asarray(mu, dtype=float)
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = A.shape

    Q, R1 = _qr_complete(A)
    z1 = solve_triangular(R1, -y, trans=1, lower=False)
    x1 = Q[:, :d] @ z1
    Q2 = Q[:, d:]

    S = Q2 / np.sqrt(phi)
    rtil = phi * (mu - x1)
    x_p = S @ (S.T @ rtil) + x1
    omega22 = phi * np.eye(n - d)
    return RegionDynamics(
        x_p=x_p, Q=Q, S=S, R1=R1, d=d, z1=z1, omega22=omega22,
        A=A.copy(), y=y.copy(),
    )


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


def ode_coef(dyn: RegionDynamics, x0, xdot0=None, rng=None, tol=COEF_TOL):
    """Trajectory coefficients (a, b) for a start state in dyn's region.

    b = x0 - x_p always; a = xdot0 when given, otherwise a fresh tangent
    velocity S @ eps with eps standard normal from rng.  Preconditions
    (x0 on the manifold, xdot0 tangent) are enforced at tol.
    """
    x0 = np.asarray(x0, dtype=float)
    if xdot0 is not None:
        xdot0 = np.asarray(xdot0, dtype=float)
    check_state(dyn.A.T, dyn.y, dyn.Q1.T, x0, xdot0, tol)
    b = x0 - dyn.x_p
    if xdot0 is not None:
        return xdot0, b
    if rng is None:
        raise ValueError("rng is required when xdot0 is not given")
    return dyn.S @ rng.standard_normal(dyn.S.shape[1]), b


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


def null_space_decomposition(A1, A2, f) -> NullSpaceDecomposition:
    """Split R^n around a face shared by two affine pieces.

    U0 spans null(A1') ∩ null(f') = the directions tangent to the face; u1
    and u2 are the in-manifold normals on either side, oriented f'u1 > 0 and
    f'u2 < 0; Uc is an orthonormal basis for whatever is left.  Diagnostic
    machinery for tests, not the sampling hot path.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    f = np.asarray(f, dtype=float)
    n, d = A1.shape

    B1 = np.column_stack([A1, f])
    QB, _ = _qr_complete(B1)
    U0 = QB[:, d + 1 :]

    Qa, _ = _qr_complete(A1)
    Qb, _ = _qr_complete(A2)
    u1 = boundary_normal(f, Qa, d)
    u2 = -boundary_normal(f, Qb, d)

    spanned = np.column_stack([U0, u1, u2])
    Uc = null_space(spanned.T)
    return NullSpaceDecomposition(U0=U0, u1=u1, u2=u2, Uc=Uc)
