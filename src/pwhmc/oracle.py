"""Independent ground-truth computations for tests and diagnostics.

Nothing here is used by the sampling hot path.  The moment formulas follow
the plane-conditioning convention A'x = y_eq (note: the sampler's pieces use
A'x + y = 0, so bridge by negating y).  The hit-time and occupancy oracles
are deliberately brute force — grids, bisection, quadrature — so they share
no code with the analytic implementations they check.  ``exact_sample``
draws the sampler's target law directly, from Gaussians conditioned on each
piece's plane and rejected to its cell; it shares only the cell extraction
``region_boundaries`` with the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .model import region_boundaries

# exact_sample draws BATCH candidates at a time and gives up once fewer than
# MIN_ACCEPT of them have landed in their cells, judged after 100/MIN_ACCEPT
# draws.
BATCH = 20_000
MIN_ACCEPT = 1e-4


@dataclass(frozen=True, eq=False)
class ConditionalMoments:
    """Mean and (singular) covariance of a Gaussian restricted to a plane."""

    m: np.ndarray          # (n,)
    V: np.ndarray          # (n, n), rank n-d


def conditional_gaussian_moments(mu, Sigma, A, y_eq) -> ConditionalMoments:
    """Moments of x ~ N(mu, Sigma) conditioned on A'x = y_eq.

    Rotates into the QR frame of A, applies the Gaussian block-conditioning
    formulas there, and rotates back.
    """
    mu = np.asarray(mu, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    A = np.asarray(A, dtype=float)
    y_eq = np.atleast_1d(np.asarray(y_eq, dtype=float))
    n, d = A.shape

    Q, _ = np.linalg.qr(A, mode="complete")
    Q1, Q2 = Q[:, :d], Q[:, d:]
    z1_star = np.linalg.solve(A.T @ Q1, y_eq)

    mu1, mu2 = Q1.T @ mu, Q2.T @ mu
    S11 = Q1.T @ Sigma @ Q1
    S21 = Q2.T @ Sigma @ Q1
    S22 = Q2.T @ Sigma @ Q2

    gain = np.linalg.solve(S11.T, S21.T).T      # S21 @ inv(S11)
    m_z2 = mu2 + gain @ (z1_star - mu1)
    V_z2 = S22 - gain @ S21.T

    m = Q1 @ z1_star + Q2 @ m_z2
    V = Q2 @ V_z2 @ Q2.T
    return ConditionalMoments(m=m, V=0.5 * (V + V.T))


def grid_hit_time(x_p, a, b, f, g, t_max, grid_n=20000):
    """Brute-force first boundary crossing of a sinusoidal trajectory.

    Scans K(t) = f'x(t) + g on a uniform grid over (0, t_max] for the first
    positive-to-nonpositive step and refines it by bisection.  Returns None
    when K never crosses downward.
    """
    f = np.asarray(f, dtype=float)
    fa = float(f @ np.asarray(a, dtype=float))
    fb = float(f @ np.asarray(b, dtype=float))
    h = float(f @ np.asarray(x_p, dtype=float)) + float(g)

    def K(t):
        return h + fa * np.sin(t) + fb * np.cos(t)

    ts = np.linspace(0.0, float(t_max), int(grid_n) + 1)
    Ks = K(ts)
    down = np.flatnonzero((Ks[:-1] > 0.0) & (Ks[1:] <= 0.0))
    if down.size == 0:
        return None
    lo, hi = ts[down[0]], ts[down[0] + 1]
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if K(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def occupancy_quadrature_line(V1, V2, split=0.0):
    """Probability of the x > split side under the two-piece 1-D density.

    V1 governs x > split, V2 governs x < split; the density is
    exp(-V_j(x)) up to the joint normalizer.
    """
    mass1, _ = quad(lambda x: np.exp(-V1(x)), split, np.inf,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    mass2, _ = quad(lambda x: np.exp(-V2(x)), -np.inf, split,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    total = mass1 + mass2
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError(f"non-finite or empty occupancy masses ({mass1}, {mass2})")
    return mass1 / total


def exact_sample(spec, n, rng):
    """Exact draws from the model's target law; returns (X, R).

    The target is exp(-V(x)) conditioned on ell(x) = 0: on piece j its
    density is exp(-V_j) det(A_j'A_j)^(-1/2) against surface measure on
    the plane A_j'x + y_j = 0, restricted to region j's cell.  The
    untruncated plane mass of piece j is, up to 2 pi factors common to all
    pieces, Z_j = exp(-k~_j) det(M_j)^(-1/2) phi(0; b_j, C_j) with
    mu_j = M_j^-1 r_j, k~_j = k_j - mu_j'M_j mu_j / 2, C_j = A_j'M_j^-1 A_j
    and b_j = A_j'mu_j + y_j.  Each batch picks pieces in proportion to
    Z_j, draws each from its Gaussian conditioned on the plane, and keeps
    the draws inside their own cell, so the kept rows have density
    proportional to sum_j Z_j p_j(x) 1{x in cell_j}: the target, with no
    slab width and no mass estimate.  R holds the 1-based piece of each row.
    """
    pieces, log_z = [], []
    for jz in range(spec.J):
        M, A, y = spec.M[jz], spec.A[jz], spec.y[jz]
        Minv = np.linalg.inv(M)
        mu = np.linalg.solve(M, spec.r[jz])
        C = A.T @ Minv @ A
        b = A.T @ mu + y
        log_z.append(-(float(spec.k[jz]) - 0.5 * float(mu @ M @ mu))
                     - 0.5 * np.linalg.slogdet(M)[1]
                     - 0.5 * np.linalg.slogdet(C)[1]
                     - 0.5 * float(b @ np.linalg.solve(C, b)))
        cm = conditional_gaussian_moments(mu, Minv, A, -y)
        w, U = np.linalg.eigh(cm.V)          # ascending: the d null directions first
        factor = U[:, spec.d:] * np.sqrt(np.maximum(w[spec.d:], 0.0))
        pieces.append((cm.m, factor, region_boundaries(spec, jz + 1)))
    weights = np.exp(np.array(log_z) - max(log_z))
    weights /= weights.sum()

    kept, labels = [], []
    n_kept = drawn = 0
    while n_kept < n:
        for jz, cnt in enumerate(rng.multinomial(BATCH, weights)):
            if cnt == 0:
                continue
            m, factor, rb = pieces[jz]
            x = m + rng.standard_normal((cnt, factor.shape[1])) @ factor.T
            if len(rb):
                x = x[np.all(x @ rb.F_j.T + rb.g_j >= 0.0, axis=1)]
            kept.append(x)
            labels.append(np.full(x.shape[0], jz + 1))
            n_kept += x.shape[0]
        drawn += BATCH
        if drawn * MIN_ACCEPT >= 100 and n_kept < drawn * MIN_ACCEPT:
            raise RuntimeError(
                f"exact_sample acceptance {n_kept / drawn:.2e} below "
                f"{MIN_ACCEPT:g} after {drawn} draws"
            )
    order = rng.permutation(n_kept)[:n]
    return np.concatenate(kept)[order], np.concatenate(labels)[order]
