"""Independent ground-truth computations for tests and diagnostics.

Nothing here is used by the sampling hot path.  The moment formulas follow
the plane-conditioning convention A'x = y_eq (note: the sampler's pieces use
A'x + y = 0, so bridge by negating y).  The hit-time and occupancy oracles
are deliberately brute force — grids, bisection, quadrature — so they share
no code with the analytic implementations they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .model import region_boundaries


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


def _region_gaussians(spec):
    """Per-region (mean, upper Cholesky of M, log-offset) triples."""
    out = []
    for jz in range(spec.J):
        M = spec.M[jz]
        U = np.linalg.cholesky(M).T          # M = U'U
        mu = np.linalg.solve(M, spec.r[jz])
        c = float(spec.k[jz]) - 0.5 * float(mu @ M @ mu)
        logdet = 2.0 * float(np.sum(np.log(np.diag(U))))
        out.append((mu, U, c, logdet))
    return out


def slab_rejection_sample(spec, delta, n, rng, mc_mass=20000, max_draws=50_000_000):
    """Approximate draws from the manifold law by keeping a thin slab.

    Samples the unconstrained piecewise density (region-truncated Gaussians
    mixed by Monte Carlo mass estimates) and keeps points with
    ||ell_j(x)||_inf < delta.  A coarse cross-check only: the kept points
    converge to the conditional law as delta -> 0.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive (empty slab)")
    parts = _region_gaussians(spec)
    rbs = [region_boundaries(spec, j) for j in range(1, spec.J + 1)]

    # Region masses: Gaussian normalizer times the Monte Carlo estimate of
    # the probability the free Gaussian lands inside its region.
    weights = np.empty(spec.J)
    for jz, (mu, U, c, logdet) in enumerate(parts):
        z = rng.standard_normal((mc_mass, spec.n))
        x = mu + np.linalg.solve(U, z.T).T
        rb = rbs[jz]
        if len(rb):
            inside = np.all(x @ rb.F_j.T + rb.g_j >= 0.0, axis=1)
            frac = float(np.mean(inside))
        else:
            frac = 1.0
        weights[jz] = np.exp(-c - 0.5 * logdet) * frac
    if weights.sum() <= 0.0:
        raise RuntimeError("all region masses estimated as zero")
    weights = weights / weights.sum()

    kept = []
    n_kept = 0
    drawn = 0
    batch = 20000
    while n_kept < n:
        if drawn >= max_draws:
            raise RuntimeError(
                f"slab acceptance rate {n_kept / max(drawn, 1):.2e} too low "
                f"after {drawn} draws (delta={delta})"
            )
        counts = rng.multinomial(batch, weights)
        for jz, cnt in enumerate(counts):
            if cnt == 0:
                continue
            mu, U, _, _ = parts[jz]
            z = rng.standard_normal((cnt, spec.n))
            x = mu + np.linalg.solve(U, z.T).T
            rb = rbs[jz]
            ok = np.ones(cnt, dtype=bool)
            if len(rb):
                ok &= np.all(x @ rb.F_j.T + rb.g_j >= 0.0, axis=1)
            lx = x @ spec.A[jz] + spec.y[jz]
            ok &= np.max(np.abs(lx), axis=1) < delta
            if np.any(ok):
                kept.append(x[ok])
                n_kept += int(np.sum(ok))
        drawn += batch
        if drawn >= 2_000_000 and n_kept / drawn < 1e-6:
            raise RuntimeError(
                f"slab acceptance rate {n_kept / drawn:.2e} below 1e-6 "
                f"(delta={delta})"
            )
    return np.concatenate(kept, axis=0)[:n]
