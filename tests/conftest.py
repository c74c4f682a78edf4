"""Shared random-instance builders for the test suite."""

import numpy as np
import pytest

from pwhmc.dynamics import region_table
from pwhmc.model import region_membership


def rand_spd(rng, n, jitter=0.5):
    """Well-conditioned random SPD matrix."""
    B = rng.normal(size=(n, n))
    return B @ B.T + jitter * n * np.eye(n)


def rand_fullrank(rng, n, d):
    """Random n x d matrix, resampled until comfortably full rank."""
    while True:
        A = rng.normal(size=(n, d))
        if np.linalg.svd(A, compute_uv=False)[-1] > 1e-3:
            return A


def rand_face_instance(rng, n, d):
    """Random boundary data (f, g, A1, y1) with f off A1's column space."""
    A1 = rand_fullrank(rng, n, d)
    Q1, _ = np.linalg.qr(A1)
    while True:
        f = rng.normal(size=n)
        resid = f - Q1 @ (Q1.T @ f)
        if np.linalg.norm(resid) > 1e-2:
            break
    y1 = rng.normal(size=d)
    g = rng.normal()
    return f, g, A1, y1


def rand_continuous_pair(rng, n, d):
    """Two affine pieces continuous across a shared face.

    Builds A2 inside span([A1 f]) so A2 annihilates the face's free
    directions, then matches y2 at a particular face point.
    """
    while True:
        f, g, A1, y1 = rand_face_instance(rng, n, d)
        B1 = np.column_stack([A1, f])
        W = rng.normal(size=(d + 1, d))
        A2 = B1 @ W
        sv = np.linalg.svd(A2, compute_uv=False)
        if sv[-1] < 1e-2:
            continue
        # f must stay off A2's column space for the decomposition to exist
        Q2c, _ = np.linalg.qr(A2)
        if np.linalg.norm(f - Q2c @ (Q2c.T @ f)) < 1e-2:
            continue
        x_star, *_ = np.linalg.lstsq(
            np.vstack([A1.T, f[None, :]]),
            -np.concatenate([y1, [g]]),
            rcond=None,
        )
        y2 = -A2.T @ x_star
        return f, g, A1, y1, A2, y2


def point_in_region(spec, j, rng, scale=0.6, max_tries=500):
    """Random manifold point strictly inside region j."""
    reg = region_table(spec)[j]
    Q2 = reg.Q[:, spec.d:]
    for _ in range(max_tries):
        x = reg.x_p + Q2 @ rng.normal(scale=scale, size=spec.n - spec.d)
        members = region_membership(spec, x, tol=0.0)
        if members == {j}:
            return x
    raise RuntimeError(f"no interior point found for region {j}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
