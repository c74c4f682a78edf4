"""Shared random-instance and model builders for the test suite."""

import json

import numpy as np
import pytest

from pwhmc import zoo
from pwhmc.dynamics import region_table
from pwhmc.model import load_model, region_membership


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


def scaled_line_model():
    """N(0, I_2) on the line x2 = 0, split at x1 = 0, with A_1 = (0, 1)'
    and A_2 = (0, 2)': the same line and potential on both sides, so the
    conditional law puts 2/3 of its mass on x1 > 0."""
    doc = json.loads(zoo.dump_model(zoo.step_line_model(dk=0.0)))
    doc["regions"][1]["A"] = [[0.0], [2.0]]
    return load_model(json.dumps(doc))


def wall_box_model():
    """N(0, I_3) on the plane x3 = 0 inside the off-centre box
    -1 <= x1 <= 0.5, -0.3 <= x2 <= 1.2: one region, four walls."""
    doc = {
        "n": 3, "d": 1, "J": 1, "m": 4,
        "regions": [{
            "M": np.eye(3).tolist(), "r": [0.0, 0.0, 0.0], "k": 0.0,
            "A": [[0.0], [0.0], [1.0]], "y": [0.0], "L_row": [1, 1, 1, 1],
        }],
        "hyperplanes": {
            "F": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
            "g": [1.0, 0.5, 0.3, 1.2],
        },
        "init": {"region": 1, "x": [0.0, 0.0, 0.0]},
    }
    return load_model(json.dumps(doc))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
