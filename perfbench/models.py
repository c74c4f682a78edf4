"""Generated benchmark models and their exact rejection oracles.

Each generator emits a model document (JSON text) from a size and a seed; the
benchmark feeds it through the public ``pwhmc.load_model`` and requires
``validate_model`` to pass before anything is timed.  The oracles draw exact
samples of each model's target law without touching the sampler or
``pwhmc.oracle``, so a biased sampler cannot agree with them by construction.
"""

from __future__ import annotations

import json

import numpy as np


def _region(M, r, k, A, y, L_row):
    return {
        "M": np.asarray(M, dtype=float).tolist(),
        "r": np.asarray(r, dtype=float).tolist(),
        "k": float(k),
        "A": np.asarray(A, dtype=float).tolist(),
        "y": np.asarray(y, dtype=float).tolist(),
        "L_row": [int(v) for v in L_row],
    }


def onenorm_document(n: int, seed: int) -> str:
    """N(0, I_n) restricted to the unit one-norm sphere in R^n.

    One region per orthant (J = 2^n): the manifold piece is s'x = 1 for the
    orthant's sign pattern s, and each coordinate plane x_i = 0 is a
    transition into the orthant with s_i flipped.  The seed picks the start
    point inside the positive orthant.
    """
    J = 2 ** n
    regions = []
    for jz in range(J):
        s = np.array([1.0 - 2.0 * ((jz >> (n - 1 - iz)) & 1) for iz in range(n)])
        L_row = [int(s[iz]) * ((jz ^ (1 << (n - 1 - iz))) + 1) for iz in range(n)]
        regions.append(_region(np.eye(n), np.zeros(n), 0.0,
                               s.reshape(n, 1), [-1.0], L_row))
    rng = np.random.default_rng([seed, n])
    x0 = 0.5 * rng.dirichlet(np.ones(n)) + 0.5 / n
    doc = {
        "n": n, "d": 1, "J": J, "m": n, "mean": False,
        "regions": regions,
        "hyperplanes": {"F": np.eye(n).tolist(), "g": [0.0] * n},
        "init": {"region": 1, "x": (x0 / x0.sum()).tolist()},
    }
    return json.dumps(doc)


def polywall_document(sides: int, radius: float, seed: int) -> str:
    """N(0, I_3) on the plane x3 = 0 inside a regular polygon of hard walls.

    The polygon has the given circumradius; the seed rotates it and picks
    the start point.  Every edge is a wall of the single region.
    """
    rng = np.random.default_rng([seed, sides])
    theta = rng.uniform(0.0, 2.0 * np.pi / sides) \
        + 2.0 * np.pi * np.arange(sides) / sides
    inradius = radius * np.cos(np.pi / sides)
    # Row i is inradius - u_i'x >= 0 inside, u_i the outward edge normal.
    F = np.column_stack([-np.cos(theta), -np.sin(theta), np.zeros(sides)])
    g = np.full(sides, inradius)
    start = rng.uniform(-0.5, 0.5, size=2)
    doc = {
        "n": 3, "d": 1, "J": 1, "m": sides, "mean": False,
        "regions": [_region(np.eye(3), np.zeros(3), 0.0,
                            [[0.0], [0.0], [1.0]], [0.0], [1] * sides)],
        "hyperplanes": {"F": F.tolist(), "g": g.tolist()},
        "init": {"region": 1, "x": [float(start[0]), float(start[1]), 0.0]},
    }
    return json.dumps(doc)


def onenorm_oracle(n: int, size: int, rng) -> np.ndarray:
    """Exact draws of N(0, I_n) on the one-norm sphere, by rejection.

    A Dirichlet(1, ..., 1) point with random signs is uniform on the sphere's
    surface; accepting it with probability exp(-(|x|^2 - 1/n)/2) leaves the
    Gaussian density (|x|^2 >= 1/n on the sphere, so this is at most 1).
    """
    out = []
    have = 0
    while have < size:
        x = rng.dirichlet(np.ones(n), size=size)
        keep = rng.random(size) < np.exp(-0.5 * ((x * x).sum(axis=1) - 1.0 / n))
        x = x[keep] * rng.choice([-1.0, 1.0], size=(int(keep.sum()), n))
        out.append(x)
        have += x.shape[0]
    return np.concatenate(out)[:size]


def polygon_oracle(F: np.ndarray, g: np.ndarray, size: int, rng) -> np.ndarray:
    """Exact draws of N(0, I_2) x {0} inside {x : F x + g >= 0}, by rejection."""
    out = []
    have = 0
    chunk = min(size, 4096)        # bounds the chunk x m slack matrix
    while have < size:
        x = np.column_stack([rng.standard_normal((chunk, 2)), np.zeros(chunk)])
        x = x[np.all(x @ F.T + g >= 0.0, axis=1)]
        out.append(x)
        have += x.shape[0]
    return np.concatenate(out)[:size]
