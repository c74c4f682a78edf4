"""Built-in example models and the model-document writer.

Builders construct the document dict, serialize it, and run it through
load_model, so every model in here exercises the same path as a file from
disk.  The shipped ``*.model`` files under ``pwhmc/models/`` are exactly
``dump_model(builder())`` output; a test pins that correspondence.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .model import ModelSpec, load_model

SHIPPED = ("onenorm", "ntop", "pospart")


def dump_model(spec: ModelSpec) -> str:
    """Serialize a ModelSpec back into document text."""
    doc = {
        "n": spec.n, "d": spec.d, "J": spec.J, "m": spec.m,
        "regions": [
            {
                "M": spec.M[jz].tolist(),
                "r": spec.r[jz].tolist(),
                "k": float(spec.k[jz]),
                "A": spec.A[jz].tolist(),
                "y": spec.y[jz].tolist(),
                "L_row": spec.L[jz].tolist(),
            }
            for jz in range(spec.J)
        ],
        "hyperplanes": {"F": spec.F.tolist(), "g": spec.g.tolist()},
    }
    if spec.init_region is not None:
        doc["init"] = {
            "region": spec.init_region,
            "x": spec.init_point.tolist(),
        }
    return json.dumps(doc, indent=1)


def _finish(doc) -> ModelSpec:
    return load_model(json.dumps(doc))


def _region(M, r, k, A, y, L_row):
    return {
        "M": np.asarray(M, dtype=float).tolist(),
        "r": np.asarray(r, dtype=float).tolist(),
        "k": float(k),
        "A": np.asarray(A, dtype=float).tolist(),
        "y": np.asarray(y, dtype=float).tolist(),
        "L_row": [int(v) for v in L_row],
    }


def sum_constraint_model(n=3, total=1.0) -> ModelSpec:
    """Standard normal in n dimensions conditioned on sum(x) = total."""
    doc = {
        "n": n, "d": 1, "J": 1, "m": 0, "mean": False,
        "regions": [
            _region(np.eye(n), np.zeros(n), 0.0,
                    np.ones((n, 1)), [-total], [])
        ],
        "hyperplanes": {"F": [], "g": []},
        "init": {"region": 1, "x": [total / n] * n},
    }
    return _finish(doc)


def axis_plane_model(n=2) -> ModelSpec:
    """Standard normal in n dimensions conditioned on x1 = 0."""
    A = np.zeros((n, 1))
    A[0, 0] = 1.0
    doc = {
        "n": n, "d": 1, "J": 1, "m": 0, "mean": False,
        "regions": [_region(np.eye(n), np.zeros(n), 0.0, A, [0.0], [])],
        "hyperplanes": {"F": [], "g": []},
        "init": {"region": 1, "x": [0.0] * n},
    }
    return _finish(doc)


def step_line_model(dk=float(np.log(2.0))) -> ModelSpec:
    """Two half-line regions on the manifold x2 = 0 with a potential step.

    Region 1 is x1 > 0 at energy offset 0; region 2 is x1 < 0 at offset dk.
    With dk = ln 2 the occupancy split is exactly (2/3, 1/3).
    """
    A = np.array([[0.0], [1.0]])
    doc = {
        "n": 2, "d": 1, "J": 2, "m": 1, "mean": False,
        "regions": [
            _region(np.eye(2), np.zeros(2), 0.0, A, [0.0], [2]),
            _region(np.eye(2), np.zeros(2), dk, A, [0.0], [-1]),
        ],
        "hyperplanes": {"F": [[1.0, 0.0]], "g": [0.0]},
        "init": {"region": 1, "x": [1.0, 0.0]},
    }
    return _finish(doc)


def one_norm_model() -> ModelSpec:
    """Standard normal on the unit one-norm sphere in R^3.

    Eight octant regions; in octant j with sign pattern s the manifold piece
    is s'x = 1 and the boundaries are the coordinate planes x_i = 0, each
    crossing into the octant with that sign flipped.
    """
    n, J, m = 3, 8, 3
    regions = []
    for jz in range(J):
        s = np.array([1.0 - 2.0 * ((jz >> (n - 1 - iz)) & 1) for iz in range(n)])
        L_row = []
        for iz in range(n):
            neighbor = (jz ^ (1 << (n - 1 - iz))) + 1
            L_row.append(int(s[iz]) * neighbor)
        regions.append(
            _region(np.eye(n), np.zeros(n), 0.0, s.reshape(n, 1), [-1.0], L_row)
        )
    doc = {
        "n": n, "d": 1, "J": J, "m": m, "mean": False,
        "regions": regions,
        "hyperplanes": {"F": np.eye(n).tolist(), "g": [0.0] * n},
        "init": {"region": 1, "x": [0.2, 0.3, 0.5]},
    }
    return _finish(doc)


def polygonal_top_model(sides=6, apex=1.5, radius=1.0,
                        cov_diag=(10.0, 0.1, 0.1)) -> ModelSpec:
    """Anisotropic normal on the surface of a two-cone polygonal top.

    The solid is the convex hull of two apexes at (+-apex, 0, 0) and a
    regular polygon ring in the x1 = 0 plane.  Each of the 2*sides triangular
    faces is one region; its polyhedral cell is the gauge cone of points
    whose maximal scaled face functional is that face, giving boundaries
    f = a_p - a_q between cells of adjacent faces.
    """
    k = int(sides)
    ring = [
        np.array([
            0.0,
            radius * np.cos(2.0 * np.pi * l / k),
            radius * np.sin(2.0 * np.pi * l / k),
        ])
        for l in range(k)
    ]
    tips = [np.array([apex, 0.0, 0.0]), np.array([-apex, 0.0, 0.0])]

    # Scaled face normals a_j with face plane a_j'x = 1.
    a_rows = []
    for half, tip in enumerate(tips):
        for l in range(k):
            v1, v2 = ring[l], ring[(l + 1) % k]
            nu = np.cross(v1 - tip, v2 - tip)
            c = float(nu @ tip)
            a_rows.append(nu / c)

    # Face adjacency: consecutive faces on the same half share a tip edge;
    # face l on either half shares the ring edge (l, l+1).
    pairs = []
    for half in range(2):
        off = half * k
        for l in range(k):
            pairs.append(tuple(sorted((off + l, off + (l + 1) % k))))
    for l in range(k):
        pairs.append((l, k + l))

    J, m, n = 2 * k, len(pairs), 3
    F = np.zeros((m, n))
    L = np.zeros((J, m), dtype=int)
    for i, (p, q) in enumerate(pairs):
        F[i] = a_rows[p] - a_rows[q]
        L[p, i] = q + 1
        L[q, i] = -(p + 1)

    M = np.diag(1.0 / np.asarray(cov_diag, dtype=float))
    regions = [
        _region(M, np.zeros(n), 0.0, a_rows[jz].reshape(n, 1), [-1.0], L[jz])
        for jz in range(J)
    ]
    x0 = (tips[0] + ring[0] + ring[1]) / 3.0
    doc = {
        "n": n, "d": 1, "J": J, "m": m, "mean": False,
        "regions": regions,
        "hyperplanes": {"F": F.tolist(), "g": [0.0] * m},
        "init": {"region": 1, "x": x0.tolist()},
    }
    return _finish(doc)


def positive_part_model(dm=(0.8, 0.6, 0.4), r=2.0, level=0.75,
                        mu=(1.0, 1.0, 1.0)) -> ModelSpec:
    """Normal prior on increments conditioned on a positive-part functional.

    The observable sum_i dm_i * max(r - (x_1+...+x_i), 0) is continuous
    piecewise affine in x with kinks on the partial-sum planes; conditioning
    it to equal ``level`` gives three affine pieces ordered by how many kink
    terms are active.  Kink 1 (x_1 = r) is unreachable on the level set for
    the default parameters and ships as an inert hyperplane.
    """
    dm = np.asarray(dm, dtype=float)
    n, J, m = 3, 3, 6
    P = np.tril(np.ones((n, n)))            # P[i] = partial-sum indicator
    # Active kink sets per region: {1}, {1,2}, {1,2,3}.
    A_cols, y_vals = [], []
    for nact in (1, 2, 3):
        w = dm[:nact] @ P[:nact]
        A_cols.append(-w)
        y_vals.append(float(r * dm[:nact].sum() - level))

    F = np.vstack([P, np.eye(n)])           # partial-sum planes, then walls
    g = np.array([-r, -r, -r, 0.0, 0.0, 0.0])
    L = np.array([
        [0, 2, 0, 0, 0, 1],
        [0, -1, 3, 2, 2, 0],
        [0, 0, -2, 3, 3, 3],
    ])
    regions = [
        _region(np.eye(n), mu, 0.0, A_cols[jz].reshape(n, 1),
                [y_vals[jz]], L[jz])
        for jz in range(J)
    ]
    doc = {
        "n": n, "d": 1, "J": J, "m": m, "mean": True,
        "regions": regions,
        "hyperplanes": {"F": F.tolist(), "g": g.tolist()},
        "init": {"region": 2, "x": [1.25, 0.5, 0.75]},
    }
    return _finish(doc)


_BUILDERS = {
    "onenorm": one_norm_model,
    "ntop": polygonal_top_model,
    "pospart": positive_part_model,
}


def build_shipped(name: str) -> ModelSpec:
    """Rebuild a shipped model from its builder (not from the file)."""
    return _BUILDERS[name]()


def model_path(name: str) -> Path:
    """Filesystem path of a shipped model document."""
    if name not in SHIPPED:
        raise KeyError(f"unknown shipped model '{name}'; have {SHIPPED}")
    return Path(str(resources.files("pwhmc") / "models" / f"{name}.model"))
