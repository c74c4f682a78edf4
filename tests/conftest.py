"""Shared random-instance and model builders for the test suite."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from pwhmc import dynamics, zoo
from pwhmc.model import cell_slack, load_model


def segment(t_budget, j, Y, skip, table):
    """dynamics.evolve_segment_detail with a flight scratch of its own."""
    return dynamics.evolve_segment_detail(t_budget, j, Y, skip, table, np.empty((2, 2)))


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


def first_hit_both_paths(fa, fb, h, t_max, skip):
    """first_hit on the array rows fa, fb and offsets h by the scalar scan
    alone and, with h handed as a Reach, through the numpy pre-selection;
    asserts the two agree bit for bit and returns the result."""
    scalar = dynamics.first_hit(fa, fb, h, t_max, skip)
    selected = dynamics.first_hit(fa, fb, dynamics.Reach(h), t_max, skip)
    assert repr(selected) == repr(scalar)
    return scalar


def region_rows(table, j):
    """(G, h): region j's boundary rows G z + h >= 0, from the cell table."""
    rows = slice(table.cells.start[j - 1], table.cells.start[j])
    return table.cells.G[rows], table.cells.h[rows]


def coords(spec, j, x):
    """Whitened coordinates S'M(x - x_p) of a point x on region j's piece,
    by the products run_chain takes for its start."""
    cells = spec.cells
    return cells.S[j - 1].T.dot(spec.M[j - 1].dot(x - cells.x_p[j - 1]))


def on_piece(cells, j, z):
    """The point x_p + S z of region j's piece at whitened coordinates z."""
    return cells.x_p[j - 1] + cells.S[j - 1] @ z


def members_of(spec, x, tol=0.0):
    """Every region whose cell holds x within tol."""
    labels = np.arange(1, spec.J + 1)
    return set(labels[cell_slack(spec, labels, x) >= -tol].tolist())


def point_in_region(spec, j, rng, scale=0.6, max_tries=500):
    """Random manifold point strictly inside region j."""
    for _ in range(max_tries):
        x = on_piece(spec.cells, j, rng.normal(scale=scale, size=spec.n - spec.d))
        members = members_of(spec, x)
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


def polygon_model(sides, radius=1.2):
    """N(0, I_3) on the plane x3 = 0 inside a regular polygon of the given
    circumradius, turned off the axes: one region, one wall per side."""
    theta = 0.1 + 2.0 * np.pi * np.arange(sides) / sides
    doc = {
        "n": 3, "d": 1, "J": 1, "m": sides,
        "regions": [{
            "M": np.eye(3).tolist(), "r": [0.0, 0.0, 0.0], "k": 0.0,
            "A": [[0.0], [0.0], [1.0]], "y": [0.0], "L_row": [1] * sides,
        }],
        "hyperplanes": {
            "F": np.column_stack([-np.cos(theta), -np.sin(theta),
                                  np.zeros(sides)]).tolist(),
            "g": [radius * np.cos(np.pi / sides)] * sides,
        },
        "init": {"region": 1, "x": [0.1, -0.2, 0.0]},
    }
    return load_model(json.dumps(doc))


def sign_cells_model(M, scale_left=1.0):
    """The d = 2 level set |x1| + x3 = 1, |x2| + x4 = 1 in R^4, one region
    per sign cell of (x1, x2), under the shared mass matrix M and linear
    term r = (0.3, -0.2, 0.1, 0.4).  Region j has signs s = (s1, s2) with
    s1 = -1 for j = 2, 4 and s2 = -1 for j = 3, 4; its piece is
    (s1 x1 + x3 - 1, s2 x2 + x4 - 1), times scale_left where x1 < 0, which
    leaves the level set as it is but changes ||A_j||."""
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    regions = []
    for s1, s2 in signs:
        c = scale_left if s1 < 0 else 1.0
        regions.append({
            "M": np.asarray(M).tolist(), "r": [0.3, -0.2, 0.1, 0.4], "k": 0.0,
            "A": (c * np.array([[s1, 0], [0, s2], [1, 0], [0, 1]])).tolist(),
            "y": [-c, -c],
            "L_row": [s1 * (signs.index((-s1, s2)) + 1),
                      s2 * (signs.index((s1, -s2)) + 1)],
        })
    doc = {
        "n": 4, "d": 2, "J": 4, "m": 2, "regions": regions,
        "hyperplanes": {"F": np.eye(2, 4).tolist(), "g": [0.0, 0.0]},
        "init": {"region": 1, "x": [0.5, 0.5, 0.5, 0.5]},
    }
    return load_model(json.dumps(doc))


def anisotropic_mass(n=4, seed=3):
    """BB'/4 + I/2 with B from default_rng(seed)."""
    B = np.random.default_rng(seed).normal(size=(n, n))
    return B @ B.T / 4 + np.eye(n) / 2


def oblique_wall_model():
    """An anisotropic normal on the plane x3 = 0 inside a triangle of three
    hard walls whose normals leave the plane obliquely."""
    M = [[2.0, 0.6, 0.3], [0.6, 0.5, 0.1], [0.3, 0.1, 1.0]]
    doc = {
        "n": 3, "d": 1, "J": 1, "m": 3,
        "regions": [{
            "M": M, "r": [0.2, -0.1, 0.3], "k": 0.0,
            "A": [[0.0], [0.0], [1.0]], "y": [0.0], "L_row": [1, 1, 1],
        }],
        "hyperplanes": {
            "F": [[1.0, 0.5, 0.7], [-0.8, 1.0, -0.4], [-0.3, -1.0, 0.5]],
            "g": [1.0, 1.2, 0.9],
        },
        "init": {"region": 1, "x": [0.0, 0.0, 0.0]},
    }
    return load_model(json.dumps(doc))


def lines_model(F, pieces, g=0.0):
    """N(0, I_2) on one line A_j'x + y_j = 0 per region, for each (A_j, y_j,
    L_row) in pieces, cut by the one hyperplane F'x + g = 0; it starts at
    the origin in region 1."""
    return load_model(json.dumps({
        "n": 2, "d": 1, "J": len(pieces), "m": 1,
        "regions": [{"M": np.eye(2).tolist(), "r": [0.0, 0.0], "k": 0.0,
                     "A": [[a] for a in A], "y": [y], "L_row": [L]}
                    for A, y, L in pieces],
        "hyperplanes": {"F": [F], "g": [g]},
        "init": {"region": 1, "x": [0.0, 0.0]},
    }))


def plane_model(M, A):
    """N(0, M^-1) on A'x = 0 in R^3, one region with the wall x3 = -1; it
    starts at the origin."""
    d = np.shape(A)[1]
    return load_model(json.dumps({
        "n": 3, "d": d, "J": 1, "m": 1,
        "regions": [{"M": np.asarray(M, dtype=float).tolist(), "r": [0.0] * 3,
                     "k": 0.0, "A": np.asarray(A, dtype=float).tolist(),
                     "y": [0.0] * d, "L_row": [1]}],
        "hyperplanes": {"F": [[0.0, 0.0, 1.0]], "g": [1.0]},
        "init": {"region": 1, "x": [0.0, 0.0, 0.0]},
    }))


def unreachable_overlap_model():
    """N(0, I) on the plane x3 = 0 in three regions: region 1 is x1 <= 0,
    region 2 is x1 >= 0 across the face x1 = 0, and region 3, the quadrant
    x1, x2 >= 0 with walls only, overlaps region 2 and no transition enters
    it.  It starts at (-1, 0, 0) in region 1."""
    region = {"M": np.eye(3).tolist(), "r": [0.0] * 3, "k": 0.0,
              "A": [[0.0], [0.0], [1.0]], "y": [0.0]}
    return load_model(json.dumps({
        "n": 3, "d": 1, "J": 3, "m": 2,
        "regions": [dict(region, L_row=row) for row in ([-2, 0], [1, 0], [3, 3])],
        "hyperplanes": {"F": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "g": [0.0, 0.0]},
        "init": {"region": 1, "x": [-1.0, 0.0, 0.0]},
    }))


def invalid_models():
    """Every invalid model the suite builds, {case: (spec, failing checks)};
    validation refuses each before any start is checked."""
    mass_jump = json.loads(zoo.dump_model(zoo.step_line_model()))
    mass_jump["regions"][1]["M"] = [[1.0, 0.0], [0.0, 2.0]]
    no_far_entry = json.loads(zoo.dump_model(zoo.one_norm_model()))
    no_far_entry["regions"][4]["L_row"][0] = 0      # L[1,1] leads to region 5
    return {
        "mass_jump": (load_model(json.dumps(mass_jump)), ["mass_continuity"]),
        "no_far_entry": (load_model(json.dumps(no_far_entry)), ["reciprocity"]),
        # on the line x1 = 0 the wall x1 + 1e-13 x2 >= 0 is a row of length
        # 1e-13 with h = 0, too short to divide by
        "row_parallel_to_its_piece": (
            lines_model([1.0, 1e-13], [([1.0, 0.0], 0.0, 1)]), ["normal_escapes_A"]),
        # a transition from the line x1 = x2 to the line x1 = 0, which lies
        # in the face x1 = 0: the row is fine in region 1, its mirror has
        # length 0
        "zero_length_mirror": (
            lines_model([1.0, 0.0], [([1.0, -1.0], 0.0, 2), ([1.0, 0.0], 0.0, -1)]),
            ["normal_escapes_A"]),
        "rank_deficient_A": (
            plane_model(np.eye(3), [[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]),
            ["A_full_rank"]),
        # sigma_min(A) = 1, but the sampler's QR test sees rank deficiency
        "ill_scaled_A": (
            plane_model(np.eye(3), [[1e13, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            ["A_full_rank"]),
        # M = diag(1, -1, 1) is indefinite on the piece x1 = 0
        "indefinite_metric": (
            plane_model(np.diag([1.0, -1.0, 1.0]), np.eye(3, 1)), ["M_spd"]),
        # no chain from regions 1 and 2 ever enters region 3
        "unreachable_overlap": (unreachable_overlap_model(), ["connected"]),
    }


def benchmark_generators():
    """The benchmark's model generators and oracles, perfbench/models.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    module_spec = importlib.util.spec_from_file_location("bench_models", path)
    bench = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench)
    return bench


def benchmark_models():
    """polywall-256 and onenorm10, from the benchmark's own generators."""
    bench = benchmark_generators()
    return [load_model(bench.polywall_document(256, 1.0, 1)),
            load_model(bench.onenorm_document(10, 1))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
