"""Ground-truth oracles: moments, grid hit times, quadrature, exact draws."""

import json

import numpy as np
import pytest
from scipy import stats

from conftest import rand_fullrank, rand_spd, scaled_line_model
from pwhmc import zoo
from pwhmc.model import ell, load_model, min_slack, validate_model
from pwhmc.oracle import (
    conditional_gaussian_moments,
    exact_sample,
    grid_hit_time,
    occupancy_quadrature_line,
)
from pwhmc.subspace import ode_param


# --- conditional moments -----------------------------------------------------

def test_moments_standard_normal_on_sum_plane():
    cm = conditional_gaussian_moments(np.zeros(3), np.eye(3),
                                      np.ones((3, 1)), [1.0])
    assert np.allclose(cm.m, np.ones(3) / 3.0, atol=1e-12)
    assert np.allclose(cm.V, np.eye(3) - np.ones((3, 3)) / 3.0, atol=1e-12)


def test_moments_match_schur_identity(rng):
    # independent check: m = mu + Sigma A (A'Sigma A)^-1 (y - A'mu),
    #                    V = Sigma - Sigma A (A'Sigma A)^-1 A'Sigma
    for _ in range(40):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        mu = rng.normal(size=n)
        Sigma = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        y = rng.normal(size=d)
        cm = conditional_gaussian_moments(mu, Sigma, A, y)

        K = Sigma @ A @ np.linalg.inv(A.T @ Sigma @ A)
        m_ref = mu + K @ (y - A.T @ mu)
        V_ref = Sigma - K @ A.T @ Sigma
        assert np.allclose(cm.m, m_ref, atol=1e-9)
        assert np.allclose(cm.V, V_ref, atol=1e-9)

        # plane and degeneracy invariants
        assert np.allclose(A.T @ cm.m, y, atol=1e-9)
        assert np.max(np.abs(cm.V @ A)) < 1e-9
        assert np.min(np.linalg.eigvalsh(cm.V)) > -1e-10


def test_moments_bridge_to_region_dynamics(rng):
    # the oscillation center is the conditional mean of N(M^-1 r, M^-1)
    # on A'x = -y, and S S' is its conditional covariance
    for _ in range(25):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, n))
        M = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        r = rng.normal(size=n)
        y = rng.normal(size=d)
        x_p, S, _ = ode_param(M, r, A, y)
        cm = conditional_gaussian_moments(
            np.linalg.solve(M, r), np.linalg.inv(M), A, -y
        )
        assert np.allclose(x_p, cm.m, atol=1e-8)
        assert np.allclose(S @ S.T, cm.V, atol=1e-8)


# --- grid hit times ----------------------------------------------------------

def test_grid_hit_time_known_root():
    tau = grid_hit_time(np.zeros(1), [1.0], [0.0], [1.0], 0.5, 8.0)
    assert tau == pytest.approx(7 * np.pi / 6, abs=1e-9)


def test_grid_hit_time_no_crossing():
    assert grid_hit_time(np.zeros(1), [1.0], [0.0], [1.0], 2.0, 8.0) is None
    assert grid_hit_time(np.zeros(1), [0.5], [0.0], [1.0], 0.6, 0.4) is None


def test_grid_hit_time_near_window_edges():
    # root in the very first grid cell
    tiny = 1e-4
    tau = grid_hit_time(np.zeros(1), [0.0], [1.0], [1.0], -np.cos(tiny), 8.0)
    assert tau == pytest.approx(tiny, abs=1e-9)
    # root just inside / just beyond the window end
    root = 7 * np.pi / 6
    assert grid_hit_time(np.zeros(1), [1.0], [0.0], [1.0], 0.5,
                         root + 1e-3) == pytest.approx(root, abs=1e-9)
    assert grid_hit_time(np.zeros(1), [1.0], [0.0], [1.0], 0.5,
                         root - 1e-3) is None


def test_grid_hit_time_vector_form():
    # same contract with genuine n-vectors
    x_p = np.array([0.5, -0.2])
    a = np.array([0.3, 0.9])
    b = np.array([-0.4, 0.1])
    f = np.array([1.0, 2.0])
    g = -0.3
    tau = grid_hit_time(x_p, a, b, f, g, 7.0)
    assert tau is not None
    val = f @ (x_p + a * np.sin(tau) + b * np.cos(tau)) + g
    assert abs(val) < 1e-9


# --- occupancy quadrature ------------------------------------------------------

def test_occupancy_symmetric_split():
    p = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                  lambda x: 0.5 * x * x)
    assert p == pytest.approx(0.5, abs=1e-9)


def test_occupancy_log_two_step():
    ln2 = float(np.log(2.0))
    p = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                  lambda x: 0.5 * x * x + ln2)
    assert p == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_occupancy_shifted_split_matches_tail():
    for s in (-0.7, 0.0, 1.3):
        p = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                      lambda x: 0.5 * x * x, split=s)
        assert p == pytest.approx(stats.norm.sf(s), abs=1e-9)


# --- exact draws ---------------------------------------------------------------
# The exact law is the delta -> 0 limit of keeping draws of the unconstrained
# density within a slab of width delta about the manifold.

def test_slab_rejects_empty_width(rng):
    # a cell of width 1e-9 five standard deviations out holds no draw
    doc = json.loads(zoo.dump_model(zoo.axis_plane_model(2)))
    doc["m"] = 2
    doc["regions"][0]["L_row"] = [1, 1]
    doc["hyperplanes"] = {"F": [[0.0, 1.0], [0.0, -1.0]], "g": [-5.0, 5.0 + 1e-9]}
    with pytest.raises(RuntimeError, match="acceptance"):
        exact_sample(load_model(json.dumps(doc)), 10, rng)


def test_slab_axis_plane_marginal_is_standard_normal(rng):
    spec = zoo.axis_plane_model(2)
    xs, R = exact_sample(spec, 4000, rng)
    assert xs.shape == (4000, 2) and np.all(R == 1)
    assert np.max(np.abs(xs[:, 0])) <= 1e-12
    ks = stats.kstest(xs[:, 1], "norm")
    assert ks.pvalue > 0.01


def test_slab_step_occupancy(rng):
    # a potential step of ln 2, and the same line with A_2 = 2 A_1, whose
    # det(A_2'A_2)^(-1/2) = 1/2 acts as that step: both put 2/3 on x1 > 0
    ln2 = float(np.log(2.0))
    target = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                       lambda x: 0.5 * x * x + ln2)
    for spec in (zoo.step_line_model(), scaled_line_model()):
        assert validate_model(spec).passed
        xs, R = exact_sample(spec, 60000, rng)
        assert np.array_equal(R == 1, xs[:, 0] >= 0.0)
        assert float(np.mean(R == 1)) == pytest.approx(target, abs=0.01)


def test_exact_piece_masses_match_quadrature(rng):
    # two pieces of the line x2 = c, split at x1 = 0, with their own
    # anisotropic M, r, k and scale of A: along the line (unit speed) piece
    # j has density exp(-V_j(s, c)) / |a_j|
    for _ in range(5):
        c = float(rng.normal())
        Ms = [rand_spd(rng, 2, jitter=1.0) for _ in range(2)]
        rs = [rng.normal(size=2) for _ in range(2)]
        ks = rng.normal(size=2)
        scales = rng.uniform(0.5, 3.0, size=2)
        doc = {
            "n": 2, "d": 1, "J": 2, "m": 1,
            "regions": [
                {"M": Ms[jz].tolist(), "r": rs[jz].tolist(), "k": float(ks[jz]),
                 "A": [[0.0], [float(scales[jz])]],
                 "y": [-float(scales[jz]) * c], "L_row": [L]}
                for jz, L in ((0, 2), (1, -1))
            ],
            "hyperplanes": {"F": [[1.0, 0.0]], "g": [0.0]},
        }
        spec = load_model(json.dumps(doc))

        def V(jz):
            M, r = spec.M[jz], spec.r[jz]
            return lambda s: (0.5 * (M[0, 0] * s * s + 2 * M[0, 1] * s * c
                                     + M[1, 1] * c * c)
                              - r[0] * s - r[1] * c + spec.k[jz]
                              + np.log(scales[jz]))
        target = occupancy_quadrature_line(V(0), V(1))
        xs, R = exact_sample(spec, 60000, rng)
        assert np.max(np.abs(xs[:, 1] - c)) <= 1e-12
        assert float(np.mean(R == 1)) == pytest.approx(target, abs=0.01)


def test_slab_respects_region_geometry(rng):
    # every draw is on its own piece's plane and inside its own cell
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        xs, R = exact_sample(spec, 3000, rng)
        for x, j in zip(xs, R):
            assert np.max(np.abs(ell(spec, j, x))) <= 1e-12, name
            assert min_slack(spec, j, x) >= 0.0, name
        if name == "onenorm":
            assert np.max(np.abs(np.abs(xs).sum(axis=1) - 1.0)) <= 1e-12
            assert abs(xs.mean()) < 0.05                 # symmetric law


def test_slab_positive_part_observable(rng):
    # every draw puts the piecewise functional exactly on its level
    spec = zoo.positive_part_model()
    xs, _ = exact_sample(spec, 1500, rng)
    dm = np.array([0.8, 0.6, 0.4])
    s = np.cumsum(xs, axis=1)
    obs = np.maximum(2.0 - s, 0.0) @ dm
    assert np.max(np.abs(obs - 0.75)) <= 1e-12
