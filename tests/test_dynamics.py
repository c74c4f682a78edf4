"""Exact evolution, hit detection, and boundary velocity updates."""

import numpy as np
import pytest

from conftest import point_in_region, rand_fullrank, rand_spd
from pwhmc import zoo
from pwhmc.dynamics import (
    EPS_T,
    TIE_TOL,
    StallDetector,
    boundary_dynamics,
    evolve_segment,
    evolve_segment_detail,
    evolve_to_boundary,
    first_hit,
    flight,
    hit_time,
    region_table,
    wall_dynamics,
)
from pwhmc.errors import ContractError, StallError
from pwhmc.model import region_boundaries, region_membership
from pwhmc.oracle import grid_hit_time
from pwhmc.sampler import refresh_velocity
from pwhmc.subspace import ode_param


# --- hit times -------------------------------------------------------------

def test_hit_time_exiting_root():
    tau = hit_time(1.0, 0.0, 0.5, 4.0)
    assert tau == pytest.approx(7 * np.pi / 6, abs=1e-12)


def test_hit_time_unreachable_level():
    assert hit_time(1.0, 0.0, 2.0, 100.0) is None
    assert hit_time(0.0, 0.0, 0.5, 100.0) is None


def test_hit_time_excludes_initial_root():
    tau = hit_time(1.0, 0.0, 0.0, 4.0, 1e-9)
    assert tau == pytest.approx(np.pi, abs=1e-12)


def test_hit_time_beyond_budget():
    assert hit_time(1.0, 0.0, 0.5, 3.0) is None     # root at ~3.665


def test_hit_time_grazing_is_no_hit():
    # u == |h|: the trajectory touches the boundary tangentially
    assert hit_time(0.6, 0.8, 1.0, 100.0) is None


def test_hit_time_matches_grid_oracle(rng):
    both_hit = 0
    for _ in range(300):
        fa, fb = rng.normal(scale=2.0, size=2)
        h = rng.normal()
        u = np.hypot(fa, fb)
        if abs(u - abs(h)) < 1e-2:
            continue                      # keep the oracle's bracketing honest
        t_max = float(rng.uniform(0.5, 8.0))
        analytic = hit_time(fa, fb, h, t_max, eps_t=0.0)
        grid = grid_hit_time(np.zeros(1), [fa], [fb], np.ones(1), h, t_max)
        if analytic is None:
            assert grid is None
        else:
            assert grid is not None
            assert analytic == pytest.approx(grid, abs=1e-6)
            both_hit += 1
    assert both_hit > 50


# --- kernels ---------------------------------------------------------------

def test_kernel_tie_breaks_to_lowest_row():
    # identical constraints: same root everywhere, row 0 must win
    fa = np.array([0.3, 0.3, 0.3])
    fb = np.array([0.8, 0.8, 0.8])
    h = np.array([0.1, 0.1, 0.1])
    k, _ = first_hit(fa, fb, h, 10.0, 1e-9, TIE_TOL)
    assert k == 0


def test_kernel_empty_rows():
    assert first_hit(np.empty(0), np.empty(0), np.empty(0), 2.0, 0.0,
                     TIE_TOL) == (-1, 2.0)


# --- segment scanning ------------------------------------------------------

def test_evolve_to_boundary_no_constraints():
    a, b = np.array([0.3, -0.1]), np.array([0.0, 0.7])
    x_p = np.array([1.0, 0.0])
    k, tau, x, xdot = evolve_to_boundary(1.2, a, b, x_p, np.zeros((0, 2)),
                                         np.zeros(0))
    assert k == -1 and tau == 1.2
    assert np.allclose(x, x_p + a * np.sin(1.2) + b * np.cos(1.2))
    assert np.allclose(xdot, a * np.cos(1.2) - b * np.sin(1.2))


def test_evolve_to_boundary_single_constraint():
    # F = [1], g = 0 about x_p = 0.5: offset h = F x_p + g = 0.5
    k, tau, x, _ = evolve_to_boundary(
        4.0, np.array([1.0]), np.array([0.0]), np.array([0.5]),
        np.array([[1.0]]), np.array([0.5]),
    )
    assert k == 0
    assert tau == pytest.approx(7 * np.pi / 6, abs=1e-12)
    assert abs(x[0]) < 1e-12


def test_evolve_to_boundary_picks_earliest():
    # K_i(t) = sin(t_i - t): first exiting root exactly at t_i
    roots = (2.0, 1.0)
    a = np.array([-np.cos(r) for r in roots])
    b = np.array([np.sin(r) for r in roots])
    k, tau, _, _ = evolve_to_boundary(5.0, a, b, np.zeros(2), np.eye(2),
                                      np.zeros(2))
    assert k == 1
    assert tau == pytest.approx(1.0, abs=1e-12)


def test_region_table_memoizes():
    spec = zoo.one_norm_model()
    table = region_table(spec)
    assert region_table(spec) is table
    reg1 = table[1]
    assert table[1] is reg1
    assert set(table) == {1}
    table[2]
    assert set(table) == {1, 2}
    # a fresh copy of the model gets its own table, rebuilt bit-identically
    other = zoo.one_norm_model()
    fresh = region_table(other)[1]
    assert fresh is not reg1
    assert np.array_equal(fresh.x_p, reg1.x_p)


def test_segment_enforces_manifold_and_tangency():
    spec = zoo.one_norm_model()
    table = region_table(spec)
    x0 = np.array([0.2, 0.3, 0.5])
    xdot0 = table[1].S @ np.array([0.3, -0.2])
    with pytest.raises(ContractError, match="manifold"):
        evolve_segment(1.0, 1, x0 + 1e-6, xdot0, table)
    with pytest.raises(ContractError, match="tangent"):
        evolve_segment(1.0, 1, x0, xdot0 + 1e-6, table)


# --- velocity updates ------------------------------------------------------

def test_wall_dynamics_cases():
    u = np.array([1.0, 0.0])
    assert np.allclose(wall_dynamics(np.array([1.0, 1.0]), u), [-1.0, 1.0])
    assert np.allclose(wall_dynamics(np.array([0.0, 2.0]), u), [0.0, 2.0])
    assert np.allclose(wall_dynamics(-u, u), u)


def test_boundary_dynamics_transmit_and_reflect():
    u1 = np.array([1.0, 0.0])
    u2 = -u1
    xdot = np.array([-2.0, 3.0])
    new, j_new = boundary_dynamics(xdot, 1, 2, u1, u2, 0.0, 1.5)
    assert j_new == 2
    assert new[0] == pytest.approx(-1.0)        # sqrt(2(2 - 1.5)) along u2
    assert new[1] == pytest.approx(3.0)

    new, j_new = boundary_dynamics(xdot, 1, 2, u1, u2, 0.0, 3.0)
    assert j_new == 1
    assert np.allclose(new, [2.0, 3.0])         # u1-component flipped


def test_boundary_dynamics_artificial_boundary_is_identity():
    # a stepless face with u2 = -u1 leaves the velocity alone, and one with
    # u2 = u1 (a wall seen as a zero step) reflects it like wall_dynamics
    rng = np.random.default_rng(5)
    for _ in range(20):
        u1 = rng.normal(size=3)
        u1 /= np.linalg.norm(u1)
        xdot = rng.normal(size=3)
        if u1 @ xdot > 0:
            xdot = -xdot
        new, j_new = boundary_dynamics(xdot, 1, 2, u1, -u1, 0.7, 0.7)
        assert j_new == 2
        assert np.allclose(new, xdot, atol=1e-14)
        new, j_new = boundary_dynamics(xdot, 1, 1, u1, u1, 0.7, 0.7)
        assert j_new == 1
        assert np.allclose(new, wall_dynamics(xdot, u1), rtol=0, atol=1e-14)


def test_boundary_dynamics_continuous_in_dV():
    u1 = np.array([0.0, 1.0])
    xdot = np.array([0.4, -1.3])
    for dV in (1e-6, 1e-9, 1e-12):
        new, _ = boundary_dynamics(xdot, 1, 2, u1, -u1, 0.0, dV)
        assert np.linalg.norm(new - xdot) < 2e-5


def test_boundary_dynamics_velocity_transfer(rng):
    for _ in range(30):
        u1 = rng.normal(size=4)
        u1 /= np.linalg.norm(u1)
        u2 = rng.normal(size=4)
        u2 /= np.linalg.norm(u2)
        w = rng.normal(size=4)
        w -= (u1 @ w) * u1
        alpha = abs(rng.normal()) + 0.1
        xdot = -alpha * u1 + w
        new, _ = boundary_dynamics(xdot, 1, 2, u1, u2, 2.0, 2.0)
        assert np.allclose(new, alpha * u2 + w, atol=1e-10)


# --- full segments ---------------------------------------------------------

def test_evolve_segment_half_period():
    spec = zoo.axis_plane_model(2)
    x, xdot, tau, j = evolve_segment(
        np.pi, 1, np.array([0.0, 1.0]), np.array([0.0, -1.0]),
        region_table(spec),
    )
    assert j == 1 and tau == pytest.approx(np.pi)
    assert np.allclose(x, [0.0, -1.0], atol=1e-12)
    assert np.allclose(xdot, [0.0, 1.0], atol=1e-12)


def test_evolve_segment_reflects_on_big_step():
    spec = zoo.step_line_model()                # dV = ln 2 at x1 = 0
    x, xdot, tau, j = evolve_segment(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        region_table(spec),
    )
    assert tau == pytest.approx(np.pi / 4, abs=1e-12)
    assert j == 1
    assert abs(x[0]) < 1e-12
    assert xdot[0] == pytest.approx(0.5 * np.sqrt(2))    # speed kept, sign flipped


def test_evolve_segment_transmits_on_flat_step():
    spec = zoo.step_line_model(dk=0.0)
    x, xdot, tau, j = evolve_segment(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        region_table(spec),
    )
    assert j == 2
    assert xdot[0] == pytest.approx(-0.5 * np.sqrt(2), abs=1e-12)


def test_evolve_segment_junction_energy_balance():
    spec = zoo.step_line_model(dk=0.2)
    speed = 1.3                                  # enough to climb the step
    x, xdot, tau, j_new, k, V1, V2, xdot_pre = evolve_segment_detail(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-speed, 0.0]),
        region_table(spec), StallDetector(),
    )
    assert j_new == 2
    pre = 0.5 * xdot_pre @ xdot_pre + V1
    post = 0.5 * xdot @ xdot + V2
    assert post == pytest.approx(pre, abs=1e-8)


def test_segment_adherence_and_region_bounds(rng):
    spec = zoo.one_norm_model()
    table = region_table(spec)
    for _ in range(20):
        j = int(rng.integers(1, spec.J + 1))
        x0 = point_in_region(spec, j, rng)
        reg = table[j]
        a, b = refresh_velocity(reg, rng), x0 - reg.x_p
        _, tau, _, _ = evolve_to_boundary(np.pi / 2, a, b, reg.x_p, reg.F_j,
                                          reg.h)
        rb = region_boundaries(spec, j)
        for t in np.linspace(0.0, tau, 32):
            x, _ = flight(reg.x_p, a, b, t)
            assert np.linalg.norm(spec.A[j - 1].T @ x + spec.y[j - 1]) < 1e-8
            if t < tau:
                assert np.min(rb.F_j @ x + rb.g_j) > -1e-7


def test_segment_conserves_restricted_hamiltonian(rng):
    # 0.5 xdot'M xdot + V(x) is constant along a segment for any SPD M
    for _ in range(15):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, n - 1))
        M = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        r = rng.normal(size=n)
        y = rng.normal(size=d)
        x_p, S, Q = ode_param(M, r, A, y)
        x0 = x_p + Q[:, d:] @ rng.normal(size=n - d)
        a, b = S @ rng.standard_normal(n - d), x0 - x_p

        def H(t):
            x, xd = flight(x_p, a, b, t)
            return 0.5 * xd @ M @ xd + 0.5 * x @ M @ x - r @ x

        vals = np.array([H(t) for t in np.linspace(0, 2 * np.pi, 32)])
        scale = max(1.0, np.abs(vals).max())
        assert (vals.max() - vals.min()) / scale < 1e-8


def test_stall_detector_trips_on_repeat():
    stall = StallDetector()
    stall.observe(0.0, (1, 1), EPS_T)
    with pytest.raises(StallError) as err:
        stall.observe(0.0, (1, 1), EPS_T)
    assert err.value.context["constraint"] == (1, 1)


def test_stall_detector_resets_on_progress():
    stall = StallDetector()
    stall.observe(0.0, (1, 1), EPS_T)
    stall.observe(0.5, (1, 1), EPS_T)    # healthy event resets
    stall.observe(0.0, (1, 1), EPS_T)
    stall.observe(0.0, (2, 1), EPS_T)    # different constraint is fine
    with pytest.raises(StallError):
        stall.observe(0.0, (2, 1), EPS_T)


def test_region_membership_preserved_across_transition(rng):
    spec = zoo.one_norm_model()
    table = region_table(spec)
    moved = 0
    for _ in range(40):
        j = int(rng.integers(1, spec.J + 1))
        x0 = point_in_region(spec, j, rng)
        xdot0 = refresh_velocity(table[j], rng)
        x, xdot, tau, j_new = evolve_segment(np.pi / 2, j, x0, xdot0, table)
        assert j_new in region_membership(spec, x, tol=1e-9)
        if j_new != j:
            moved += 1
    assert moved > 5
