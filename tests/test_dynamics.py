"""Exact evolution, hit detection, and boundary velocity updates."""

import json

import numpy as np
import pytest

from conftest import members_of, point_in_region, rand_fullrank, rand_spd
from pwhmc import zoo
from pwhmc.dynamics import (
    EPS_T,
    boundary_dynamics,
    evolve_segment_detail,
    first_hit,
    flight,
    region_table,
)
from pwhmc.errors import DegenerateNormalError
from pwhmc.model import cell_slack, load_model
from pwhmc.oracle import grid_hit_time
from pwhmc.sampler import refresh_velocity
from pwhmc.subspace import ode_param

I2 = np.eye(2)


# --- hit times -------------------------------------------------------------

@pytest.mark.parametrize("fa, fb, h, t_max, skip, expected", [
    (1.0, 0.0, 0.5, 4.0, -1, 7 * np.pi / 6),     # exiting root
    (1.0, 0.0, 2.0, 100.0, -1, None),            # level out of reach
    (0.0, 0.0, 0.5, 100.0, -1, None),            # no motion
    (1.0, 0.0, 0.0, 4.0, -1, np.pi),             # entering at t = 0
    (1.0, 0.0, 0.5, 3.0, -1, None),              # root at ~3.665, beyond budget
    (0.6, 0.8, 1.0, 100.0, -1, None),            # u == |h|: grazing, no hit
    (-1.0, 0.0, 0.0, 7.0, -1, 0.0),              # exiting at t = 0: hit now
    (-1.0, 0.0, 0.0, 7.0, 0, 2 * np.pi),         # ... unless just crossed
    (-1.0, -0.1, 0.0, 7.0, -1, 0.0),             # exiting from outside
    (-1.0, -0.1, 0.0, 7.0, 0, 2 * np.pi - np.arctan(0.1)),
], ids=["exiting", "unreachable", "still", "initial-root", "beyond-budget",
        "grazing", "exiting-now", "exiting-now-skip", "outside",
        "outside-skip"])
def test_first_hit_single_row(fa, fb, h, t_max, skip, expected):
    k, tau = first_hit(np.array([fa]), np.array([fb]), np.array([h]), t_max,
                       skip)
    if expected is None:
        assert (k, tau) == (-1, t_max)
    else:
        assert k == 0
        assert tau == pytest.approx(expected, abs=1e-12)


def test_first_hit_advances_past_eps_t(rng):
    # Exiting roots placed on and around the exclusion window's edge.  On
    # the row just crossed (skip) a root at or before EPS_T is the face just
    # left and never a hit; on any other row it is a hit at tau = 0.  Every
    # other hit moves time forward by more than EPS_T, so zero-time events
    # need a second face: the sampler's event cap relies on it.
    placements = EPS_T * np.array([0.0, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0])
    near = zero = 0
    for _ in range(3000):
        m = int(rng.integers(1, 5))
        pick = rng.integers(len(placements), size=m)
        root = placements[pick]
        u = rng.uniform(0.1, 3.0, size=m)
        theta = rng.uniform(0.05, np.pi - 0.05, size=m)  # t + phi at the root
        phi = theta - root
        t_max = float(np.exp(rng.uniform(np.log(EPS_T / 2), np.log(7.0))))
        skip = int(rng.integers(-1, m))
        k, tau = first_hit(-u * np.sin(phi), u * np.cos(phi),
                           -u * np.cos(theta), t_max, skip)
        inside = [i for i in range(m) if i != skip and pick[i] <= 1]
        if inside:                  # unambiguously inside the window
            assert tau == 0.0 and k != skip and k <= min(inside)
        if k >= 0:
            assert tau == 0.0 or tau > EPS_T
            assert k != skip or tau > EPS_T
            zero += tau == 0.0
            near += EPS_T < tau < 3 * EPS_T
        else:
            assert tau == t_max
    assert near > 0 and zero > 0     # roots at 2 EPS_T are found, not skipped


def test_hit_time_matches_grid_oracle(rng):
    # As the row just crossed (skip), a row takes the grid's first downward
    # crossing in (0, t_max]; as any other row, a row that is exiting while
    # outside its face (K(0) < 0, K'(0) < 0) is hit at tau = 0.
    both_hit = immediate = 0
    for _ in range(300):
        fa, fb = rng.normal(scale=2.0, size=2)
        h = rng.normal()
        u = np.hypot(fa, fb)
        if abs(u - abs(h)) < 1e-2:
            continue                      # keep the oracle's bracketing honest
        t_max = float(rng.uniform(0.5, 8.0))
        grid = grid_hit_time(np.zeros(1), [fa], [fb], np.ones(1), h, t_max)
        outside = fa < 0 and fb + h < 0 and u > abs(h)
        for skip, expected in ((0, grid), (-1, 0.0 if outside else grid)):
            k, tau = first_hit(np.array([fa]), np.array([fb]), np.array([h]),
                               t_max, skip)
            if expected is None:
                assert k < 0
            else:
                assert k == 0
                assert tau == pytest.approx(expected, abs=1e-6)
        both_hit += grid is not None
        immediate += outside
    assert both_hit > 50 and immediate > 20


# --- kernels ---------------------------------------------------------------

def test_kernel_tie_breaks_to_lowest_row():
    # identical constraints: same root everywhere, row 0 must win
    fa = np.array([0.3, 0.3, 0.3])
    fb = np.array([0.8, 0.8, 0.8])
    h = np.array([0.1, 0.1, 0.1])
    k, _ = first_hit(fa, fb, h, 10.0, -1)
    assert k == 0


def test_kernel_empty_rows():
    assert first_hit(np.empty(0), np.empty(0), np.empty(0), 2.0, -1) == (-1, 2.0)


# --- segment scanning ------------------------------------------------------

def test_flight_without_constraints_runs_the_budget():
    a, b = np.array([0.3, -0.1]), np.array([0.0, 0.7])
    G = np.zeros((0, 2))
    k, tau = first_hit(G.dot(a), G.dot(b), np.zeros(0), 1.2, -1)
    x, xdot = flight(a, b, tau)
    assert k == -1 and tau == 1.2
    assert np.allclose(x, a * np.sin(1.2) + b * np.cos(1.2))
    assert np.allclose(xdot, a * np.cos(1.2) - b * np.sin(1.2))


def test_first_hit_single_constraint_lands_on_it():
    # F = [1], g = 0 about x_p = 0.5: offset h = F x_p + g = 0.5
    F, x_p = np.array([[1.0]]), np.array([0.5])
    a, b = np.array([1.0]), np.array([0.0])
    k, tau = first_hit(F.dot(a), F.dot(b), np.array([0.5]), 4.0, -1)
    x = x_p + flight(a, b, tau)[0]
    assert k == 0
    assert tau == pytest.approx(7 * np.pi / 6, abs=1e-12)
    assert abs(x[0]) < 1e-12


def test_first_hit_picks_earliest():
    # K_i(t) = sin(t_i - t): first exiting root exactly at t_i
    roots = (2.0, 1.0)
    a = np.array([-np.cos(r) for r in roots])
    b = np.array([np.sin(r) for r in roots])
    k, tau = first_hit(np.eye(2).dot(a), np.eye(2).dot(b), np.zeros(2), 5.0,
                       -1)
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


def test_normal_of_a_row_parallel_to_the_piece_raises():
    # manifold x1 = 0 with an active boundary also normal to x1: the row of
    # G = F S vanishes, so no normal exists on the piece
    doc = {
        "n": 2, "d": 1, "J": 1, "m": 1, "mean": False,
        "regions": [{
            "M": [[1.0, 0.0], [0.0, 1.0]], "r": [0.0, 0.0], "k": 0.0,
            "A": [[1.0], [0.0]], "y": [0.0], "L_row": [1],
        }],
        "hyperplanes": {"F": [[1.0, 0.0]], "g": [1.0]},
    }
    spec = load_model(json.dumps(doc))
    reg = region_table(spec)[1]
    with pytest.raises(DegenerateNormalError, match="hyperplane 1"):
        reg.normal(0)


def segment_in_x(t_budget, j, x0, xdot0, table, skip=-1):
    """evolve_segment_detail on a state given in x, with every state it
    returns mapped back to x."""
    reg = table[j]
    z, zdot, tau, j_new, k, V1, V2, zdot_pre = evolve_segment_detail(
        t_budget, j, reg.coords(np.asarray(x0, dtype=float)),
        reg.S.T @ reg.M @ np.asarray(xdot0, dtype=float), skip, table)
    new = table[j_new]
    return (new.x_p + new.S @ z, new.S @ zdot, tau, j_new, k, V1, V2,
            reg.S @ zdot_pre)


# --- velocity updates ------------------------------------------------------

def test_wall_reflection_cases():
    # a hard wall is the step V2 = inf: reflect, stay in the region
    u = np.array([1.0, 0.0])
    for xdot, expected in (([1.0, 1.0], [-1.0, 1.0]), ([0.0, 2.0], [0.0, 2.0]),
                           (-u, u)):
        new, j_new = boundary_dynamics(np.asarray(xdot), 1, 1, u, u, None,
                                       0.7, np.inf)
        assert j_new == 1
        assert np.allclose(new, expected)


def test_boundary_dynamics_transmit_and_reflect():
    u1 = np.array([1.0, 0.0])
    u2 = -u1
    xdot = np.array([-2.0, 3.0])
    new, j_new = boundary_dynamics(xdot, 1, 2, u1, u2, I2, 0.0, 1.5)
    assert j_new == 2
    assert new[0] == pytest.approx(-1.0)        # sqrt(2(2 - 1.5)) along u2
    assert new[1] == pytest.approx(3.0)

    new, j_new = boundary_dynamics(xdot, 1, 2, u1, u2, I2, 0.0, 3.0)
    assert j_new == 1
    assert np.allclose(new, [2.0, 3.0])         # u1-component flipped


def test_boundary_dynamics_artificial_boundary_is_identity():
    # a stepless face with u2 = -u1 leaves the velocity alone, and one with
    # u2 = u1 (a wall seen as a zero step) reflects it like a hard wall
    rng = np.random.default_rng(5)
    for _ in range(20):
        u1 = rng.normal(size=3)
        u1 /= np.linalg.norm(u1)
        xdot = rng.normal(size=3)
        if u1 @ xdot > 0:
            xdot = -xdot
        new, j_new = boundary_dynamics(xdot, 1, 2, u1, -u1, np.eye(3), 0.7,
                                       0.7)
        assert j_new == 2
        assert np.allclose(new, xdot, atol=1e-14)
        new, j_new = boundary_dynamics(xdot, 1, 1, u1, u1, np.eye(3), 0.7,
                                       0.7)
        assert j_new == 1
        wall, _ = boundary_dynamics(xdot, 1, 1, u1, u1, None, 0.7, np.inf)
        assert np.allclose(new, wall, rtol=0, atol=1e-14)


def test_boundary_dynamics_continuous_in_dV():
    u1 = np.array([0.0, 1.0])
    xdot = np.array([0.4, -1.3])
    for dV in (1e-6, 1e-9, 1e-12):
        new, _ = boundary_dynamics(xdot, 1, 2, u1, -u1, I2, 0.0, dV)
        assert np.linalg.norm(new - xdot) < 2e-5


def test_boundary_dynamics_velocity_transfer(rng):
    # the tangential part goes through P, the normal speed along u2
    for _ in range(30):
        P = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        u1 = rng.normal(size=4)
        u1 /= np.linalg.norm(u1)
        u2 = rng.normal(size=4)
        u2 /= np.linalg.norm(u2)
        w = rng.normal(size=4)
        w -= (u1 @ w) * u1
        alpha = abs(rng.normal()) + 0.1
        xdot = -alpha * u1 + w
        new, _ = boundary_dynamics(xdot, 1, 2, u1, u2, P, 2.0, 2.0)
        assert np.allclose(new, alpha * u2 + P @ w, atol=1e-10)


# --- full segments ---------------------------------------------------------

def test_evolve_segment_half_period():
    spec = zoo.axis_plane_model(2)
    x, xdot, tau, j = segment_in_x(
        np.pi, 1, np.array([0.0, 1.0]), np.array([0.0, -1.0]),
        region_table(spec),
    )[:4]
    assert j == 1 and tau == pytest.approx(np.pi)
    assert np.allclose(x, [0.0, -1.0], atol=1e-12)
    assert np.allclose(xdot, [0.0, 1.0], atol=1e-12)


def test_evolve_segment_reflects_on_big_step():
    spec = zoo.step_line_model()                # dV = ln 2 at x1 = 0
    x, xdot, tau, j = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        region_table(spec),
    )[:4]
    assert tau == pytest.approx(np.pi / 4, abs=1e-12)
    assert j == 1
    assert abs(x[0]) < 1e-12
    assert xdot[0] == pytest.approx(0.5 * np.sqrt(2))    # speed kept, sign flipped


def test_evolve_segment_transmits_on_flat_step():
    spec = zoo.step_line_model(dk=0.0)
    x, xdot, tau, j = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        region_table(spec),
    )[:4]
    assert j == 2
    assert xdot[0] == pytest.approx(-0.5 * np.sqrt(2), abs=1e-12)


def test_evolve_segment_junction_energy_balance():
    spec = zoo.step_line_model(dk=0.2)
    speed = 1.3                                  # enough to climb the step
    x, xdot, tau, j_new, k, V1, V2, xdot_pre = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-speed, 0.0]),
        region_table(spec),
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
        a, b = refresh_velocity(reg, rng), reg.coords(x0)
        _, tau = first_hit(reg.G.dot(a), reg.G.dot(b), reg.h, np.pi / 2, -1)
        for t in np.linspace(0.0, tau, 32):
            x = reg.x_p + reg.S @ flight(a, b, t)[0]
            assert np.linalg.norm(spec.A[j - 1].T @ x + spec.y[j - 1]) < 1e-8
            if t < tau:
                assert cell_slack(spec, j, x) > -1e-7


def test_segment_conserves_restricted_hamiltonian(rng):
    # 0.5 xdot'M xdot + V(x) is constant along x = x_p + S z(t) for any SPD M
    for _ in range(15):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(1, n - 1))
        M = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        r = rng.normal(size=n)
        y = rng.normal(size=d)
        x_p, S, _ = ode_param(M, r, A, y)
        a, b = rng.standard_normal(n - d), rng.normal(size=n - d)

        def H(t):
            z, zd = flight(a, b, t)
            x, xd = x_p + S @ z, S @ zd
            return 0.5 * xd @ M @ xd + 0.5 * x @ M @ x - r @ x

        vals = np.array([H(t) for t in np.linspace(0, 2 * np.pi, 32)])
        scale = max(1.0, np.abs(vals).max())
        assert (vals.max() - vals.min()) / scale < 1e-8


def test_membership_preserved_across_transition(rng):
    spec = zoo.one_norm_model()
    table = region_table(spec)
    moved = 0
    for _ in range(40):
        j = int(rng.integers(1, spec.J + 1))
        x0 = point_in_region(spec, j, rng)
        xdot0 = table[j].S @ refresh_velocity(table[j], rng)
        x, xdot, tau, j_new = segment_in_x(
            np.pi / 2, j, x0, xdot0, table)[:4]
        assert j_new in members_of(spec, x, tol=1e-9)
        if j_new != j:
            moved += 1
    assert moved > 5
