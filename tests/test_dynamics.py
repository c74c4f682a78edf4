"""Exact evolution, hit detection, and boundary velocity updates."""

import gc
import json
from dataclasses import fields
from math import cos, sin, sqrt

import numpy as np
import pytest

from brute_force import breach_row, first_hit_unbounded, grid_hit_time
from conftest import (
    anisotropic_mass,
    benchmark_models,
    coords,
    first_hit_both_paths,
    invalid_models,
    lines_model,
    members_of,
    oblique_wall_model,
    on_piece,
    point_in_region,
    polygon_model,
    rand_continuous_pair,
    rand_fullrank,
    rand_spd,
    region_rows,
    segment,
    sign_cells_model,
    wall_box_model,
)
from pwhmc import dynamics, sampler, zoo
from pwhmc.dynamics import (
    EPS_T,
    TIE_TOL,
    Reach,
    RegionTable,
    _fault,
    boundary_dynamics,
    evolve_segment_detail,
    first_hit,
    flight,
    planar_segment,
    wide_hit,
)
from pwhmc.errors import ContractError, DegenerateNormalError
from pwhmc.model import ModelSpec, cell_slack, load_model, load_model_file
from pwhmc.oracle import exact_sample
from pwhmc.sampler import ChainConfig, refresh_velocity, run_chain
from pwhmc.subspace import ode_param


def flight_of(Y, t):
    """The state Y = [zdot; z] after a flight of time t."""
    return flight(Y, sin(t), cos(t), np.empty((2, 2)))


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
    k, tau = first_hit_both_paths(np.array([fa]), np.array([fb]),
                                  np.array([h]), t_max, skip)
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
        k, tau = first_hit_both_paths(-u * np.sin(phi), u * np.cos(phi),
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
            k, tau = first_hit_both_paths(np.array([fa]), np.array([fb]),
                                          np.array([h]), t_max, skip)
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
    k = first_hit(fa, fb, h, 10.0, -1, False)[0]
    assert k == 0


def test_kernel_empty_rows():
    assert first_hit(np.empty(0), np.empty(0), np.empty(0), 2.0, -1, True) == (-1, 2.0, -1)


def one_row_oracle(fa, fb, h, t_max, skip, check):
    """first_hit's result built from one-row first_hit calls, which take the
    scalar scan: each row's own hit time, then the lowest row within
    TIE_TOL of the earliest, and ``breach_row``'s row outside its face."""
    times = {}
    for k in range(len(h)):
        row = slice(k, k + 1)
        hit, tau, _ = first_hit(fa[row], fb[row], h[row], t_max,
                                0 if k == skip else -1, False)
        if hit == 0:
            times[k] = tau
    if not times:
        return -1, t_max, breach_row(fb, h, check)
    cutoff = min(times.values()) + TIE_TOL
    k = min(k for k, tau in times.items() if tau <= cutoff)
    return k, times[k], breach_row(fb, h, check)


def rows_exiting_at(u, root, rng):
    """(fa, fb, h) of rows with amplitudes u whose exiting root is root."""
    theta = rng.uniform(0.05, np.pi - 0.05, size=len(u))   # t + phi at root
    phi = theta - root
    return -u * np.sin(phi), u * np.cos(phi), -u * np.cos(theta)


@pytest.mark.parametrize("case", ["random", "ties", "grazing", "bands",
                                  "unreachable", "window", "at-budget",
                                  "short-budget"])
def test_first_hit_preselection_matches_one_row_oracle(case, rng):
    # Offsets handed as a Reach go through the numpy pre-selection; the
    # result must equal, bit for bit, the one assembled from one-row calls.
    assert dynamics.SCAN_ROWS >= 1          # one-row calls take the scan
    hits = zero = 0
    for i in range(60):
        m = int(rng.integers(dynamics.SCAN_ROWS + 1, 601))
        u = rng.uniform(0.0, 3.0, size=m)
        phi = rng.uniform(-np.pi, np.pi, size=m)
        fa, fb = -u * np.sin(phi), u * np.cos(phi)
        # inside every face at t = 0, as on a trajectory
        h = rng.exponential(float(rng.choice([0.3, 1.0, 3.0])), size=m) - fb
        t_max = float(rng.uniform(0.5, 7.0))
        skip = int(rng.integers(-1, m))
        pick = rng.choice(m, size=min(m, 8), replace=False)
        if case == "ties":
            # rows at near-tie offsets from an early root, and exact
            # duplicates of the first of them
            root = rng.uniform(0.01, 0.5) + TIE_TOL * np.array(
                [0.0, 0.3, 0.999, 1.0, 1.001, 1.5, 10.0, -0.5])
            fa[pick], fb[pick], h[pick] = rows_exiting_at(u[pick], root, rng)
            dup = rng.choice(m, size=3, replace=False)
            fa[dup], fb[dup], h[dup] = fa[pick[0]], fb[pick[0]], h[pick[0]]
        elif case == "grazing":
            # rows touching their level early, at u = |h| exactly as the
            # scan computes u and just either side: a touch can come before
            # the first hit, and a row just inside reach can be that hit
            sign = rng.choice([-1.0, 1.0], size=len(pick))
            touch = rng.uniform(0.01, 0.3, size=len(pick))
            phi = np.where(sign > 0, np.pi, 0.0) - touch
            fa[pick], fb[pick] = -u[pick] * np.sin(phi), u[pick] * np.cos(phi)
            h[pick] = sign * [np.sqrt(a * a + b * b) for a, b
                              in zip(fa[pick].tolist(), fb[pick].tolist())]
            h[pick[4:]] *= 1.0 - np.array([1e-15, -1e-15, 1e-13, -1e-13])
        elif case == "bands":
            # rows touching their level early at u/|h| = 1 + e, e at the
            # edges of the maybe and sure bands (REACH_MARGIN = 1e-12), as
            # the scan computes u; half the time one of them was just crossed
            assert dynamics.REACH_MARGIN == 1e-12
            sign = rng.choice([-1.0, 1.0], size=len(pick))
            touch = rng.uniform(0.01, 0.3, size=len(pick))
            phi = np.where(sign > 0, np.pi, 0.0) - touch
            fa[pick], fb[pick] = -u[pick] * np.sin(phi), u[pick] * np.cos(phi)
            e = 1e-12 * rng.choice([-4, -2, -1, 0, 1, 2, 4], size=len(pick))
            h[pick] = sign * [np.sqrt(a * a + b * b) for a, b
                              in zip(fa[pick].tolist(), fb[pick].tolist())] / (1.0 + e)
            skip = int(rng.choice(pick)) if rng.uniform() < 0.5 else -1
        elif case == "unreachable":
            h = np.where(h < 0, -1.0, 1.0) * (np.hypot(fa, fb)
                                              + rng.uniform(1e-9, 1.0, m))
        elif case == "window":
            # exiting roots at 0, EPS_T / 2, EPS_T and 2 EPS_T, on the skip
            # row and on other rows
            skip = int(pick[0]) if rng.uniform() < 0.7 else skip
            root = EPS_T * rng.choice([0.0, 0.5, 1.0, 2.0],
                                      size=int(rng.integers(1, 4)))
            rows = pick[:len(root)]
            fa[rows], fb[rows], h[rows] = rows_exiting_at(u[rows], root, rng)
        elif case == "at-budget":
            # the budget ends exactly at a row's early hit, as the scan
            # computes it
            fa[pick[:1]], fb[pick[:1]], h[pick[:1]] = rows_exiting_at(
                u[pick[:1]], rng.uniform(1e-5, 1e-3), rng)
            row = slice(pick[0], pick[0] + 1)
            t_max = first_hit(fa[row], fb[row], h[row], 1.0, -1, False)[1]
        elif case == "short-budget":
            t_max = float(rng.choice([EPS_T / 2, 1e-12, EPS_T]))
            rows = pick[:2]
            fa[rows], fb[rows], h[rows] = rows_exiting_at(
                u[rows], EPS_T * rng.choice([0.0, 0.5], size=2), rng)
        check = i % 2 == 0                  # the cell test on every other set
        expected = one_row_oracle(fa, fb, h, t_max, skip, check)
        assert repr(wide_hit(fa, fb, Reach(h), t_max, skip, check)) == repr(expected)
        hits += expected[0] >= 0
        zero += expected[1] == 0.0
    if case == "unreachable":
        assert hits == 0
    else:
        assert hits > 0
    if case in ("window", "short-budget"):
        assert zero > 0


def bounded_scan_cases(rng, count):
    """count random row sets for first_hit's scan, as (fa, fb, h, t_max,
    skip) with lists of floats.

    Each set has 1 to 12 rows and an anchor time; a row is generic, exits
    at the anchor plus a near-tie offset (within or just past TIE_TOL, or
    just either side of the scan's bound TIE_TOL + SELECT_SLACK), sometimes
    near-grazing, exits inside the EPS_T window, approaches its level at
    full speed so that its root lies just either side of a bound, grazes
    as the scan computes u, or is out of reach.  Budgets run to 3 pi.
    """
    bound = TIE_TOL + dynamics.SELECT_SLACK
    m = rng.integers(1, 13, size=count)
    start = np.concatenate([[0], np.cumsum(m)])
    of = np.repeat(np.arange(count), m)               # the set of each row
    n = int(start[-1])
    t_max = np.where(rng.uniform(size=count) < 0.5, rng.uniform(0.0, np.pi, count),
                     rng.uniform(np.pi, 3 * np.pi, count))
    anchor = rng.uniform(0.0, 1.1, count) * t_max
    # early anchors, where a row at full speed has its root near K(0) / u
    anchor = np.where(rng.uniform(size=count) < 0.3,
                      10.0 ** rng.uniform(-7.0, -3.0, count), anchor)
    u = 10.0 ** rng.uniform(-2.0, 2.0, n)
    kind = rng.integers(0, 7, n)                 # 0 and 6 stay generic
    # generic rows, mostly inside their face at t = 0
    phi = rng.uniform(-np.pi, np.pi, n)
    fa, fb = -u * np.sin(phi), u * np.cos(phi)
    h = u * rng.uniform(-0.02, 2.5, n) - fb
    # exiting near the anchor, some of them near-grazing
    near = kind == 1
    offset = rng.choice([0.0, 0.5, -0.5, 0.999, 1.001, 2.0, -2.0], n) * TIE_TOL
    offset = np.where(rng.uniform(size=n) < 0.3,
                      bound * (1.0 + rng.choice([-1e-3, -1e-6, 1e-6, 1e-3], n)), offset)
    theta = rng.uniform(0.05, np.pi - 0.05, n)
    edge = 10.0 ** rng.uniform(-9.0, -4.0, n)
    theta = np.where(rng.uniform(size=n) < 0.3,
                     np.where(rng.uniform(size=n) < 0.5, edge, np.pi - edge), theta)
    root = anchor[of] + offset
    # exiting inside the EPS_T window
    window = kind == 2
    root = np.where(window, EPS_T * rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], n), root)
    pick = near | window
    fa = np.where(pick, -u * np.sin(theta - root), fa)
    fb = np.where(pick, u * np.cos(theta - root), fb)
    h = np.where(pick, -u * np.cos(theta), h)
    # K(t) = -u sin t + h at full speed, its root tied with the anchor or
    # just either side of the anchor's bound or the budget's
    fast = kind == 3
    target = anchor[of] + np.where(rng.uniform(size=n) < 0.5, bound,
                                   rng.choice([0.3, 0.7, 1.0], n) * TIE_TOL)
    target = np.where(rng.uniform(size=n) < 0.3, t_max[of] + dynamics.SELECT_SLACK,
                      target)
    target *= 1.0 + rng.choice([-1e-9, -1e-12, 0.0, 1e-12, 1e-9], n)
    fa, fb = np.where(fast, -u, fa), np.where(fast, 0.0, fb)
    h = np.where(fast, u * np.sin(np.minimum(target, 1.5)), h)
    # grazing as the scan computes u, and out of reach
    scan_u = np.array([sqrt(a * a + b * b) for a, b in zip(fa.tolist(), fb.tolist())])
    sign = rng.choice([-1.0, 1.0], n)
    grazing = sign * scan_u * (1.0 + rng.choice([0.0, 1e-15, -1e-13], n))
    h = np.where(kind == 4, grazing, h)
    h = np.where(kind == 5, sign * scan_u * (1.0 + rng.uniform(1e-9, 1.0, n)), h)
    # the skip row: none, any row or a row in the window
    skip = np.where(rng.uniform(size=count) < 0.3, -1,
                    rng.integers(0, 2**31, count) % m)
    fa, fb, h = fa.tolist(), fb.tolist(), h.tolist()
    window = window.tolist()
    for i in range(count):
        a, b = int(start[i]), int(start[i + 1])
        k = int(skip[i])
        inside = [r - a for r in range(a, b) if window[r]]
        if inside and rng.uniform() < 0.5:
            k = inside[0]
        yield fa[a:b], fb[a:b], h[a:b], float(t_max[i]), k


def test_bounded_scan_matches_the_unbounded_one(rng):
    # The time bound skips the roots of rows that cannot be hit first; the
    # result is the old scan's bit for bit, through the pre-selection too.
    seen = {"hit": 0, "now": 0, "late": 0, "miss": 0, "out": 0}
    for i, (fa, fb, h, t_max, skip) in enumerate(bounded_scan_cases(rng, 100_000)):
        check = i % 3 > 0                   # the cell test on two sets in three
        expected = (*first_hit_unbounded(fa, fb, h, t_max, skip), breach_row(fb, h, check))
        assert repr(first_hit(fa, fb, h, t_max, skip, check)) == repr(expected)
        if i % 20 == 0:
            reach = wide_hit(np.array(fa), np.array(fb), Reach(h), t_max, skip, check)
            assert repr(reach) == repr(expected)
        k, tau, out = expected
        seen["miss" if k < 0 else "now" if tau == 0.0 else
             "late" if tau > np.pi else "hit"] += 1
        seen["out"] += out >= 0
    assert min(seen.values()) > 1000, seen


@pytest.mark.parametrize("name", ["onenorm10", "onenorm", "pospart", "polywall"])
def test_bounded_scan_matches_the_unbounded_one_on_chains(name, monkeypatch):
    # every first_hit and wide_hit call a chain makes, replayed through the
    # old scan
    polywall, onenorm10 = benchmark_models()
    spec = {"onenorm10": onenorm10, "polywall": polywall}.get(name)
    spec = spec or load_model_file(zoo.model_path(name))
    calls = []

    def recorded(scan):
        def recording(fa, fb, h, t_max, skip, check):
            result = scan(fa, fb, h, t_max, skip, check)
            calls.append((fa, fb, h, t_max, skip, result))
            return result
        return recording

    for scan in ("first_hit", "wide_hit"):
        monkeypatch.setattr(dynamics, scan, recorded(getattr(dynamics, scan)))
    j0, x0 = spec.init_region, spec.init_point
    if j0 is None:
        X, R = exact_sample(spec, 1, np.random.default_rng(2))
        j0, x0 = int(R[0]), X[0]
    run_chain(spec, j0, x0, ChainConfig(n_samples=20 if name == "onenorm10" else 500,
                                        seed=9))
    assert len(calls) > 800
    for fa, fb, h, t_max, skip, result in calls:
        if isinstance(h, Reach):
            fa, fb, h = fa.tolist(), fb.tolist(), h.offsets
        assert repr(result[:2]) == repr(first_hit_unbounded(fa, fb, h, t_max, skip))
        assert result[2] == -1                  # no chain state leaves its cell


@pytest.mark.parametrize("name", ["onenorm10", "onenorm", "pospart", "polywall"])
def test_the_cell_test_runs_after_each_crossing_and_only_then(name, monkeypatch):
    # each segment turns first_hit's cell test on exactly when the row it
    # starts on (skip) is a transition entry, one the particle has just
    # crossed into its region: after every event on the one-norm spheres,
    # which cross flat faces only; never on the polygon, whose region has
    # walls only; and on pospart after its crossings and its reflections
    # off potential steps, not after its walls
    polywall, onenorm10 = benchmark_models()
    spec = {"onenorm10": onenorm10, "polywall": polywall}.get(name)
    spec = spec or load_model_file(zoo.model_path(name))
    cells = spec.cells
    segments, checks, depth = [], [], [0]

    def counted(scan):
        def counting(*args):
            depth[0] += 1                 # wide_hit's own first_hit is not counted
            try:
                return scan(*args)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    checks.append(args[5])
        return counting

    def recorded(run):
        def recording(*args):
            segments.append((args[1], args[3]))      # (j, skip)
            return run(*args)
        return recording

    for scan in ("first_hit", "wide_hit"):
        monkeypatch.setattr(dynamics, scan, counted(getattr(dynamics, scan)))
    for run in ("planar_segment", "evolve_segment_detail"):
        monkeypatch.setattr(sampler, run, recorded(getattr(sampler, run)))
    run_chain(spec, spec.init_region, spec.init_point,
              ChainConfig(n_samples=20 if name == "onenorm10" else 300, seed=4))
    assert len(checks) == len(segments) > 500
    crossed = [skip >= 0 and cells.t[cells.start[j - 1] + skip] != j - 1
               for j, skip in segments]
    assert checks == crossed
    after_event = [skip >= 0 for _, skip in segments]
    if name == "polywall":
        assert any(after_event) and not any(checks)
    elif name == "pospart":
        assert 0 < sum(checks) < sum(after_event)
    else:
        assert checks == after_event


def test_a_wide_region_stores_its_preselection_constants(rng):
    # a region wider than SCAN_ROWS keeps its pre-selection's constants, and
    # the pre-selection over them gives what the scan of its offsets gives
    spec = polygon_model(dynamics.SCAN_ROWS + 36)
    reg, h = spec.regions[1], spec.cells.h
    assert reg.wide and isinstance(reg.hits, Reach)
    # its pieces are planes, but the table runs the array segment, which
    # reads no float pairs
    assert not spec.regions.planar and reg.pairs is None
    margin = dynamics.REACH_MARGIN
    for name, value in (("negh", -h), ("maybe", np.abs(h) * (1.0 - margin)),
                        ("sure", np.abs(h) * (1.0 + margin))):
        assert getattr(reg.hits, name).tobytes() == value.tobytes()
    assert reg.hits.offsets == h.tolist()
    for i in range(200):
        fa, fb = rng.normal(size=(2, 2)).dot(reg.GT)
        t_max, skip = float(rng.uniform(0.1, 7.0)), int(rng.integers(-1, len(h)))
        check = i % 2 == 0
        assert (repr(wide_hit(fa, fb, reg.hits, t_max, skip, check))
                == repr(first_hit(fa, fb, reg.hits.offsets, t_max, skip, check)))


def test_first_hit_preselection_ignores_a_grazing_row_before_the_hit():
    # Row 0 touches its level at t = pi without crossing it; row 5 is hit at
    # t = 3.5.  Every other row is out of reach.
    m = dynamics.SCAN_ROWS + 8
    fa, fb, h = np.zeros(m), np.zeros(m), np.ones(m)
    fa[0], fb[0], h[0] = 0.0, 1.0, 1.0
    fa[5:6], fb[5:6], h[5:6] = rows_exiting_at(np.ones(1), 3.5,
                                               np.random.default_rng(1))
    assert wide_hit(fa, fb, Reach(h), 10.0, -1, False) == (
        5, pytest.approx(3.5, abs=1e-12), -1)


# --- segment scanning ------------------------------------------------------

def test_flight_without_constraints_runs_the_budget():
    a, b = np.array([0.3, -0.1]), np.array([0.0, 0.7])
    G = np.zeros((0, 2))
    k, tau, _ = first_hit(G.dot(a), G.dot(b), np.zeros(0), 1.2, -1, False)
    xdot, x = flight_of(np.array([a, b]), tau)
    assert k == -1 and tau == 1.2
    assert np.allclose(x, a * np.sin(1.2) + b * np.cos(1.2))
    assert np.allclose(xdot, a * np.cos(1.2) - b * np.sin(1.2))


def test_first_hit_single_constraint_lands_on_it():
    # F = [1], g = 0 about x_p = 0.5: offset h = F x_p + g = 0.5
    F, x_p = np.array([[1.0]]), np.array([0.5])
    a, b = np.array([1.0]), np.array([0.0])
    k, tau, _ = first_hit(F.dot(a), F.dot(b), np.array([0.5]), 4.0, -1, False)
    x = x_p + flight_of(np.array([a, b]), tau)[1]
    assert k == 0
    assert tau == pytest.approx(7 * np.pi / 6, abs=1e-12)
    assert abs(x[0]) < 1e-12


def test_first_hit_picks_earliest():
    # K_i(t) = sin(t_i - t): first exiting root exactly at t_i
    roots = (2.0, 1.0)
    a = np.array([-np.cos(r) for r in roots])
    b = np.array([np.sin(r) for r in roots])
    k, tau, _ = first_hit(np.eye(2).dot(a), np.eye(2).dot(b), np.zeros(2), 5.0,
                          -1, False)
    assert k == 1
    assert tau == pytest.approx(1.0, abs=1e-12)


def test_regions_memoize():
    spec = zoo.one_norm_model()
    table = spec.regions
    assert spec.regions is table and table.cells is spec.cells
    reg1 = table[1]
    assert table[1] is reg1
    assert set(table) == {1}
    table[2]
    assert set(table) == {1, 2}
    # a fresh copy of the model gets its own table, rebuilt bit-identically
    other = zoo.one_norm_model()
    fresh = other.regions[1]
    assert fresh is not reg1
    assert np.array_equal(fresh.GT, reg1.GT) and fresh.hits == reg1.hits


def test_a_model_whose_regions_were_built_dies_on_del():
    # the cached cell table and region records hold no reference back to
    # the model, so no cycle keeps it alive until the collector runs
    died = []

    class Probe(ModelSpec):
        def __del__(self):
            died.append(True)

    spec = zoo.one_norm_model()
    probe = Probe(**{f.name: getattr(spec, f.name) for f in fields(ModelSpec)})
    gc.disable()
    try:
        run_chain(probe, 1, [0.2, 0.3, 0.5], ChainConfig(n_samples=20, seed=3))
        assert len(probe.regions) > 1
        del probe
        assert died == [True]
    finally:
        gc.enable()


def test_a_reflection_builds_no_region_the_chain_does_not_enter():
    # a step of 50 reflects every crossing from region 1; the segment reads
    # the far side's potential offset from the cell table, not its record
    spec = zoo.step_line_model(dk=50.0)
    out = run_chain(spec, 1, [0.5, 0.0], ChainConfig(n_samples=200, seed=4,
                                                      record_events=True))
    assert {ev["kind"] for ev in out.events} == {"transition"}
    assert set(out.R.tolist()) == {1} and set(spec.regions) == {1}


def test_normal_of_a_row_parallel_to_the_piece_raises():
    # On the line x1 = 0 the wall x1 + 1e-13 x2 + 1e-7 >= 0 is a row of
    # length 1e-13, too short to divide by, that binds at x2 = -1e6.  Its
    # offset clears the tolerance, so validate passes the model; the region
    # builds without a warning, and a hit on the row raises, never reflects.
    spec = lines_model([1.0, 1e-13], [([1.0, 0.0], 0.0, 1)], g=1e-7)
    assert spec.report.passed
    table = spec.regions
    G = table[1].GT[0, 0]
    assert abs(G) == pytest.approx(1e-13) and table[1].hits == [1e-7]
    assert list(table.faults) == [0]
    assert_faults_are_each_entrys_own(table)
    # from z = 0 at speed 2e6 toward the row: a hit at t = pi/6
    Y = np.array([[-2e6 * np.sign(G)], [0.0]])
    with pytest.raises(DegenerateNormalError,
                       match="hyperplane 1 is parallel to region 1's piece"):
        segment(1.0, 1, Y, -1, table)
    # A transition from the line x2 = x1 + 1e6 to the line x1 = 1e-13 x2 -
    # 1e-7, which meets the face x1 = 0 at x2 = 1e6 too: the row is fine in
    # region 1, its mirror has length 1e-13 and offset 1e-7, so validate
    # passes the model.  Region 1's mean lies across the face, so a chain
    # started in region 1 hits it at once, and raises.
    spec = lines_model([1.0, 0.0], [([1.0, -1.0], 1e6, 2), ([1.0, -1e-13], 1e-7, -1)])
    assert spec.report.passed
    table = spec.regions
    assert spec.cells.norm.tolist()[1] == pytest.approx(1e-13)
    assert sorted(table.faults) == [0, 1]
    assert_faults_are_each_entrys_own(table)
    with pytest.raises(DegenerateNormalError,
                       match="hyperplane 1 is parallel to region 2's piece"):
        run_chain(spec, 1, [1.0, 1e6 + 1.0], ChainConfig(n_samples=1))
    # with the offset 0, or with a mirror of length 0, validate refuses the
    # model, so it has no region records
    for case in ("row_parallel_to_its_piece", "zero_length_mirror"):
        spec, _ = invalid_models()[case]
        with pytest.raises(ContractError, match="\nFAIL  normal_escapes_A "):
            spec.regions


def test_a_transition_without_a_far_entry_raises():
    # L[1,1] leads to region 5, whose row has no entry for hyperplane 1:
    # validate refuses the model on reciprocity, so it has no region records
    spec, _ = invalid_models()["no_far_entry"]
    [e] = np.flatnonzero((spec.cells.j == 0) & (spec.cells.i == 0))
    assert spec.cells.mirror[e] == -1
    with pytest.raises(ContractError,
                       match=r"\nFAIL  reciprocity +L\[1,1\] <-> L\[5,1\]"):
        spec.regions


def segment_in_x(t_budget, j, x0, xdot0, table, skip=-1):
    """evolve_segment_detail on a state given in x, with every state it
    returns mapped back to x; the state passed in is left as it was."""
    cells = table.cells
    SM = cells.SM[j - 1]
    Y0 = np.array([SM @ np.asarray(xdot0, dtype=float),
                   SM @ (np.asarray(x0, dtype=float) - cells.x_p[j - 1])])
    before = Y0.copy()
    Y, tau, j_new, k, step, Y_pre = segment(t_budget, j, Y0, skip, table)
    assert np.array_equal(Y0, before)
    return (on_piece(cells, j_new, Y[1]), cells.S[j_new - 1] @ Y[0], tau, j_new,
            k, step, cells.S[j - 1] @ Y_pre[0])


def potential(spec, j, x):
    """V_j(x) + c_j from the model's fields and ode_param alone."""
    c = ode_param(spec.M[j - 1], spec.r[j - 1], spec.A[j - 1], spec.y[j - 1])[2]
    return 0.5 * x @ spec.M[j - 1] @ x - spec.r[j - 1] @ x + spec.k[j - 1] + c


# --- velocity updates ------------------------------------------------------

def test_wall_reflection_cases():
    # a hard wall is the step V2 = inf: every velocity reflects, the one
    # tangent to the wall included
    for v1 in (-1.0, -1e-300, 0.0):
        assert boundary_dynamics(v1, 0.7, np.inf) is None
    # through the segment, on the wall x1 = 0.5 of the box at t = 0
    spec = wall_box_model()
    table = spec.regions
    for xdot, expected in (([1.0, 1.0, 0.0], [-1.0, 1.0, 0.0]),
                           ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])):
        x, new, tau, j_new, k, step = segment_in_x(
            0.0, 1, [0.5, 0.2, 0.0], xdot, table)[:6]
        # no potential is computed at a wall
        assert (tau, j_new, spec.cells.i[table[1].first + k], step) == (0.0, 1, 1, None)
        assert np.allclose(new, expected)


def test_boundary_dynamics_transmit_and_reflect():
    # v1 = -2 carries normal kinetic energy 2
    assert boundary_dynamics(-2.0, 0.0, 1.5) == pytest.approx(1.0)
    assert boundary_dynamics(-2.0, 0.0, 3.0) is None
    assert boundary_dynamics(-2.0, 1.0, 2.5) == pytest.approx(1.0)
    assert boundary_dynamics(-2.0, 0.0, -2.5) == pytest.approx(3.0)


def test_boundary_dynamics_artificial_boundary_is_identity():
    # a stepless face keeps the normal speed, and one with an equal step
    # (the energy just clears it) stops the normal motion
    rng = np.random.default_rng(5)
    for _ in range(20):
        v1 = -abs(rng.normal())
        assert boundary_dynamics(v1, 0.7, 0.7) == pytest.approx(-v1, rel=1e-15)
        assert boundary_dynamics(v1, 0.0, 0.5 * v1 * v1) == 0.0
    # through the segment: one piece under an anisotropic M, split by an
    # oblique face, leaves the velocity as it was
    region = {"M": [[2.0, 0.6, 0.3], [0.6, 0.5, 0.1], [0.3, 0.1, 1.0]],
              "r": [0.2, -0.1, 0.3], "k": 0.0, "A": [[0.0], [0.0], [1.0]],
              "y": [0.0]}
    spec = load_model(json.dumps({
        "n": 3, "d": 1, "J": 2, "m": 1,
        "regions": [dict(region, L_row=[2]), dict(region, L_row=[-1])],
        "hyperplanes": {"F": [[1.0, 0.5, 0.7]], "g": [0.2]},
    }))
    table = spec.regions
    for _ in range(20):
        Y0, _ = state_on_face(table, 1, 0, rng)
        Y, tau, j_new = segment(0.0, 1, Y0, -1, table)[:3]
        assert (tau, j_new) == (0.0, 2)
        assert np.allclose(spec.cells.S[1] @ Y[0], spec.cells.S[0] @ Y0[0],
                           rtol=0, atol=1e-14)


def test_boundary_dynamics_continuous_in_dV():
    v1 = -1.3
    for dV in (1e-6, 1e-9, 1e-12):
        assert abs(boundary_dynamics(v1, 0.0, dV) + v1) < 2e-5


# --- face records against the rule built from scratch ---------------------

def continuous_pair_model(rng, n, d):
    """Two regions on pieces continuous across the face f'x + g = 0, under
    one random mass matrix and linear term, with a random step in k."""
    f, g, A1, y1, A2, y2 = rand_continuous_pair(rng, n, d)
    M, r = rand_spd(rng, n), rng.normal(size=n)
    return load_model(json.dumps({
        "n": n, "d": d, "J": 2, "m": 1,
        "regions": [
            {"M": M.tolist(), "r": r.tolist(), "k": k, "A": A.tolist(),
             "y": y.tolist(), "L_row": [L]}
            for A, y, k, L in ((A1, y1, 0.0, 2),
                               (A2, y2, float(rng.uniform(-1, 1)), -1))
        ],
        "hyperplanes": {"F": [f.tolist()], "g": [float(g)]},
    }))


def rule_from_scratch(spec, j, i, x, zdot):
    """The boundary rule at hyperplane i for a particle of region j at x on
    it with whitened velocity zdot, from ode_param alone: returns (Y, j_new,
    V1, V2) with Y = [zdot; z] in the coordinates of j_new."""
    def piece(j):
        M, r = spec.M[j - 1], spec.r[j - 1]
        x_p, S, c, _ = ode_param(M, r, spec.A[j - 1], spec.y[j - 1])
        n = S.T @ (np.sign(spec.L[j - 1, i]) * spec.F[i])
        V = 0.5 * x @ M @ x - r @ x + spec.k[j - 1] + c
        return M, x_p, S, n / np.linalg.norm(n), V

    M1, x_p1, S1, g1, V1 = piece(j)
    z = S1.T @ M1 @ (x - x_p1)
    v1 = g1 @ zdot
    j2 = abs(int(spec.L[j - 1, i]))
    if j2 == j:
        return np.array([zdot - 2 * v1 * g1, z]), j, V1, V1
    M2, x_p2, S2, g2, V2 = piece(j2)
    E, dV = 0.5 * v1 * v1, V2 - V1
    if E < dV:
        return np.array([zdot - 2 * v1 * g1, z]), j, V1, V2
    P = S2.T @ M2 @ S1
    q = S2.T @ M2 @ (x_p1 - x_p2)
    return (np.array([P @ (zdot - v1 * g1) + np.sqrt(2 * (E - dV)) * g2,
                      P @ z + q]), j2, V1, V2)


def state_on_face(table, j, k, rng, scale=1.0):
    """(Y, x): a state of region j on row k's face, clear of every other
    row, leaving through it with a random speed; the position is drawn
    from N(0, scale^2 I) in whitened coordinates before it is projected."""
    G, h = region_rows(table, j)
    g1 = G[k] / np.linalg.norm(G[k])
    while True:
        z = rng.normal(scale=scale, size=len(g1))
        z -= (G[k] @ z + h[k]) / np.linalg.norm(G[k]) * g1
        if np.delete(G @ z + h, k).min(initial=np.inf) > 1e-2:
            break
    zdot = rng.normal(size=len(g1))
    zdot -= (g1 @ zdot + abs(rng.normal()) + 0.05) * g1
    return (np.array([zdot * rng.uniform(0.2, 2.0), z]),
            on_piece(table.cells, j, z))


def test_face_record_matches_rule_from_scratch(rng):
    # each face is met twice: at t = 0 from a state on it, and at t > 0
    # from that state flown back in time
    specs = [sign_cells_model(anisotropic_mass()),
             sign_cells_model(anisotropic_mass(), scale_left=2.0),
             oblique_wall_model()]
    specs += [continuous_pair_model(rng, n, d)
              for n, d in ((3, 1), (4, 2), (5, 2), (6, 3))]
    cases = set()
    for spec in specs:
        table = spec.regions
        for _ in range(40):
            j = int(rng.integers(1, spec.J + 1))
            reg = table[j]
            k = int(rng.integers(len(reg.normals)))
            Y_face, _ = state_on_face(table, j, k, rng)
            back = rng.uniform(0.05, 0.5)
            for Y0, budget in ((Y_face, 0.0), (flight_of(Y_face, -back), 1.0)):
                Y, tau, j_new, k_new, step, Y_pre = segment(
                    budget, j, Y0, -1, table)
                if k_new < 0:
                    continue
                i = spec.cells.i[table[j_new].first + k_new]
                expected, j_exp, V1_exp, V2_exp = rule_from_scratch(
                    spec, j, i, on_piece(spec.cells, j, Y_pre[1]), Y_pre[0])
                assert j_new == j_exp
                assert np.abs(Y_pre - flight_of(Y0, tau)).max() <= 1e-12
                assert np.abs(Y - expected).max() <= 1e-12
                kind = ("wall" if abs(spec.L[j - 1, i]) == j else
                        "transmit" if j_new != j else "reflect")
                # the potentials, which only a potential step computes
                if step is None:
                    assert kind == "wall" or abs(V2_exp - V1_exp) <= 1e-12
                else:
                    assert np.abs(np.subtract(step, (V1_exp, V2_exp))).max() <= 1e-12
                cases.add((kind, tau > 0))
                # a second hit reads the stored record and agrees bit for bit
                again = segment(budget, j, Y0, -1, table)[0]
                assert again.tobytes() == np.ascontiguousarray(Y).tobytes()
    assert cases == {(kind, flown) for kind in ("wall", "reflect", "transmit")
                     for flown in (False, True)}


def test_stacked_face_columns_are_each_rows_own():
    # a region's face maps, walls' and transitions' alike, filled in one
    # stacked pass on its first visit, equal bit for bit those filled for
    # each of its rows alone, and a visit writes no other region's rows; a
    # wall's map is the reflection as formed; a planar table (n - d = 2,
    # and no region wider than SCAN_ROWS) also holds each entry's map as
    # the floats of its stacked rows, and each region its rows as float
    # pairs, any other table none
    specs = [load_model_file(zoo.model_path(name)) for name in zoo.SHIPPED]
    specs += [sign_cells_model(anisotropic_mass(), scale_left=2.0),
              oblique_wall_model(), wall_box_model()] + benchmark_models()
    modes, walled = set(), 0
    for spec in specs:
        cells = spec.cells
        alone = RegionTable(spec)
        for e in range(len(cells.j)):
            alone.fill(slice(e, e + 1))
        filled = np.array(alone.label) > 0
        table = RegionTable(spec)
        for j in range(1, spec.J + 1):
            table[j]
        maps = (table.TT, table.G2, table.Q)
        for stacked, own in zip(maps, (alone.TT, alone.G2, alone.Q)):
            assert stacked.flags.c_contiguous
            assert stacked[filled].tobytes() == own[filled].tobytes()
        walls = np.flatnonzero(filled & (cells.t == cells.j))
        for stacked, formed in zip(maps, wall_maps(cells, walls)):
            assert stacked[walls].tobytes() == formed.tobytes()
        walled += walls.size
        assert table.step == alone.step
        assert table.planar == (spec.n - spec.d == 2
                                and cells.pad_g.shape[1] <= dynamics.SCAN_ROWS)
        modes.add(table.planar)
        assert all((table[j].pairs is not None) == table.planar
                   for j in range(1, spec.J + 1))
        if table.planar:
            assert table.faces == alone.faces
            assert [f is not None for f in table.faces] == filled.tolist()
            for e in np.flatnonzero(filled).tolist():
                stacked = np.concatenate([m[e].ravel() for m in (table.TT, table.Q,
                                                                 table.G2)])
                assert np.array(table.faces[e]).tobytes() == stacked.tobytes()
        else:
            assert table.faces is None
        for j in sorted({1, (spec.J + 1) // 2, spec.J}):
            table = RegionTable(spec)
            for column in (table.TT, table.G2, table.Q):
                column[:] = np.nan
            table[j]
            rows = np.zeros(len(filled), dtype=bool)
            rows[cells.start[j - 1]:cells.start[j]] = True
            for column in (table.TT, table.G2, table.Q):
                assert not np.isnan(column[rows & filled]).any()
                assert np.isnan(column[~(rows & filled)]).all()
            assert not any(np.array(table.step)[~rows])
            if table.planar:
                assert [f is not None for f in table.faces] == (rows & filled).tolist()
    assert modes == {True, False} and walled > 0


PLANAR_MODELS = {
    "onenorm": lambda: zoo.build_shipped("onenorm"),
    "ntop": lambda: zoo.build_shipped("ntop"),
    "pospart": lambda: zoo.build_shipped("pospart"),
    "sign_cells": lambda: sign_cells_model(anisotropic_mass(), scale_left=2.0),
    "wall_box": wall_box_model,
    "oblique_wall": oblique_wall_model,
    "polygon64": lambda: polygon_model(64),
}


def planar_states(spec, rng, count=60):
    """(budget, j, Y, skip) cases for one planar model: states from inside
    each region with budgets up to 3, and per face row (up to 8 a region),
    a state on the face leaving it (an event at t = 0), that state flown
    back by up to 1.5 (a hit at t > 0), and a near-grazing one, whose
    normal speed is 1e-2 of its speed, flown back alike.  (A general
    crossing's speed carries the potentials' rounding over the normal
    speed, so much nearer grazing two roundings of one crossing part by
    more than 1e-12 |Y|.)"""
    table = spec.regions
    cases = []
    for _ in range(count):
        j = int(rng.integers(1, spec.J + 1))
        Y = np.array([rng.normal(size=2), coords(spec, j, point_in_region(spec, j, rng))])
        cases.append((rng.uniform(0.0, 3.0), j, Y, -1))
    for j in range(1, spec.J + 1):
        G, h = region_rows(table, j)
        rows = range(len(G)) if len(G) <= 8 else rng.choice(len(G), 8, replace=False)
        for k in rows:
            z = face_point(G, h, int(k), rng)
            if z is None:                      # a row that bounds no face
                continue
            g1 = G[k] / np.linalg.norm(G[k])
            tangent = np.array([-g1[1], g1[0]]) * rng.choice([-1.0, 1.0])
            speed = rng.uniform(0.2, 2.0)
            zdot = rng.normal(size=2)
            zdot -= (g1 @ zdot + abs(rng.normal()) + 0.05) * g1
            Y0 = np.array([zdot * speed, z])
            graze = np.array([speed * (tangent * sqrt(1.0 - 1e-4) - 1e-2 * g1), z])
            cases.append((rng.uniform(0.0, 2.0), j, Y0, -1))
            for Y in (Y0, graze):
                t = rng.uniform(0.05, 1.5)
                cases.append((t + rng.uniform(0.0, 1.0), j, fly_back(Y, t), -1))
    return cases


def face_point(G, h, k, rng):
    """A point drawn on row k's face of the planar cell G z + h >= 0, in the
    middle 80% of its edge (clipped to |s| <= 3 along it), or None when the
    row bounds no edge."""
    norm = np.linalg.norm(G[k])
    g1 = G[k] / norm
    tangent = np.array([-g1[1], g1[0]])
    z0 = -h[k] / norm * g1
    a, b = np.delete(G @ tangent, k), np.delete(G @ z0 + h, k)   # a s + b >= 0
    if b[a == 0].min(initial=np.inf) <= 0:
        return None
    with np.errstate(divide="ignore"):
        ends = -b / a
    lo = max(ends[a > 0].max(initial=-np.inf), -3.0)
    hi = min(ends[a < 0].min(initial=np.inf), 3.0)
    if not lo < hi:
        return None
    return z0 + rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)) * tangent


def fly_back(Y, t):
    """Y flown for time -t."""
    return flight(Y, sin(-t), cos(-t), np.empty((2, 2)))


@pytest.mark.parametrize("name", list(PLANAR_MODELS))
def test_planar_segment_is_the_numpy_segment(name, rng):
    # on a planar model, planar_segment and evolve_segment_detail, run from
    # the same states, hit the same row into the same region at times within
    # 1e-12 and return states within 1e-12 |Y|: the two write the same rules
    # and differ in rounding alone (BLAS may fuse a multiply and an add)
    spec = PLANAR_MODELS[name]()
    table = spec.regions
    assert table.planar
    kinds = set()
    for budget, j, Y, skip in planar_states(spec, rng):
        Y_new, tau, j_new, k, step, Y_pre = segment(budget, j, Y, skip, table)
        got = planar_segment(budget, j, tuple(Y.ravel().tolist()), skip, table)
        assert all(type(v) is float for v in got[0] + got[5])
        assert (got[2], got[3]) == (j_new, k)
        assert abs(got[1] - tau) <= 1e-12
        scale = np.linalg.norm(Y)
        assert np.abs(np.reshape(got[0], (2, 2)) - Y_new).max() <= 1e-12 * scale
        assert np.abs(np.reshape(got[5], (2, 2)) - Y_pre).max() <= 1e-12 * scale
        assert (got[4] is None) == (step is None)
        if step is not None:
            assert np.abs(np.subtract(got[4], step)).max() <= 1e-12 * max(1.0, abs(step[0]))
        kinds.add("none" if k < 0 else
                  ("flat", "cross")[step is not None] if j_new != j else
                  ("wall", "reflect")[step is not None])
    walls = {"none", "wall"}
    assert kinds == {"onenorm": {"none", "flat"}, "ntop": {"none", "flat"},
                     "pospart": {"none", "cross", "reflect", "wall"},
                     "sign_cells": {"none", "cross", "reflect"}}.get(name, walls)


def filled_table(spec):
    """spec's region table with every region visited."""
    table = spec.regions
    for j in range(1, spec.J + 1):
        table[j]
    return table


@pytest.mark.parametrize("name, flat", [("onenorm", "all"), ("onenorm10", "all"),
                                        ("pospart", 0), ("ntop", "all")])
def test_flat_faces_are_those_of_bitwise_equal_potentials(name, flat):
    # a transition entry is flat, no potential step, iff M, r and k of its
    # two regions match bit for bit, as the model states them, and their
    # c, which the package computes, lie within C_ULPS ulps; on ntop 16 of
    # the 36 differ in c by 1 or 2 ulps (up to 4.5e-16) and all 36 are
    # flat; no wall is a step
    spec = (benchmark_models()[1] if name == "onenorm10"
            else load_model_file(zoo.model_path(name)))
    table, cells = filled_table(spec), spec.cells

    def key(j):
        return b"".join(np.ascontiguousarray(a[j]).tobytes()
                        for a in (spec.M, spec.r, spec.k))

    def ulps(j, t):
        """ulps between c_j and c_t: the gap between their bit patterns as
        integers, ordered as the floats are (a negative one's magnitude
        bits negated)."""
        a, b = (int(v) for v in cells.c[[j, t]].view(np.int64))
        return abs((a if a >= 0 else -(a & (2**63 - 1)))
                   - (b if b >= 0 else -(b & (2**63 - 1))))

    crossed = np.flatnonzero(cells.t != cells.j)
    assert (np.array(table.label)[crossed] > 0).all()
    expected = [False] * len(table.label)
    for e in crossed.tolist():
        j, t = cells.j[e], cells.t[e]
        expected[e] = key(j) != key(t) or ulps(j, t) > dynamics.C_ULPS
    assert table.step == expected
    assert len(crossed) - sum(table.step) == (len(crossed) if flat == "all" else flat)
    if name == "ntop":
        assert len(crossed) == 36
        apart = crossed[cells.c[cells.j[crossed]] != cells.c[cells.t[crossed]]]
        assert len(apart) == 16
        dc = np.abs(cells.c[cells.j[apart]] - cells.c[cells.t[apart]])
        assert 0.0 < dc.max() <= 4.5e-16


def onenorm_ulp_model():
    """onenorm with region 1's k an ulp larger: its faces are not flat."""
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][0]["k"] = float(np.nextafter(doc["regions"][0]["k"], np.inf))
    return load_model(json.dumps(doc))


def test_an_ulp_in_k_sends_a_regions_faces_to_the_general_rule(rng, monkeypatch):
    spec = onenorm_ulp_model()
    table, cells = filled_table(spec), spec.cells
    crossed = cells.t != cells.j
    general = crossed & ((cells.j == 0) | (cells.t == 0))
    assert general.any()
    assert table.step == general.tolist()
    # only a general face computes the step and calls the rule
    calls = []
    monkeypatch.setattr(dynamics, "boundary_dynamics",
                        lambda *args: calls.append(args) or boundary_dynamics(*args))
    for e in np.flatnonzero(crossed).tolist():
        j, k = int(cells.j[e]) + 1, e - int(cells.start[cells.j[e]])
        Y0, _ = state_on_face(table, j, k, rng)
        before = len(calls)
        _, tau, j_new = segment(0.0, j, Y0, -1, table)[:3]
        assert (tau, j_new) == (0.0, cells.t[e] + 1)
        assert len(calls) - before == general[e]


def unfolded_face_maps(cells, e):
    """(T', g2, q_T) of transition entries e by the general rule's formulas,
    as RegionTable.fill computes them: T = P (I - g1 g1'), g2 the far
    side's unit normal and q_T = q - (h_e / |G_e|) P g1."""
    j, t, f, w = cells.j[e], cells.t[e], cells.mirror[e], cells.norm[e][:, None]
    SM = cells.SM[t]
    P = SM @ cells.S[j]
    g1 = cells.G[e] / w
    Pg1 = (P @ g1[..., None])[..., 0]
    return ((P - Pg1[..., None] * g1[:, None]).transpose(0, 2, 1),
            cells.G[f] / cells.norm[f][:, None],
            (SM @ (cells.x_p[j] - cells.x_p[t])[..., None])[..., 0]
            - cells.h[e][:, None] / w * Pg1)


@pytest.mark.parametrize("name, draws, scale", [("onenorm", 20, 1.0),
                                                ("ntop", 20, 1.0),
                                                ("onenorm10", 1, 0.03)])
def test_a_flat_crossing_is_the_unfolded_rule(name, draws, scale, rng):
    # a flat entry's face map has the kept normal speed folded in, so one
    # product and one add give the general rule's [P (zdot - v1 g1) + |v1|
    # g2; z T' + q_T] from any state on the face: draws per flat entry, each
    # from positions of the given scale (onenorm10's faces are 9-simplices
    # about 0.1 across, which a unit draw rarely lands in)
    spec = (benchmark_models()[1] if name == "onenorm10"
            else load_model_file(zoo.model_path(name)))
    table, cells = filled_table(spec), spec.cells
    flat = np.flatnonzero((cells.t != cells.j) & ~np.array(table.step))
    assert flat.size == {"onenorm": 24, "ntop": 36, "onenorm10": 10240}[name]
    TT, G2, Q = unfolded_face_maps(cells, flat)
    for n, e in enumerate(flat.tolist()):
        j, k = int(cells.j[e]) + 1, e - int(cells.start[cells.j[e]])
        g1 = cells.G[e] / cells.norm[e]
        for _ in range(draws):
            Y0, _ = state_on_face(table, j, k, rng, scale)
            Y, tau, j_new, k_new, step = segment(0.0, j, Y0, -1, table)[:5]
            assert (tau, j_new, step) == (0.0, cells.t[e] + 1, None)
            v1 = g1 @ Y0[0]
            expected = np.array([Y0[0] @ TT[n] - v1 * G2[n], Y0[1] @ TT[n] + Q[n]])
            assert np.abs(Y - expected).max() <= 1e-12 * np.linalg.norm(Y0)
            speed = np.linalg.norm(Y0[0])
            assert abs(np.linalg.norm(Y[0]) - speed) <= 1e-13 * speed
            assert abs(v_n(table[j_new], k_new, Y) + v1) <= 1e-14


@pytest.mark.parametrize("name, general", [("pospart", 4), ("ntop", 0),
                                           ("onenorm_ulp", 6), ("polywall", 0)])
def test_general_face_maps_are_unfolded(name, general):
    # only a flat transition folds the speed in: a potential step keeps T',
    # g2 and q_T bit for bit, and the general rule adds the speed it
    # returns; every wall is filled with its reflection, I - 2 g1 g1' and
    # -2 (h / |G|) g1 as formed
    spec = {"onenorm_ulp": onenorm_ulp_model,
            "polywall": lambda: benchmark_models()[0]}.get(
        name, lambda: load_model_file(zoo.model_path(name)))()
    table, cells = filled_table(spec), spec.cells
    e = np.flatnonzero(table.step)
    assert e.size == general
    for column, expected in zip((table.TT, table.G2, table.Q),
                                unfolded_face_maps(cells, e)):
        assert column[e].tobytes() == np.ascontiguousarray(expected).tobytes()
    walls = np.flatnonzero(cells.t == cells.j)
    assert walls.size == {"pospart": 6, "polywall": 256}.get(name, 0)
    for column, expected in zip((table.TT, table.G2, table.Q), wall_maps(cells, walls)):
        assert column[walls].tobytes() == expected.tobytes()


def wall_maps(cells, e):
    """(TT, G2, Q) of wall entries e as RegionTable.fill forms them: the
    reflection I - 2 g1 g1', g1 and -2 (h_e / |G_e|) g1."""
    g1 = cells.G[e] / cells.norm[e][:, None]
    return (np.eye(cells.G.shape[1]) - 2.0 * g1[:, :, None] * g1[:, None], g1,
            -2.0 * (cells.h[e][:, None] / cells.norm[e][:, None]) * g1)


def test_a_near_grazing_crossing_of_a_flat_face_transmits(rng):
    # v1 = -1e-9 carries normal kinetic energy 5e-19, below the rounding of
    # a computed dV: the flat rule transmits every time, where the general
    # rule on the computed step would reflect some of them; on onenorm,
    # whose c agree bit for bit, and on the 16 entries of ntop whose c lie
    # 1 or 2 ulps apart, which only the C_ULPS tolerance makes flat
    for name in ("onenorm", "ntop"):
        spec = load_model_file(zoo.model_path(name))
        table, cells = filled_table(spec), spec.cells
        entries = np.flatnonzero(cells.t != cells.j)
        if name == "ntop":
            entries = entries[cells.c[cells.j[entries]] != cells.c[cells.t[entries]]]
            assert entries.size == 16
        reflected = 0
        for e in rng.choice(entries, 200).tolist():
            assert not table.step[e]
            j, k = int(cells.j[e]) + 1, e - int(cells.start[cells.j[e]])
            Y0, _ = state_on_face(table, j, k, rng)
            g1 = cells.G[e] / cells.norm[e]
            Y0[0] -= (g1 @ Y0[0] + 1e-9) * g1
            # outside the face by rounding, as the scan computes K(0), so
            # that the hit is at t = 0
            step = 1e-17
            while Y0.dot(table[j].GT)[1, k] + cells.h[e] >= 0.0:
                Y0[1] -= step * g1
                step *= 2.0
            Y, tau, j_new, k_new, step, Y_pre = segment(0.0, j, Y0, -1, table)
            assert (tau, j_new, step) == (0.0, cells.t[e] + 1, None)
            v1 = g1 @ Y_pre[0]
            assert -1.1e-9 < v1 < -0.9e-9
            assert abs(v_n(table[j_new], k_new, Y) + v1) <= 1e-14   # speed kept
            # the step the general rule would read, as a potential step's
            dV = ((0.5 * float(Y[1].dot(Y[1])) + table.base[j_new - 1])
                  - (0.5 * float(Y_pre[1].dot(Y_pre[1])) + table.base[j - 1]))
            reflected += boundary_dynamics(v1, 0.0, dV) is None
        assert reflected > 20, name


@pytest.mark.parametrize("name", ["onenorm", "pospart", "polywall", "onenorm10"])
def test_event_log_energies_are_those_of_the_states(name, monkeypatch):
    # each event's energies, from the pre- and post-event states in
    # whitened coordinates as the segment computes them at a potential step,
    # and dV against the potentials in x from the model's fields; the
    # planar models run planar_segment, onenorm10 and polywall, whose one
    # region is wider than SCAN_ROWS, evolve_segment_detail
    spec = {"polywall": lambda: benchmark_models()[0],
            "onenorm10": lambda: benchmark_models()[1]}.get(
        name, lambda: load_model_file(zoo.model_path(name)))()
    table = spec.regions
    planar = table.planar
    assert planar == (name not in ("onenorm10", "polywall"))
    assert (table[1].pairs is None) != planar         # floats only where read
    segments = []
    evolve = "planar_segment" if planar else "evolve_segment_detail"
    run = getattr(sampler, evolve)

    def recording(t_budget, j, Y, skip, table, *rot):
        out = run(t_budget, j, Y, skip, table, *rot)
        if out[3] >= 0:
            Y_new, *rest, Y_pre = out
            segments.append((j, np.reshape(Y_new, (2, -1)), *rest,
                             np.reshape(Y_pre, (2, -1))))
        return out

    def sq(v):
        """|v|^2 as the segment rounds it."""
        return v[0] * v[0] + v[1] * v[1] if planar else float(v.dot(v))

    monkeypatch.setattr(sampler, evolve, recording)
    j0, x0 = spec.init_region, spec.init_point
    if j0 is None:
        X, R = exact_sample(spec, 1, np.random.default_rng(4))
        j0, x0 = int(R[0]), X[0]
    n = 30 if name == "onenorm10" else 300
    events = run_chain(spec, j0, x0, ChainConfig(n_samples=n, seed=6,
                                                 record_events=True)).events
    assert len(events) == len(segments) > 100
    cases = set()
    for ev, (j, Y, tau, j_new, k, step, Y_pre) in zip(events, segments):
        assert (ev["j_from"], ev["j_to"]) == (j, j_new)
        e = table[j_new].first + k
        V1 = 0.5 * sq(Y_pre[1]) + table.base[j - 1]
        assert ev["energy_pre"] == 0.5 * sq(Y_pre[0]) + V1
        post = 0.5 * sq(Y[0])
        reg = table[j]
        x = on_piece(spec.cells, j, Y_pre[1])
        if j_new != j:
            V2 = 0.5 * sq(Y[1]) + table.base[j_new - 1]
            assert (ev["kind"], ev["dV"], ev["energy_post"]) == ("transition",
                                                                V2 - V1, post + V2)
            assert (step is None) != table.step[spec.cells.mirror[e]]
            cases.add("transmit")
        else:
            assert ev["energy_post"] == post + V1
            if spec.cells.t[e] == spec.cells.j[e]:
                assert (ev["kind"], ev["dV"], step) == ("wall", 0.0, None)
                cases.add("wall")
                continue
            if planar:
                t00, t01, t10, t11, q0, q1 = table.faces[e][:6]
                z0, z1 = Y_pre[1].tolist()
                z2 = (z0 * t00 + z1 * t10 + q0, z0 * t01 + z1 * t11 + q1)
            else:
                z2 = Y_pre.dot(table.TT[e])[1] + table.Q[e]
            V2 = 0.5 * sq(z2) + table.base[table.label[e] - 1]
            assert (ev["kind"], ev["dV"], step) == ("transition", V2 - V1, (V1, V2))
            assert ev["dV"] > 0.5 * v_n(reg, k, Y_pre) ** 2
            j_new = table.label[e]
            cases.add("reflect")
        dV = potential(spec, j_new, x) - potential(spec, j, x)
        assert abs(ev["dV"] - dV) <= 1e-12 * max(1.0, abs(V1))
    assert cases == {"onenorm": {"transmit"}, "pospart": {"transmit", "reflect", "wall"},
                     "polywall": {"wall"}, "onenorm10": {"transmit"}}[name]


def v_n(reg, k, Y):
    """The normal velocity of state Y on row k of region reg."""
    return reg.GT[:, k] @ Y[0] / np.linalg.norm(reg.GT[:, k])


def assert_faults_are_each_entrys_own(table):
    """table.faults holds _fault's error for each entry labelled -1, and
    for no other."""
    assert sorted(table.faults) == np.flatnonzero(np.array(table.label) < 0).tolist()
    for e, error in table.faults.items():
        own = _fault(table.cells, e)
        assert type(error) is type(own) and str(error) == str(own)


def fly(table, j, Y, T, planar=False):
    """(j, Y, kappa, events) after flying the state (j, Y) for time T, by
    evolve_segment_detail or, with planar, by planar_segment.

    kappa is the product over the events of 1 + (|z| + |zdot|) / |v_n|:
    an event's saltation matrix holds the face offset and the velocity
    jump over the normal speed v_n, so kappa bounds how much the flight
    can amplify a rounding error.
    """
    k, kappa, events = -1, 1.0, 0
    if planar:
        Y = tuple(Y.ravel().tolist())
    while True:
        if planar:
            Y_new, tau, j_new, k, _, Y = planar_segment(T, j, Y, k, table)
            Y = np.reshape(Y, (2, 2))
        else:
            Y_new, tau, j_new, k, _, Y = segment(T, j, Y, k, table)
        T -= tau
        if k < 0:
            return j_new, np.reshape(Y_new, (2, -1)), kappa, events
        reg, i = table[j], table.cells.i
        row = i[reg.first:reg.first + len(reg.normals)].tolist().index(
            i[table[j_new].first + k])
        speed = abs(v_n(reg, row, Y))
        kappa *= 1.0 + (np.linalg.norm(Y[0]) + np.linalg.norm(Y[1])) / speed
        j, Y, events = j_new, Y_new, events + 1


@pytest.mark.parametrize("model", [
    lambda: load_model_file(zoo.model_path("onenorm")),
    lambda: load_model_file(zoo.model_path("ntop")),
    lambda: load_model_file(zoo.model_path("pospart")),
    lambda: sign_cells_model(anisotropic_mass(), scale_left=2.0),
    oblique_wall_model,
    lambda: polygon_model(64),
], ids=["onenorm", "ntop", "pospart", "sign-cells", "oblique-walls",
        "polygon64"])
def test_flight_is_reversible(model, rng):
    # From exact draws with fresh velocities, fly T = 3, flip the velocity
    # and fly T again: every boundary map is an involution, so the particle
    # returns to (x, -v) in its own region, within 1e-12 unless a run of
    # near-grazing events makes the flight ill-conditioned (polygon64 has
    # kappa up to about 1e12; every model keeps error / kappa near 1e-15).
    # Each flight runs on both segments: every model here is planar.
    spec = model()
    table = spec.regions
    assert table.planar
    X, R = exact_sample(spec, 300, rng)
    events = 0
    for x, j in zip(X, R.tolist()):
        Y0 = np.array([rng.standard_normal(spec.n - spec.d), coords(spec, j, x)])
        for planar in (False, True):
            j1, Y, kappa, n1 = fly(table, j, Y0, 3.0, planar)
            j2, Y, _, n2 = fly(table, j1, Y * [[-1.0], [1.0]], 3.0, planar)
            assert j2 == j
            error = max(np.abs(on_piece(spec.cells, j, Y[1]) - x).max(),
                        np.abs(spec.cells.S[j - 1] @ (Y[0] + Y0[0])).max())
            assert error <= max(1e-12, 1e-13 * kappa)
            events += n1 + n2
    assert events >= 600


def test_boundary_dynamics_velocity_transfer(rng):
    # on transmission the tangential part goes through P and the speed the
    # rule returns along g2
    spec = sign_cells_model(anisotropic_mass())
    table = spec.regions
    moved = 0
    for _ in range(30):
        j = int(rng.integers(1, spec.J + 1))
        reg = table[j]
        k = int(rng.integers(len(reg.normals)))
        Y0, x = state_on_face(table, j, k, rng)
        g1 = reg.GT[:, k] / np.linalg.norm(reg.GT[:, k])
        alpha = -g1 @ Y0[0]
        w = Y0[0] + alpha * g1
        Y, _, j2, k2, step = segment(0.0, j, Y0, -1, table)[:5]
        speed = boundary_dynamics(-alpha, *(step or (0.0, 0.0)))   # flat: no step
        if speed is None:
            assert j2 == j
            continue
        moved += 1
        other = table[j2]
        P = spec.cells.SM[j2 - 1] @ spec.cells.S[j - 1]
        g2 = other.GT[:, k2] / np.linalg.norm(other.GT[:, k2])
        assert np.allclose(Y[0], speed * g2 + P @ w, atol=1e-10)
    assert moved > 20


# --- full segments ---------------------------------------------------------

def test_evolve_segment_half_period():
    spec = zoo.axis_plane_model(2)
    x, xdot, tau, j = segment_in_x(
        np.pi, 1, np.array([0.0, 1.0]), np.array([0.0, -1.0]),
        spec.regions,
    )[:4]
    assert j == 1 and tau == pytest.approx(np.pi)
    assert np.allclose(x, [0.0, -1.0], atol=1e-12)
    assert np.allclose(xdot, [0.0, 1.0], atol=1e-12)


def test_evolve_segment_reflects_on_big_step():
    spec = zoo.step_line_model()                # dV = ln 2 at x1 = 0
    x, xdot, tau, j = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        spec.regions,
    )[:4]
    assert tau == pytest.approx(np.pi / 4, abs=1e-12)
    assert j == 1
    assert abs(x[0]) < 1e-12
    assert xdot[0] == pytest.approx(0.5 * np.sqrt(2))    # speed kept, sign flipped


def test_evolve_segment_transmits_on_flat_step():
    spec = zoo.step_line_model(dk=0.0)
    x, xdot, tau, j = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-0.5, 0.0]),
        spec.regions,
    )[:4]
    assert j == 2
    assert xdot[0] == pytest.approx(-0.5 * np.sqrt(2), abs=1e-12)


def test_evolve_segment_junction_energy_balance():
    spec = zoo.step_line_model(dk=0.2)
    speed = 1.3                                  # enough to climb the step
    x, xdot, tau, j_new, k, step, xdot_pre = segment_in_x(
        np.pi / 2, 1, np.array([0.5, 0.0]), np.array([-speed, 0.0]),
        spec.regions,
    )
    assert j_new == 2
    pre = 0.5 * xdot_pre @ xdot_pre + potential(spec, 1, x)
    post = 0.5 * xdot @ xdot + potential(spec, 2, x)
    assert post == pytest.approx(pre, abs=1e-8)
    assert step[1] - step[0] == pytest.approx(0.2, abs=1e-12)


def test_segment_adherence_and_region_bounds(rng):
    spec = zoo.one_norm_model()
    table = spec.regions
    for _ in range(20):
        j = int(rng.integers(1, spec.J + 1))
        x0 = point_in_region(spec, j, rng)
        reg = table[j]
        Y = np.array([refresh_velocity(rng, 1, spec.n - spec.d)[0],
                      coords(spec, j, x0)])
        tau = first_hit(*Y.dot(reg.GT), reg.hits, np.pi / 2, -1, False)[1]
        for t in np.linspace(0.0, tau, 32):
            x = on_piece(spec.cells, j, flight_of(Y, t)[1])
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
        x_p, S, _, _ = ode_param(M, r, A, y)
        Y = np.array([rng.standard_normal(n - d), rng.normal(size=n - d)])

        def H(t):
            zd, z = flight_of(Y, t)
            x, xd = x_p + S @ z, S @ zd
            return 0.5 * xd @ M @ xd + 0.5 * x @ M @ x - r @ x

        vals = np.array([H(t) for t in np.linspace(0, 2 * np.pi, 32)])
        scale = max(1.0, np.abs(vals).max())
        assert (vals.max() - vals.min()) / scale < 1e-8


def test_membership_preserved_across_transition(rng):
    spec = zoo.one_norm_model()
    table = spec.regions
    moved = 0
    for _ in range(40):
        j = int(rng.integers(1, spec.J + 1))
        x0 = point_in_region(spec, j, rng)
        xdot0 = spec.cells.S[j - 1] @ refresh_velocity(rng, 1, spec.n - spec.d)[0]
        x, xdot, tau, j_new = segment_in_x(
            np.pi / 2, j, x0, xdot0, table)[:4]
        assert j_new in members_of(spec, x, tol=1e-9)
        if j_new != j:
            moved += 1
    assert moved > 5
