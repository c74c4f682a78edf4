"""Chain orchestration: refresh, recording, reproducibility, invariants."""

import numpy as np
import pytest

from conftest import members_of
from pwhmc import dynamics, sampler, zoo
from pwhmc.dynamics import evolve_segment_detail, region_table
from pwhmc.errors import ContractError, StallError
from pwhmc.model import cell_slack, ell, load_model_file
from pwhmc.sampler import (
    ChainConfig,
    initial_point_check,
    make_rng,
    refresh_velocity,
    run_chain,
)


def test_make_rng_reproducible_and_accepts_seedsequence():
    a = make_rng(5).standard_normal(4)
    b = make_rng(5).standard_normal(4)
    assert np.array_equal(a, b)
    ss = np.random.SeedSequence([3, 1])
    c = make_rng(ss).standard_normal(4)
    d = make_rng(np.random.SeedSequence([3, 1])).standard_normal(4)
    assert np.array_equal(c, d)
    assert not np.array_equal(a, c)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_samples=0)
    with pytest.raises(ValueError):
        ChainConfig(n_samples=5, thin=0)
    with pytest.raises(ValueError):
        ChainConfig(n_samples=5, burn_in=-1)
    with pytest.raises(ValueError):
        ChainConfig(n_samples=5, t_max=0.0)
    cfg = ChainConfig(n_samples=7, burn_in=3, thin=2)
    assert cfg.n_iterates == 17


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf")])
def test_chain_config_rejects_non_finite_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be positive and finite"):
        ChainConfig(n_samples=5, t_max=t_max)


def test_refresh_velocity_is_tangent_with_right_covariance(rng):
    spec = zoo.sum_constraint_model(3)
    reg = region_table(spec)[1]
    draws = np.array([reg.S @ refresh_velocity(reg, rng)
                      for _ in range(50000)])
    # tangency: velocities live in the null space of the constraint
    assert np.max(np.abs(draws @ spec.A[0])) < 1e-12
    # covariance = projector onto the manifold directions (M = I here)
    target = np.eye(3) - np.ones((3, 3)) / 3.0
    emp = draws.T @ draws / draws.shape[0]
    assert np.max(np.abs(emp - target)) < 0.02


def test_initial_point_check_cases():
    spec = zoo.one_norm_model()
    good = initial_point_check(spec, 1, [0.2, 0.3, 0.5])
    assert good.passed and good.manifold_residual < 1e-15

    off_manifold = initial_point_check(spec, 1, [0.2, 0.3, 0.6])
    assert not off_manifold.passed

    wrong_cell = initial_point_check(spec, 1, [-0.2, 0.3, 0.9])
    assert not wrong_cell.passed and wrong_cell.cell_slack < 0


def test_run_chain_rejects_bad_start():
    spec = zoo.one_norm_model()
    cfg = ChainConfig(n_samples=2)
    with pytest.raises(ContractError):
        run_chain(spec, 1, [0.2, 0.3, 0.6], cfg)
    with pytest.raises(ContractError):
        run_chain(spec, 2, [0.2, 0.3, 0.5], cfg)     # right point, wrong cell


@pytest.mark.parametrize("j0", [0, 9])
def test_start_region_out_of_range(j0):
    # onenorm has J = 8; the point lies in octant 8, which index -1 would read
    spec = zoo.one_norm_model()
    x = [-0.2, -0.3, -0.5]
    message = rf"start region {j0} is out of range 1\.\.8"
    with pytest.raises(ContractError, match=message):
        initial_point_check(spec, j0, x)
    with pytest.raises(ContractError, match=message):
        run_chain(spec, j0, x, ChainConfig(n_samples=2))
    assert initial_point_check(spec, 8, x).passed
    assert j0 not in region_table(spec)


def test_run_chain_deterministic():
    spec = zoo.one_norm_model()
    cfg = ChainConfig(n_samples=200, seed=42, record_events=True)
    out1 = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    out2 = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    assert np.array_equal(out1.X, out2.X)
    assert np.array_equal(out1.Xdot, out2.Xdot)
    assert np.array_equal(out1.R, out2.R)
    assert out1.events == out2.events
    out3 = run_chain(spec, 1, [0.2, 0.3, 0.5],
                     ChainConfig(n_samples=200, seed=43))
    assert not np.array_equal(out1.X, out3.X)


def test_burnin_and_thin_select_rows_of_the_same_path():
    spec = zoo.one_norm_model()
    x0 = [0.2, 0.3, 0.5]
    full = run_chain(spec, 1, x0, ChainConfig(n_samples=12, seed=9))
    thinned = run_chain(spec, 1, x0, ChainConfig(n_samples=6, seed=9, thin=2))
    assert np.array_equal(thinned.X, full.X[1::2])
    assert np.array_equal(thinned.R, full.R[1::2])
    burned = run_chain(spec, 1, x0, ChainConfig(n_samples=8, seed=9, burn_in=4))
    assert np.array_equal(burned.X, full.X[4:])
    both = run_chain(spec, 1, x0,
                     ChainConfig(n_samples=4, seed=9, burn_in=2, thin=2))
    assert np.array_equal(both.X, full.X[3:11:2])   # iterates 3, 5, 7, 9


def test_events_off_by_default_and_well_formed_when_on():
    spec = zoo.one_norm_model()
    cfg = ChainConfig(n_samples=300, seed=3)
    assert run_chain(spec, 1, [0.2, 0.3, 0.5], cfg).events is None

    cfg = ChainConfig(n_samples=300, seed=3, record_events=True)
    out = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    assert len(out.events) > 50
    for ev in out.events:
        assert ev["kind"] == "transition"            # this model has no walls
        assert 1 <= ev["constraint"] <= spec.m
        assert 0 <= ev["iterate"] < cfg.n_iterates
        assert 0.0 < ev["time"] <= cfg.t_max + 1e-12
        assert ev["j_from"] != ev["j_to"] or ev["dV"] > 0
    times = {}
    for ev in out.events:
        prev = times.get(ev["iterate"], 0.0)
        assert ev["time"] > prev                     # cumulative within iterate
        times[ev["iterate"]] = ev["time"]


@pytest.mark.parametrize("name, kinds", [
    ("onenorm", {"transition"}),
    ("pospart", {"wall", "transition"}),
])
def test_shared_region_table_carries_no_chain_state(name, kinds):
    # chains interleaved on one model share its region table; each must
    # equal, byte for byte, the same chain run on a freshly loaded copy
    path = zoo.model_path(name)

    def chain(spec, seed):
        cfg = ChainConfig(n_samples=300, seed=seed, record_events=True)
        return run_chain(spec, spec.init_region, spec.init_point, cfg)

    shared = load_model_file(path)
    seeds = [1, 2, 1, 2]
    outs = [chain(shared, seed) for seed in seeds]
    assert {ev["kind"] for out in outs for ev in out.events} == kinds
    for seed, out in zip(seeds, outs):
        fresh = chain(load_model_file(path), seed)
        assert out.X.tobytes() == fresh.X.tobytes()
        assert out.Xdot.tobytes() == fresh.Xdot.tobytes()
        assert out.R.tobytes() == fresh.R.tobytes()
        assert out.events == fresh.events


def test_iterate_time_budget_fully_consumed(rng):
    spec = zoo.one_norm_model()
    table = region_table(spec)
    j = 1
    z = table[j].coords(np.array([0.2, 0.3, 0.5]))
    for _ in range(50):
        zdot = refresh_velocity(table[j], rng)
        t_left, used, k = np.pi / 2, 0.0, -1
        while True:
            z, zdot, tau, j, k = evolve_segment_detail(
                t_left, j, z, zdot, k, table)[:5]
            used += tau
            t_left -= tau
            if k < 0:
                break
        assert used == pytest.approx(np.pi / 2, abs=1e-9)


def _energy_ledger(spec, j0, x0):
    """From a 2000-row event log: (|energy_post - energy_pre|, energy_pre)
    at each event, and (|change|, energy at its start) along each segment
    that runs between two events of one iterate."""
    cfg = ChainConfig(n_samples=2000, seed=11, record_events=True)
    out = run_chain(spec, j0, x0, cfg)
    junctions, segments = [], []
    last = {}
    for ev in out.events:
        junctions.append((abs(ev["energy_post"] - ev["energy_pre"]),
                          ev["energy_pre"]))
        key = ev["iterate"]
        if key in last:
            segments.append((abs(ev["energy_pre"] - last[key]), last[key]))
        last[key] = ev["energy_post"]
    return junctions, segments


def test_event_cap_raises_stall_error_with_context(monkeypatch):
    # the cap is the chain's one runaway guard; onenorm crosses more than two
    # faces within some iterate
    monkeypatch.setattr(sampler, "MAX_EVENTS_PER_ITERATE", 2)
    spec = zoo.one_norm_model()
    with pytest.raises(StallError, match="event cap") as err:
        run_chain(spec, 1, np.array([0.2, 0.3, 0.5]), ChainConfig(n_samples=50))
    assert set(err.value.context) == {"iterate", "region", "t_left"}


def test_energy_ledger_on_identity_mass_model():
    junctions, segments = _energy_ledger(
        zoo.one_norm_model(), 1, [0.2, 0.3, 0.5])
    assert max(change for change, _ in junctions) < 1e-10
    assert max(change for change, _ in segments) < 1e-10


@pytest.mark.parametrize("name", ["ntop", "pospart"])
def test_energy_ledger_per_event_with_log_volume(name):
    # ntop has a non-identity M and pospart pieces with different ||A_j||:
    # the logged energy, c_j included, is conserved across every event and
    # along every segment
    spec = load_model_file(zoo.model_path(name))
    junctions, segments = _energy_ledger(spec, spec.init_region,
                                         spec.init_point)
    assert len(junctions) > 500 and len(segments) > 100
    for change, energy in junctions + segments:
        assert change <= 1e-10 * max(1.0, abs(energy))


@pytest.mark.parametrize("name, j0, x0", [
    ("onenorm", 1, [1.0, 0.0, 0.0]),
    ("onenorm", 1, [0.5, 0.5, 0.0]),
    ("onenorm", 1, [1.0 - 4e-10, 2e-10, 2e-10]),
    ("onenorm", 1, [0.5, 0.5 - 5e-10, 5e-10]),
    ("ntop", 1, [1.5, 0.0, 0.0]),                 # the apex
    ("pospart", 1, [1.0625, 0.9375, 0.5]),        # on the kink x1 + x2 = 2
], ids=["vertex", "edge", "near-vertex", "near-edge", "ntop-apex",
        "pospart-kink"])
def test_chain_started_on_a_face_stays_in_its_cell(name, j0, x0):
    # a start on a face or corner, or within EPS_T u of one, with an exiting
    # velocity takes that face as an event at t = 0 instead of running
    # region j0's dynamics through its neighbours
    spec = zoo.build_shipped(name)
    assert initial_point_check(spec, j0, x0).passed
    for seed in range(60):
        out = run_chain(spec, j0, x0, ChainConfig(n_samples=3, seed=seed))
        assert cell_slack(spec, out.R, out.X).min() >= 0.0


def test_kept_row_outside_its_cell_raises(monkeypatch):
    # with the hit scan blinded, the particle flies through the walls: the
    # kept row's cell check names the iterate instead of writing the row
    monkeypatch.setattr(dynamics, "first_hit",
                        lambda fa, fb, h, t_max, skip: (-1, t_max))
    spec = zoo.build_shipped("pospart")
    with pytest.raises(ContractError, match=r"iterate \d+ ended outside"):
        run_chain(spec, spec.init_region, spec.init_point,
                  ChainConfig(n_samples=200, seed=1))


def test_recorded_states_satisfy_model_constraints():
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        cfg = ChainConfig(n_samples=500, seed=1)
        out = run_chain(spec, spec.init_region, spec.init_point, cfg)
        for x, xd, jr in zip(out.X, out.Xdot, out.R):
            j = int(jr)
            assert j in members_of(spec, x, tol=1e-7)
            assert np.linalg.norm(ell(spec, j, x)) < 1e-7
            assert np.linalg.norm(spec.A[j - 1].T @ xd) < 1e-7


def test_single_region_half_period_iterates_are_independent():
    # with t_max = pi/2 and no boundaries, x_new = x_p + xdot0: iid draws
    spec = zoo.sum_constraint_model(3)
    out = run_chain(spec, 1, spec.init_point,
                    ChainConfig(n_samples=5000, seed=2))
    x1 = out.X[:, 0] - out.X[:, 0].mean()
    rho = float(x1[1:] @ x1[:-1] / (x1 @ x1))
    assert abs(rho) < 0.05


def test_sum_constraint_moments_quick():
    spec = zoo.sum_constraint_model(3)
    out = run_chain(spec, 1, spec.init_point,
                    ChainConfig(n_samples=6000, seed=8))
    assert np.max(np.abs(out.X.sum(axis=1) - 1.0)) < 1e-10
    assert np.max(np.abs(out.X.mean(axis=0) - 1.0 / 3.0)) < 0.05
    target = np.eye(3) - np.ones((3, 3)) / 3.0
    emp = np.cov(out.X.T, bias=True)
    assert np.max(np.abs(emp - target)) < 0.06


def test_step_occupancy_quick():
    # dV = ln 2 at the origin: region 1 carries 2/3 of the mass
    spec = zoo.step_line_model()
    out = run_chain(spec, 1, [1.0, 0.0],
                    ChainConfig(n_samples=8000, seed=17))
    frac1 = float(np.mean(out.R == 1))
    assert frac1 == pytest.approx(2.0 / 3.0, abs=0.05)
