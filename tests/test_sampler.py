"""Chain orchestration: refresh, recording, reproducibility, invariants."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (
    benchmark_models,
    coords,
    members_of,
    oblique_wall_model,
    on_piece,
    polygon_model,
    region_rows,
    segment,
    wall_box_model,
)
from pwhmc import dynamics, sampler, zoo
from pwhmc.errors import ContractError, StallError
from pwhmc.model import cell_slack, ell, load_model_file
from pwhmc.sampler import (
    ChainConfig,
    initial_point_check,
    make_rng,
    refresh_velocity,
    run_chain,
    squared_norms,
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
    for name in ("n_samples", "burn_in", "thin"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ChainConfig(**{"n_samples": 5, name: 2.5})
    with pytest.raises(ValueError, match="burn_in must be an integer"):
        ChainConfig(n_samples=5, burn_in=1.5)
    assert ChainConfig(n_samples=np.int64(3)).n_iterates == 3
    # a seed that is no non-negative integer would run some other chain
    for seed in (1.5, -1, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ChainConfig(n_samples=5, seed=seed)
    for seed in (np.uint8(3), 2**70, np.random.SeedSequence(3)):
        assert ChainConfig(n_samples=5, seed=seed).seed is seed
    cfg = ChainConfig(n_samples=7, burn_in=3, thin=2)
    assert cfg.n_iterates == 17
    assert list(cfg.kept) == [4, 6, 8, 10, 12, 14, 16]


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -float("inf")])
def test_chain_config_rejects_non_finite_t_max(t_max):
    with pytest.raises(ValueError, match="t_max must be positive and finite"):
        ChainConfig(n_samples=5, t_max=t_max)


def test_refresh_velocity_is_tangent_with_right_covariance(rng):
    spec = zoo.sum_constraint_model(3)
    S = spec.cells.S[0]
    draws = refresh_velocity(rng, 50000, S.shape[1]) @ S.T
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


def test_initial_point_check_is_ell_and_cell_slack(rng):
    # the check's slack is cell_slack's and its residual the norm of ell's
    specs = [load_model_file(zoo.model_path(name)) for name in zoo.SHIPPED]
    for spec in specs + benchmark_models():
        for j0 in range(1, spec.J + 1):
            x0 = rng.normal(size=spec.n)
            report = initial_point_check(spec, j0, x0)
            assert report.cell_slack == cell_slack(spec, j0, x0)
            assert report.manifold_residual == np.linalg.norm(ell(spec, j0, x0))


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
    assert j0 not in spec.regions


def test_start_region_must_be_an_integer():
    spec = zoo.one_norm_model()
    message = r"out of range 1\.\.8"
    with pytest.raises(ContractError, match=message):
        initial_point_check(spec, 1.5, [0.2, 0.3, 0.5])
    with pytest.raises(ContractError, match=message):
        run_chain(spec, 1.5, [0.2, 0.3, 0.5], ChainConfig(n_samples=2))


def test_start_point_must_have_n_components():
    spec = zoo.one_norm_model()
    message = r"start point has shape \(2,\), expected \(3,\)"
    with pytest.raises(ContractError, match=message):
        initial_point_check(spec, 1, [0.2, 0.3])
    with pytest.raises(ContractError, match=message):
        run_chain(spec, 1, [0.2, 0.3], ChainConfig(n_samples=2))


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
    out = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    assert out.log is None and out.events is None

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
def test_shared_regions_carry_no_chain_state(name, kinds):
    # chains interleaved on one model share its region records; each must
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


@pytest.mark.parametrize("name", ["onenorm10", "pospart"])
def test_chains_in_threads_equal_chains_in_turn(name, monkeypatch):
    # two chains on one model at once, in threads that the interpreter
    # switches between every few microseconds, give the bytes of the same
    # chains run one after the other: a chain owns every buffer it writes,
    # its flight's scratch too, and the region records it shares hold no
    # chain state
    spec = benchmark_models()[1] if name == "onenorm10" else zoo.build_shipped(name)
    cfgs = [ChainConfig(n_samples=40, seed=seed) if name == "onenorm10" else
            ChainConfig(n_samples=3000, seed=seed, record_events=True)
            for seed in (1, 2)]
    start = threading.Barrier(2)
    outs, scratch = [None, None], [[], []]
    evolve = sampler.evolve_segment_detail

    def chain(c):
        start.wait()
        outs[c] = run_chain(spec, spec.init_region, spec.init_point, cfgs[c])

    def tracking(t_budget, j, Y, skip, table, rot):
        scratch[threading.current_thread().name == "1"].append(rot)
        return evolve(t_budget, j, Y, skip, table, rot)

    monkeypatch.setattr(sampler, "evolve_segment_detail", tracking)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=chain, args=(c,), name=str(c))
                   for c in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    assert not any(thread.is_alive() for thread in threads) and None not in outs
    # each chain used one scratch of its own, and neither module holds one;
    # a planar chain (pospart) runs planar_segment, on floats, with none
    ids = [{id(rot) for rot in used} for used in scratch]
    if name == "onenorm10":
        assert [len(i) for i in ids] == [1, 1] and ids[0] != ids[1]
    else:
        assert ids == [set(), set()] and spec.regions.planar
    assert not [v for module in (dynamics, sampler) for v in vars(module).values()
                if isinstance(v, np.ndarray)]
    for out, cfg in zip(outs, cfgs):
        alone = run_chain(spec, spec.init_region, spec.init_point, cfg)
        assert out.X.tobytes() == alone.X.tobytes()
        assert out.Xdot.tobytes() == alone.Xdot.tobytes()
        assert out.R.tobytes() == alone.R.tobytes()
        assert repr(out.events) == repr(alone.events)
    assert outs[1].events if name == "pospart" else outs[1].events is None


@pytest.mark.parametrize("name", ["onenorm", "ntop", "pospart", "wall_box",
                                  "oblique_wall", "polygon64", "onenorm10"])
def test_hit_scan_paths_give_byte_identical_chains(name, monkeypatch):
    # on the array segment, first_hit's numpy pre-selection leaves every
    # output byte as the scalar scan alone makes it
    builders = {"wall_box": wall_box_model, "oblique_wall": oblique_wall_model,
                "polygon64": lambda: polygon_model(64),
                "onenorm10": lambda: benchmark_models()[1]}
    build = builders.get(name, lambda: zoo.build_shipped(name))
    cfg = ChainConfig(n_samples=300, seed=17, burn_in=3, thin=2,
                      record_events=True)
    outs = []
    for scan_rows in (sys.maxsize, 0):
        # a fresh model, so that every region is built at this width; a
        # table whose regions all take the scan whole is planar, so the
        # narrow scan's table is put on the arrays before any region is built
        monkeypatch.setattr(dynamics, "SCAN_ROWS", scan_rows)
        spec = build()
        if scan_rows == sys.maxsize:
            spec.regions.planar = False
        assert not spec.regions.planar
        assert {spec.regions[j].wide for j in range(1, spec.J + 1)} == {scan_rows == 0}
        outs.append(run_chain(spec, spec.init_region, spec.init_point, cfg))
    scalar, selected = outs
    assert scalar.events
    assert selected.X.tobytes() == scalar.X.tobytes()
    assert selected.Xdot.tobytes() == scalar.Xdot.tobytes()
    assert selected.R.tobytes() == scalar.R.tobytes()
    assert repr(selected.events) == repr(scalar.events)


def test_velocities_follow_the_stream_across_refresh_blocks():
    # 1203 iterates are five blocks of REFRESH_ROWS draws; iterate i's
    # velocity is still the i-th row of one draw over the whole chain.  A
    # budget of 1e-12 leaves each velocity as drawn, to about 1e-12.
    spec = zoo.build_shipped("onenorm")
    cfg = ChainConfig(n_samples=600, seed=11, burn_in=3, thin=2, t_max=1e-12)
    assert cfg.n_iterates == 1203 > 4 * sampler.REFRESH_ROWS
    out = run_chain(spec, spec.init_region, spec.init_point, cfg)
    eps = make_rng(cfg.seed).standard_normal((cfg.n_iterates, spec.n - spec.d))
    kept = np.arange(cfg.burn_in + cfg.thin - 1, cfg.n_iterates, cfg.thin)
    S = spec.cells.S[out.R - 1]
    expected = (S @ eps[kept][:, :, None])[:, :, 0]
    assert np.abs(out.Xdot - expected).max() < 1e-9
    assert (out.R == spec.init_region).all()


def test_iterate_time_budget_fully_consumed(rng):
    spec = zoo.one_norm_model()
    table = spec.regions
    j = 1
    z = coords(spec, j, np.array([0.2, 0.3, 0.5]))
    for _ in range(50):
        Y = np.array([refresh_velocity(rng, 1, z.size)[0], z])
        t_left, used, k = np.pi / 2, 0.0, -1
        while True:
            Y, tau, j, k = segment(t_left, j, Y, k, table)[:4]
            used += tau
            t_left -= tau
            if k < 0:
                break
        z = Y[1]
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
    # cell check after the loop names the first kept iterate outside its
    # cell, and its breach, instead of returning the rows
    monkeypatch.setattr(dynamics, "first_hit",
                        lambda fa, fb, h, t_max, skip: (-1, t_max))
    spec = zoo.build_shipped("pospart")
    for schedule, iterate, breach in (({}, 0, 0.2246),
                                      ({"burn_in": 3, "thin": 2}, 4, 0.2346)):
        with pytest.raises(ContractError,
                           match=rf"^iterate {iterate} ended outside") as err:
            run_chain(spec, spec.init_region, spec.init_point,
                      ChainConfig(n_samples=200, seed=1, **schedule))
        assert err.value.residual == pytest.approx(breach, abs=1e-4)


def state_outside(table, j):
    """(Y, breach): a state of region j at rest 1 outside its first row,
    and the depth of its deepest row breach."""
    G, h = region_rows(table, j)
    z = -(h[0] + 1.0) * G[0] / (G[0] @ G[0])
    return np.array([np.zeros_like(z), z]), -float((G @ z + h).min())


def test_cell_check_names_the_first_kept_row_outside_its_cell():
    # the check names the earliest failing row: here row 1 (region 3),
    # though region 1's row 2 fails too
    spec = zoo.one_norm_model()
    table = spec.regions
    (Y1, breach), (Y2, _) = state_outside(table, 3), state_outside(table, 1)
    Y0 = np.array([[0.0, 0.0], coords(spec, 1, np.array([0.2, 0.3, 0.5]))])
    with pytest.raises(ContractError,
                       match=r"^iterate 1 ended outside region 3's cell") as err:
        sampler._record(spec, np.array([Y0, Y1, Y2]), np.array([1, 3, 1]),
                        ChainConfig(n_samples=3))
    assert err.value.residual == pytest.approx(breach, rel=1e-12)


@pytest.mark.parametrize("failing", [
    (sampler.RECORD_ROWS + 3, sampler.RECORD_ROWS - 2),
    (2 * sampler.RECORD_ROWS + 1, sampler.RECORD_ROWS)])
def test_cell_check_names_the_earliest_row_across_batches(failing, rng):
    # failing rows on either side of a batch boundary, or both past it: the
    # earliest kept iterate is named, with cell_slack's breach at its point
    spec = zoo.one_norm_model()
    table = spec.regions
    N = 2 * sampler.RECORD_ROWS + 5
    R = rng.integers(1, spec.J + 1, size=N)
    Ys = np.zeros((N, 2, spec.n - spec.d))           # each at its centre
    cfg = ChainConfig(n_samples=N, burn_in=3, thin=2)
    X, _ = sampler._record(spec, Ys, R, cfg)
    assert cell_slack(spec, R, X).min() > 0.0
    for row in failing:
        Ys[row] = state_outside(table, R[row])[0]
    row = min(failing)
    with pytest.raises(ContractError, match=rf"^iterate {2 * row + 4} ended "
                       rf"outside region {R[row]}'s cell") as err:
        sampler._record(spec, Ys, R, cfg)
    x = on_piece(spec.cells, R[row], Ys[row, 1])
    assert err.value.residual == pytest.approx(-cell_slack(spec, R[row], x),
                                               rel=1e-12)


@pytest.mark.parametrize("name", ["pospart", "polywall-256", "onenorm10"])
@pytest.mark.parametrize("schedule", [{}, {"burn_in": 3, "thin": 2}])
def test_kept_rows_do_not_depend_on_the_chain_length(name, schedule):
    # the write-back after the loop runs in batches, yet each row is its
    # own product: the first k rows of a chain are the bytes of a k-row
    # chain with the same seed
    models = dict(zip(["polywall-256", "onenorm10"], benchmark_models()))
    spec = models[name] if name in models else zoo.build_shipped(name)
    n = 40 if name == "onenorm10" else 700
    long, short = (run_chain(spec, spec.init_region, spec.init_point,
                             ChainConfig(n_samples=size, seed=4, **schedule))
                   for size in (n, 7))
    assert len(set(long.R.tolist())) > 1 or name == "polywall-256"
    for a, b in ((long.X, short.X), (long.Xdot, short.Xdot), (long.R, short.R)):
        assert a[:7].tobytes() == b.tobytes()


def test_squared_norms_round_as_a_dot_per_row():
    # the event log's energies come from one batched product; each of its
    # squares has the bits of float(v.dot(v)) on the row alone, at every
    # width, whatever the row's scale, sign or place in the stack
    rng = np.random.default_rng(3)
    for w in range(1, 51):
        V = rng.normal(size=(64, 2, 2, w)) * 10.0 ** rng.integers(-150, 150, (64, 2, 2, 1))
        V[0, 0, 0] = 0.0
        V[0, 0, 1] = -0.0
        sq = squared_norms(V)
        assert sq.shape == V.shape[:-1]
        assert [float(v.dot(v)) for v in V.reshape(-1, w)] == sq.ravel().tolist()
        rows = np.ascontiguousarray(V[:, 1, 0])
        assert squared_norms(rows).tolist() == [float(v.dot(v)) for v in rows]


def test_event_log_memory_stays_near_the_chain():
    # an event costs its columns, about 112 bytes on pospart, not a dict
    # of nine keys: a 20k-row chain with its ~18k events peaks at no more
    # than 2.5x the same chain without them
    spec = zoo.build_shipped("pospart")
    peaks = []
    for record in (False, True):
        cfg = ChainConfig(n_samples=20000, seed=1, record_events=record)
        run_chain(spec, spec.init_region, spec.init_point,
                  ChainConfig(n_samples=5))                   # builds regions
        tracemalloc.start()
        try:
            out = run_chain(spec, spec.init_region, spec.init_point, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(out.log) > 15000
    assert peaks[1] <= 2.5 * peaks[0]


def test_recording_memory_stays_near_the_output():
    # the loop keeps one (2, n - d) state per kept row, and the pass after
    # it works in bounded batches: no (rows, n, n - d) gather of bases.  A
    # short t_max keeps the run quick; it still visits most of the 1024
    # regions, and the recording's size does not depend on it.
    spec = benchmark_models()[1]
    cfg = ChainConfig(n_samples=3000, seed=2, t_max=0.1)
    run_chain(spec, spec.init_region, spec.init_point, cfg)   # builds regions
    tracemalloc.start()
    try:
        out = run_chain(spec, spec.init_region, spec.init_point, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * (out.X.nbytes + out.Xdot.nbytes)


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
