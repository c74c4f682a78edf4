"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, so
``pytest -v tests/test_acceptance.py`` reads as a pass/fail checklist.
Statistical targets come from closed forms or from the independent oracles
in pwhmc.oracle and tests/brute_force.py, never from the sampler itself.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from brute_force import grid_hit_time, occupancy_quadrature_line
from conftest import (
    anisotropic_mass,
    benchmark_generators,
    first_hit_both_paths,
    oblique_wall_model,
    scaled_line_model,
    sign_cells_model,
    wall_box_model,
)
from pwhmc import zoo
from pwhmc.cli import main
from pwhmc.model import ell, load_model, validate_model
from pwhmc.oracle import conditional_gaussian_moments, exact_sample
from pwhmc.sampler import ChainConfig, ChainOutput, run_chain


def test_criterion_01_conditional_moments_on_sum_plane():
    # N(0, I_3) | 1'x = 1: mean within 0.02 of 1/3, covariance within 0.03
    # of I - 11'/3, over 20k iterates in at most 10 s
    spec = zoo.sum_constraint_model(3)
    cfg = ChainConfig(n_samples=20000, seed=101, t_max=float(np.pi / 2))
    t0 = time.perf_counter()
    out = run_chain(spec, 1, spec.init_point, cfg)
    elapsed = time.perf_counter() - t0

    oracle = conditional_gaussian_moments(np.zeros(3), np.eye(3),
                                          np.ones((3, 1)), [1.0])
    assert np.max(np.abs(out.X.mean(axis=0) - oracle.m)) <= 0.02
    emp_cov = np.cov(out.X.T, bias=True)
    assert np.max(np.abs(emp_cov - oracle.V)) <= 0.03
    assert elapsed <= 10.0


def test_criterion_02_two_region_occupancy_matches_quadrature():
    # ln-2 potential step: region-1 frequency within 0.02 of the quadrature
    # oracle's 2/3, over 50k iterates in at most 30 s
    ln2 = float(np.log(2.0))
    target = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                       lambda x: 0.5 * x * x + ln2)
    assert target == pytest.approx(2.0 / 3.0, abs=1e-9)

    spec = zoo.step_line_model()
    cfg = ChainConfig(n_samples=50000, seed=202, t_max=float(np.pi / 2))
    t0 = time.perf_counter()
    out = run_chain(spec, 1, [1.0, 0.0], cfg)
    elapsed = time.perf_counter() - t0

    frac1 = float(np.mean(out.R == 1))
    assert abs(frac1 - target) <= 0.02
    assert elapsed <= 30.0


def test_criterion_03_hit_times_match_grid_oracle():
    # 1000 random instances agree with the grid/bisection oracle to 1e-6
    # (hits to 1e-6, no-hit verdicts exactly) as the row just crossed, and
    # as any other row but for rows exiting from outside their face, which
    # are hit at once; on the scalar scan and through the numpy
    # pre-selection, which agree bit for bit; in at most 5 s
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    n_checked = n_hit = n_none = n_now = 0
    while n_checked < 1000:
        fa, fb = rng.normal(scale=2.0, size=2)
        h = rng.normal()
        u = np.hypot(fa, fb)
        if abs(u - abs(h)) < 1e-2:
            continue                       # grazing: ill-posed for any oracle
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
                assert abs(tau - expected) <= 1e-6
        n_hit += grid is not None
        n_none += grid is None
        n_now += outside
        n_checked += 1
    elapsed = time.perf_counter() - t0
    assert n_hit > 0 and n_none > 0 and n_now > 0
    assert elapsed <= 5.0


def test_criterion_04_energy_conservation_on_one_norm_model():
    # 10k iterates with events: per-iterate relative energy drift <= 1e-7,
    # every transmit event balanced to 1e-8
    spec = zoo.one_norm_model()
    cfg = ChainConfig(n_samples=10000, seed=404, record_events=True)
    out = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    assert len(out.events) > 1000

    endpoints = {}
    worst_transmit = 0.0
    for ev in out.events:
        if ev["j_from"] != ev["j_to"]:
            worst_transmit = max(worst_transmit,
                                 abs(ev["energy_post"] - ev["energy_pre"]))
        first, _ = endpoints.get(ev["iterate"], (ev["energy_pre"], None))
        endpoints[ev["iterate"]] = (first, ev["energy_post"])

    drift = max(
        abs(last - first) / max(1.0, abs(first))
        for first, last in endpoints.values()
    )
    assert drift <= 1e-7
    assert worst_transmit <= 1e-8


def test_criterion_05_manifold_adherence_on_all_shipped_models():
    # every recorded sample satisfies its region's ||A'x + y|| <= 1e-7;
    # on the one-norm model additionally | ||x||_1 - 1 | <= 1e-7
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        cfg = ChainConfig(n_samples=3000, seed=505)
        out = run_chain(spec, spec.init_region, spec.init_point, cfg)
        resid = max(
            float(np.linalg.norm(ell(spec, int(out.R[i]), out.X[i])))
            for i in range(out.X.shape[0])
        )
        assert resid <= 1e-7, name
        if name == "onenorm":
            assert np.max(np.abs(np.abs(out.X).sum(axis=1) - 1.0)) <= 1e-7


def test_criterion_06_octant_symmetry_frequencies():
    # all 8 octants visited with frequencies in [0.105, 0.145] over 80k
    spec = zoo.one_norm_model()
    cfg = ChainConfig(n_samples=80000, seed=606)
    out = run_chain(spec, 1, [0.2, 0.3, 0.5], cfg)
    freq = np.bincount(out.R, minlength=9)[1:] / out.R.size
    assert freq.min() >= 0.105
    assert freq.max() <= 0.145


def test_criterion_07_continuity_and_null_space_machinery():
    # validate_model's continuity check, which tests each face's null-space
    # directions, passes on every shared face of every shipped model and
    # flags a deliberately broken variant with residual >= 0.5
    for name in zoo.SHIPPED:
        report = validate_model(zoo.build_shipped(name))
        [faces] = [c for c in report.checks if c.name == "continuity"]
        assert faces.passed.size, name
        assert faces.passed.all(), [c.format() for c in report.failures()
                                    if c.name == "continuity"]

    broken = json.loads(zoo.dump_model(zoo.one_norm_model()))
    broken["regions"][0]["y"] = [-2.0]
    report = validate_model(zoo.load_model(json.dumps(broken)))
    [faces] = [c for c in report.checks if c.name == "continuity"]
    bad = faces.residual[~faces.passed]
    assert bad.size and bad.max() >= 0.5


def test_criterion_09_byte_identical_replay_from_manifest(tmp_path):
    # rerunning with the manifest's own parameters reproduces the sample and
    # event files byte for byte
    model = str(zoo.model_path("pospart"))
    out1 = tmp_path / "run1.csv"
    ev1 = tmp_path / "run1.jsonl"
    assert main(["sample", model, "--n", "400", "--seed", "909",
                 "--burnin", "20", "--thin", "2",
                 "--out", str(out1), "--events", str(ev1)]) == 0

    man = json.loads((tmp_path / "run1.csv.manifest.json").read_text())
    out2 = tmp_path / "run2.csv"
    ev2 = tmp_path / "run2.jsonl"
    replay = [
        "sample", man["model"],
        "--n", str(man["n_samples"]),
        "--seed", str(man["seed"][0]),
        "--tmax", "%.17g" % man["t_max"],
        "--burnin", str(man["burn_in"]),
        "--thin", str(man["thin"]),
        "--region", str(man["region"]),
        "--init=" + ",".join("%.17g" % v for v in man["init"]),
        "--out", str(out2), "--events", str(ev2),
    ]
    assert main(replay) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert ev1.read_bytes() == ev2.read_bytes()

    man2 = json.loads((tmp_path / "run2.csv.manifest.json").read_text())
    for key in ("seed", "t_max", "n_samples", "burn_in", "thin", "region",
                "init", "version"):
        assert man[key] == man2[key]


def test_criterion_10_slab_rejection_cross_check():
    # N(0, I_2) | x1 = 0: KS statistic between the sampler's x2 marginal
    # (10k kept) and as many exact draws stays below 0.03
    spec = zoo.axis_plane_model(2)
    out = run_chain(spec, 1, [0.0, 0.0],
                    ChainConfig(n_samples=10000, seed=1010))
    assert np.max(np.abs(out.X[:, 0])) < 1e-12

    exact, _ = exact_sample(spec, 10000, np.random.default_rng(1111))
    ks = stats.ks_2samp(out.X[:, 1], exact[:, 1])
    assert ks.statistic < 0.03


def oracle_gaps(spec, out, seed):
    """Largest region-occupancy error and largest per-coordinate two-sample
    KS statistic of a chain's rows against as many exact draws.

    Coordinates are rounded to 1e-9 first, so a coordinate that a piece
    pins to one value compares equal across both samples."""
    X, R = exact_sample(spec, out.X.shape[0], np.random.default_rng(seed))
    occ_chain = np.bincount(out.R, minlength=spec.J + 1)[1:] / out.R.size
    occ_exact = np.bincount(R, minlength=spec.J + 1)[1:] / R.size
    a, b = np.round(out.X, 9), np.round(X, 9)
    ks = max(stats.ks_2samp(a[:, i], b[:, i]).statistic for i in range(spec.n))
    return float(np.max(np.abs(occ_chain - occ_exact))), float(ks)


def kinetic_gap(spec, out, seed):
    """Two-sample KS statistic of the rows' kinetic energies xdot'M_j xdot,
    which is |zdot|^2 in whitened coordinates, against as many chi-square
    draws with n - d degrees of freedom: the law an exact iterate leaves
    a standard normal zdot in, whatever its start."""
    kinetic = np.einsum("ni,nij,nj->n", out.Xdot, spec.M[out.R - 1], out.Xdot)
    exact = np.random.default_rng(seed).chisquare(spec.n - spec.d, kinetic.size)
    return float(stats.ks_2samp(kinetic, exact).statistic)


def one_iterate_each(spec, X0, R0, seed):
    """The rows of one iterate from each start (X0[i], R0[i]), each with
    its own seed [seed, i], as one ChainOutput."""
    steps = [run_chain(spec, int(j), x, ChainConfig(
                 n_samples=1, seed=np.random.SeedSequence([seed, i])))
             for i, (x, j) in enumerate(zip(X0, R0))]
    return ChainOutput(*(np.concatenate([getattr(s, a) for s in steps])
                         for a in ("X", "Xdot", "R")))


def sign_cells_anisotropic():
    return sign_cells_model(anisotropic_mass())


def sign_cells_anisotropic_scaled():
    return sign_cells_model(anisotropic_mass(), scale_left=2.0)


def sign_cells_identity():
    return sign_cells_model(np.eye(4))


@pytest.mark.parametrize("build", [
    zoo.one_norm_model, wall_box_model, sign_cells_anisotropic,
    sign_cells_anisotropic_scaled, sign_cells_identity, oblique_wall_model,
], ids=lambda build: build.__name__)
def test_criterion_11_sampler_matches_exact_oracle(build):
    # 30k iterates against 30k exact draws: region occupancy within 0.015
    # and every coordinate's KS statistic at most 0.02.  Beyond onenorm and
    # the box: d = 2 with an anisotropic M, with ||A_j|| differing between
    # regions, and with M = I, and walls oblique to the plane under an
    # anisotropic M
    spec = build()
    out = run_chain(spec, spec.init_region, spec.init_point,
                    ChainConfig(n_samples=30000, seed=1101))
    occ_err, ks = oracle_gaps(spec, out, 1102)
    assert occ_err <= 0.015, f"occupancy error {occ_err:.4f}"
    assert ks <= 0.02, f"KS {ks:.4f}"


def test_criterion_12_scaled_line_occupancy_matches_quadrature():
    # ||A_j|| differs between the two regions: the conditional law puts 2/3
    # on x1 > 0, where surface measure would put 1/2
    ln2 = float(np.log(2.0))
    target = occupancy_quadrature_line(lambda x: 0.5 * x * x,
                                       lambda x: 0.5 * x * x + ln2)
    spec = scaled_line_model()
    out = run_chain(spec, 1, spec.init_point,
                    ChainConfig(n_samples=30000, seed=1201))
    frac1 = float(np.mean(out.R == 1))
    assert abs(frac1 - target) <= 0.015, \
        f"sampler occupancy {frac1:.4f}, quadrature {target:.4f}"


def test_criterion_13_pospart_matches_exact_oracle():
    # shipped pospart: pieces with different ||A_j||
    spec = zoo.positive_part_model()
    out = run_chain(spec, spec.init_region, spec.init_point,
                    ChainConfig(n_samples=30000, seed=1202))
    occ_err, ks = oracle_gaps(spec, out, 1203)
    assert occ_err <= 0.015 and ks <= 0.02, \
        f"occupancy error {occ_err:.4f}, KS {ks:.4f}"


def test_criterion_14_ntop_matches_exact_oracle():
    # shipped ntop: a non-identity M
    spec = zoo.polygonal_top_model()
    out = run_chain(spec, spec.init_region, spec.init_point,
                    ChainConfig(n_samples=30000, seed=1204))
    occ_err, ks = oracle_gaps(spec, out, 1205)
    assert occ_err <= 0.015 and ks <= 0.02, \
        f"occupancy error {occ_err:.4f}, KS {ks:.4f}"


@pytest.mark.parametrize("build", [
    zoo.positive_part_model, zoo.polygonal_top_model,
    sign_cells_anisotropic_scaled, zoo.one_norm_model,
], ids=lambda build: build.__name__)
def test_criterion_15_one_iterate_leaves_exact_draws_exact(build):
    # an exact sampler leaves its target unchanged after one iterate: one
    # iterate from each of N exact states, each with its own seed, must
    # match a second exact set.  Unlike a long chain, this does not mix
    # invariance with mixing, and the starts reach every face and corner in
    # proportion to their mass.  The critical value is fixed from N: the
    # two-sample KS value at level 0.1%, 1.95 sqrt(2 / N), about 0.0195; a
    # region's occupancy gap has standard deviation at most sqrt(1 / 2N),
    # 0.005, and is held to the same value.  A wrong target that is still
    # reversible (c_j dropped from the potential offsets) reads 0.12-0.16.
    # The kinetic energy's KS value against its chi-square law is held to
    # the same value: positions alone hardly see a speed error, and on
    # one_norm_model, every face of which is flat, a flat transmission 5%
    # too fast reads 0.018 in position and 0.075 in kinetic energy.
    spec = build()
    N = 20000
    X0, R0 = exact_sample(spec, N, np.random.default_rng(1501))
    out = one_iterate_each(spec, X0, R0, 1502)
    occ_err, ks = oracle_gaps(spec, out, 1503)
    kinetic = kinetic_gap(spec, out, 1504)
    critical = 1.95 * np.sqrt(2 / N)
    assert max(occ_err, ks, kinetic) <= critical, \
        f"occupancy error {occ_err:.4f}, KS {ks:.4f}, kinetic KS {kinetic:.4f}"


def test_criterion_15_onenorm10_one_iterate_leaves_dirichlet_draws_exact():
    # criterion 15 on the 1024-region sphere in R^10, past what exact_sample
    # reaches, with the benchmark's Dirichlet oracle: one iterate from each
    # of N exact starts, labelled by sign pattern, must match a second
    # exact set in |x|^2 and in each coordinate to the KS value at level
    # 0.1%, 1.95 sqrt(2 / N), about 0.044.  Each iterate crosses about 50
    # flat faces.  The kinetic energy is held to the same value.
    bench = benchmark_generators()
    N, n = 4000, 10
    spec = load_model(bench.onenorm_document(n, 1))
    X0 = bench.onenorm_oracle(n, N, np.random.default_rng(1511))
    R0 = 1 + (X0 < 0) @ (1 << np.arange(n - 1, -1, -1))
    out = one_iterate_each(spec, X0, R0, 1512)
    X = out.X
    exact = bench.onenorm_oracle(n, N, np.random.default_rng(1513))
    ks = [stats.ks_2samp((X * X).sum(1), (exact * exact).sum(1)).statistic]
    ks += [stats.ks_2samp(X[:, i], exact[:, i]).statistic for i in range(n)]
    ks.append(kinetic_gap(spec, out, 1514))
    assert max(ks) <= 1.95 * np.sqrt(2 / N), \
        f"KS of |x|^2, each coordinate and the kinetic energy {np.round(ks, 4)}"
