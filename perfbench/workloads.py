"""The four benchmark workloads: inputs, one timed unit of work, output checks.

A unit is one ``run_chain`` call on the API workloads and one in-process
``pwhmc sample`` on ``pospart-cli``.  Every call into the package goes
through its module attribute (``sampler.run_chain``, ``cli.main``, ...) so
that an active ``spans.Tracer`` sees it.  Checks run after the timed call
and decide whether each chain counts as failed.
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import models
from calib import Bracket
from ess import ess_bulk, min_ess
from pwhmc import cli, model, sampler, zoo
from pwhmc.sampler import ChainConfig

RESIDUAL_TOL = 1e-8     # manifold residual |A_j'x + y_j| of a kept row
SLACK_TOL = 1e-8        # allowed breach of a kept row's own cell
ORACLE_Z = 6.0          # per-feature z bound against the exact oracle
ORACLE_DRAWS = 200_000    # drawn in chunks so they do not raise peak RSS
ORACLE_CHUNK = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_samples: int            # kept rows per chain; sized for units of
                              # 0.1-1 s, shorter than most speed changes
    cli_chains: int = 0       # > 0: a unit is `pwhmc sample --chains <this>`

    @property
    def cpus(self) -> int:
        """CPUs the workload runs on: one per chain running at once."""
        return max(1, self.cli_chains)


WORKLOADS = {
    w.name: w for w in [
        Workload("onenorm", "shipped 8-region model, no walls: per-segment "
                 "overhead dominates and the hit kernel is minor", 1500),
        Workload("polywall", "one region inside a 256-wall polygon: the hit "
                 "kernel dominates; region cache and validation do nothing",
                 1000),
        Workload("onenorm10", "1024-region one-norm sphere in R^10: "
                 "validation dominates setup, lazy per-region fills run in "
                 "the chain", 125),
        Workload("pospart-cli", "shipped pospart via pwhmc sample with 2 "
                 "threaded chains and an event log: CLI I/O and GIL "
                 "contention", 500, cli_chains=2),
    ]
}


@dataclass
class Unit:
    """Outcome of one timed unit."""

    wall: float               # the timed call
    chain_walls: list         # run_chain wall time of each chain
    iterates: int             # per chain; one kept row per iterate
    rows: int                 # kept rows over all chains
    X: list                   # kept rows of each chain that passed its checks
    chains: int
    failed: int
    scale: float = 1.0        # to full machine speed (calib.Bracket)


def chain_seed(seed: int, index: int) -> int:
    """Integer seed of unit `index`, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Inputs


def onenorm_features(X):
    """Moments per coordinate plus orthant occupancy."""
    n = X.shape[1]
    if n <= 4:
        orthant = ((X < 0) * (1 << np.arange(n - 1, -1, -1))).sum(axis=1)
        occupancy = orthant[:, None] == np.arange(2 ** n)
    else:       # 2^n one-hot columns would be too sparse: use sign rates
        occupancy = X > 0
    return np.hstack([X, np.abs(X), X * X, occupancy.astype(float)])


def polywall_features(X):
    """Planar moments plus the share of rows in the wall band r > 1."""
    x, y = X[:, 0], X[:, 1]
    return np.column_stack([x, y, x * x, y * y, x * y, x * x + y * y > 1.0])


@dataclass
class Prepared:
    """A workload's model on disk plus what its checks compare against."""

    workload: Workload
    seed: int
    workdir: Path
    path: Path
    spec: object
    features: object = None
    oracle: tuple | None = None          # oracle feature means and variances

    @property
    def start(self):
        return self.spec.init_region, self.spec.init_point


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Write the model to disk, validate it, and draw its oracle."""
    rng = np.random.default_rng([seed, 7])
    features, oracle = None, None
    if workload.name in ("onenorm", "pospart-cli"):
        path = zoo.model_path("onenorm" if workload.name == "onenorm"
                              else "pospart")
        text = path.read_text(encoding="utf-8")
    else:
        if workload.name == "polywall":
            text = models.polywall_document(sides=256, radius=1.2, seed=seed)
        else:
            text = models.onenorm_document(n=10, seed=seed)
        path = workdir / f"{workload.name}.model"
        path.write_text(text, encoding="utf-8")
    spec = model.load_model(text)
    report = model.validate_model(spec)
    if not report.passed:
        raise SystemExit(f"{workload.name}: model fails validation:\n"
                         + "\n".join(c.format() for c in report.failures()))
    if workload.name in ("onenorm", "onenorm10"):
        features = onenorm_features
        oracle = oracle_moments(
            lambda size: models.onenorm_oracle(spec.n, size, rng), features)
    elif workload.name == "polywall":
        features = polywall_features
        oracle = oracle_moments(
            lambda size: models.polygon_oracle(spec.F, spec.g, size, rng),
            features)
    return Prepared(workload, seed, workdir, path, spec, features, oracle)


def oracle_moments(draw, features):
    """Mean and variance of each feature over ORACLE_DRAWS exact draws."""
    total = total_sq = 0.0
    for _ in range(ORACLE_DRAWS // ORACLE_CHUNK):
        f = features(draw(ORACLE_CHUNK))
        total = total + f.sum(axis=0)
        total_sq = total_sq + (f * f).sum(axis=0)
    mean = total / ORACLE_DRAWS
    return mean, total_sq / ORACLE_DRAWS - mean * mean


# ---------------------------------------------------------------------------
# Checks


def row_problems(spec, X, R) -> list[str]:
    """Every kept row on its region's manifold and inside its cell."""
    if R.min() < 1 or R.max() > spec.J:
        return [f"region label out of range 1..{spec.J}"]
    out = []
    resid = np.einsum("ijk,ij->ik", spec.A[R - 1], X) + spec.y[R - 1]
    worst = float(np.abs(resid).max())
    if not worst <= RESIDUAL_TOL:
        out.append(f"manifold residual {worst:.3e}")
    if spec.m:
        L = spec.L[R - 1]
        slack = np.where(L != 0, np.sign(L) * (X @ spec.F.T + spec.g), np.inf)
        low = float(slack.min())
        if not low >= -SLACK_TOL:
            out.append(f"cell slack {low:.3e}")
    return out


def oracle_problems(prep: Prepared, X) -> list[str]:
    """Chain feature means against the exact oracle, scaled by the chain's ESS.

    Tolerance per feature: ORACLE_Z standard errors, with the chain's own
    bulk ESS of that feature (or of its least-mixed coordinate if the feature
    is constant on the chain) and the oracle's draw count.
    """
    if prep.oracle is None:
        return []
    feats = prep.features(X)
    mo, vo = prep.oracle
    fallback = max(min_ess(X), 1.0)
    out = []
    for k in range(feats.shape[1]):
        ess = ess_bulk(feats[:, k])
        if not np.isfinite(ess):
            ess = fallback
        tol = ORACLE_Z * np.sqrt(vo[k] / ess + vo[k] / ORACLE_DRAWS)
        err = abs(float(feats[:, k].mean()) - mo[k])
        if not err <= tol + 1e-12:
            out.append(f"oracle feature {k}: |{feats[:, k].mean():.4f} - "
                       f"{mo[k]:.4f}| > {tol:.4f}")
    return out


def replay_length(prep: Prepared, index: int) -> int:
    """Rows to replay: the whole of the CLI's first unit, else a tenth."""
    n = prep.workload.n_samples
    return n if index == 0 and prep.workload.cli_chains else max(1, n // 10)


def replay(prep: Prepared, seed_seq, k: int, record_events=False):
    j0, x0 = prep.start
    cfg = ChainConfig(n_samples=k, seed=seed_seq, record_events=record_events)
    return sampler.run_chain(prep.spec, j0, x0, cfg)


def _report(prep, index, problems):
    for p in problems:
        print(f"{prep.workload.name} unit {index}: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Units


def api_unit(prep: Prepared, index: int, tracer=None) -> Unit:
    """One run_chain call, then its checks."""
    n = prep.workload.n_samples
    seed_seq = np.random.SeedSequence([prep.seed, index])
    j0, x0 = prep.start
    cfg = ChainConfig(n_samples=n, seed=seed_seq)
    try:
        with Bracket() as speed:
            t0 = perf_counter()
            with tracer or nullcontext():
                out = sampler.run_chain(prep.spec, j0, x0, cfg)
            wall = perf_counter() - t0
    except Exception:           # a failed chain is counted, not fatal
        traceback.print_exc()
        return Unit(perf_counter() - t0, [], 0, 0, [], 1, 1)

    problems = row_problems(prep.spec, out.X, out.R)
    k = replay_length(prep, index)
    again = replay(prep, seed_seq, k)
    if (again.X.tobytes() != out.X[:k].tobytes()
            or again.Xdot.tobytes() != out.Xdot[:k].tobytes()
            or again.R.tobytes() != out.R[:k].tobytes()):
        problems.append(f"replay of the first {k} rows differs")
    problems += oracle_problems(prep, out.X)
    _report(prep, index, problems)
    return Unit(wall, [wall], cfg.n_iterates, n, [] if problems else [out.X],
                1, int(bool(problems)), speed.scale)


def cli_argv(prep: Prepared, n: int, seed: int, out: Path, events: Path):
    return ["sample", str(prep.path), "--n", str(n),
            "--chains", str(prep.workload.cli_chains), "--seed", str(seed),
            "--out", str(out), "--events", str(events)]


def chain_file(base: Path, chain: int, chains: int) -> Path:
    """Per-chain output name written by `pwhmc sample --chains`."""
    if chains == 1:
        return base
    return base.with_name(f"{base.stem}.chain{chain}{base.suffix}")


def _read_samples(path: Path, n_dim: int):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in fh]
    expect = ",".join([f"x{i + 1}" for i in range(n_dim)] + ["region", "iterate"])
    if header != expect:
        raise ValueError(f"CSV header {header!r}")
    X = np.array([[float(v) for v in r[:n_dim]] for r in rows])
    R = np.array([int(r[n_dim]) for r in rows], dtype=np.int64)
    it = np.array([int(r[n_dim + 1]) for r in rows], dtype=np.int64)
    return X.reshape(len(rows), n_dim), R, it


def _read_events(path: Path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _remove_outputs(prep: Prepared, out: Path, events: Path):
    chains = prep.workload.cli_chains
    for chain in range(chains):
        for base in (out, events):
            chain_file(base, chain, chains).unlink(missing_ok=True)
        Path(str(chain_file(out, chain, chains))
             + ".manifest.json").unlink(missing_ok=True)


def cli_problems(prep: Prepared, seed: int, index: int, out: Path,
                 events: Path, chain: int) -> tuple[list[str], np.ndarray | None]:
    """Checks of one chain written by the CLI; returns (problems, X)."""
    n, chains = prep.workload.n_samples, prep.workload.cli_chains
    try:
        X, R, it = _read_samples(chain_file(out, chain, chains), prep.spec.n)
        logged = _read_events(chain_file(events, chain, chains))
    except (OSError, ValueError) as exc:
        return [f"chain {chain}: unreadable output: {exc}"], None
    if X.shape[0] != n or not np.array_equal(it, np.arange(n)):
        return [f"chain {chain}: {X.shape[0]} rows, expected {n}"], None
    problems = [f"chain {chain}: {p}" for p in row_problems(prep.spec, X, R)]
    k = replay_length(prep, index)
    seed_seq = (np.random.SeedSequence([seed, chain]) if chains > 1
                else np.random.SeedSequence(seed))
    again = replay(prep, seed_seq, k, record_events=(k == n))
    if (again.X.tobytes() != X[:k].tobytes()
            or again.R.tobytes() != R[:k].tobytes()):
        problems.append(f"chain {chain}: CSV differs from run_chain in the "
                        f"first {k} rows")
    if k == n and json.loads(json.dumps(again.events)) != logged:
        problems.append(f"chain {chain}: event log differs from run_chain")
    if any(not 0 <= ev["iterate"] < n for ev in logged):
        problems.append(f"chain {chain}: event iterate out of range")
    return problems, X


@contextmanager
def chain_timer(durations: list):
    """Append the wall time of each run_chain call the CLI makes."""
    original = cli.run_chain

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(perf_counter() - t0)

    cli.run_chain = timed
    try:
        yield
    finally:
        cli.run_chain = original


def cli_unit(prep: Prepared, index: int, tracer=None) -> Unit:
    """One in-process `pwhmc sample`, then the checks of every chain."""
    w = prep.workload
    seed = chain_seed(prep.seed, index)
    out = prep.workdir / f"samples{index}.csv"
    events = prep.workdir / f"events{index}.jsonl"
    chain_walls = []
    with Bracket() as speed:
        t0 = perf_counter()
        try:
            with tracer or nullcontext(), chain_timer(chain_walls):
                code = cli.main(cli_argv(prep, w.n_samples, seed, out, events))
        except Exception:
            traceback.print_exc()
            code = None
        wall = perf_counter() - t0
    if code != 0:
        _remove_outputs(prep, out, events)
        _report(prep, index, [f"pwhmc sample exited with {code}"])
        return Unit(wall, [], 0, 0, [], w.cli_chains, w.cli_chains)

    problems, passed = [], []
    for chain in range(w.cli_chains):
        chain_problems, X = cli_problems(prep, seed, index, out, events, chain)
        problems += chain_problems
        if not chain_problems:
            passed.append(X)
    _remove_outputs(prep, out, events)
    _report(prep, index, problems)
    return Unit(wall, chain_walls, w.n_samples, w.cli_chains * w.n_samples,
                passed, w.cli_chains, w.cli_chains - len(passed),
                speed.scale)


def run_unit(prep: Prepared, index: int, tracer=None) -> Unit:
    """One unit; `tracer`, if given, is active only around the timed call."""
    unit = cli_unit if prep.workload.cli_chains else api_unit
    return unit(prep, index, tracer)


# ---------------------------------------------------------------------------
# Setup: model path to first kept sample


def setup_once(prep: Prepared, rep: int, tracer=None) -> float:
    """Seconds from the model path to the first kept sample."""
    seed = chain_seed(prep.seed, 1_000_000 + rep)
    if prep.workload.cli_chains:
        out = prep.workdir / "setup.csv"
        events = prep.workdir / "setup.jsonl"
        t0 = perf_counter()
        with tracer or nullcontext():
            code = cli.main(cli_argv(prep, 1, seed, out, events))
        elapsed = perf_counter() - t0
        _remove_outputs(prep, out, events)
        if code != 0:
            raise RuntimeError(f"pwhmc sample --n 1 exited with {code}")
        return elapsed
    t0 = perf_counter()
    with tracer or nullcontext():
        spec = model.load_model_file(prep.path)
        report = model.validate_model(spec)
        check = sampler.initial_point_check(spec, spec.init_region,
                                            spec.init_point)
        sampler.run_chain(spec, spec.init_region, spec.init_point,
                          ChainConfig(n_samples=1, seed=seed))
    elapsed = perf_counter() - t0
    if not (report.passed and check.passed):
        raise RuntimeError("setup: model or start point rejected")
    return elapsed


def reference_chain(prep: Prepared):
    """Chain 0 of unit 0 with the event log on, as the CLI runs it."""
    if prep.workload.cli_chains:
        seed_seq = np.random.SeedSequence([chain_seed(prep.seed, 0), 0])
    else:
        seed_seq = np.random.SeedSequence([prep.seed, 0])
    return replay(prep, seed_seq, prep.workload.n_samples, record_events=True)
