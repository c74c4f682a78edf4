"""Benchmark of the pwhmc sampler: end-to-end metrics, or per-layer spans.

Run from the root of a checkout (no build step; the package is imported from
``src``):

    python3 perfbench/run.py --workload polywall --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Timings are reported at the machine's full speed: each is bracketed by a
fixed reference task and scaled by it, and each workload runs pinned to one
CPU per chain that runs at once (see calib.py); the notes give the raw
medians too.
``--trace 1`` measures half the time untraced and half traced, and prints the
per-layer metrics.  Every run checks the sampler's outputs; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  ``--workload all`` runs every workload in this one process and
prefixes each metric with its workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

# One BLAS thread.  Set-up runs small linear algebra (validate_model); with
# OpenBLAS's default of a thread per core, waking the pool on a shared
# 2-vCPU host doubled the set-up time and made it drift between runs.
# Set before numpy is first imported (run.py imports it lazily).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "iterates_per_s": "1/s",
    "ess_per_s": "1/s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
SETUP_MIN_REPS = 8          # set-up repeats: at least this many, and
SETUP_BUDGET_S = 1.0        # until this much time is spent,
SETUP_SLICE_S = 0.02        # taken in bracketed slices of this length


def _median(values):
    return statistics.median(values) if values else 0.0


def _git_commit(root: Path):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    try:
        from pwhmc import kernels
        backend = kernels.current_backend()
    except (ImportError, AttributeError):
        backend = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(BENCH_DIR.parent),
        "hit_kernel": backend,
        "blas_threads": int(BLAS_THREADS),
    }


class SetupTimes:
    """Set-up repeats in seconds, as measured and at full speed."""

    def __init__(self):
        self.raw, self.scaled = [], []

    def due(self) -> bool:
        return sum(self.raw) < SETUP_BUDGET_S or len(self.raw) < SETUP_MIN_REPS

    def add_slice(self, times, scale):
        self.raw += times
        self.scaled += [t * scale for t in times]


def measure_setup(prep, setup: SetupTimes, tracer=None, slices=None):
    """Add set-up repeats in slices of SETUP_SLICE_S, each bracketed by the
    reference task; `slices` of them, or as many as are due."""
    from calib import Bracket
    from workloads import setup_once
    done = 0
    while setup.due() and (slices is None or done < slices):
        times = []
        with Bracket() as speed:
            while sum(times) < SETUP_SLICE_S:
                times.append(setup_once(prep, len(setup.raw) + len(times),
                                        tracer))
        setup.add_slice(times, speed.scale)
        done += 1
    return setup


def measure_units(prep, budget: float, first_index: int, tracer=None,
                  setup=None):
    """Run units back to back until their timed walls sum to `budget`.

    With a SetupTimes `setup`, one set-up slice is taken between units, so
    that both sample the same stretch of a noisy machine's time.
    """
    from workloads import run_unit
    units, spent, index = [], 0.0, first_index
    while spent < budget:
        if setup is not None:
            measure_setup(prep, setup, slices=1)
        unit = run_unit(prep, index, tracer)
        units.append(unit)
        spent += unit.wall
        index += 1
    if setup is not None:
        measure_setup(prep, setup)
    return units


def rates(units, full_speed=True):
    """Median throughputs over the units in which every chain passed.

    iterates/s is per unit, over the summed run_chain wall times of its
    chains (threaded chains share the interpreter lock unevenly); rows/s is
    over the whole unit.  With `full_speed`, each unit's rate is scaled to
    full machine speed (see calib.py).
    ESS/s is the pooled ESS per kept row (every kept chain in one multi-chain
    estimate) times rows/s: the ESS of one short chain is too noisy to take
    a median of.
    """
    from ess import min_ess
    ok = [u for u in units if u.failed == 0]
    chains = [X for u in ok for X in u.X]

    def scale(u):
        return 1.0 / u.scale if full_speed else 1.0

    rows_per_s = _median([u.rows / u.wall * scale(u) for u in ok])
    return {
        "iterates_per_s": _median([u.iterates * len(u.chain_walls)
                                   / sum(u.chain_walls) * scale(u) for u in ok]),
        "rows_per_s": rows_per_s,
        "ess_per_s": (rows_per_s * min_ess(chains)
                      / sum(len(X) for X in chains) if chains else 0.0),
    }


def end_to_end(prep, seconds: float):
    setup = SetupTimes()
    units = measure_units(prep, seconds, 0, setup=setup)
    attempted = sum(u.chains for u in units)
    failed = sum(u.failed for u in units)
    values = rates(units)
    raw = rates(units, full_speed=False)
    values["setup_s"] = _median(setup.scaled)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = 1.0 - failed / attempted
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    notes = {
        "setup_s": f"full speed, median of {len(setup.raw)} set-ups; "
                   f"raw median {_median(setup.raw):.6g}",
        "iterates_per_s": f"full speed; raw median {raw['iterates_per_s']:.6g}",
        "rows_per_s": f"full speed, median of {len(units)} units; "
                      f"raw median {raw['rows_per_s']:.6g}",
        "ess_per_s": "pooled bulk ESS per row x rows_per_s",
        "ok_frac": f"{attempted - failed}/{attempted} chains passed",
    }
    return metrics, attempted, failed, notes


def per_layer(prep, seconds: float):
    from spans import Tracer
    from workloads import reference_chain

    w = prep.workload
    plain = measure_units(prep, seconds / 2, 0)
    setup_tracer = Tracer()
    setup = measure_setup(prep, SetupTimes(), setup_tracer)
    chain_tracer = Tracer()
    traced = measure_units(prep, seconds / 2, len(plain), chain_tracer)
    ref_tracer = Tracer()
    with ref_tracer:
        ref = reference_chain(prep)
    s, st, rt = chain_tracer.summary(), setup_tracer.summary(), ref_tracer.summary()

    units = plain + traced
    attempted = sum(u.chains for u in units)
    failed = sum(u.failed for u in units)
    ok = [u for u in traced if u.failed == 0]
    iterates = sum(u.iterates * u.chains for u in ok) or 1
    rows = sum(u.rows for u in ok) or 1

    def ratio(num, den):
        return num / den if den else 0.0

    segments = s.calls_of("dynamics.segment")
    layers = s.layer_self()
    busy = sum(layers.values())
    cli_calls = s.calls_of("cli.main")
    setup_total = sum(setup.raw)
    n_ref = w.n_samples
    kinds = [(ev["kind"], ev["j_from"] == ev["j_to"]) for ev in ref.events]
    walls = sum(k == "wall" for k, _ in kinds)
    reflects = sum(k == "transition" and same for k, same in kinds)
    transmits = sum(k == "transition" and not same for k, same in kinds)

    untraced, traced_rate = rates(plain), rates(traced)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in [
        ("kernels.first_hit_us", 1e6 * s.mean_of("kernels.first_hit"), "us"),
        ("kernels.rows_per_call", ratio(s.work_of("kernels.first_hit"),
                                        s.calls_of("kernels.first_hit")), "count"),
        ("kernels.ns_per_row", 1e9 * ratio(s.total_of("kernels.first_hit"),
                                           s.work_of("kernels.first_hit")), "ns"),
        ("kernels.share", ratio(layers.get("kernels", 0.0), busy), "frac"),
        ("dynamics.segment_self_us",
         1e6 * ratio(s.self_of("dynamics.segment"), segments), "us"),
        ("dynamics.share", ratio(layers.get("dynamics", 0.0), busy), "frac"),
        ("dynamics.segments_per_iterate", (len(kinds) + n_ref) / n_ref, "count"),
        ("dynamics.walls_per_iterate", walls / n_ref, "count"),
        ("dynamics.transmits_per_iterate", transmits / n_ref, "count"),
        ("dynamics.reflects_per_iterate", reflects / n_ref, "count"),
        ("subspace.ode_coef_us", 1e6 * s.mean_of("subspace.ode_coef"), "us"),
        ("subspace.ode_param_calls", ratio(s.calls_of("subspace.ode_param"),
                                           s.calls_of("sampler.run_chain")), "count"),
        ("subspace.ode_param_us", 1e6 * s.mean_of("subspace.ode_param"), "us"),
        ("subspace.ode_param_setup_share",
         ratio(st.total_of("subspace.ode_param"), setup_total), "frac"),
        ("subspace.share", ratio(layers.get("subspace", 0.0), busy), "frac"),
        ("model.potential_us", 1e6 * s.mean_of("model.potential"), "us"),
        ("model.potential_per_segment",
         ratio(s.calls_of("model.potential"), segments), "count"),
        ("model.load_s", st.mean_of("model.load_model_file"), "s"),
        ("model.validate_s", st.mean_of("model.validate_model"), "s"),
        ("model.setup_share", ratio(st.total_of("model.load_model_file")
                                    + st.total_of("model.validate_model"),
                                    setup_total), "frac"),
        ("model.share", ratio(layers.get("model", 0.0), busy), "frac"),
        ("sampler.iterate_self_us",
         1e6 * s.self_of("sampler.run_chain") / iterates, "us"),
        ("sampler.refresh_us", 1e6 * s.mean_of("sampler.refresh_velocity"), "us"),
        ("sampler.share", ratio(layers.get("sampler", 0.0), busy), "frac"),
        ("cli.self_us_per_row", 1e6 * layers.get("cli", 0.0) / rows, "us"),
        ("cli.run_chain_s_per_chain",
         s.mean_of("sampler.run_chain") if cli_calls else 0.0, "s"),
        ("cli.thread_slowdown",
         ratio(s.mean_of("sampler.run_chain"), rt.mean_of("sampler.run_chain"))
         if w.cli_chains > 1 else 0.0, "ratio"),
        ("cli.share", ratio(layers.get("cli", 0.0), busy), "frac"),
        ("wait.share", ratio(layers.get("wait", 0.0), busy), "frac"),
        ("trace.overhead", ratio(untraced["iterates_per_s"],
                                 traced_rate["iterates_per_s"]) - 1.0, "ratio"),
        ("trace.self_sum_ratio",
         ratio(s.main_self, sum(u.wall for u in traced)), "ratio"),
    ]}
    problems = []
    if not 0.95 <= metrics["trace.self_sum_ratio"]["value"] <= 1.0 + 1e-9:
        problems.append("per-layer self times do not sum to the traced wall time")
    notes = {
        "cli.thread_slowdown": "threaded chain wall / the same chain alone",
        "wait.share": "main thread blocked on the CLI's chain pool",
        "trace.self_sum_ratio": "main-thread self seconds / traced unit wall",
    }
    return metrics, attempted, failed, notes, problems


def run_workload(name, args, workdir):
    from workloads import WORKLOADS, prepare
    prep = prepare(WORKLOADS[name], args.seed, workdir)
    # Pinned, so that calib.py's reference task runs on the CPUs it scales.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, set(sorted(allowed)[:prep.workload.cpus]))
    try:
        if args.trace:
            metrics, attempted, failed, notes, problems = per_layer(prep, args.seconds)
        else:
            metrics, attempted, failed, notes = end_to_end(prep, args.seconds)
            problems = []
    finally:
        os.sched_setaffinity(0, allowed)
    print(f"== {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for key, m in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:<32} {m['value']:>14.6g} {m['unit']:<6} {note}")
    for p in problems:
        print(f"  problem: {p}")
    return metrics, attempted, failed, problems


def main(argv=None):
    if not (SRC / "pwhmc" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {SRC / 'pwhmc'} not found; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from ess import ar1_self_check
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    print("env " + json.dumps(environment()))
    problems = [f"ess self-check: {p}" for p in ar1_self_check()]
    if args.workload != "all":
        names = [args.workload]
    metrics, attempted, failed = {}, 0, 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        for name in names:
            m, a, f, p = run_workload(name, args, Path(work))
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
            problems += p
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
