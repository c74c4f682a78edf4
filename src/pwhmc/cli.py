"""Command-line surface: validate / sample / diagnose.

Exit codes: 0 success, 1 model or content failure, 2 I/O or parse failure,
3 event cap exceeded (more than MAX_EVENTS_PER_ITERATE events in one
iterate).  Every sample run writes a manifest sidecar so the outputs can be
reproduced bit for bit.

``sample`` checks its settings, its output paths, the model (its validation
report) and the start once, before any chain runs.  Then every chain runs to
its end or to its own error, and a chain that fails writes no file.  Each
failing chain's message goes to stderr in chain order, and the exit code is
that of the lowest-numbered failing chain.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ModelFormatError, StallError
from .model import cell_slack, ell, load_model_file, validate_model
from .sampler import EVENT_KEYS, ChainConfig, check_start, run_chain

EXIT_OK = 0
EXIT_CONTENT = 1
EXIT_IO = 2
EXIT_RUNTIME = 3
# CSV and event-log lines formatted per pass: a bound on the text held at once.
EVENT_CHUNK = 4096
# One event-log line, the fields in EVENT_KEYS order: %r prints a finite
# float as json.dumps does, and the kind is a plain word.
EVENT_LINE = ('{"iterate": %d, "time": %r, "constraint": %d, "kind": "%s", '
              '"j_from": %d, "j_to": %d, "dV": %r, "energy_pre": %r, '
              '"energy_post": %r}\n')
# Iterates each chain must run before sample forks workers.  Forking,
# copying pages on write and reaping cost about 3.5 ms: on a 2-vCPU Xeon
# guest, `sample --chains 2 --events` at --n 1 took 9.0 ms forked and
# 5.4 ms in turn on pospart, and forking won from 200 iterates on pospart,
# ntop and onenorm.
FORK_MIN_ITERATES = 200


def _load(model_path):
    try:
        return load_model_file(model_path)
    except OSError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read model: {exc}"))
    except ModelFormatError as exc:
        raise SystemExit(_fail(EXIT_IO, f"bad model document: {exc}"))


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def _failure(exc):
    """(exit code, message) of a chain's StallError (the event cap) or
    ValueError (ContractError: bad settings, model, start or kept row)."""
    if isinstance(exc, StallError):
        return EXIT_RUNTIME, f"sampling stalled: {exc} {exc.context}"
    return EXIT_CONTENT, str(exc)


def _start(args):
    """Load the model, then resolve and check the starting state.

    Returns (spec, region, x0); a model that fails validation or a bad start
    raises ContractError, and any other failure exits with its message printed.
    """
    if args.seed < 0:
        raise SystemExit(_fail(EXIT_CONTENT,
                               f"--seed must be at least 0, got {args.seed}"))
    spec = _load(args.model)
    region = args.region if args.region is not None else spec.init_region
    if args.init is not None:
        try:
            x0 = np.array([float(v) for v in args.init.split(",")])
        except ValueError:
            raise SystemExit(_fail(
                EXIT_CONTENT,
                f"--init must be comma-separated decimals, got {args.init!r}",
            ))
    else:
        x0 = spec.init_point
    if region is None or x0 is None:
        raise SystemExit(_fail(
            EXIT_CONTENT,
            "no starting state: pass --region and --init or add an 'init' "
            "block to the model document",
        ))
    region = int(region)
    # run_chain checks the start too; checked here, a bad one fails once,
    # before any worker starts
    check_start(spec, region, x0)
    return spec, region, x0


def _write_samples(path, spec, cfg, out):
    header = ",".join([f"x{i + 1}" for i in range(spec.n)] + ["region", "iterate"])
    line = ",".join(["%.17g"] * spec.n) + ",%d,%d\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(out.R), EVENT_CHUNK):
            rows = slice(start, start + EVENT_CHUNK)
            fh.write("".join([line % (*x, j, i) for x, j, i in zip(
                out.X[rows].tolist(), out.R[rows].tolist(), cfg.kept[rows])]))


def _write_events(path, log):
    """The event log of a chain's EventLog: one JSON line per event, as
    json.dumps writes it.

    Lines are formatted EVENT_CHUNK at a time from the log's columns, each
    by the one printf format EVENT_LINE.  A chunk that holds a non-finite
    float, which json.dumps writes as Infinity or NaN, is written by
    json.dumps instead.
    """
    floats = (log.time, log.dV, log.energy_pre, log.energy_post)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(log), EVENT_CHUNK):
            stop = start + EVENT_CHUNK
            rows = log.rows(start, stop)
            if all(np.isfinite(c[start:stop]).all() for c in floats):
                text = "".join([EVENT_LINE % row for row in rows])
            else:
                text = "".join([json.dumps(dict(zip(EVENT_KEYS, row))) + "\n"
                                for row in rows])
            fh.write(text)


def _chain_paths(base, chain, n_chains):
    if n_chains == 1:
        return Path(base)
    p = Path(base)
    return p.with_name(f"{p.stem}.chain{chain}{p.suffix}")


def cmd_validate(args):
    report = validate_model(_load(args.model))
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CONTENT


def _workers(n_chains, n_iterates):
    """Processes to run the chains in: one per CPU this process may use, up
    to one per chain, where fork is safe (no other thread runs) and pays
    (each chain runs at least FORK_MIN_ITERATES iterates); else 1."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and n_iterates >= FORK_MIN_ITERATES):
        return 1
    return min(n_chains, len(os.sched_getaffinity(0)))


def _child(run, chains, fd):
    """Body of a forked worker: run its chains and send one JSON line
    [chain, code, message] per chain down the pipe.  It ends in os._exit,
    so that no exit hook of the parent's (atexit, temporary directories,
    test teardown) runs here."""
    try:
        with open(fd, "w", encoding="utf-8") as pipe:
            for chain in chains:
                pipe.write(json.dumps([chain, *run(chain)]) + "\n")
                pipe.flush()
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(0)


def _run_chains(run, n_chains, workers):
    """Run chains 0..n_chains-1 as run(chain) -> (code, message), chain c in
    worker c % workers, and return their reports in a list.

    Worker 0 is this process.  The others are forked children, which
    inherit the model and report over a pipe; a fork that fails leaves its
    chains to this process.  Every child is reaped, its pipe read to the end
    first, also when this process's own chains raise.  A chain whose worker
    ended without reporting it fails with EXIT_IO.
    """
    reports = [None] * n_chains
    children = []                       # (worker, pid, read end of its pipe)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for worker in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                os.close(r)
                _child(run, range(worker, n_chains, workers), w)
            os.close(w)
            children.append((worker, pid, r))
        forked = {worker for worker, _, _ in children}
        for chain in range(n_chains):
            if chain % workers not in forked:
                reports[chain] = run(chain)
    finally:
        for worker, pid, r in children:
            with open(r, "rb") as pipe:
                # a child killed while writing leaves its last line unended
                lines = pipe.read().split(b"\n")[:-1]
            _, status = os.waitpid(pid, 0)
            for line in lines:
                chain, code, message = json.loads(line)
                reports[chain] = code, message
            for chain in range(worker, n_chains, workers):
                if reports[chain] is None:
                    code = os.waitstatus_to_exitcode(status)
                    reports[chain] = EXIT_IO, (
                        f"chain {chain}: its worker process ended without "
                        f"a report, exit code {code}")
    return reports


def _write_files(files):
    """Write (path, writer) pairs in turn.  On an OSError, remove what was
    written, and the file being written unless opening it failed (then it
    was never touched), and raise it again."""
    written = []
    try:
        for path, write in files:
            written.append(path)
            write(path)
    except OSError as exc:
        if exc.filename == str(written[-1]):
            written.pop()
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _file(path):
    """The file a path names: the device and inode of one that exists, so
    that every symlink and hard link to it gives the same value (as
    os.path.samefile compares them), else the path after resolving
    symlinks."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def cmd_sample(args):
    if args.chains < 1:
        return _fail(EXIT_CONTENT,
                     f"--chains must be at least 1, got {args.chains}")
    # each chain's samples, event-log (None without --events) and manifest paths
    paths = []
    for chain in range(args.chains):
        samples = _chain_paths(args.out, chain, args.chains)
        events = (None if args.events is None
                  else _chain_paths(args.events, chain, args.chains))
        paths.append((samples, events, f"{samples}.manifest.json"))
    # each output's file, its path after resolving symlinks, and the option
    # naming it
    named = [(_file(p), os.path.realpath(p), option) for files in paths
             for p, option in zip(files, ("--out", "--events", "--out"))
             if p is not None]
    model = _file(args.model)
    over = [option for f, _, option in named if f == model]
    if over:
        return _fail(EXIT_CONTENT, f"{over[0]} would write over the model "
                     f"{os.path.realpath(args.model)}")
    outputs = [f for f, _, _ in named]
    clash = [p for f, p, _ in named if outputs.count(f) > 1]
    if clash:
        return _fail(EXIT_CONTENT, "--out and --events must give every output "
                     f"its own file, but two would be written to {clash[0]}")
    spec, region, x0 = _start(args)
    seeds = [[args.seed, chain] if args.chains > 1 else [args.seed]
             for chain in range(args.chains)]
    cfgs = [ChainConfig(n_samples=args.n, seed=np.random.SeedSequence(seed),
                        t_max=args.tmax, burn_in=args.burnin, thin=args.thin,
                        record_events=args.events is not None)
            for seed in seeds]

    def sample(chain):
        """Run one chain and write its files: (EXIT_OK, "") or the failure."""
        cfg = cfgs[chain]
        try:
            out = run_chain(spec, region, x0, cfg)
        except (StallError, ValueError) as exc:
            return _failure(exc)
        samples_path, events_path, manifest_path = paths[chain]
        files = [(samples_path, lambda p: _write_samples(p, spec, cfg, out))]
        if events_path is not None:
            files.append((events_path, lambda p: _write_events(p, out.log)))
        # everything needed to replay this chain's outputs exactly
        manifest = {
            "model": str(args.model), "seed": seeds[chain], "t_max": args.tmax,
            "n_samples": args.n, "burn_in": args.burnin, "thin": args.thin,
            "region": region, "init": [float(v) for v in x0],
            "samples_path": str(samples_path),
            "events_path": None if events_path is None else str(events_path),
            "version": __version__,
            "numpy": np.__version__,
        }
        files.append((manifest_path, lambda p: _write_manifest(p, manifest)))
        try:
            _write_files(files)
        except OSError as exc:
            return EXIT_IO, f"cannot write output: {exc}"
        return EXIT_OK, ""

    workers = _workers(args.chains, cfgs[0].n_iterates)
    failed = [(code, message)
              for code, message in _run_chains(sample, args.chains, workers)
              if code != EXIT_OK]
    for _, message in failed:
        print(message, file=sys.stderr)
    return failed[0][0] if failed else EXIT_OK


def cmd_diagnose(args):
    if args.n < 2:
        # the lag-1 autocorrelation needs two kept rows
        return _fail(EXIT_CONTENT, f"--n must be at least 2, got {args.n}")
    spec, region, x0 = _start(args)
    cfg = ChainConfig(n_samples=args.n, seed=np.random.SeedSequence(args.seed),
                      t_max=args.tmax, record_events=True)
    out = run_chain(spec, region, x0, cfg)

    resid = float(np.linalg.norm(ell(spec, out.R, out.X), axis=-1).max())
    violation = max(0.0, -float(cell_slack(spec, out.R, out.X).min()))

    # energy before an iterate's first event and after its last
    log = out.log
    first = np.unique(log.iterate, return_index=True)[1]
    last = len(log) - 1 - np.unique(log.iterate[::-1], return_index=True)[1]
    e = log.energy_pre[first]
    drift = max([0.0] + (abs(log.energy_post[last] - e)
                         / np.maximum(1.0, abs(e))).tolist())

    visited, counts = np.unique(out.R, return_counts=True)
    # a coordinate constant over the chain (pinned by the piece) reads 0
    ac = [float(np.corrcoef(c0, c1)[0, 1]) if c0.std() and c1.std() else 0.0
          for c0, c1 in zip(out.X[:-1].T, out.X[1:].T)]

    print(f"iterates:                {cfg.n_iterates}")
    print(f"boundary events:         {len(log)}")
    print(f"max manifold residual:   {resid:.3e}")
    print(f"max constraint breach:   {violation:.3e}")
    print(f"max energy drift (rel):  {drift:.3e}")
    print("region occupancy:        "
          + " ".join(f"{j}:{c}" for j, c in zip(visited, counts)))
    print(f"regions visited:         {visited.size}/{spec.J}")
    print("lag-1 autocorrelation:   "
          + " ".join(f"{v:+.3f}" for v in ac))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pwhmc",
        description="Exact HMC on piecewise Gaussian densities restricted "
                    "to a piecewise affine constraint manifold.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="structural checks on a model document")
    p_val.add_argument("model")
    p_val.set_defaults(func=cmd_validate)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tmax", type=float, default=float(np.pi / 2))
    common.add_argument("--region", type=int, default=None,
                        help="starting region (1-based)")
    common.add_argument("--init", type=str, default=None,
                        help="starting point, comma-separated decimals")

    p_smp = sub.add_parser("sample", parents=[common],
                           help="run chains and write sample files")
    p_smp.add_argument("--n", type=int, required=True,
                       help="kept iterates per chain")
    p_smp.add_argument("--burnin", type=int, default=0)
    p_smp.add_argument("--thin", type=int, default=1)
    p_smp.add_argument("--out", type=str, required=True)
    p_smp.add_argument("--events", type=str, default=None,
                       help="also write a boundary-event log (JSON lines)")
    p_smp.add_argument("--chains", type=int, default=1)
    p_smp.set_defaults(func=cmd_sample)

    p_dia = sub.add_parser("diagnose", parents=[common],
                           help="short run with invariant diagnostics")
    p_dia.add_argument("--n", type=int, default=2000)
    p_dia.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except (StallError, ValueError) as exc:
        # before any file is written, or a diagnose chain's failure
        return _fail(*_failure(exc))


if __name__ == "__main__":
    sys.exit(main())
