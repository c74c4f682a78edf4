"""Command-line surface: validate / sample / diagnose.

Exit codes: 0 success, 1 model or content failure, 2 I/O or parse failure,
3 event cap exceeded (more than MAX_EVENTS_PER_ITERATE events in one
iterate).  Every sample run writes a manifest sidecar so the outputs can be
reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ModelFormatError, StallError
from .model import (
    CONTINUITY_TOL,
    cell_slack,
    ell,
    load_model_file,
    validate_model,
)
from .sampler import ChainConfig, run_chain

EXIT_OK = 0
EXIT_CONTENT = 1
EXIT_IO = 2
EXIT_RUNTIME = 3
# Event-log lines formatted per pass: a bound on the text held at once.
EVENT_CHUNK = 4096


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


def _start(args):
    """Load and validate the model, then resolve the starting state.

    Returns (spec, region, x0); any failure exits with its message printed.
    """
    spec = _load(args.model)
    report = validate_model(spec)
    if not report.passed:
        for c in report.failures():
            print(c.format(), file=sys.stderr)
        raise SystemExit(_fail(EXIT_CONTENT, "model failed validation"))
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
    return spec, int(region), x0


def _write_samples(path, spec, cfg, out):
    header = ",".join([f"x{i + 1}" for i in range(spec.n)] + ["region", "iterate"])
    line = ",".join(["%.17g"] * spec.n) + ",%d,%d\n"
    kept = range(cfg.burn_in + cfg.thin - 1, cfg.n_iterates, cfg.thin)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % (*x, j, i)
                      for x, j, i in zip(out.X.tolist(), out.R.tolist(), kept))


def _write_events(path, events):
    """The event log: one JSON line per event, as json.dumps writes it.

    run_chain's events share their keys and value types, so a line is one
    printf format over an event's values, with %d for an int, %r for a
    float (which prints a finite float as json.dumps does) and a quoted %s
    for the kind, a plain word.  Lines are formatted EVENT_CHUNK at a time;
    a chunk that holds a non-finite float, which json.dumps writes as
    Infinity or NaN, is written by json.dumps instead.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not events:
            return
        line = "{" + ", ".join(
            json.dumps(key) + (': "%s"' if isinstance(value, str) else
                               ": %r" if isinstance(value, float) else ": %d")
            for key, value in events[0].items()) + "}\n"
        for start in range(0, len(events), EVENT_CHUNK):
            chunk = events[start:start + EVENT_CHUNK]
            text = "".join([line % tuple(ev.values()) for ev in chunk])
            if "inf" in text or "nan" in text:      # a non-finite float's repr
                text = "".join([json.dumps(ev) + "\n" for ev in chunk])
            fh.write(text)


def _chain_paths(base, chain, n_chains):
    if n_chains == 1:
        return Path(base)
    p = Path(base)
    return p.with_name(f"{p.stem}.chain{chain}{p.suffix}")


def cmd_validate(args):
    if not 0 <= args.tol < np.inf:
        return _fail(EXIT_CONTENT,
                     f"--tol must be nonnegative and finite, got {args.tol}")
    report = validate_model(_load(args.model), tol=args.tol)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CONTENT


def cmd_sample(args):
    if args.chains < 1:
        return _fail(EXIT_CONTENT,
                     f"--chains must be at least 1, got {args.chains}")
    spec, region, x0 = _start(args)

    # Chains run one after another: they are pure Python, so threads would
    # only take turns on the interpreter lock.
    try:
        for chain in range(args.chains):
            seed = [args.seed, chain] if args.chains > 1 else [args.seed]
            cfg = ChainConfig(
                n_samples=args.n, seed=np.random.SeedSequence(seed),
                t_max=args.tmax, burn_in=args.burnin, thin=args.thin,
                record_events=args.events is not None,
            )
            out = run_chain(spec, region, x0, cfg)
            samples_path = _chain_paths(args.out, chain, args.chains)
            _write_samples(samples_path, spec, cfg, out)
            events_path = None
            if args.events is not None:
                events_path = _chain_paths(args.events, chain, args.chains)
                _write_events(events_path, out.events)
            # everything needed to replay this chain's outputs exactly
            manifest = {
                "model": str(args.model), "seed": seed, "t_max": args.tmax,
                "n_samples": args.n, "burn_in": args.burnin, "thin": args.thin,
                "region": region, "init": [float(v) for v in x0],
                "samples_path": str(samples_path),
                "events_path": None if events_path is None else str(events_path),
                "version": __version__,
                "numpy": np.__version__,
            }
            with open(str(samples_path) + ".manifest.json", "w",
                      encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    return EXIT_OK


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
    first, last = {}, {}
    for ev in out.events:
        first.setdefault(ev["iterate"], ev["energy_pre"])
        last[ev["iterate"]] = ev["energy_post"]
    drift = max([0.0] + [abs(last[i] - e) / max(1.0, abs(e))
                         for i, e in first.items()])

    visited, counts = np.unique(out.R, return_counts=True)
    # a coordinate constant over the chain (pinned by the piece) reads 0
    ac = [float(np.corrcoef(c0, c1)[0, 1]) if c0.std() and c1.std() else 0.0
          for c0, c1 in zip(out.X[:-1].T, out.X[1:].T)]

    print(f"iterates:                {cfg.n_iterates}")
    print(f"boundary events:         {len(out.events)}")
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
    p_val.add_argument("--tol", type=float, default=CONTINUITY_TOL,
                       help="continuity tolerance (default 1e-8)")
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
    except StallError as exc:
        return _fail(EXIT_RUNTIME, f"sampling stalled: {exc} {exc.context}")
    except ValueError as exc:
        # bad chain settings, or a start point that run_chain rejects
        # (ContractError), both before any file is written
        return _fail(EXIT_CONTENT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
