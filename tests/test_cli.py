"""Command-line behavior: exit codes, file outputs, reproducibility."""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pwhmc
from pwhmc import cli, model, sampler, zoo
from conftest import benchmark_models, invalid_models
from pwhmc.cli import main
from pwhmc.errors import ContractError, StallError
from pwhmc.model import load_model_file, validate_model
from pwhmc.sampler import ChainConfig, ChainOutput, EventLog, run_chain

ONENORM = str(zoo.model_path("onenorm"))


def write_model(tmp_path, doc_text, name="model.model"):
    path = tmp_path / name
    path.write_text(doc_text)
    return str(path)


def test_validate_shipped_models_pass(capsys):
    for name in zoo.SHIPPED:
        assert main(["validate", str(zoo.model_path(name))]) == 0
        tail = capsys.readouterr().out.strip().splitlines()[-1]
        assert tail.endswith("checks passed")
        assert "FAIL" not in tail


def test_validate_broken_model_fails(tmp_path, capsys):
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][0]["y"] = [-2.0]          # breaks cross-face continuity
    path = write_model(tmp_path, json.dumps(doc))
    assert main(["validate", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_and_malformed_files_exit_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.model")]) == 2
    bad = write_model(tmp_path, "{not json")
    assert main(["sample", bad, "--n", "5", "--out", str(tmp_path / "o.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [
    ("k", 10 ** 30), ("n", 10 ** 30), ("m", 2 ** 40),
])
def test_out_of_range_documents_exit_2(tmp_path, capsys, key, value):
    # these once escaped the loader as a TypeError, numpy's dimension
    # ValueError and an allocation error: tracebacks or exit 1
    doc = json.loads(zoo.model_path("onenorm").read_text())
    if key == "k":
        doc["regions"][0]["k"] = value
    else:
        doc[key] = value
    assert main(["validate", write_model(tmp_path, json.dumps(doc))]) == 2
    assert capsys.readouterr().err.startswith("bad model document: field ")


def test_sample_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "draws.csv"
    code = main(["sample", ONENORM, "--n", "40", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,region,iterate"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert len(first) == 5
    assert int(first[4]) == 0                # iterate of first kept row

    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["model"] == ONENORM
    assert manifest["seed"] == [7]
    assert manifest["n_samples"] == 40
    assert manifest["region"] == 1
    assert manifest["events_path"] is None
    assert manifest["version"]
    assert manifest["numpy"] == np.__version__


def test_sample_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "draws.csv"
    assert main(["sample", ONENORM, "--n", "30", "--seed", "3",
                 "--out", str(out)]) == 0
    spec = zoo.build_shipped("onenorm")
    ref = run_chain(spec, spec.init_region, spec.init_point,
                    ChainConfig(n_samples=30, seed=np.random.SeedSequence(3)))
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    got = np.array([[float(v) for v in r[:3]] for r in rows])
    regions = np.array([int(r[3]) for r in rows])
    assert np.array_equal(got, ref.X)        # %.17g is lossless for doubles
    assert np.array_equal(regions, ref.R)


def test_sample_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", ONENORM, "--n", "50", "--seed", "11", "--burnin", "10",
            "--thin", "2"]
    assert main(args + ["--out", str(a), "--events", str(tmp_path / "a.jsonl")]) == 0
    assert main(args + ["--out", str(b), "--events", str(tmp_path / "b.jsonl")]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_sample_iterate_column_respects_burnin_thin(tmp_path):
    out = tmp_path / "draws.csv"
    assert main(["sample", ONENORM, "--n", "5", "--burnin", "4", "--thin", "3",
                 "--out", str(out)]) == 0
    iterates = [int(l.split(",")[-1])
                for l in out.read_text().strip().splitlines()[1:]]
    assert iterates == [6, 9, 12, 15, 18]


def test_sample_csv_crosses_a_chunk(tmp_path, monkeypatch):
    # rows are formatted EVENT_CHUNK at a time: a CSV over several chunks,
    # the last one short, is the text of one pass over every row
    spec = zoo.positive_part_model()
    cfg = ChainConfig(n_samples=11, seed=4, burn_in=3, thin=2)
    out = run_chain(spec, spec.init_region, spec.init_point, cfg)
    expected = "x1,x2,x3,region,iterate\n" + "".join(
        ",".join(["%.17g" % v for v in x] + [str(j), str(3 + 2 * row + 1)]) + "\n"
        for row, (x, j) in enumerate(zip(out.X.tolist(), out.R.tolist())))
    for chunk in (cli.EVENT_CHUNK, 4):
        monkeypatch.setattr(cli, "EVENT_CHUNK", chunk)
        cli._write_samples(tmp_path / "o.csv", spec, cfg, out)
        assert (tmp_path / "o.csv").read_text() == expected


def test_sample_events_log(tmp_path):
    out = tmp_path / "draws.csv"
    ev_path = tmp_path / "events.jsonl"
    assert main(["sample", ONENORM, "--n", "200", "--seed", "1",
                 "--out", str(out), "--events", str(ev_path)]) == 0
    events = [json.loads(l) for l in ev_path.read_text().strip().splitlines()]
    assert len(events) > 20
    keys = {"iterate", "time", "constraint", "kind", "j_from", "j_to",
            "dV", "energy_pre", "energy_post"}
    assert keys <= set(events[0])
    assert all(ev["kind"] in ("wall", "transition") for ev in events)
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["events_path"] == str(ev_path)


def test_sample_multiple_chains(tmp_path):
    out = tmp_path / "draws.csv"
    assert main(["sample", ONENORM, "--n", "25", "--seed", "5",
                 "--chains", "2", "--out", str(out)]) == 0
    c0 = tmp_path / "draws.chain0.csv"
    c1 = tmp_path / "draws.chain1.csv"
    assert c0.exists() and c1.exists() and not out.exists()
    assert c0.read_bytes() != c1.read_bytes()
    m0 = json.loads((tmp_path / "draws.chain0.csv.manifest.json").read_text())
    m1 = json.loads((tmp_path / "draws.chain1.csv.manifest.json").read_text())
    assert m0["seed"] == [5, 0] and m1["seed"] == [5, 1]


@pytest.mark.parametrize("name", ["onenorm", "pospart"])
def test_a_manifest_alone_replays_its_chains_files(tmp_path, name):
    # a chain's manifest holds all that its files depend on: the chain
    # rebuilt from the manifest alone writes the same bytes
    out, events = tmp_path / "o.csv", tmp_path / "e.jsonl"
    assert main(["sample", str(zoo.model_path(name)), "--n", "40", "--chains", "2",
                 "--burnin", "3", "--thin", "2", "--out", str(out),
                 "--events", str(events)]) == 0
    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == 2
    for path in manifests:
        m = json.loads(path.read_text())
        spec = load_model_file(m["model"])
        cfg = ChainConfig(n_samples=m["n_samples"], seed=np.random.SeedSequence(m["seed"]),
                          t_max=m["t_max"], burn_in=m["burn_in"], thin=m["thin"],
                          record_events=True)
        chain = run_chain(spec, m["region"], np.array(m["init"]), cfg)
        cli._write_samples(tmp_path / "replay.csv", spec, cfg, chain)
        cli._write_events(tmp_path / "replay.jsonl", chain.log)
        assert (tmp_path / "replay.csv").read_bytes() == Path(m["samples_path"]).read_bytes()
        assert (tmp_path / "replay.jsonl").read_bytes() == Path(m["events_path"]).read_bytes()


def test_sample_chains_run_in_turn_in_the_calling_thread(tmp_path,
                                                         monkeypatch):
    threads = []

    def recording_run_chain(*args, **kwargs):
        threads.append(threading.current_thread())
        return run_chain(*args, **kwargs)

    monkeypatch.setattr(cli, "run_chain", recording_run_chain)
    out, ev = tmp_path / "draws.csv", tmp_path / "events.jsonl"
    assert main(["sample", ONENORM, "--n", "30", "--seed", "4",
                 "--chains", "3", "--out", str(out),
                 "--events", str(ev)]) == 0
    assert threads == [threading.current_thread()] * 3
    spec = zoo.build_shipped("onenorm")
    for chain in range(3):
        ref = run_chain(spec, spec.init_region, spec.init_point,
                        ChainConfig(n_samples=30, record_events=True,
                                    seed=np.random.SeedSequence([4, chain])))
        csv = tmp_path / f"draws.chain{chain}.csv"
        rows = [line.split(",")
                for line in csv.read_text().strip().splitlines()[1:]]
        assert np.array_equal([[float(v) for v in r[:3]] for r in rows],
                              ref.X)
        log = tmp_path / f"events.chain{chain}.jsonl"
        assert [json.loads(line) for line in log.read_text().splitlines()] \
            == json.loads(json.dumps(ref.events))


# The fork tests report a CPU count through a patched os.sched_getaffinity,
# so they run the worker path on any Linux host.
forks_here = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="chains fork only where the process "
                                       "has a CPU affinity set")


def _reaped_main(argv):
    """main(argv), then check that no child process is left behind."""
    code = main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code


@pytest.fixture
def workers(monkeypatch):
    """Set the CPUs sample sees and count the children it forks."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counting_fork)
    return set_cpus


def _chain_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@forks_here
@pytest.mark.parametrize("extra", [[], ["--burnin", "3", "--thin", "2"]])
@pytest.mark.parametrize("name", ["onenorm", "pospart"])
def test_sample_outputs_do_not_depend_on_the_worker_count(
        tmp_path, monkeypatch, workers, name, extra):
    outputs = []
    for cpus in (1, 2, 3):
        forks = workers(cpus)
        run_dir = tmp_path / f"cpus{cpus}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)           # the manifests hold the paths
        assert _reaped_main(["sample", str(zoo.model_path(name)), "--n", "300",
                             "--seed", "8", "--chains", "3", "--out", "o.csv",
                             "--events", "e.jsonl"] + extra) == 0
        assert len(forks) == cpus - 1
        outputs.append(_chain_files(run_dir))
    assert len(outputs[0]) == 9              # CSV, event log, manifest x 3
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@forks_here
def test_sample_forks_only_for_chains_long_enough_without_other_threads(
        tmp_path, monkeypatch, workers):
    workers(3)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    out = str(tmp_path / "o.csv")
    n = cli.FORK_MIN_ITERATES - 3
    # burn-in 2 and thinning 1 leave each chain one iterate short
    assert _reaped_main(["sample", ONENORM, "--n", str(n), "--burnin", "2",
                         "--chains", "3", "--out", out]) == 0
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _reaped_main(["sample", ONENORM, "--n", "300", "--chains", "3",
                             "--out", out]) == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


@forks_here
def test_sample_forks_at_most_one_child_per_other_cpu(tmp_path, workers):
    forks = workers(3)
    out = tmp_path / "o.csv"
    assert _reaped_main(["sample", ONENORM, "--n", str(cli.FORK_MIN_ITERATES),
                         "--chains", "64", "--out", str(out)]) == 0
    assert len(forks) == 2
    assert len(list(tmp_path.glob("o.chain*.csv"))) == 64


@forks_here
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("failing, code, kept", [
    ({1: StallError("event cap")}, 3, {0, 2}),
    ({1: ContractError("row outside its cell"), 2: StallError("event cap")},
     1, {0}),
])
def test_a_failing_chain_fails_alone(tmp_path, capsys, monkeypatch, workers,
                                     cpus, failing, code, kept):
    workers(cpus)

    def failing_run_chain(spec, j0, x0, cfg):
        chain = cfg.seed.entropy[1]
        if chain in failing:
            raise failing[chain]
        return run_chain(spec, j0, x0, cfg)

    monkeypatch.setattr(cli, "run_chain", failing_run_chain)
    assert _reaped_main(["sample", ONENORM, "--n", "300", "--seed", "6",
                         "--chains", "3", "--out", str(tmp_path / "o.csv"),
                         "--events", str(tmp_path / "e.jsonl")]) == code
    lines = capsys.readouterr().err.splitlines()
    assert lines == [("sampling stalled: event cap {}"
                      if isinstance(exc, StallError) else str(exc))
                     for _, exc in sorted(failing.items())]
    assert _chain_files(tmp_path).keys() == {
        name for chain in kept for name in (
            f"o.chain{chain}.csv", f"e.chain{chain}.jsonl",
            f"o.chain{chain}.csv.manifest.json")}


@forks_here
def test_a_worker_that_dies_fails_its_chains(tmp_path, capsys, monkeypatch,
                                             workers):
    workers(3)
    caller = os.getpid()

    def dying_run_chain(spec, j0, x0, cfg):
        if cfg.seed.entropy[1] == 1:             # chain 1, in worker 1
            assert os.getpid() != caller
            os.kill(os.getpid(), signal.SIGKILL)
        return run_chain(spec, j0, x0, cfg)

    monkeypatch.setattr(cli, "run_chain", dying_run_chain)
    assert _reaped_main(["sample", ONENORM, "--n", "300", "--chains", "3",
                         "--out", str(tmp_path / "o.csv")]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        "chain 1: its worker process ended without a report, "
        f"exit code {-signal.SIGKILL}\n")
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "o.chain0.csv", "o.chain2.csv"]


@forks_here
def test_a_fork_that_fails_leaves_its_chains_to_the_caller(
        tmp_path, monkeypatch, workers):
    workers(1)
    assert _reaped_main(["sample", ONENORM, "--n", "300", "--chains", "3",
                         "--out", str(tmp_path / "ref.csv")]) == 0

    def no_fork():
        raise BlockingIOError("no more processes")

    workers(3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _reaped_main(["sample", ONENORM, "--n", "300", "--chains", "3",
                         "--out", str(tmp_path / "o.csv")]) == 0
    for chain in range(3):
        assert (tmp_path / f"o.chain{chain}.csv").read_bytes() \
            == (tmp_path / f"ref.chain{chain}.csv").read_bytes()


@forks_here
@pytest.mark.parametrize("bad, message", [
    (["--n", "0"], "n_samples"), (["--burnin", "-1"], "burn_in"),
    (["--thin", "0"], "thin"), (["--tmax", "0"], "t_max"),
    (["--seed", "-1"], "--seed must be at least 0, got -1"),
    (["--region", "99"], "start region 99"),
    (["--init", "0.2,0.3,0.6"], "initial point rejected"),
])
def test_bad_settings_fail_once_before_any_worker(tmp_path, capsys,
                                                  monkeypatch, workers,
                                                  bad, message):
    workers(3)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["sample", ONENORM, "--n", "300", "--chains", "3",
            "--out", str(tmp_path / "o.csv"),
            "--events", str(tmp_path / "e.jsonl")]
    assert _reaped_main(argv + bad) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert list(tmp_path.iterdir()) == []


def test_diagnose_refuses_a_negative_seed(capsys):
    assert main(["diagnose", ONENORM, "--n", "5", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "--seed must be at least 0, got -1\n"
    assert captured.out == ""


def test_sample_write_failure_leaves_no_file_of_its_chain(tmp_path, capsys):
    # chain files are written CSV, event log, manifest: the event log's
    # directory is missing, so the CSV written before it is removed
    out = tmp_path / "o.csv"
    events = tmp_path / "no_such_dir" / "e.jsonl"
    assert main(["sample", ONENORM, "--n", "5", "--chains", "2",
                 "--out", str(out), "--events", str(events)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("cannot write output" in e for e in err)
    assert list(tmp_path.iterdir()) == []


def _sample_events_match_run_chain(tmp_path, path, n, extra):
    """pwhmc sample --chains 2 --events on the model file path; each log
    line is json.dumps of run_chain's event, and the logs are returned."""
    out, ev = tmp_path / "draws.csv", tmp_path / "events.jsonl"
    assert main(["sample", path, "--n", str(n), "--seed", "5", "--chains", "2",
                 "--out", str(out), "--events", str(ev)] + extra) == 0
    spec = load_model_file(path)
    burn_in, thin = (3, 2) if extra else (0, 1)
    logs = []
    for chain in range(2):
        ref = run_chain(spec, spec.init_region, spec.init_point,
                        ChainConfig(n_samples=n, burn_in=burn_in, thin=thin,
                                    record_events=True,
                                    seed=np.random.SeedSequence([5, chain])))
        log = (tmp_path / f"events.chain{chain}.jsonl").read_text()
        assert log == "".join(json.dumps(e) + "\n" for e in ref.events)
        logs.append(ref.events)
    return logs


@pytest.mark.parametrize("extra", [[], ["--burnin", "3", "--thin", "2"]])
def test_sample_event_log_lines_are_json_dumps_of_the_events(tmp_path, extra):
    models = {name: str(zoo.model_path(name)) for name in zoo.SHIPPED}
    for name, spec in zip(("polywall", "onenorm10"), benchmark_models()):
        models[name] = write_model(tmp_path, zoo.dump_model(spec), f"{name}.model")
    for name, path in models.items():
        logs = _sample_events_match_run_chain(
            tmp_path, path, 20 if name == "onenorm10" else 50, extra)
        assert all(logs)


def test_sample_event_log_crosses_a_chunk(tmp_path):
    logs = _sample_events_match_run_chain(
        tmp_path, str(zoo.model_path("pospart")), 5000, [])
    assert min(len(events) for events in logs) > cli.EVENT_CHUNK


def event_log(events):
    """The EventLog whose rows are the event dicts events."""
    columns = {key: np.array([ev[key] for ev in events], dtype=float)
               for key in ("time", "dV", "energy_pre", "energy_post")}
    columns.update({key: np.array([ev[key] for ev in events], dtype=np.int64)
                    for key in ("iterate", "constraint", "j_from", "j_to")})
    return EventLog(wall=np.array([ev["kind"] == "wall" for ev in events], dtype=bool),
                    **columns)


def test_event_log_writes_non_finite_floats_as_json_dumps(tmp_path, monkeypatch):
    # a chunk with inf or NaN goes through json.dumps (Infinity, NaN); the
    # finite chunks around it through the format, with the same bytes
    events = [{"iterate": i, "time": t, "constraint": 2,
               "kind": ("wall", "transition")[i % 2],
               "j_from": 1, "j_to": 1 + i % 2, "dV": -0.0, "energy_pre": 0.1 * i,
               "energy_post": 1e-300}
              for i, t in enumerate([0.5, float("inf"), 2.0 / 3.0,
                                     -float("inf"), 1e17, float("nan")])]
    expected = "".join(json.dumps(ev) + "\n" for ev in events)
    assert "Infinity" in expected and "NaN" in expected
    log = event_log(events)
    assert repr(ChainOutput(None, None, None, log).events) == repr(events)
    for chunk in (cli.EVENT_CHUNK, 2):
        monkeypatch.setattr(cli, "EVENT_CHUNK", chunk)
        cli._write_events(tmp_path / "events.jsonl", log)
        assert (tmp_path / "events.jsonl").read_text() == expected
    cli._write_events(tmp_path / "events.jsonl", event_log([]))
    assert (tmp_path / "events.jsonl").read_text() == ""


def test_sample_rejects_fewer_than_one_chain(tmp_path, capsys):
    out = tmp_path / "o.csv"
    for chains in ("0", "-2"):
        assert main(["sample", ONENORM, "--n", "5", "--chains", chains,
                     "--out", str(out)]) == 1
        assert "--chains must be at least 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_rejects_bad_start(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    for start in (["--init", "0.2,0.3,0.6"],             # off the manifold
                  ["--region", "2"]):                    # outside the cell
        assert main(["sample", ONENORM, "--n", "5", "--out", out,
                     "--events", str(tmp_path / "e.jsonl")] + start) == 1
        assert "initial point" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["sample", ONENORM, "--n", "5", "--out", out,
                 "--region", "99"]) == 1
    assert main(["sample", ONENORM, "--n", "5", "--out", out,
                 "--init", "0.5,0.5"]) == 1
    capsys.readouterr()


def test_diagnose_rejects_bad_start(capsys):
    for start in (["--init", "0.2,0.3,0.6"], ["--region", "2"]):
        assert main(["diagnose", ONENORM, "--n", "5"] + start) == 1
        captured = capsys.readouterr()
        assert "initial point" in captured.err
        assert captured.out == ""


def test_malformed_init_exits_1(tmp_path, capsys):
    out = tmp_path / "o.csv"
    for argv in (["sample", ONENORM, "--n", "5", "--out", str(out),
                  "--init=0.2,x,0.5"],
                 ["diagnose", ONENORM, "--n", "5", "--init=0.2,,0.5"]):
        assert main(argv) == 1
        assert "--init" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_needs_two_rows(capsys):
    # one row has no lag-1 autocorrelation
    for n in ("1", "0"):
        assert main(["diagnose", ONENORM, "--n", n]) == 1
        captured = capsys.readouterr()
        assert "--n must be at least 2" in captured.err
        assert captured.out == ""
    assert main(["diagnose", ONENORM, "--n", "2"]) == 0
    capsys.readouterr()


def test_sample_requires_some_start(tmp_path, capsys):
    doc = json.loads(zoo.model_path("onenorm").read_text())
    del doc["init"]
    path = write_model(tmp_path, json.dumps(doc))
    out = str(tmp_path / "o.csv")
    assert main(["sample", path, "--n", "5", "--out", out]) == 1
    assert main(["sample", path, "--n", "5", "--out", out,
                 "--region", "1", "--init", "0.2,0.3,0.5"]) == 0
    capsys.readouterr()


def test_sample_refuses_invalid_model(tmp_path, capsys):
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][0]["y"] = [-2.0]
    path = write_model(tmp_path, json.dumps(doc))
    assert main(["sample", path, "--n", "5",
                 "--out", str(tmp_path / "o.csv")]) == 1
    capsys.readouterr()


def test_sample_refuses_model_with_ill_scaled_constraints(tmp_path, capsys):
    # sigma_min(A) = 1, but the sampler's QR test sees rank deficiency
    doc = {
        "n": 3, "d": 2, "J": 1, "m": 1,
        "regions": [{
            "M": np.eye(3).tolist(), "r": [0.0, 0.0, 0.0], "k": 0.0,
            "A": [[1e13, 0.0], [0.0, 1.0], [0.0, 0.0]], "y": [0.0, 0.0],
            "L_row": [1],
        }],
        "hyperplanes": {"F": [[0.0, 0.0, 1.0]], "g": [1.0]},
        "init": {"region": 1, "x": [0.0, 0.0, 0.0]},
    }
    path = write_model(tmp_path, json.dumps(doc))
    assert main(["validate", path]) == 1
    assert "FAIL  A_full_rank" in capsys.readouterr().out
    assert main(["sample", path, "--n", "5",
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert "model failed validation" in err and "A_full_rank" in err
    assert not (tmp_path / "o.csv").exists()


def test_sample_bad_chain_settings_exit_1(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    assert main(["sample", ONENORM, "--n", "0", "--out", out]) == 1
    assert "n_samples" in capsys.readouterr().err
    assert main(["sample", ONENORM, "--n", "5", "--thin", "0", "--out", out]) == 1
    assert main(["diagnose", ONENORM, "--n", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("tmax", ["nan", "inf"])
def test_non_finite_tmax_exits_1_without_output(tmp_path, capsys, tmax):
    out = tmp_path / "o.csv"
    assert main(["sample", ONENORM, "--n", "3", "--tmax", tmax,
                 "--out", str(out)]) == 1
    assert "t_max must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["diagnose", ONENORM, "--n", "3", "--tmax", tmax]) == 1
    captured = capsys.readouterr()
    assert "t_max must be positive and finite" in captured.err
    assert captured.out == ""


def test_sample_refuses_mass_jump_across_a_face(tmp_path, capsys):
    doc = json.loads(zoo.dump_model(zoo.step_line_model()))
    doc["regions"][1]["M"] = [[1.0, 0.0], [0.0, 2.0]]
    path = write_model(tmp_path, json.dumps(doc))
    out = tmp_path / "o.csv"
    assert main(["sample", path, "--n", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "model failed validation" in err and "FAIL  mass_continuity" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.model"]


def test_sample_and_diagnose_take_no_tol(tmp_path, capsys):
    # run_chain checks the start at a fixed 1e-8, so a start tolerance on
    # the command line could only loosen a check that is then redone
    out = str(tmp_path / "o.csv")
    for argv in (["sample", ONENORM, "--n", "5", "--out", out],
                 ["diagnose", ONENORM, "--n", "5"]):
        with pytest.raises(SystemExit):
            main(argv + ["--tol", "1e-6"])
    capsys.readouterr()


def test_validate_takes_no_tol(capsys):
    # validate judges a model at the one tolerance that sample and diagnose
    # act on; its FAIL lines print each residual
    with pytest.raises(SystemExit):
        main(["validate", ONENORM, "--tol", "0"])
    capsys.readouterr()


@pytest.mark.parametrize("case", sorted(invalid_models()))
def test_every_entry_point_refuses_an_invalid_model(tmp_path, capsys, case):
    # the region records are gated on validation, so neither a record nor a
    # chain exists for a model it fails, and each refusal names the checks
    spec, checks = invalid_models()[case]
    cfg = ChainConfig(n_samples=5)
    for attempt in (lambda: spec.regions,
                    lambda: run_chain(spec, 1, spec.init_point, cfg)):
        with pytest.raises(ContractError) as err:
            attempt()
        lines = str(err.value).splitlines()
        assert lines[0] == "model failed validation"
        assert sorted({line.split()[1] for line in lines[1:]}) == checks
        assert all(line.startswith("FAIL  ") for line in lines[1:])
    assert "regions" not in vars(spec)
    path = write_model(tmp_path, zoo.dump_model(spec))
    for argv in (["sample", path, "--n", "300", "--chains", "2", "--out",
                  str(tmp_path / "o.csv"), "--events", str(tmp_path / "e.jsonl")],
                 ["diagnose", path, "--n", "5"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("model failed validation\n")
        assert all(f"FAIL  {check}" in captured.err for check in checks)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.model"]


def test_validation_runs_once_per_model(tmp_path, monkeypatch):
    # the checks run once per model, and a chain reads the cached report
    # without calling validate_model again
    calls, validated = [], []
    checks, validate = model._checks, model.validate_model
    monkeypatch.setattr(model, "_checks",
                        lambda spec: calls.append(spec) or checks(spec))
    spec = zoo.one_norm_model()
    report = validate_model(spec)
    monkeypatch.setattr(model, "validate_model",
                        lambda spec: validated.append(spec) or validate(spec))
    run_chain(spec, 1, [0.2, 0.3, 0.5], ChainConfig(n_samples=5))
    run_chain(spec, 1, [0.2, 0.3, 0.5], ChainConfig(n_samples=5))
    assert validate_model(spec) is report is spec.report and calls == [spec]
    # sample loads its model once and validates it once, whatever its chains
    assert main(["sample", ONENORM, "--n", "5", "--chains", "2",
                 "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 2 and calls[1] is not spec
    assert validated == []


def test_sample_refuses_colliding_output_paths(tmp_path, capsys, monkeypatch):
    # the event log would overwrite the samples or the manifest, also
    # through a symlink: refused before the model is read, with nothing
    # written
    monkeypatch.chdir(tmp_path)
    same = str(tmp_path / "same.csv")
    (tmp_path / "link.csv").symlink_to(same)
    for argv in (["--events", same],
                 ["--events", "./same.csv"],
                 ["--events", same + ".manifest.json"],
                 ["--events", same, "--chains", "2"],
                 ["--events", "link.csv"]):
        assert main(["sample", str(zoo.model_path("pospart")), "--n", "300",
                     "--out", same] + argv) == 1
        err = capsys.readouterr().err
        assert "--out and --events" in err and str(tmp_path) in err
    assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]


def test_sample_refuses_to_write_over_its_model(tmp_path, capsys, monkeypatch):
    # the samples, their manifest or an event log would replace the model
    # document, also through a symlink: refused before the model is read,
    # naming the option, with nothing written
    text = zoo.model_path("pospart").read_text()
    for case, (model, argv, option) in enumerate((
            ("m.model", ["--out", "m.model"], "--out"),
            ("m.model", ["--out", "link.model"], "--out"),
            ("o.csv.manifest.json", ["--out", "o.csv"], "--out"),
            ("m.model", ["--out", "o.csv", "--events", "link.model"], "--events"),
            ("e.chain1.jsonl", ["--out", "o.csv", "--events", "e.jsonl",
                                "--chains", "2"], "--events"))):
        folder = tmp_path / str(case)
        folder.mkdir()
        monkeypatch.chdir(folder)
        Path(model).write_text(text)
        Path("link.model").symlink_to(model)
        assert main(["sample", model, "--n", "5"] + argv) == 1
        err = capsys.readouterr().err
        assert f"{option} would write over the model {os.path.realpath(model)}" in err
        assert Path(model).read_text() == text
        assert sorted(p.name for p in Path().iterdir()) == sorted([model, "link.model"])


def test_sample_refuses_outputs_hard_linked_to_its_model_or_each_other(
        tmp_path, capsys, monkeypatch):
    # a hard link names the same file by another path: --out hard-linked to
    # the model, and --events hard-linked to an existing --out, are refused
    # before the model is read, with nothing written
    monkeypatch.chdir(tmp_path)
    text = zoo.model_path("pospart").read_text()
    Path("m.model").write_text(text)
    os.link("m.model", "h.model")
    assert main(["sample", "m.model", "--n", "5", "--out", "h.model"]) == 1
    assert (f"--out would write over the model {os.path.realpath('m.model')}"
            in capsys.readouterr().err)
    assert Path("m.model").read_text() == text
    Path("o.csv").write_text("kept\n")
    os.link("o.csv", "e.jsonl")
    assert main(["sample", "m.model", "--n", "5", "--out", "o.csv",
                 "--events", "e.jsonl"]) == 1
    err = capsys.readouterr().err
    assert "--out and --events" in err and str(tmp_path) in err
    assert Path("o.csv").read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "e.jsonl", "h.model", "m.model", "o.csv"]


def test_start_region_out_of_range_exits_1_without_output(tmp_path, capsys):
    # run_chain's start check is the only range check on --region
    out = tmp_path / "o.csv"
    assert main(["sample", ONENORM, "--n", "5", "--region", "9",
                 "--out", str(out), "--events", str(tmp_path / "e.jsonl")]) == 1
    assert "start region" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["diagnose", ONENORM, "--n", "5", "--region", "0"]) == 1
    captured = capsys.readouterr()
    assert "start region" in captured.err
    assert captured.out == ""


def test_event_cap_exits_3_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sampler, "MAX_EVENTS_PER_ITERATE", 2)
    assert main(["sample", ONENORM, "--n", "5",
                 "--out", str(tmp_path / "o.csv")]) == 3
    assert "event cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["diagnose", ONENORM, "--n", "5"]) == 3
    captured = capsys.readouterr()
    assert "event cap" in captured.err
    assert captured.out == ""


def test_sample_unwritable_output_exits_2(tmp_path, capsys):
    out = str(tmp_path / "no_such_dir" / "o.csv")
    assert main(["sample", ONENORM, "--n", "5", "--out", out]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_sample_region_init_override(tmp_path):
    path = write_model(tmp_path, zoo.dump_model(zoo.step_line_model()))
    out = tmp_path / "o.csv"
    # values starting with '-' need the --init=... form under argparse
    assert main(["sample", path, "--n", "20", "--seed", "2",
                 "--region", "2", "--init=-1,0", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert manifest["region"] == 2
    assert manifest["init"] == [-1.0, 0.0]


def test_diagnose_runs_clean(capsys):
    assert main(["diagnose", ONENORM, "--n", "300", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    assert "max manifold residual" in text
    assert "max energy drift" in text
    resid = float(text.split("max manifold residual:")[1].split()[0])
    assert resid < 1e-8
    drift = float(text.split("max energy drift (rel):")[1].split()[0])
    assert drift < 1e-8
    assert "Euclidean energy" not in text       # identity mass: no caveat


def test_diagnose_from_a_face_reports_no_breach(capsys):
    # a start on the edge between two octants, leaving through it
    assert main(["diagnose", ONENORM, "--region", "1", "--init", "0.5,0.5,0",
                 "--n", "200", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    assert float(text.split("max constraint breach:")[1].split()[0]) == 0.0


def test_diagnose_step_occupancy(tmp_path, capsys):
    path = write_model(tmp_path, zoo.dump_model(zoo.step_line_model()))
    assert main(["diagnose", path, "--seed", "6"]) == 0
    text = capsys.readouterr().out
    occ = text.split("region occupancy:")[1].splitlines()[0].split()
    counts = {int(p.split(":")[0]): int(p.split(":")[1]) for p in occ}
    assert abs(counts[1] / 2000 - 2.0 / 3.0) <= 0.03


def test_diagnose_lists_visited_regions_only(capsys):
    # two kept rows visit at most two of onenorm's 8 regions
    assert main(["diagnose", str(zoo.model_path("onenorm")),
                 "--n", "2", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    occ = text.split("region occupancy:")[1].splitlines()[0].split()
    counts = [int(p.split(":")[1]) for p in occ]
    assert sum(counts) == 2 and min(counts) > 0
    assert f"regions visited:         {len(counts)}/8\n" in text


def test_diagnose_non_identity_mass_prints_no_caveat(capsys):
    # the drift is measured in the M metric, so no model needs a caveat
    assert main(["diagnose", str(zoo.model_path("ntop")),
                 "--n", "200", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    assert "max energy drift" in text
    assert "Euclidean energy" not in text


def test_console_script_entry_point():
    # the package may be importable here only through pytest's pythonpath
    src = str(Path(pwhmc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pwhmc.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_package_runs_without_scipy():
    # the package depends on numpy alone: with every scipy import failing,
    # it validates and samples a shipped model
    src = str(Path(pwhmc.__file__).resolve().parent.parent)
    code = """if True:
        import sys
        sys.modules["scipy"] = None          # import scipy raises ImportError
        try:
            import scipy
        except ImportError:
            pass
        else:
            raise SystemExit("scipy imported")
        from pwhmc import ChainConfig, load_model_file, run_chain, validate_model, zoo
        spec = load_model_file(zoo.model_path("onenorm"))
        assert validate_model(spec).passed
        out = run_chain(spec, spec.init_region, spec.init_point,
                        ChainConfig(n_samples=50, seed=1))
        print(out.X.shape)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(50, 3)"


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["bogus"])
