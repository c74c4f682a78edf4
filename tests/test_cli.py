"""Command-line behavior: exit codes, file outputs, reproducibility."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pwhmc
from pwhmc import cli, sampler, zoo
from pwhmc.cli import main
from pwhmc.sampler import ChainConfig, run_chain

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


def test_validate_honours_zero_tol(capsys):
    assert main(["validate", ONENORM]) == 0
    # onenorm's continuity residuals are round-off (about 4e-16 to 8e-16),
    # so a zero tolerance fails them
    assert main(["validate", ONENORM, "--tol", "0"]) == 1
    assert "FAIL  continuity" in capsys.readouterr().out


def test_validate_zero_tol_passes_exact_faces(tmp_path, capsys):
    # step_line's face residuals are exactly 0: continuity and
    # mass_continuity compare them to the tolerance the same way
    path = write_model(tmp_path, zoo.dump_model(zoo.step_line_model()))
    assert main(["validate", path, "--tol", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  continuity" in out and "PASS  mass_continuity" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_rejects_tol_outside_zero_to_inf(capsys, tol):
    assert main(["validate", ONENORM, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""


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


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["bogus"])
