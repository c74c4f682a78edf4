"""Problem-definition module: parsing, queries, and validation."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import members_of, rand_continuous_pair
from pwhmc.cli import main
from pwhmc.dynamics import region_table
from pwhmc.errors import ContractError, ModelFormatError
from pwhmc.model import (
    cell_slack,
    cell_table,
    ell,
    load_model,
    validate_model,
)
from pwhmc import zoo
from pwhmc.oracle import conditional_gaussian_moments


def doc_of(spec):
    return json.loads(zoo.dump_model(spec))


def test_load_round_trip_preserves_arrays():
    # positive_part_model is built from a "mean": true document; the dump
    # writes the linear coefficient it was converted to, so r survives
    for spec in (zoo.one_norm_model(), zoo.positive_part_model()):
        again = load_model(zoo.dump_model(spec))
        for name in ("M", "r", "k", "A", "y", "F", "g", "L"):
            assert np.array_equal(getattr(spec, name), getattr(again, name))
        assert "mean" not in doc_of(spec)
        assert again.init_region == spec.init_region


def test_load_rejects_bad_json():
    with pytest.raises(ModelFormatError, match="JSON"):
        load_model("{not json")


def test_load_names_missing_field():
    doc = doc_of(zoo.step_line_model())
    del doc["regions"][0]["A"]
    with pytest.raises(ModelFormatError, match=r"regions\[0\]"):
        load_model(json.dumps(doc))


def test_load_checks_shapes_and_finiteness():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["r"] = [0.0, 0.0, 0.0]
    with pytest.raises(ModelFormatError, match="shape"):
        load_model(json.dumps(doc))
    doc = doc_of(zoo.step_line_model())
    doc["hyperplanes"]["g"] = [float("nan")]
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(json.dumps(doc))


def test_load_checks_lookup_range_and_init():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][0]["L_row"] = [5]
    with pytest.raises(ModelFormatError, match="L_row"):
        load_model(json.dumps(doc))
    doc = doc_of(zoo.step_line_model())
    doc["init"]["region"] = 3
    with pytest.raises(ModelFormatError, match="init.region"):
        load_model(json.dumps(doc))


def test_load_allows_zero_hyperplanes():
    spec = zoo.sum_constraint_model(3, 1.0)
    assert spec.m == 0
    assert cell_table(spec).start.tolist() == [0, 0]
    assert members_of(spec, np.zeros(3)) == {1}
    assert cell_slack(spec, 1, np.zeros(3)) == np.inf


def piece_energy(reg, x):
    """The sampler's potential at a point x of region reg's piece:
    1/2 |z|^2 + base in its whitened coordinates z."""
    z = reg.coords(x)
    return 0.5 * float(z @ z) + reg.base


def log_volume(M, A):
    """1/2 log det M + 1/2 log det(A'M^-1 A): the constant c_j that the
    sampler adds to V_j."""
    return 0.5 * (np.linalg.slogdet(M)[1]
                  + np.linalg.slogdet(A.T @ np.linalg.inv(M) @ A)[1])


def test_potential_quadratic_values():
    # A = (0, 1)' and M = I on both sides: c_j = 0
    spec = zoo.step_line_model(dk=0.25)
    table = region_table(spec)
    x = np.array([1.5, 0.0])
    assert piece_energy(table[1], x) == pytest.approx(0.5 * 1.5**2)
    assert piece_energy(table[2], x) == pytest.approx(0.5 * 1.5**2 + 0.25)


def test_potential_of_mean_document():
    spec = zoo.positive_part_model()              # "mean": true, mu = 1, M = I
    x = np.array([1.25, 0.5, 0.75])
    jz = 1
    mu = np.ones(3)
    expected = 0.5 * float((x - mu) @ spec.M[jz] @ (x - mu)) \
        + float(spec.k[jz]) - 0.5 * float(mu @ spec.M[jz] @ mu) \
        + log_volume(spec.M[jz], spec.A[jz])
    assert abs(float(ell(spec, 2, x)[0])) < 1e-12      # x is on the piece
    assert piece_energy(region_table(spec)[2], x) == pytest.approx(expected,
                                                                   abs=1e-12)


def _mean_document(M, mus, k):
    # two regions of the plane x3 = 0, on either side of x1 = 0
    A, y = [[0.0], [0.0], [1.0]], [0.0]
    return {
        "n": 3, "d": 1, "J": 2, "m": 1, "mean": True,
        "regions": [
            {"M": M.tolist(), "r": list(mu), "k": kj, "A": A, "y": y,
             "L_row": [L]}
            for mu, kj, L in zip(mus, k, (2, -1))
        ],
        "hyperplanes": {"F": [[1.0, 0.0, 0.0]], "g": [0.0]},
        "init": {"region": 1, "x": [0.5, 0.0, 0.0]},
    }


def test_mean_document_loads_linear_coefficient():
    M = np.array([[4.0, 1.0, 0.5], [1.0, 2.0, -0.3], [0.5, -0.3, 1.5]])
    mus = ([1.0, -0.5, 2.0], [-0.7, 0.3, -1.1])
    k = (0.2, -0.4)
    spec = load_model(json.dumps(_mean_document(M, mus, k)))
    assert validate_model(spec).passed
    table = region_table(spec)
    rng = np.random.default_rng(5)
    for jz, mu in enumerate(np.array(mus)):
        assert np.array_equal(spec.r[jz], M @ mu)
        reg = table[jz + 1]
        mom = conditional_gaussian_moments(mu, np.linalg.inv(M),
                                           spec.A[jz], -spec.y[jz])
        assert np.allclose(reg.x_p, mom.m, rtol=0, atol=1e-12)
        for _ in range(5):
            x = rng.normal(size=3) * [1.0, 1.0, 0.0]     # on the plane x3 = 0
            expected = 0.5 * (x - mu) @ M @ (x - mu) + k[jz] \
                - 0.5 * mu @ M @ mu + log_volume(M, spec.A[jz])
            assert piece_energy(reg, x) == pytest.approx(expected, rel=0,
                                                         abs=1e-12)


@pytest.mark.parametrize("key, value", [
    ("n", 2.9), ("d", True), ("J", "1"), ("m", 1.0), ("init.region", 1.0),
])
def test_load_rejects_non_integer_sizes(key, value):
    doc = doc_of(zoo.step_line_model())
    if key == "init.region":
        doc["init"]["region"] = value
    else:
        doc[key] = value
    with pytest.raises(ModelFormatError, match=f"'{key}' must be an integer"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("entry", [2.7, 2.0, True, "2"])
def test_load_rejects_non_integer_lookup_entries(entry):
    doc = doc_of(zoo.step_line_model())
    doc["regions"][0]["L_row"] = [entry]
    with pytest.raises(ModelFormatError,
                       match=r"'regions\[0\]\.L_row' must be an integer"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_load_rejects_non_boolean_mean(flag):
    doc = doc_of(zoo.step_line_model())
    doc["mean"] = flag
    with pytest.raises(ModelFormatError, match="'mean'"):
        load_model(json.dumps(doc))
    doc["mean"] = False                      # a JSON boolean loads
    assert np.array_equal(load_model(json.dumps(doc)).r, np.zeros((2, 2)))


@pytest.mark.parametrize("key, value", [
    ("regions[0]", 3), ("regions[0]", [1.0, 0.0]), ("init", 1),
    ("hyperplanes", [[1.0, 0.0]]),
])
def test_load_requires_json_objects(tmp_path, capsys, key, value):
    doc = doc_of(zoo.step_line_model())
    if key == "regions[0]":
        doc["regions"][0] = value
    else:
        doc[key] = value
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"'{key}' must be a JSON object")):
        load_model(json.dumps(doc))
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["0.25", True, float("nan")])
def test_load_requires_finite_number_k(value):
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["k"] = value
    with pytest.raises(ModelFormatError,
                       match=re.escape("'regions[1].k' must be a finite number")):
        load_model(json.dumps(doc))
    doc["regions"][1]["k"] = 1                   # a JSON integer loads
    assert load_model(json.dumps(doc)).k[1] == 1.0


@pytest.mark.parametrize("path, value, message", [
    (("regions", 0, "M"), [["1", "0"], ["0", "1"]], "JSON numbers only"),
    (("regions", 0, "M"), [[True, False], [False, True]], "JSON numbers only"),
    (("regions", 0, "M"), [[1.0, False], [0.0, 1.0]], "JSON numbers only"),
    (("hyperplanes", "g"), ["0"], "JSON numbers only"),
    (("init", "x"), ["0.5", "0.0"], "JSON numbers only"),
    (("regions", 0, "M"), [[1.0, 0.0], [0.0]], "shape"),
    (("regions", 0, "r"), {"x": 1}, "shape"),
    (("regions", 0, "L_row"), {"a": 1}, "shape"),
    (("regions", 0, "r"), [10 ** 400, 0], "out of range"),
], ids=["M-strings", "M-booleans", "M-mixed-boolean", "g-string",
        "init.x-strings", "M-ragged", "r-object", "L_row-object",
        "r-huge-integer"])
def test_load_rejects_non_numeric_arrays(tmp_path, capsys, path, value, message):
    doc = doc_of(zoo.step_line_model())
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    name = ".".join(str(p) for p in path).replace(".0.", "[0].")
    with pytest.raises(ModelFormatError, match=re.escape(f"'{name}'") + ".*" + message):
        load_model(json.dumps(doc))
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "bad model document" in capsys.readouterr().err


def test_ell_zero_on_manifold():
    spec = zoo.one_norm_model()
    x = np.array([0.2, 0.3, 0.5])
    assert np.linalg.norm(ell(spec, 1, x)) < 1e-14
    assert np.linalg.norm(ell(spec, 1, 2 * x)) > 0.5


def test_cell_table_signs():
    spec = zoo.step_line_model()
    cells = cell_table(spec)
    assert cells.start.tolist() == [0, 1, 2]
    # inside region 1 (x1 > 0) the adjusted constraint is positive
    assert cells.F[0] @ np.array([2.0, 0.0]) + cells.g[0] > 0
    assert cells.F[1] @ np.array([-2.0, 0.0]) + cells.g[1] > 0
    assert (cells.t + 1).tolist() == [2, 1]
    assert (cells.i + 1).tolist() == [1, 1]


def _benchmark_models():
    # polywall-256 and onenorm10, from the benchmark's own generators
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    module_spec = importlib.util.spec_from_file_location("bench_models", path)
    bench = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench)
    return [load_model(bench.polywall_document(256, 1.0, 1)),
            load_model(bench.onenorm_document(10, 1))]


def test_region_rows_match_lookup_table():
    specs = [zoo.build_shipped(name) for name in zoo.SHIPPED]
    for spec in specs + _benchmark_models():
        table = region_table(spec)
        for j in range(1, spec.J + 1):
            row = spec.L[j - 1]
            on = row != 0
            sign = np.sign(row[on]).astype(float)
            reg = table[j]
            F = sign[:, None] * spec.F[on]
            assert np.array_equal(reg.G, F @ reg.S)
            assert np.allclose(reg.h - F @ reg.x_p, sign * spec.g[on],
                               rtol=0, atol=1e-12)
            assert reg.L_j == np.abs(row[on]).tolist()
            assert reg.idx == (np.flatnonzero(on) + 1).tolist()


def test_stacked_point_queries_match_pointwise_loop(rng):
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        R = rng.integers(1, spec.J + 1, size=1000)
        X = rng.normal(size=(1000, spec.n))
        want_ell, want_slack = [], []
        for j, x in zip(R, X):
            want_ell.append(spec.A[j - 1].T @ x + spec.y[j - 1])
            row = spec.L[j - 1]
            vals = [np.sign(row[i]) * (spec.F[i] @ x + spec.g[i])
                    for i in range(spec.m) if row[i] != 0]
            want_slack.append(min(vals, default=np.inf))
        assert np.allclose(ell(spec, R, X), want_ell, rtol=0, atol=1e-12)
        assert np.allclose(cell_slack(spec, R, X), want_slack, rtol=0, atol=1e-12)
        assert np.allclose(ell(spec, R[0], X), ell(spec, np.full(1000, R[0]), X))
        assert cell_slack(spec, R[1], X[1]) == pytest.approx(want_slack[1])
    spec = zoo.sum_constraint_model(3, 1.0)
    assert np.all(cell_slack(spec, np.ones(5, dtype=int), np.zeros((5, 3))) == np.inf)


@pytest.mark.parametrize("query", [ell, cell_slack])
@pytest.mark.parametrize("R", [0, 9, [1, 0]], ids=["zero", "past-J", "stack"])
def test_point_queries_reject_labels_outside_1_to_J(query, R):
    # label 0 must not wrap around to region J, nor J + 1 fail as an IndexError
    spec = zoo.one_norm_model()
    with pytest.raises(ContractError, match="out of range 1..8"):
        query(spec, R, np.array([-0.2, -0.3, -0.5]))


def test_membership_boundary_point_is_shared():
    spec = zoo.one_norm_model()
    # on the face x1 = 0 between octants (+,+,+) and (-,+,+)
    x = np.array([0.0, 0.4, 0.6])
    members = members_of(spec, x, tol=1e-9)
    assert {1, 5} <= members


def test_membership_interior_is_exclusive():
    spec = zoo.one_norm_model()
    assert members_of(spec, np.array([0.2, 0.3, 0.5]), tol=1e-9) == {1}


def test_validate_passes_shipped_models():
    for name in zoo.SHIPPED:
        report = validate_model(zoo.build_shipped(name))
        assert report.passed, report.format()


def test_validate_catches_broken_reciprocity():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["L_row"] = [1]          # same sign as region 1's entry
    report = validate_model(load_model(json.dumps(doc)))
    assert any(c.name == "reciprocity" and not c.passed for c in report.checks)


def test_validate_catches_broken_continuity():
    doc = doc_of(zoo.one_norm_model())
    doc["regions"][0]["y"] = [-2.0]
    report = validate_model(load_model(json.dumps(doc)))
    bad = [c for c in report.checks if c.name == "continuity" and not c.passed]
    assert bad and max(c.residual for c in bad) >= 0.5


def test_validate_onenorm_entry_counts():
    # 8 octants x 3 coordinate planes: 24 active entries, all transitions,
    # and 12 faces, each checked once
    report = validate_model(zoo.one_norm_model())
    counts = {}
    for c in report.checks:
        counts[c.name] = counts.get(c.name, 0) + 1
    assert counts == {"A_full_rank": 8, "M_spd": 8, "normal_escapes_A": 24,
                      "reciprocity": 24, "face_uniqueness": 24,
                      "continuity": 12, "mass_continuity": 12}


def _two_piece_document(f, g, A1, y1, A2, y2):
    # two pieces of a manifold in R^n meeting at the hyperplane f'x + g = 0
    n, d = A1.shape
    return json.dumps({
        "n": n, "d": d, "J": 2, "m": 1,
        "regions": [
            {"M": np.eye(n).tolist(), "r": [0.0] * n, "k": 0.0,
             "A": A.tolist(), "y": np.asarray(y).tolist(), "L_row": [L]}
            for A, y, L in ((A1, y1, 2), (A2, y2, -1))
        ],
        "hyperplanes": {"F": [f.tolist()], "g": [float(g)]},
    })


def _lstsq_gap(f, g, A1, y1, A2, y2):
    # A2'x + y2 vanishes on the face {A1'x + y1 = 0, f'x + g = 0} iff each
    # of its rows, as a functional of (x, 1), is a combination of the
    # face's defining rows
    G = np.column_stack([np.column_stack([A1, f]).T, np.append(y1, g)])
    H = np.column_stack([A2.T, y2])
    W, *_ = np.linalg.lstsq(G.T, H.T, rcond=None)
    return float(np.linalg.norm(G.T @ W - H.T))


def test_validate_continuity_matches_lstsq_oracle(rng):
    verdicts = []
    for c in range(200):
        d = 1 + c % 2
        n = int(rng.integers(d + 2, 7))
        f, g, A1, y1, A2, y2 = rand_continuous_pair(rng, n, d)
        if c % 4 >= 2:
            y2 = y2 + 0.1 * rng.normal(size=d)
        spec = load_model(_two_piece_document(f, g, A1, y1, A2, y2))
        [face] = [c for c in validate_model(spec, tol=1e-7).checks
                  if c.name == "continuity"]
        expected = _lstsq_gap(f, g, A1, y1, A2, y2) < 1e-7
        assert face.passed == expected, (c, face.format())
        verdicts.append(face.passed)
    assert sum(verdicts) == 100


def test_validate_catches_mass_jump():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["M"] = [[1.0, 0.0], [0.0, 2.0]]
    report = validate_model(load_model(json.dumps(doc)))
    assert [(c.name, c.residual) for c in report.failures()] == [
        ("mass_continuity", 1.0)]


def test_validate_catches_non_spd():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["M"] = [[1.0, 0.0], [0.0, -1.0]]
    report = validate_model(load_model(json.dumps(doc)))
    # the margin is each region's smallest eigenvalue
    assert [(c.subject, c.passed, c.residual) for c in report.checks
            if c.name == "M_spd"] == [("region 1", True, 1.0),
                                      ("region 2", False, -1.0)]
    report = validate_model(zoo.positive_part_model())
    assert [(c.passed, c.residual) for c in report.checks
            if c.name == "M_spd"] == [(True, 1.0)] * 3


def _two_plane_document(A):
    # x restricted to A'x = 0 in R^3, with one wall x3 = -1
    return json.dumps({
        "n": 3, "d": 2, "J": 1, "m": 1,
        "regions": [{
            "M": np.eye(3).tolist(), "r": [0.0, 0.0, 0.0], "k": 0.0,
            "A": A, "y": [0.0, 0.0], "L_row": [1],
        }],
        "hyperplanes": {"F": [[0.0, 0.0, 1.0]], "g": [1.0]},
        "init": {"region": 1, "x": [0.0, 0.0, 0.0]},
    })


@pytest.mark.parametrize("A", [
    [[1e13, 0.0], [0.0, 1.0], [0.0, 0.0]],     # sigma_min = 1, scale 1e13
    [[1.0, 1e12], [0.0, 1e-11], [0.0, 0.0]],   # |diag R| >= 1e-11, sigma_min ~ 1e-23
])
def test_validate_rank_check_is_the_samplers(A):
    spec = load_model(_two_plane_document(A))
    report = validate_model(spec)
    assert [c.passed for c in report.checks if c.name == "A_full_rank"] == [False]
    with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
        region_table(spec)[1]


def test_validate_catches_normal_in_column_space():
    # manifold x1 = 0 with an active boundary also normal to x1
    doc = {
        "n": 2, "d": 1, "J": 1, "m": 1, "mean": False,
        "regions": [{
            "M": [[1.0, 0.0], [0.0, 1.0]], "r": [0.0, 0.0], "k": 0.0,
            "A": [[1.0], [0.0]], "y": [0.0], "L_row": [1],
        }],
        "hyperplanes": {"F": [[1.0, 0.0]], "g": [1.0]},
    }
    report = validate_model(load_model(json.dumps(doc)))
    assert any(c.name == "normal_escapes_A" and not c.passed
               for c in report.checks)
