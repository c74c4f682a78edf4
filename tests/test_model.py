"""Problem-definition module: parsing, queries, and validation."""

import json
import re

import numpy as np
import pytest

from pwhmc.cli import main
from pwhmc.dynamics import region_table
from pwhmc.errors import ModelFormatError
from pwhmc.model import (
    load_model,
    min_slack,
    ell,
    region_boundaries,
    region_membership,
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
    assert len(region_boundaries(spec, 1)) == 0
    assert region_membership(spec, np.zeros(3)) == {1}
    assert min_slack(spec, 1, np.zeros(3)) == np.inf


def test_potential_quadratic_values():
    spec = zoo.step_line_model(dk=0.25)
    table = region_table(spec)
    x = np.array([1.5, 0.0])
    assert table[1].potential(x) == pytest.approx(0.5 * 1.5**2)
    assert table[2].potential(x) == pytest.approx(0.5 * 1.5**2 + 0.25)


def test_potential_of_mean_document():
    spec = zoo.positive_part_model()              # "mean": true, mu = 1, M = I
    x = np.array([1.25, 0.5, 0.75])
    jz = 1
    mu = np.ones(3)
    expected = 0.5 * float((x - mu) @ spec.M[jz] @ (x - mu)) \
        + float(spec.k[jz]) - 0.5 * float(mu @ spec.M[jz] @ mu)
    assert region_table(spec)[2].potential(x) == pytest.approx(expected, abs=1e-12)


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
            x = rng.normal(size=3)
            expected = 0.5 * (x - mu) @ M @ (x - mu) + k[jz] \
                - 0.5 * mu @ M @ mu
            assert reg.potential(x) == pytest.approx(expected, rel=0, abs=1e-12)


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


def test_ell_zero_on_manifold():
    spec = zoo.one_norm_model()
    x = np.array([0.2, 0.3, 0.5])
    assert np.linalg.norm(ell(spec, 1, x)) < 1e-14
    assert np.linalg.norm(ell(spec, 1, 2 * x)) > 0.5


def test_region_boundaries_signs():
    spec = zoo.step_line_model()
    rb1 = region_boundaries(spec, 1)
    rb2 = region_boundaries(spec, 2)
    # inside region 1 (x1 > 0) the adjusted constraint is positive
    assert rb1.F_j @ np.array([2.0, 0.0]) + rb1.g_j > 0
    assert rb2.F_j @ np.array([-2.0, 0.0]) + rb2.g_j > 0
    assert list(rb1.L_j) == [2] and list(rb2.L_j) == [1]
    assert list(rb1.idx) == [1]


def test_region_membership_boundary_point_is_shared():
    spec = zoo.one_norm_model()
    # on the face x1 = 0 between octants (+,+,+) and (-,+,+)
    x = np.array([0.0, 0.4, 0.6])
    members = region_membership(spec, x)
    assert {1, 5} <= members


def test_membership_interior_is_exclusive():
    spec = zoo.one_norm_model()
    assert region_membership(spec, np.array([0.2, 0.3, 0.5])) == {1}


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


def test_validate_catches_non_spd():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][0]["M"] = [[1.0, 0.0], [0.0, -1.0]]
    report = validate_model(load_model(json.dumps(doc)))
    assert any(c.name == "M_spd" and not c.passed for c in report.checks)


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
