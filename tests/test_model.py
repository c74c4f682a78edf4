"""Problem-definition module: parsing, queries, and validation."""

import json
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from brute_force import region_arrays
from conftest import (
    anisotropic_mass,
    benchmark_models,
    coords,
    members_of,
    oblique_wall_model,
    plane_model,
    polygon_model,
    rand_continuous_pair,
    rand_spd,
    scaled_line_model,
    sign_cells_model,
    unreachable_overlap_model,
    wall_box_model,
)
from pwhmc.cli import main
from pwhmc.errors import ContractError, ModelFormatError
from pwhmc.model import (
    cell_slack,
    cell_table,
    ell,
    load_model,
    load_model_file,
    validate_model,
)
from pwhmc import model, zoo
from pwhmc.oracle import conditional_gaussian_moments, exact_sample
from pwhmc.sampler import ChainConfig, run_chain
from pwhmc.subspace import NORMAL_DEGENERACY_TOL, ode_param


def doc_of(spec):
    return json.loads(zoo.dump_model(spec))


def kind(report, name):
    [check] = [c for c in report.checks if c.name == name]
    return check


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


def piece_energy(spec, j, x):
    """The sampler's potential at a point x of region j's piece:
    1/2 |z|^2 + base_j in its whitened coordinates z."""
    z = coords(spec, j, x)
    return 0.5 * float(z @ z) + float(spec.cells.base[j - 1])


def log_volume(M, A):
    """1/2 log det M + 1/2 log det(A'M^-1 A): the constant c_j that the
    sampler adds to V_j."""
    return 0.5 * (np.linalg.slogdet(M)[1]
                  + np.linalg.slogdet(A.T @ np.linalg.inv(M) @ A)[1])


def test_potential_quadratic_values():
    # A = (0, 1)' and M = I on both sides: c_j = 0
    spec = zoo.step_line_model(dk=0.25)
    x = np.array([1.5, 0.0])
    assert piece_energy(spec, 1, x) == pytest.approx(0.5 * 1.5**2)
    assert piece_energy(spec, 2, x) == pytest.approx(0.5 * 1.5**2 + 0.25)


def test_potential_of_mean_document():
    spec = zoo.positive_part_model()              # "mean": true, mu = 1, M = I
    x = np.array([1.25, 0.5, 0.75])
    jz = 1
    mu = np.ones(3)
    expected = 0.5 * float((x - mu) @ spec.M[jz] @ (x - mu)) \
        + float(spec.k[jz]) - 0.5 * float(mu @ spec.M[jz] @ mu) \
        + log_volume(spec.M[jz], spec.A[jz])
    assert abs(float(ell(spec, 2, x)[0])) < 1e-12      # x is on the piece
    assert piece_energy(spec, 2, x) == pytest.approx(expected, abs=1e-12)


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
    table = spec.regions
    rng = np.random.default_rng(5)
    for jz, mu in enumerate(np.array(mus)):
        assert np.array_equal(spec.r[jz], M @ mu)
        mom = conditional_gaussian_moments(mu, np.linalg.inv(M),
                                           spec.A[jz], -spec.y[jz])
        assert np.allclose(spec.cells.x_p[jz], mom.m, rtol=0, atol=1e-12)
        for _ in range(5):
            x = rng.normal(size=3) * [1.0, 1.0, 0.0]     # on the plane x3 = 0
            expected = 0.5 * (x - mu) @ M @ (x - mu) + k[jz] \
                - 0.5 * mu @ M @ mu + log_volume(M, spec.A[jz])
            assert piece_energy(spec, jz + 1, x) == pytest.approx(
                expected, rel=0, abs=1e-12)


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
    with pytest.raises(ModelFormatError, match=re.escape("'regions[1].k' ")
                       + "(must hold JSON numbers only|contains non-finite)"):
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


@pytest.mark.parametrize("key, value, name", [
    ("k", 10 ** 30, "regions[0].k"), ("n", 10 ** 30, "n"),
    ("m", 2 ** 40, "regions[0].L_row"),
])
def test_load_rejects_huge_sizes_and_numbers(key, value, name):
    # k once raised numpy's TypeError, n numpy's dimension ValueError and
    # m an allocation error for (J, m); no array is sized from n, m or J
    doc = json.loads(zoo.model_path("onenorm").read_text())
    if key == "k":
        doc["regions"][0]["k"] = value
    else:
        doc[key] = value
    with pytest.raises(ModelFormatError, match=re.escape(f"field '{name}' ")):
        load_model(json.dumps(doc))


def test_load_integers_must_fit_in_64_bits():
    doc = doc_of(zoo.step_line_model())
    doc["regions"][1]["r"] = [2 ** 63 - 1, -2 ** 63]     # the int64 extremes
    assert load_model(json.dumps(doc)).r[1].tolist() == [2.0 ** 63, -2.0 ** 63]
    for value in (2 ** 63, -2 ** 63 - 1, 10 ** 30):
        doc["regions"][1]["r"] = [value, 0]
        with pytest.raises(ModelFormatError,
                           match=re.escape("'regions[1].r' is out of range")):
            load_model(json.dumps(doc))
    doc["regions"][1]["r"] = [1e300, 0.0]                # a float that large loads
    assert load_model(json.dumps(doc)).r[1, 0] == 1e300


def test_symmetrizing_M_cannot_overflow():
    # 0.5 (M + M') overflowed to inf with a RuntimeWarning; the halves
    # 0.5 M + 0.5 M' keep every finite entry finite
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][7]["M"][0][1] = doc["regions"][7]["M"][1][0] = 1e308
    doc["regions"][6]["M"][2][2] = 1.7e308
    doc["regions"][5]["M"][0][2], doc["regions"][5]["M"][2][0] = 1e308, 9e307
    M = load_model(json.dumps(doc)).M
    assert M[7, 0, 1] == M[7, 1, 0] == 1e308
    assert M[6, 2, 2] == 1.7e308
    assert M[5, 0, 2] == M[5, 2, 0] == 0.5 * 1e308 + 0.5 * 9e307
    assert np.isfinite(M).all()


def test_mean_conversion_that_overflows_names_the_region():
    doc = _mean_document(np.diag([1e308, 1.0, 1.0]), ([0.0, 0.0, 0.0],
                                                     [10.0, 0.0, 0.0]), (0.0, 0.0))
    with pytest.raises(ModelFormatError,
                       match=re.escape("'regions[1].r' overflows")):
        load_model(json.dumps(doc))


def _random_document(rng, J, mean):
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, n))
    m = int(rng.integers(0, 5))
    regions = []
    for _ in range(J):
        M = rand_spd(rng, n) + 1e-9 * rng.normal(size=(n, n))   # not symmetric
        regions.append({"M": M.tolist(), "r": rng.normal(size=n).tolist(),
                        "k": float(rng.normal()),
                        "A": rng.normal(size=(n, d)).tolist(),
                        "y": rng.normal(size=d).tolist(),
                        "L_row": rng.integers(-J, J + 1, size=m).tolist()})
    return {"n": n, "d": d, "J": J, "m": m, "mean": mean, "regions": regions,
            "hyperplanes": {"F": rng.normal(size=(m, n)).tolist(),
                            "g": rng.normal(size=m).tolist()}}


@pytest.mark.parametrize("mean", [False, True])
def test_stacked_load_matches_per_region_conversion(rng, mean):
    for J in (1, 2, 3, 17, 64):
        for _ in range(4):
            doc = _random_document(rng, J, mean)
            spec = load_model(json.dumps(doc))
            ref = region_arrays(doc)
            for name in ("M", "r", "k", "A", "y", "L"):
                got = getattr(spec, name)
                assert got.dtype == ref[name].dtype
                assert got.tobytes() == ref[name].tobytes(), (J, name)
            # the cell table's stacked V_j(x_p) + c_j and S'M are each
            # region's own products, bit for bit
            cells = spec.cells
            for jz in range(J):
                x_p, M, r = cells.x_p[jz], spec.M[jz], spec.r[jz]
                c = ode_param(M, r, spec.A[jz], spec.y[jz])[2]
                own = (0.5 * float(x_p.dot(M).dot(x_p)) - float(r.dot(x_p))
                       + float(spec.k[jz]) + c)
                assert cells.base[jz].tobytes() == np.float64(own).tobytes()
                assert cells.SM[jz].tobytes() == (cells.S[jz].T @ M).tobytes()


@pytest.mark.parametrize("key, shape", [
    ("M", (3, 3)), ("r", (3,)), ("k", ()), ("A", (3, 1)), ("y", (1,)),
    ("L_row", (3,)),
])
@pytest.mark.parametrize("jz", [0, 1, 7])
def test_stacked_load_names_the_faulty_region(key, shape, jz):
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][jz][key] = [1, 2]
    with pytest.raises(ModelFormatError) as err:
        load_model(json.dumps(doc))
    assert str(err.value) == (f"field 'regions[{jz}].{key}' has shape (2,), "
                              f"expected {shape}")
    doc["regions"][jz][key] = "1"
    message = "has shape ()" if shape else "must hold JSON numbers only"
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"field 'regions[{jz}].{key}' {message}")):
        load_model(json.dumps(doc))
    del doc["regions"][jz][key]
    with pytest.raises(ModelFormatError) as err:
        load_model(json.dumps(doc))
    assert str(err.value) == f"missing field '{key}' in regions[{jz}]"


def test_load_reports_faults_field_by_field():
    # each field is checked over all regions before the next field, so a
    # fault in a later region's M is named before an earlier region's r
    doc = json.loads(zoo.model_path("onenorm").read_text())
    doc["regions"][0]["r"] = ["0"]
    doc["regions"][5]["M"] = "M"
    with pytest.raises(ModelFormatError, match=re.escape("'regions[5].M'")):
        load_model(json.dumps(doc))


_FUZZ_VALUES = ("x", True, False, None, [], {}, [None], 1e308, 10 ** 30,
                -10 ** 30, 2 ** 63, "1.5")


def _nodes(node, path=()):
    """The path of every node below a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _fuzz_documents(seed, count):
    rng = np.random.default_rng(seed)
    bases = [zoo.model_path(name).read_text() for name in zoo.SHIPPED]
    bases += [zoo.dump_model(zoo.sum_constraint_model(3, 1.0)),
              json.dumps(_mean_document(np.diag([2.0, 1.0, 0.5]),
                                        ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                                        (0.0, 0.0)))]
    paths = [list(_nodes(json.loads(text))) for text in bases]
    for _ in range(count):
        b = int(rng.integers(len(bases)))
        doc = json.loads(bases[b])
        for _ in range(int(rng.integers(1, 3))):
            path = paths[b][int(rng.integers(len(paths[b])))]
            *parents, key = path
            node = doc
            try:
                for p in parents:
                    node = node[p]
                node[key]
            except (KeyError, IndexError, TypeError):
                continue                  # an earlier edit removed the path
            if not isinstance(node, (dict, list)):
                continue                  # or replaced a container by a string
            if isinstance(node, dict) and rng.random() < 0.15:
                del node[key]
            else:
                node[key] = _FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))]
        yield json.dumps(doc)


def _onenorm_1e308(key):
    """onenorm with one region 2 entry of M or A at 1e308: it loads, and
    validate fails it without a warning."""
    doc = json.loads(zoo.model_path("onenorm").read_text())
    if key == "M":
        doc["regions"][1]["M"][0][1] = doc["regions"][1]["M"][1][0] = 1e308
    else:
        doc["regions"][1]["A"] = [[1e308], [0.0], [0.0]]
    return json.dumps(doc)


def test_any_document_loads_or_raises_model_format_error():
    # 2,000 seeded edits of the shipped documents, a
    # zero-hyperplane model and a "mean": true document, and two documents
    # with an entry at 1e308; each loads or raises ModelFormatError, and
    # each that loads validates to a report, with no other exception and
    # no warning
    loaded = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in _fuzz_documents(7, 2000):
            try:
                spec = load_model(text)
            except ModelFormatError:
                continue
            loaded += 1
            validate_model(spec)
        M, A = (validate_model(load_model(_onenorm_1e308(key)))
                for key in ("M", "A"))
    assert 0 < loaded < 2000
    # Q2'MQ2 symmetrized as 0.5 W + 0.5 W' stays finite, and fails Cholesky;
    # that region's center is then undefined, and only M_spd names it
    assert [(c.name, c.subject) for c in M.failures()][0] == ("M_spd", "region 2")
    assert kind(M, "finite_center").passed.all()
    # A = (1e308, 0, 0)' has rank margin 1, not NaN; its piece x1 = 1e-308
    # lies on hyperplane 1
    assert kind(A, "A_full_rank").passed.all()
    assert kind(A, "A_full_rank").residual[1] == 1.0
    assert ("normal_escapes_A", "region 2, hyperplane 1") in [
        (c.name, c.subject) for c in A.failures()]


def test_documents_with_a_non_finite_qr_factor_validate_without_a_warning():
    # three fuzzed documents whose face QR returns a non-finite Q1 (an entry
    # near 1e308): each fails the same checks, and nothing warns
    wanted = {1539, 4896, 7363}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, text in enumerate(_fuzz_documents(11, max(wanted) + 1)):
            if i in wanted:
                failed = {c.name for c in validate_model(load_model(text)).failures()}
                assert failed == {"finite_center", "normal_escapes_A", "continuity"}


def _line_document(M, y, r):
    """One region in R^2 on the line x1 = -y, with no hyperplanes."""
    return json.dumps({"n": 2, "d": 1, "J": 1, "m": 0,
                       "regions": [{"M": M, "r": r, "k": 0, "A": [[1], [0]],
                                    "y": [y], "L_row": []}],
                       "hyperplanes": {"F": [], "g": []}})


def test_validate_names_a_center_beyond_the_float_range():
    # y = 1e308 puts the center at x1 = -1e308, where the potential is inf;
    # with M = diag(1e308, 1) and y = 1e10, M x1 overflows on the way to the
    # center.  Either passes every other check, and neither may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [validate_model(load_model(_line_document(*args)))
                   for args in (([[1, 0], [0, 1]], 1e308, [0, 0]),
                                ([[1e308, 0], [0, 1]], 1e10, [1, 0]))]
    for report in reports:
        assert [(c.name, c.subject) for c in report.failures()] == [
            ("finite_center", "region 1")]
    assert kind(reports[0], "finite_center").residual.tolist() == [np.inf]


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


def test_cell_table_is_read_only():
    # one table serves validation, every chain and the oracle
    spec = zoo.step_line_model()
    with pytest.raises(ValueError, match="read-only"):
        spec.cells.G[0, 0] = 1.0


def test_one_cell_table_per_model(monkeypatch):
    # one decode and one stacked geometry pass serve validation, two chains
    # and the oracle
    calls, passes = [], []

    def counted(spec):
        calls.append(spec)
        return cell_table(spec)

    def counted_pass(*args):
        passes.append(args)
        return ode_param(*args)

    monkeypatch.setattr("pwhmc.model.cell_table", counted)
    monkeypatch.setattr("pwhmc.subspace.ode_param", counted_pass)
    spec = zoo.one_norm_model()
    assert validate_model(spec).passed
    for seed in (1, 2):
        run_chain(spec, spec.init_region, spec.init_point,
                  ChainConfig(n_samples=5, seed=seed))
    exact_sample(spec, 100, np.random.default_rng(3))
    assert calls == [spec] and len(passes) == 1


def test_cell_table_mirror_pairs_entries():
    # the entry across each transition is (t, i), which leads back: mirror
    # is an involution on the transition entries and -1 on every wall
    for spec in _checked_models():
        tab = spec.cells
        trans = tab.t != tab.j
        e = np.flatnonzero(trans)
        far = tab.mirror[e]
        assert np.all(far >= 0), spec
        assert np.array_equal(tab.mirror[far], e)
        assert np.array_equal(tab.i[far], tab.i[e])
        assert np.array_equal(tab.t[far], tab.j[e])
        assert np.all(tab.mirror[~trans] == -1)


def test_cell_table_mirror_of_a_broken_reciprocity():
    # (t, i) present but leading elsewhere is still the mirror, which
    # validation rejects; (t, i) absent reads -1 like a wall
    doc = doc_of(zoo.one_norm_model())
    doc["regions"][0]["L_row"][0] = 3          # (1, 1) -> 3; L[3, 1] -> 7
    tab = load_model(json.dumps(doc)).cells
    assert (tab.j[0], tab.i[0], tab.t[0]) == (0, 0, 2)
    far = tab.mirror[0]
    assert (tab.j[far], tab.i[far], tab.t[far]) == (2, 0, 6)
    doc = doc_of(zoo.one_norm_model())
    doc["regions"][4]["L_row"][0] = 0          # L[1, 1] -> 5 has no mirror
    spec = load_model(json.dumps(doc))
    assert (spec.cells.t[0], spec.cells.mirror[0]) == (4, -1)
    assert [(c.name, c.subject) for c in validate_model(spec).failures()] == [
        ("reciprocity", "L[1,1] <-> L[5,1]")]


def test_region_rows_match_lookup_table():
    specs = [zoo.build_shipped(name) for name in zoo.SHIPPED]
    for spec in specs + benchmark_models():
        table = spec.regions
        for j in range(1, spec.J + 1):
            row = spec.L[j - 1]
            on = row != 0
            sign = np.sign(row[on]).astype(float)
            reg = table[j]
            F = sign[:, None] * spec.F[on]
            rows = slice(reg.first, reg.first + len(reg.normals))
            assert np.array_equal(reg.GT.T, F @ table.cells.S[j - 1])
            assert np.allclose(table.cells.h[rows] - F @ table.cells.x_p[j - 1],
                               sign * spec.g[on], rtol=0, atol=1e-12)
            # the region after each entry's map: a wall's is its own
            assert table.label[rows] == np.abs(row[on]).tolist()
            assert table.cells.i[rows].tolist() == np.flatnonzero(on).tolist()


def test_stacked_point_queries_match_pointwise_loop(rng):
    # the per-point loop reads L itself; cell_slack reads the cell table's
    # padded region rows: polywall-256 is wider than any shipped model, and
    # onenorm10 has 1024 regions
    for spec in [zoo.build_shipped(name) for name in zoo.SHIPPED] + benchmark_models():
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
@pytest.mark.parametrize("R, X, match", [
    (0, [-0.2, -0.3, -0.5], "out of range 1..8"),
    (9, [-0.2, -0.3, -0.5], "out of range 1..8"),
    ([1, 0], [-0.2, -0.3, -0.5], "out of range 1..8"),
    (1.5, [-0.2, -0.3, -0.5], "out of range 1..8"),
    (1, [0.2, 0.3], r"shape \(2,\), expected n = 3"),
], ids=["zero", "past-J", "stack", "non-integer", "short-point"])
def test_point_queries_reject_labels_outside_1_to_J(query, R, X, match):
    # label 0 must not wrap around to region J, nor J + 1 or 1.5 fail as an
    # IndexError, nor a point without n components as a broadcast error
    spec = zoo.one_norm_model()
    with pytest.raises(ContractError, match=match):
        query(spec, R, np.array(X))


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
    assert not kind(report, "reciprocity").passed.all()


def test_validate_catches_broken_continuity():
    doc = doc_of(zoo.one_norm_model())
    doc["regions"][0]["y"] = [-2.0]
    report = validate_model(load_model(json.dumps(doc)))
    continuity = kind(report, "continuity")
    bad = continuity.residual[~continuity.passed]
    assert bad.size and bad.max() >= 0.5


def test_validate_onenorm_entry_counts():
    # 8 octants x 3 coordinate planes: 24 active entries, all transitions,
    # and 12 faces, each checked once
    report = validate_model(zoo.one_norm_model())
    assert [(c.name, c.passed.size) for c in report.checks] == [
        ("A_full_rank", 8), ("M_spd", 8), ("finite_center", 8),
        ("normal_escapes_A", 24),
        ("reciprocity", 24), ("face_uniqueness", 24),
        ("continuity", 12), ("mass_continuity", 12), ("connected", 8)]


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
        report = validate_model(spec)
        [residual] = kind(report, "continuity").residual.tolist()
        face = residual <= 1e-7
        expected = _lstsq_gap(f, g, A1, y1, A2, y2) < 1e-7
        assert face == expected, (c, report.format())
        verdicts.append(face)
    assert sum(verdicts) == 100


def test_report_residuals_of_exact_and_rounded_faces():
    # onenorm's continuity residuals are round-off (about 4e-16 to 8e-16),
    # above 0; step_line's face residuals are exactly 0, for continuity
    # and mass_continuity alike
    residual = kind(zoo.one_norm_model().report, "continuity").residual
    assert residual.size == 12 and (residual > 0).all() and (residual < 1e-15).all()
    spec = zoo.step_line_model()
    assert kind(spec.report, "continuity").residual.tolist() == [0.0]
    assert kind(spec.report, "mass_continuity").residual.tolist() == [0.0]


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
    spd = kind(report, "M_spd")
    assert (spd.subject, spd.columns[0].tolist()) == ("region {}", [1, 2])
    assert list(zip(spd.passed.tolist(), spd.residual.tolist())) == [
        (True, 1.0), (False, -1.0)]
    assert [(c.subject, c.residual) for c in report.failures()
            if c.name == "M_spd"] == [("region 2", -1.0)]
    spd = kind(validate_model(zoo.positive_part_model()), "M_spd")
    assert list(zip(spd.passed.tolist(), spd.residual.tolist())) == [
        (True, 1.0)] * 3


@pytest.mark.parametrize("A", [
    [[1e13, 0.0], [0.0, 1.0], [0.0, 0.0]],     # sigma_min = 1, scale 1e13
    [[1.0, 1e12], [0.0, 1e-11], [0.0, 0.0]],   # |diag R| >= 1e-11, sigma_min ~ 1e-23
])
def test_validate_rank_check_is_the_samplers(A):
    spec = plane_model(np.eye(3), A)
    report = validate_model(spec)
    assert kind(report, "A_full_rank").passed.tolist() == [False]
    with pytest.raises(ContractError, match="\nFAIL  A_full_rank +region 1 "):
        spec.regions


def _parallel_row_document(g):
    # the piece x1 = 0 with the wall x1 + g >= 0, a row parallel to it
    return json.dumps({
        "n": 2, "d": 1, "J": 1, "m": 1,
        "regions": [{
            "M": [[1.0, 0.0], [0.0, 1.0]], "r": [0.0, 0.0], "k": 0.0,
            "A": [[1.0], [0.0]], "y": [0.0], "L_row": [1],
        }],
        "hyperplanes": {"F": [[1.0, 0.0]], "g": [g]},
        "init": {"region": 1, "x": [0.0, 0.0]},
    })


def test_validate_passes_row_parallel_to_its_piece():
    # at g = 1 the row is 1 everywhere on the piece, so it never binds:
    # the model passes and the chain samples x2 ~ N(0, 1)
    spec = load_model(_parallel_row_document(1.0))
    report = validate_model(spec)
    assert report.passed, report.format()
    [row] = kind(report, "normal_escapes_A").residual.tolist()
    assert row <= NORMAL_DEGENERACY_TOL
    out = run_chain(spec, 1, [0.0, 0.0], ChainConfig(n_samples=20000, seed=1901))
    assert np.max(np.abs(out.X[:, 0])) < 1e-12
    exact, _ = exact_sample(spec, 20000, np.random.default_rng(1902))
    assert stats.ks_2samp(out.X[:, 1], exact[:, 1]).statistic < 0.025


def test_validate_catches_piece_on_a_row():
    # at g = 0 the piece lies on the hyperplane: no normal crosses it
    report = validate_model(load_model(_parallel_row_document(0.0)))
    assert [(c.name, c.subject) for c in report.failures()] == [
        ("normal_escapes_A", "region 1, hyperplane 1")]


def _checked_models():
    conftest_models = [
        scaled_line_model(), wall_box_model(), polygon_model(7),
        sign_cells_model(anisotropic_mass()),
        sign_cells_model(anisotropic_mass(), scale_left=2.0),
        sign_cells_model(np.eye(4)), oblique_wall_model()]
    zoo_models = [
        zoo.sum_constraint_model(), zoo.axis_plane_model(3),
        zoo.step_line_model(), zoo.one_norm_model(),
        zoo.polygonal_top_model(), zoo.polygonal_top_model(sides=12),
        zoo.positive_part_model()]
    shipped = [load_model_file(zoo.model_path(name)) for name in zoo.SHIPPED]
    return conftest_models + zoo_models + shipped + benchmark_models()


def test_validate_connected_finds_each_component():
    # a region passes iff a chain can cross into it from region 1: every
    # model the suite samples is one component, sign cells and the
    # 1024-region sphere included; region 3 of the overlap model is a
    # component of its own
    for spec in _checked_models():
        assert kind(validate_model(spec), "connected").passed.all()
    spec = unreachable_overlap_model()
    assert [(c.name, c.subject) for c in validate_model(spec).failures()] == [
        ("connected", "region 3")]
    # on random graphs of transition entries, paths and cycles with regions
    # in random order among them, the labels are those of a search
    rng = np.random.default_rng(5)
    for J in (1, 2, 7, 60):
        order = rng.permutation(J)
        pairs = [(order[q], order[q + 1]) for q in range(J - 1)
                 if rng.random() < 0.8]
        pairs += [tuple(rng.integers(0, J, 2)) for _ in range(J // 5)]
        pairs = [(a, b) for a, b in pairs if a != b]
        j = np.array([a for a, b in pairs] + [b for a, b in pairs], dtype=int)
        t = np.array([b for a, b in pairs] + [a for a, b in pairs], dtype=int)
        expected = np.arange(J)
        for _ in range(J):                  # a search: J relaxations suffice
            for a, b in pairs:
                expected[a] = expected[b] = min(expected[a], expected[b])
        assert model._components(j, t, J).tolist() == expected.tolist()


def test_validate_formats_failures_only(monkeypatch):
    # onenorm10 has 45,056 subjects, and a passing report labels none
    made = []
    monkeypatch.setattr("pwhmc.model.CheckResult", lambda *a: made.append(a))
    report = validate_model(benchmark_models()[1])
    assert len(report.checks) == 9 and report.failures() == []
    lines = report.format().splitlines()
    assert lines[0] == "A_full_rank: 1024/1024"
    assert lines[-1] == "45056/45056 checks passed" and len(lines) == 10
    assert made == []


def test_validate_reads_the_samplers_geometry():
    # normal_escapes_A reports the row lengths the segment divides by and
    # A_full_rank the margins a region's build tests, bit for bit
    for spec in _checked_models():
        report = validate_model(spec)
        assert report.passed, report.format()
        table = spec.regions
        assert kind(report, "normal_escapes_A").residual.tolist() == table.norm
        assert (kind(report, "A_full_rank").residual.tolist()
                == table.cells.margin.tolist())
