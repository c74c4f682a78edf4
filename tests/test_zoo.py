"""Built-in models: file/builder correspondence and geometric correctness."""

import numpy as np
import pytest

from conftest import point_in_region
from pwhmc import zoo
from pwhmc.model import cell_slack, load_model, validate_model
from pwhmc.sampler import initial_point_check


def test_shipped_files_match_builders():
    for name in zoo.SHIPPED:
        text = zoo.model_path(name).read_text()
        assert text == zoo.dump_model(zoo.build_shipped(name)), name


def test_model_path_rejects_unknown():
    with pytest.raises(KeyError):
        zoo.model_path("missing")


def test_dump_round_trips():
    for build in (zoo.sum_constraint_model, zoo.step_line_model,
                  zoo.one_norm_model, zoo.polygonal_top_model,
                  zoo.positive_part_model):
        spec = build()
        back = load_model(zoo.dump_model(spec))
        assert back.n == spec.n and back.J == spec.J and back.m == spec.m
        assert np.array_equal(back.r, spec.r)
        assert np.array_equal(back.F, spec.F)
        assert np.array_equal(back.L, spec.L)
        for jz in range(spec.J):
            assert np.array_equal(back.A[jz], spec.A[jz])
            assert np.array_equal(back.M[jz], spec.M[jz])
        assert back.init_region == spec.init_region
        assert np.array_equal(back.init_point, spec.init_point)


def test_all_builders_validate_cleanly():
    for build in (zoo.sum_constraint_model, zoo.axis_plane_model,
                  zoo.step_line_model, zoo.one_norm_model,
                  zoo.polygonal_top_model, zoo.positive_part_model):
        spec = build()
        report = validate_model(spec)
        assert report.passed, f"{build.__name__}:\n" + report.format()
        assert sum(c.passed.size for c in report.checks) > 0


def test_shipped_init_points_are_usable():
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        assert spec.init_region is not None
        rep = initial_point_check(spec, spec.init_region, spec.init_point)
        assert rep.passed, f"{name}: {rep}"


def test_one_norm_adjacency_flips_one_sign():
    spec = zoo.one_norm_model()
    signs = np.array([spec.A[jz][:, 0] for jz in range(8)])
    for jz in range(8):
        for i in range(3):
            target = abs(int(spec.L[jz, i])) - 1
            diff = signs[jz] != signs[target]
            assert diff.sum() == 1 and diff[i]


def test_one_norm_manifold_is_unit_sphere(rng):
    spec = zoo.one_norm_model()
    for j in range(1, 9):
        x = point_in_region(spec, j, rng)
        assert abs(np.abs(x).sum() - 1.0) < 1e-12


def test_polygonal_top_cells_are_gauge_argmax(rng):
    spec = zoo.polygonal_top_model()
    rows = np.array([spec.A[jz][:, 0] for jz in range(spec.J)])
    hits = np.zeros(spec.J, dtype=int)
    for _ in range(2000):
        x = rng.normal(size=3)
        vals = rows @ x
        if np.sort(vals)[-1] - np.sort(vals)[-2] < 1e-6:
            continue                         # avoid exact cell boundaries
        j = int(np.argmax(vals)) + 1
        assert cell_slack(spec, j, x) > -1e-9
        hits[j - 1] += 1
    assert np.all(hits > 0)                  # every face cell gets exercised


def test_polygonal_top_faces_lie_on_the_solid(rng):
    spec = zoo.polygonal_top_model()
    apex, radius = 1.5, 1.0
    for j in range(1, spec.J + 1):
        for _ in range(5):
            x = point_in_region(spec, j, rng)
            # face plane: a_j'x = 1
            assert abs(spec.A[j - 1][:, 0] @ x - 1.0) < 1e-9
            # inside the bounding box of the two-cone solid
            assert abs(x[0]) <= apex + 1e-9
            assert np.hypot(x[1], x[2]) <= radius + 1e-9


def test_positive_part_observable_on_each_piece(rng):
    spec = zoo.positive_part_model()
    dm = np.array([0.8, 0.6, 0.4])
    for j in range(1, 4):
        for _ in range(10):
            x = point_in_region(spec, j, rng)
            obs = float(np.maximum(2.0 - np.cumsum(x), 0.0) @ dm)
            assert obs == pytest.approx(0.75, abs=1e-9)
            # region label j == number of active positive parts
            assert int(np.sum(2.0 - np.cumsum(x) > 0)) == j


def test_positive_part_first_kink_is_inert():
    spec = zoo.positive_part_model()
    assert np.all(spec.L[:, 0] == 0)
    # built as a mean document with mu = 1 and M = I, so r = M mu = mu
    assert np.array_equal(spec.r, np.ones((3, 3)))


def test_step_line_model_shapes():
    spec = zoo.step_line_model(dk=0.3)
    assert (spec.n, spec.J, spec.m) == (2, 2, 1)
    assert spec.k[0] == 0.0 and spec.k[1] == pytest.approx(0.3)
    assert spec.L[0, 0] == 2 and spec.L[1, 0] == -1
