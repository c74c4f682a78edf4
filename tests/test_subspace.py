"""QR machinery: ODE parameters, rank test, face residuals."""

import warnings

import numpy as np
import pytest

from conftest import plane_model, rand_continuous_pair, rand_fullrank, rand_spd
from pwhmc import zoo
from pwhmc.errors import ContractError
from pwhmc.oracle import conditional_gaussian_moments
from pwhmc.subspace import (
    NORMAL_DEGENERACY_TOL,
    face_residuals,
    ode_param,
    rank_margin,
)

E1 = np.array([[1.0], [0.0]])
I2 = np.eye(2)


def test_ode_param_symmetric_case():
    x_p, S, _, _ = ode_param(I2, np.zeros(2), E1, np.array([0.0]))
    assert np.allclose(x_p, 0.0, atol=1e-14)
    assert np.allclose(np.abs(S[:, 0]), [0.0, 1.0], atol=1e-14)


def test_ode_param_center_is_conditional_mean():
    x_p, _, _, _ = ode_param(I2, np.array([1.0, 1.0]), E1, np.array([0.0]))
    assert np.allclose(x_p, [0.0, 1.0], atol=1e-12)
    # independent cross-check through the moment formulas (A'x = y frame)
    mom = conditional_gaussian_moments(np.ones(2), I2, E1, [0.0])
    assert np.allclose(x_p, mom.m, atol=1e-12)


def test_ode_param_offset_plane():
    x_p, _, _, _ = ode_param(I2, np.zeros(2), E1, np.array([-1.0]))
    assert np.allclose(E1.T @ x_p, 1.0)                 # A'x = -y
    assert np.allclose(x_p, [1.0, 0.0], atol=1e-12)
    mom = conditional_gaussian_moments(np.zeros(2), I2, E1, [1.0])
    assert np.allclose(x_p, mom.m, atol=1e-12)


def test_ode_param_invariants_random(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        M = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        r = rng.normal(size=n)
        y = rng.normal(size=d)
        x_p, S, c, _ = ode_param(M, r, A, y)
        assert np.linalg.norm(A.T @ x_p + y) < 1e-9
        assert np.linalg.norm(S.T @ A) < 1e-10
        # whitened: S'MS = I, and x_p is stationary for the potential on the piece
        assert np.allclose(S.T @ M @ S, np.eye(n - d), atol=1e-8)
        assert np.allclose(S.T @ (M @ x_p - r), 0.0, atol=1e-8)
        expected = 0.5 * np.linalg.slogdet(M)[1] \
            + 0.5 * np.linalg.slogdet(A.T @ np.linalg.solve(M, A))[1]
        assert c == pytest.approx(expected, rel=0, abs=1e-9)


def test_rank_deficient_region_fails_the_margin_and_its_build():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    *_, margin = ode_param(np.eye(3), np.zeros(3), A, np.zeros(2))
    assert margin <= NORMAL_DEGENERACY_TOL
    with pytest.raises(ContractError, match="\nFAIL  A_full_rank +region 1 "):
        plane_model(np.eye(3), A).regions


def test_region_with_indefinite_metric_on_its_piece_fails_its_build():
    # M = diag(1, -1, 1) is indefinite on the piece x1 = 0
    M = np.diag([1.0, -1.0, 1.0])
    _, S, c, margin = ode_param(M, np.zeros(3), np.eye(3, 1), np.zeros(1))
    assert margin == 1.0 and np.isnan(c) and np.isfinite(S).all()
    with pytest.raises(ContractError, match="\nFAIL  M_spd +region 1 "):
        plane_model(M, np.eye(3, 1)).regions


def test_stacked_ode_param_is_each_regions_call(rng):
    # one call on a stack gives each region's own call bit for bit,
    # placeholders for a rank-deficient A and an indefinite M included
    for n, d in ((2, 1), (4, 2), (6, 1), (7, 3)):
        J = 9
        M = np.array([rand_spd(rng, n) for _ in range(J)])
        A = np.array([rand_fullrank(rng, n, d) for _ in range(J)])
        r, y = rng.normal(size=(J, n)), rng.normal(size=(J, d))
        A[2, :, -1] = A[2, :, 0] if d > 1 else 0.0
        M[5] = -M[5]
        stacked = ode_param(M, r, A, y)
        for j in range(J):
            for whole, own in zip(stacked, ode_param(M[j], r[j], A[j], y[j])):
                assert np.array_equal(whole[j], own, equal_nan=True)
        assert stacked[3][2] <= NORMAL_DEGENERACY_TOL and np.isnan(stacked[2][5])
    for name in zoo.SHIPPED:
        spec = zoo.build_shipped(name)
        stacked = ode_param(spec.M, spec.r, spec.A, spec.y)
        for j in range(spec.J):
            own = ode_param(spec.M[j], spec.r[j], spec.A[j], spec.y[j])
            assert all(np.array_equal(a[j], b) for a, b in zip(stacked, own))


def test_rank_margin_is_below_both_rank_tests(rng):
    # the margin bounds sigma_min(A) and the relative diagonal test of R1
    # from below, so passing it passes both
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        A = rand_fullrank(rng, n, d) * 10.0 ** rng.uniform(-6, 6, size=d)
        R1 = np.linalg.qr(A, mode="r")
        diag = np.abs(np.diag(R1))
        margin = rank_margin(R1)
        assert margin <= np.linalg.svd(A, compute_uv=False)[-1] * (1 + 1e-12)
        assert margin <= diag.min() / max(1.0, diag.max()) * (1 + 1e-12)
    assert rank_margin(np.array([[2.0, 1.0], [0.0, 0.0]])) == 0.0


def test_rank_margin_of_extreme_triangles():
    # the norms are taken after scaling by max|R1|: ||R1||_F of 1e200 once
    # overflowed and ||R1^-1||_F underflowed, and 0 * inf gave NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_margin([[1e200]]) == 1.0
        assert rank_margin([[1e-200]]) == 1e-200
        assert rank_margin([[1e308, 1e308], [0.0, 1e308]]) == pytest.approx(
            1.0 / 3.0, rel=1e-15)
        # a diagonal that scaling rounds to 0, or an entry beyond the float
        # range, gives margin 0
        assert rank_margin([[1e308, 0.0], [0.0, 1e-300]]) == 0.0
        assert rank_margin([[np.inf, 1.0], [0.0, 1.0]]) == 0.0
        assert rank_margin(np.zeros((2, 2))) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rank_margin_of_a_stack_is_each_triangles(rng, d):
    # one call on K stacked triangles gives each triangle's own margin,
    # including 0 for an exact zero on the diagonal
    R1 = np.triu(rng.normal(size=(7, d, d)) * 10.0 ** rng.uniform(-8, 8, (7, 1, d)))
    R1[2, d - 1, d - 1] = 0.0
    R1[5, 0, 0] = 0.0
    margins = rank_margin(R1)
    assert margins.shape == (7,)
    for k in range(7):
        assert margins[k] == rank_margin(R1[k])
    assert margins[2] == margins[5] == 0.0
    assert np.all(np.delete(margins, [2, 5]) > 0.0)


def _continuity(f, g, A1, A2, y1, y2, tol):
    """face_residuals on the single face f'x + g = 0: (ok, e1, e2)."""
    e1, e2 = face_residuals(
        np.array([f], dtype=float), np.array([g], dtype=float),
        np.array([A1], dtype=float), np.array([A2], dtype=float),
        np.array([y1], dtype=float), np.array([y2], dtype=float),
    )
    e1, e2 = float(e1[0]), float(e2[0])
    return (e1 < tol) and (e2 < tol), e1, e2


def test_face_residuals_examples():
    A1 = np.array([[1.0], [1.0]])
    A2 = np.array([[-1.0], [1.0]])
    f = np.array([1.0, 0.0])
    ok, e1, e2 = _continuity(f, 0.0, A1, A2, [-1.0], [-1.0], 1e-8)
    assert ok and e1 < 1e-12 and e2 == 0.0

    ok, e1, _ = _continuity(f, 0.0, A1, A2, [-1.0], [-2.0], 1e-8)
    assert not ok
    assert e1 == pytest.approx(1.0, abs=1e-12)

    ok, *_ = _continuity(f, 0.3, A1, A1, [0.4], [0.4], 1e-8)
    assert ok


def test_face_residuals_symmetric_verdict(rng):
    for _ in range(100):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        f, g, A1, y1, A2, y2 = rand_continuous_pair(rng, n, d)
        ok_fwd, *_ = _continuity(f, g, A1, A2, y1, y2, 1e-7)
        ok_bwd, *_ = _continuity(-f, -g, A2, A1, y2, y1, 1e-7)
        assert ok_fwd and ok_bwd


def test_face_residuals_reject_parallel_normal():
    # f in A1's span fails the rank test: no face, infinite residuals
    A1 = np.array([[1.0], [0.0]])
    ok, e1, e2 = _continuity(np.array([1.0, 0.0]), 0.0, A1, A1, [0.0], [0.0], 1e-8)
    assert not ok and e1 == e2 == np.inf


def test_face_residuals_fail_a_non_finite_qr_factor_without_a_warning():
    # numpy's QR of [A1 f] with an entry at 1e308 returns a non-finite Q1
    # beside a finite R1: the face fails as a rank failure does
    A = np.array([[[1e308], [1.0], [1.0]]])
    assert not np.isfinite(np.linalg.qr(np.concatenate(
        [A, np.array([[[1.0], [0.0], [0.0]]])], axis=2))[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e1, e2 = face_residuals(np.array([[1.0, 0.0, 0.0]]), np.zeros(1), A, A,
                                np.zeros((1, 1)), np.zeros((1, 1)))
    assert e1.tolist() == e2.tolist() == [np.inf]

