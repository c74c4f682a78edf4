"""QR machinery: ODE parameters, rank test, face residuals."""

import numpy as np
import pytest

from conftest import rand_continuous_pair, rand_fullrank, rand_spd
from pwhmc.oracle import conditional_gaussian_moments
from pwhmc.subspace import face_residuals, ode_param, rank_margin

E1 = np.array([[1.0], [0.0]])
I2 = np.eye(2)


def test_ode_param_symmetric_case():
    x_p, S, _ = ode_param(I2, np.zeros(2), E1, np.array([0.0]))
    assert np.allclose(x_p, 0.0, atol=1e-14)
    assert np.allclose(np.abs(S[:, 0]), [0.0, 1.0], atol=1e-14)


def test_ode_param_center_is_conditional_mean():
    x_p, _, _ = ode_param(I2, np.array([1.0, 1.0]), E1, np.array([0.0]))
    assert np.allclose(x_p, [0.0, 1.0], atol=1e-12)
    # independent cross-check through the moment formulas (A'x = y frame)
    mom = conditional_gaussian_moments(np.ones(2), I2, E1, [0.0])
    assert np.allclose(x_p, mom.m, atol=1e-12)


def test_ode_param_offset_plane():
    x_p, _, _ = ode_param(I2, np.zeros(2), E1, np.array([-1.0]))
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
        x_p, S, c = ode_param(M, r, A, y)
        assert np.linalg.norm(A.T @ x_p + y) < 1e-9
        assert np.linalg.norm(S.T @ A) < 1e-10
        # whitened: S'MS = I, and x_p is stationary for the potential on the piece
        assert np.allclose(S.T @ M @ S, np.eye(n - d), atol=1e-8)
        assert np.allclose(S.T @ (M @ x_p - r), 0.0, atol=1e-8)
        expected = 0.5 * np.linalg.slogdet(M)[1] \
            + 0.5 * np.linalg.slogdet(A.T @ np.linalg.solve(M, A))[1]
        assert c == pytest.approx(expected, rel=0, abs=1e-9)


def test_ode_param_rejects_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        ode_param(np.eye(3), np.zeros(3), A, np.zeros(2))


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
