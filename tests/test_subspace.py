"""QR/null-space machinery: ODE parameters, normals, continuity."""

import numpy as np
import pytest

from conftest import rand_continuous_pair, rand_face_instance, rand_fullrank, rand_spd
from pwhmc import zoo
from pwhmc.errors import ContractError, DegenerateNormalError
from pwhmc.oracle import conditional_gaussian_moments
from pwhmc.subspace import (
    boundary_normal,
    continuity_check,
    isotropic_ode_param,
    null_space_decomposition,
    ode_coef,
    ode_param,
)

E1 = np.array([[1.0], [0.0]])
I2 = np.eye(2)


def test_ode_param_symmetric_case():
    dyn = ode_param(I2, np.zeros(2), E1, np.array([0.0]), mean_flag=True)
    assert np.allclose(dyn.x_p, 0.0, atol=1e-14)
    assert np.allclose(np.abs(dyn.S[:, 0]), [0.0, 1.0], atol=1e-14)


def test_ode_param_center_is_conditional_mean():
    dyn = ode_param(I2, np.array([1.0, 1.0]), E1, np.array([0.0]),
                    mean_flag=True)
    assert np.allclose(dyn.x_p, [0.0, 1.0], atol=1e-12)
    # independent cross-check through the moment formulas (A'x = y frame)
    mom = conditional_gaussian_moments(np.ones(2), I2, E1, [0.0])
    assert np.allclose(dyn.x_p, mom.m, atol=1e-12)


def test_ode_param_offset_plane():
    dyn = ode_param(I2, np.zeros(2), E1, np.array([-1.0]), mean_flag=True)
    assert np.allclose(dyn.R1.T @ dyn.z1, 1.0)
    assert np.allclose(dyn.x_p, [1.0, 0.0], atol=1e-12)
    mom = conditional_gaussian_moments(np.zeros(2), I2, E1, [1.0])
    assert np.allclose(dyn.x_p, mom.m, atol=1e-12)


def test_ode_param_invariants_random(rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n))
        M = rand_spd(rng, n)
        A = rand_fullrank(rng, n, d)
        r = rng.normal(size=n)
        y = rng.normal(size=d)
        dyn = ode_param(M, r, A, y, mean_flag=bool(rng.integers(2)))
        assert np.allclose(dyn.Q.T @ dyn.Q, np.eye(n), atol=1e-10)
        assert np.linalg.norm(A.T @ dyn.x_p + y) < 1e-9
        assert np.linalg.norm(dyn.S.T @ A) < 1e-10
        SS = dyn.S @ dyn.S.T
        prod = (dyn.Q2.T @ SS @ dyn.Q2) @ dyn.omega22
        assert np.allclose(prod, np.eye(n - d), atol=1e-8)


def test_ode_param_rejects_rank_deficient():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        ode_param(np.eye(3), np.zeros(3), A, np.zeros(2))


def test_isotropic_matches_general_path(rng):
    assert np.allclose(
        isotropic_ode_param(1.0, np.zeros(2), E1, np.array([0.0])).x_p,
        ode_param(I2, np.zeros(2), E1, np.array([0.0]), mean_flag=True).x_p,
    )
    iso = isotropic_ode_param(4.0, np.zeros(2), E1, np.array([0.0]))
    gen = ode_param(4.0 * I2, np.zeros(2), E1, np.array([0.0]), mean_flag=True)
    assert np.allclose(iso.S @ iso.S.T, gen.S @ gen.S.T, atol=1e-12)
    assert np.allclose(
        isotropic_ode_param(1.0, np.ones(2), E1, np.array([0.0])).x_p,
        [0.0, 1.0],
    )
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, n))
        phi = float(rng.uniform(0.2, 5.0))
        mu = rng.normal(size=n)
        A = rand_fullrank(rng, n, d)
        y = rng.normal(size=d)
        iso = isotropic_ode_param(phi, mu, A, y)
        gen = ode_param(phi * np.eye(n), mu, A, y, mean_flag=True)
        assert np.allclose(iso.x_p, gen.x_p, atol=1e-10)
        assert np.allclose(iso.S @ iso.S.T, gen.S @ gen.S.T, atol=1e-10)


def test_boundary_normal_examples():
    Q = np.eye(2)
    u = boundary_normal(np.array([0.0, 1.0]), Q, 1)
    assert np.allclose(u, [0.0, 1.0])
    u = boundary_normal(np.array([1.0, 1.0]), Q, 1)
    assert np.allclose(u, [0.0, 1.0])
    with pytest.raises(DegenerateNormalError):
        boundary_normal(np.array([1.0, 0.0]), Q, 1)


def test_boundary_normal_random_invariants(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, n))
        A = rand_fullrank(rng, n, d)
        f, _, _, _ = rand_face_instance(rng, n, d)
        Q, _ = np.linalg.qr(A, mode="complete")
        try:
            u = boundary_normal(f, Q, d)
        except DegenerateNormalError:
            continue
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert np.linalg.norm(A.T @ u) < 1e-10
        assert f @ u > 0


def test_ode_coef_values_and_errors(rng):
    dyn = ode_param(I2, np.ones(2), E1, np.array([0.0]), mean_flag=True)
    a, b = ode_coef(dyn, dyn.x_p, np.zeros(2))
    assert np.allclose(a, 0) and np.allclose(b, 0)

    w = np.array([0.0, 0.7])
    a, b = ode_coef(dyn, dyn.x_p + w, np.array([0.0, -0.3]))
    assert np.allclose(b, w)

    with pytest.raises(ContractError) as err:
        ode_coef(dyn, np.array([0.1, 0.0]), np.zeros(2))
    assert err.value.residual == pytest.approx(0.1)
    with pytest.raises(ContractError):
        ode_coef(dyn, dyn.x_p, np.array([0.5, 0.0]))


def test_ode_coef_velocity_law(rng):
    # empirical covariance of drawn velocities matches Q2 Q2' when M = I
    n, d = 3, 1
    A = rand_fullrank(rng, n, d)
    dyn = ode_param(np.eye(n), np.zeros(n), A, np.zeros(d))
    draws = np.empty((50000, n))
    for i in range(draws.shape[0]):
        a, _ = ode_coef(dyn, dyn.x_p, None, rng)
        draws[i] = a
    cov = draws.T @ draws / draws.shape[0]
    assert np.max(np.abs(cov - dyn.Q2 @ dyn.Q2.T)) < 0.02


def test_continuity_check_examples():
    A1 = np.array([[1.0], [1.0]])
    A2 = np.array([[-1.0], [1.0]])
    f = np.array([1.0, 0.0])
    ok, e1, e2 = continuity_check(f, 0.0, A1, A2, [-1.0], [-1.0], 1e-8)
    assert ok and e1 < 1e-12 and e2 == 0.0

    ok, e1, _ = continuity_check(f, 0.0, A1, A2, [-1.0], [-2.0], 1e-8)
    assert not ok
    assert e1 == pytest.approx(1.0, abs=1e-12)

    ok, *_ = continuity_check(f, 0.3, A1, A1, [0.4], [0.4], 1e-8)
    assert ok


def test_continuity_check_symmetric_verdict(rng):
    for _ in range(100):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        f, g, A1, y1, A2, y2 = rand_continuous_pair(rng, n, d)
        ok_fwd, *_ = continuity_check(f, g, A1, A2, y1, y2, 1e-7)
        ok_bwd, *_ = continuity_check(-f, -g, A2, A1, y2, y1, 1e-7)
        assert ok_fwd and ok_bwd


def test_continuity_check_rejects_parallel_normal():
    A1 = np.array([[1.0], [0.0]])
    with pytest.raises(np.linalg.LinAlgError):
        continuity_check(np.array([1.0, 0.0]), 0.0, A1, A1, [0.0], [0.0], 1e-8)


def test_null_space_decomposition_hand_case():
    A1 = np.array([[1.0], [1.0], [0.0]])
    A2 = np.array([[1.0], [-1.0], [0.0]])
    f = np.array([0.0, 1.0, 0.0])
    dec = null_space_decomposition(A1, A2, f)
    assert np.allclose(np.abs(dec.U0[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(dec.u1, np.array([-1.0, 1.0, 0.0]) / np.sqrt(2))
    assert np.allclose(dec.u2, np.array([-1.0, -1.0, 0.0]) / np.sqrt(2))
    assert dec.Uc.shape[1] == 0


def test_null_space_decomposition_mirror_case(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        f, _, A1, _ = rand_face_instance(rng, n, d)
        dec = null_space_decomposition(A1, A1, f)
        assert np.allclose(dec.u2, -dec.u1, atol=1e-12)
        block = np.column_stack([dec.U0, dec.u1, dec.Uc])
        assert np.allclose(block.T @ block, np.eye(block.shape[1]), atol=1e-10)


def test_null_space_decomposition_invariants(rng):
    for _ in range(100):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, n - 1))
        f, g, A1, y1, A2, y2 = rand_continuous_pair(rng, n, d)
        dec = null_space_decomposition(A1, A2, f)
        assert np.linalg.norm(A1.T @ dec.U0) < 1e-9
        assert np.linalg.norm(A2.T @ dec.U0) < 1e-9
        assert np.linalg.norm(A1.T @ dec.u1) < 1e-9
        assert np.linalg.norm(A2.T @ dec.u2) < 1e-9
        assert f @ dec.u1 > 0 > f @ dec.u2
        for u_side in (dec.u1, dec.u2):
            block = np.column_stack([dec.U0, u_side, dec.Uc])
            assert np.allclose(block.T @ block, np.eye(block.shape[1]),
                               atol=1e-9)
        # the bisecting frame is orthonormal whenever u1 != +-u2
        if min(np.linalg.norm(dec.u2 - dec.u1),
               np.linalg.norm(dec.u2 + dec.u1)) > 1e-6:
            perp = (dec.u2 + dec.u1) / np.linalg.norm(dec.u2 + dec.u1)
            para = (dec.u2 - dec.u1) / np.linalg.norm(dec.u2 - dec.u1)
            frame = np.column_stack([dec.U0, perp, para, dec.Uc])
            assert np.allclose(frame.T @ frame, np.eye(frame.shape[1]),
                               atol=1e-9)


def test_null_space_decomposition_degenerate_f():
    A1 = np.array([[1.0], [0.0]])
    with pytest.raises((DegenerateNormalError, np.linalg.LinAlgError)):
        null_space_decomposition(A1, A1, np.array([2.0, 0.0]))
