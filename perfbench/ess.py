"""Rank-normalised bulk effective sample size, and its self-check.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat": split each
chain in half, replace the pooled draws by normal scores of their ranks, and
estimate the integrated autocorrelation time with Geyer's initial monotone
sequence over the multi-chain autocorrelation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocov(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of x, lags 0..n-1, via FFT."""
    n = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, n=size, axis=1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of a (chains, draws) array, as in Stan and ArviZ."""
    m, n = chains.shape
    acov = _autocov(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float("nan")
    mean_acov = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - mean_acov[1]) / var_plus
    rho[1] = rho_odd
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - mean_acov[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - mean_acov[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    # Geyer's monotone condition on the paired sums.
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = 0.5 * (rho[t - 1] + rho[t])
        t += 2
    draws = m * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1]
    tau = max(tau, 1.0 / np.log10(draws))
    return draws / tau


def ess_bulk(x) -> float:
    """Bulk ESS of one chain (1-D) or several (chains, draws); nan if constant."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])
    if half < 4 or np.ptp(split) == 0.0:
        return float("nan")
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess(z)


def min_ess(chains) -> float:
    """Smallest bulk ESS over the non-constant coordinates.

    `chains` is one chain (draws, n) or several of equal length
    (chains, draws, n); several are pooled in the multi-chain estimator.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim == 2:
        chains = chains[None]
    values = [ess_bulk(chains[:, :, i]) for i in range(chains.shape[2])]
    finite = [v for v in values if np.isfinite(v)]
    return min(finite) if finite else 0.0


def ar1_self_check(n: int = 50_000, tol: float = 0.1) -> list[str]:
    """Compare ess_bulk with the closed form n(1-rho)/(1+rho) of AR(1) series.

    Uses a fixed seed, so the check is deterministic.  Returns the failures.
    """
    rng = np.random.default_rng(20210131)
    failures = []
    for rho in (0.9, 0.5, -0.3):
        eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = rho * x[t - 1] + eps[t]
        exact = n * (1.0 - rho) / (1.0 + rho)
        got = ess_bulk(x)
        if not abs(got / exact - 1.0) <= tol:
            failures.append(f"AR(1) rho={rho}: ess_bulk {got:.1f}, exact {exact:.1f}")
    return failures
