"""Brute-force ground truths and references that only the tests use.

Grids, bisection and quadrature, deliberately: they share no code with the
closed-form hit times and exact draws of the package they check.  The one
exception is the hit scan as it was before its time bound, kept to pin the
bounded scan's results bit for bit.  This is the one place scipy is needed,
so the package itself runs on numpy alone.
"""

from math import acos, atan2, sqrt

import numpy as np
from scipy.integrate import quad

from pwhmc.dynamics import COEF_TOL, EPS_T, TIE_TOL, TWO_PI


def grid_hit_time(x_p, a, b, f, g, t_max, grid_n=20000):
    """Brute-force first boundary crossing of a sinusoidal trajectory.

    Scans K(t) = f'x(t) + g on a uniform grid over (0, t_max] for the first
    positive-to-nonpositive step and refines it by bisection.  Returns None
    when K never crosses downward.
    """
    f = np.asarray(f, dtype=float)
    fa = float(f @ np.asarray(a, dtype=float))
    fb = float(f @ np.asarray(b, dtype=float))
    h = float(f @ np.asarray(x_p, dtype=float)) + float(g)

    def K(t):
        return h + fa * np.sin(t) + fb * np.cos(t)

    ts = np.linspace(0.0, float(t_max), int(grid_n) + 1)
    Ks = K(ts)
    down = np.flatnonzero((Ks[:-1] > 0.0) & (Ks[1:] <= 0.0))
    if down.size == 0:
        return None
    lo, hi = ts[down[0]], ts[down[0] + 1]
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if K(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def first_hit_unbounded(fa, fb, h, t_max, skip):
    """The scan of ``dynamics.first_hit`` on plain rows before it had a time
    bound: the exact root of every row in reach, then the lowest row within
    TIE_TOL of the smallest.  The reference for the bounded scan, which must
    return the same (k, tau) bit for bit."""
    rows, roots = [], []
    k = 0
    for a, b, c in zip(fa, fb, h):
        u = sqrt(a * a + b * b)
        if u > abs(c):
            c = -c / u
            if abs(c) < 1.0:              # |c| = 1 grazes: K'(root) = 0
                root = acos(c) - atan2(-a, b)
                if root <= EPS_T:
                    root = root + TWO_PI if k == skip else 0.0
                if root <= t_max:
                    rows.append(k)
                    roots.append(root)
        k += 1
    if not roots:
        return -1, t_max
    cutoff = min(roots) + TIE_TOL
    for k, root in zip(rows, roots):
        if root <= cutoff:
            return k, root
    return -1, t_max        # unreachable: the minimum itself passes the cutoff


def breach_row(fb, h, check):
    """The row that ``dynamics.first_hit`` reports outside its face: with
    the cell test on (check), the first with the smallest K(0) = fb + h,
    when that is below -COEF_TOL; else -1."""
    k0 = np.add(fb, h)
    return (int(k0.argmin()) if check and k0.size and k0.min() < -COEF_TOL
            else -1)


def occupancy_quadrature_line(V1, V2, split=0.0):
    """Probability of the x > split side under the two-piece 1-D density.

    V1 governs x > split, V2 governs x < split; the density is
    exp(-V_j(x)) up to the joint normalizer.
    """
    mass1, _ = quad(lambda x: np.exp(-V1(x)), split, np.inf,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    mass2, _ = quad(lambda x: np.exp(-V2(x)), -np.inf, split,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    total = mass1 + mass2
    if not np.isfinite(total) or total <= 0.0:
        raise ValueError(f"non-finite or empty occupancy masses ({mass1}, {mass2})")
    return mass1 / total


def region_arrays(doc):
    """A model document's region arrays, converted one region at a time.

    The reference for the loader's stacked conversion: each region's M is
    symmetrized on its own as 0.5 (M + M'), and under ``"mean": true`` its
    r becomes M[j] @ r[j].  Returns M, r, k, A, y and L stacked over regions.
    """
    out = {key: [] for key in ("M", "r", "k", "A", "y", "L")}
    for reg in doc["regions"]:
        Mj = np.array(reg["M"], dtype=float)
        Mj = 0.5 * (Mj + Mj.T)
        rj = np.array(reg["r"], dtype=float)
        out["M"].append(Mj)
        out["r"].append(Mj @ rj if doc.get("mean", False) else rj)
        out["k"].append(float(reg["k"]))
        out["A"].append(np.array(reg["A"], dtype=float))
        out["y"].append(np.array(reg["y"], dtype=float))
        out["L"].append(np.array(reg["L_row"], dtype=np.int64).reshape(-1))
    return {key: np.array(v) for key, v in out.items()}
