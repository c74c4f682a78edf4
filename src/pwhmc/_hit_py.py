"""Boundary-hit kernel: the per-segment constraint scan.

Per constraint the crossing function is K(t) = fa sin t + fb cos t + h
= u cos(t + phi) + h with u = sqrt(fa^2 + fb^2) and phi = atan2(-fa, fb).
Exiting roots (K' < 0) form the single family t = arccos(-h/u) - phi + 2*pi*n;
the scan picks each constraint's first root in (eps_t, t_max], then the
smallest across constraints, breaking near-ties (within tie_tol) toward the
lowest row index.  Scalar ``math`` calls are deliberate: numpy's vectorized
arccos/arctan2 may differ from the platform libm by an ulp, and hit times
feed straight into the recorded states.
"""

from math import acos, atan2, ceil, inf, sqrt

TWO_PI = 6.283185307179586476925286766559


def first_hit(fa, fb, h, t_max, eps_t, tie_tol):
    """First boundary crossing among m constraints.

    fa, fb, h are per-constraint float arrays.  Returns (k, tau): k is the
    0-based row of the winning constraint and tau its hit time, or
    (-1, t_max) when nothing is hit in (eps_t, t_max].
    """
    rows, roots = [], []
    k = 0
    for a, b, c in zip(fa.tolist(), fb.tolist(), h.tolist()):
        u = sqrt(a * a + b * b)
        if u > abs(c):
            c = -c / u
            if abs(c) < 1.0:              # |c| = 1 grazes: K'(root) = 0
                t0 = acos(c) - atan2(-a, b)
                root = t0 + TWO_PI * ceil((eps_t - t0) / TWO_PI)
                if root <= eps_t:
                    root += TWO_PI
                if root <= t_max:
                    rows.append(k)
                    roots.append(root)
        k += 1
    if not roots:
        return -1, t_max
    cutoff = min(roots) + tie_tol
    for k, root in zip(rows, roots):
        if root <= cutoff:
            return k, root
    return -1, t_max        # unreachable: the minimum itself passes the cutoff
