"""Exact within-region evolution and boundary-event handling.

A trajectory inside region j is the closed-form oscillation
x(t) = x_p + a sin t + b cos t about the region's center x_p.  Crossing
times of the active constraints have closed-form roots (see ``first_hit``);
at a crossing one rule updates the velocity: transmit when the normal
kinetic energy clears the potential step, reflect otherwise.  A hard wall is
a step that no energy clears.

Everything that depends only on the region lives in one Region record per
region, in a RegionTable shared by every chain on the same ModelSpec, so a
segment does arithmetic only.
"""

from __future__ import annotations

import weakref
from math import acos, atan2, ceil, inf, sqrt

import numpy as np

from . import subspace
from .model import cell_table
from .subspace import boundary_normal, check_state

# Root-exclusion window after an event: roots at t <= EPS_T are treated as
# the boundary just left, not a new hit.
EPS_T = 1e-9
# Hit times within TIE_TOL of the minimum count as a corner tie and resolve
# to the lowest constraint row.
TIE_TOL = 1e-9
TWO_PI = 6.283185307179586476925286766559


def first_hit(fa, fb, h, t_max):
    """First boundary crossing among m constraints.

    fa, fb, h are per-constraint float arrays.  Returns (k, tau): k is the
    0-based row of the winning constraint and tau its hit time, or
    (-1, t_max) when nothing is hit in (EPS_T, t_max].

    Per constraint the crossing function is K(t) = fa sin t + fb cos t + h
    = u cos(t + phi) + h with u = sqrt(fa^2 + fb^2) and phi = atan2(-fa, fb).
    Exiting roots (K' < 0) form the single family
    t = arccos(-h/u) - phi + 2*pi*n; the scan picks each constraint's first
    root in (EPS_T, t_max], then the smallest across constraints, breaking
    near-ties (within TIE_TOL) toward the lowest row index.  Scalar ``math``
    calls are deliberate: numpy's vectorized arccos/arctan2 may differ from
    the platform libm by an ulp, and hit times feed straight into the
    recorded states.
    """
    rows, roots = [], []
    k = 0
    for a, b, c in zip(fa.tolist(), fb.tolist(), h.tolist()):
        u = sqrt(a * a + b * b)
        if u > abs(c):
            c = -c / u
            if abs(c) < 1.0:              # |c| = 1 grazes: K'(root) = 0
                t0 = acos(c) - atan2(-a, b)
                root = t0 + TWO_PI * ceil((EPS_T - t0) / TWO_PI)
                if root <= EPS_T:
                    root += TWO_PI
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


def flight(x_p, a, b, t):
    """Position and velocity at time t of x(t) = x_p + a sin t + b cos t."""
    s, c = np.sin(t), np.cos(t)
    return x_p + a * s + b * c, a * c - b * s


def boundary_dynamics(xdot, j1, j2, u1, u2, V1, V2):
    """Velocity update at a potential step between regions j1 and j2.

    u1 points into j1 (so the exiting particle has v1 = u1'xdot <= 0), u2
    into j2.  The normal kinetic energy either clears the step (transmit
    along u2 with the surplus) or does not (reflect).  Tangential components
    are untouched.  A hard wall is the step V2 = inf.  Returns (xdot_new,
    j_new).
    """
    v1 = float(u1.dot(xdot))
    E = 0.5 * v1 * v1
    dV = V2 - V1
    if E < dV:
        return xdot - 2.0 * v1 * u1, j1
    return (xdot - v1 * u1) + sqrt(2.0 * (E - dV)) * u2, j2


class Region:
    """Everything about region j that the segment loop reads.

    Built once, on the region's first visit: the dynamics from
    subspace.ode_param (center x_p, velocity factor S, complete QR basis Q
    of A_j, whose first d columns span the constraint normals), the
    sign-adjusted boundary rows F_j with offsets h = F_j x_p + g_j, per-row
    target region L_j and hyperplane index idx (Python ints), all sliced
    from the model's cell table, the potential's M_j, r_j and k_j, and A_j',
    y_j and Q1' for the contract checks.  The unit normal of a row and, for
    a transition row, the record and normal across the face are filled on
    the row's first hit.  Nothing here is chain state.
    """

    __slots__ = ("j", "x_p", "S", "Q", "d", "F_j", "h", "L_j", "idx", "M",
                 "lin", "k", "At", "y", "Q1t", "normals", "across")

    def __init__(self, spec, j, cells):
        A, y = spec.A[j - 1], spec.y[j - 1]
        self.x_p, self.S, self.Q = subspace.ode_param(
            spec.M[j - 1], spec.r[j - 1], A, y)
        rows = slice(cells.start[j - 1], cells.start[j])
        self.j = j
        self.d = spec.d
        self.F_j = cells.F[rows]
        self.h = self.F_j @ self.x_p + cells.g[rows]
        self.L_j = (cells.t[rows] + 1).tolist()
        self.idx = (cells.i[rows] + 1).tolist()
        self.M = spec.M[j - 1]
        self.lin = spec.r[j - 1]
        self.k = float(spec.k[j - 1])
        self.At = np.ascontiguousarray(A.T)
        self.y = y
        self.Q1t = np.ascontiguousarray(self.Q[:, :self.d].T)
        self.normals = [None] * len(self.idx)
        self.across = [None] * len(self.idx)

    def kinetic(self, xdot) -> float:
        """1/2 xdot'M_j xdot, the kinetic energy in the region's metric."""
        return 0.5 * float(xdot.dot(self.M).dot(xdot))

    def potential(self, x) -> float:
        """V_j(x) = 1/2 x'M_j x - r_j'x + k_j, also at points outside the cell."""
        return (0.5 * float(x.dot(self.M).dot(x)) - float(self.lin.dot(x))
                + self.k)

    def normal(self, k):
        """Unit in-manifold normal of row k, oriented into this region."""
        u = self.normals[k]
        if u is None:
            u = boundary_normal(self.F_j[k], self.Q, self.d)
            self.normals[k] = u
        return u

    def neighbor(self, k, table):
        """(record, normal) across transition row k; the normal points into
        the neighbor."""
        pair = self.across[k]
        if pair is None:
            other = table[self.L_j[k]]
            pair = (other, other.normal(other.idx.index(self.idx[k])))
            self.across[k] = pair
        return pair


class RegionTable(dict):
    """Region records of one model keyed by 1-based index, each built on
    first lookup.

    Holds the model through a weak proxy: the registry behind region_table
    is keyed by the model and must not keep it alive.  The model's cell
    table is decoded once, here.
    """

    def __init__(self, spec):
        super().__init__()
        self.spec = weakref.proxy(spec)
        self.cells = cell_table(spec)

    def __missing__(self, j):
        return self.setdefault(j, Region(self.spec, j, self.cells))


_TABLES = weakref.WeakKeyDictionary()


def region_table(spec) -> RegionTable:
    """The RegionTable shared by every chain run on this ModelSpec object."""
    table = _TABLES.get(spec)
    if table is None:
        table = _TABLES.setdefault(spec, RegionTable(spec))
    return table


def evolve_segment_detail(t_budget, j, x0, xdot0, table):
    """One segment: fly inside region j until a boundary or the budget ends.

    Applies the boundary rule at the segment end.  Returns (x, xdot, tau,
    j_new, k, V1, V2, xdot_pre): the state ready to start the next segment
    in j_new (which differs from j only on a successful transition), the
    time used, the boundary row k of region j that was hit (-1 when the
    budget ran out first), the potentials on either side of it (V2 = V1 at
    a wall) and the velocity before the update.
    """
    reg = table[j]
    check_state(reg.At, reg.y, reg.Q1t, x0, xdot0)
    b = x0 - reg.x_p
    # ndarray.dot makes the same BLAS call as @ without the ufunc dispatch,
    # which costs more than the product at these sizes.
    k, tau = first_hit(reg.F_j.dot(xdot0), reg.F_j.dot(b), reg.h, t_budget)
    x, xdot = flight(reg.x_p, xdot0, b, tau)
    if k < 0:
        return x, xdot, tau, j, k, 0.0, 0.0, xdot

    u1 = reg.normal(k)
    V1 = reg.potential(x)
    if reg.L_j[k] == j:
        xdot_new = boundary_dynamics(xdot, j, j, u1, u1, V1, inf)[0]
        return x, xdot_new, tau, j, k, V1, V1, xdot

    other, u2 = reg.neighbor(k, table)
    V2 = other.potential(x)
    xdot_new, j_new = boundary_dynamics(xdot, j, other.j, u1, u2, V1, V2)
    return x, xdot_new, tau, j_new, k, V1, V2, xdot
