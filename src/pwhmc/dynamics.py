"""Exact within-region evolution and boundary-event handling.

Region j runs in its whitened tangent coordinates x = x_p + S z, S'M_jS = I
(see ``subspace.ode_param``), where the energy is 1/2 |zdot|^2 + 1/2 |z|^2 +
base_j and a trajectory is z(t) = zdot sin t + z cos t.  Crossing times of
its boundary rows G_j z + h >= 0 have closed-form roots (see
``first_hit``); at a crossing one rule updates the velocity along the unit
row of G_j, which is the face normal in the metric M_j: transmit when the
normal kinetic energy clears the potential step, reflect otherwise.  A hard
wall is a step that no energy clears.

Everything that depends only on the region lives in one Region record per
region, in a RegionTable shared by every chain on the same ModelSpec, so a
segment does arithmetic only.
"""

from __future__ import annotations

import weakref
from math import acos, atan2, cos, inf, sin, sqrt

import numpy as np

from . import subspace
from .errors import DegenerateNormalError
from .model import cell_table
from .subspace import NORMAL_DEGENERACY_TOL

# Root-exclusion window after an event: on the row just crossed, roots at
# t <= EPS_T are treated as the boundary just left, not a new hit.
EPS_T = 1e-9
# Hit times within TIE_TOL of the minimum count as a corner tie and resolve
# to the lowest constraint row.
TIE_TOL = 1e-9
TWO_PI = 6.283185307179586476925286766559
# Above this many rows first_hit lets numpy drop the rows that cannot win
# before the exact scan.  The numpy step costs about as much as scanning
# 48-64 rows, whatever the width: per call on one CPU, the scan alone is
# 1.6x faster at 32 rows and 2.0x slower at 128 (BENCH_hitscan.json).
SCAN_ROWS = 64
# Relative margin on u > |h| in the selection, so that a row kept as maybe
# in reach or counted as surely in reach is so by the scan's own test,
# however the two round u.
REACH_MARGIN = 1e-12
# Absolute margin on the selection's approximate roots: about 1e9 times
# their gap to the scan's roots.  Both compute u and -h/u alike, so only
# numpy's arccos/arctan2 and libm's differ: by at most 8.9e-16 in the root
# over 1e6 random rows surely in reach, near-grazing ones included.
SELECT_SLACK = 1e-6


def first_hit(fa, fb, h, t_max, skip):
    """First boundary crossing among m constraints.

    fa, fb, h are per-constraint float arrays, and skip is the row just
    crossed (-1 if none).  Returns (k, tau): k is the 0-based row of the
    winning constraint and tau its hit time, or (-1, t_max) when nothing is
    hit in [0, t_max].

    Per constraint the crossing function is K(t) = fa sin t + fb cos t + h
    = u cos(t + phi) + h with u = sqrt(fa^2 + fb^2) and phi = atan2(-fa, fb).
    Exiting roots (K' < 0) are t0 + 2*pi*n with t0 = arccos(-h/u) - phi in
    (-pi, 2*pi).  t0 <= EPS_T means the particle is leaving the row while
    outside its face or within about EPS_T u of it: on skip that is the
    face just left, and the root a period on is taken; any other row is hit
    at tau = 0.  The smallest root wins, near-ties (within TIE_TOL) going to
    the lowest row.  Scalar ``math`` calls are deliberate: numpy's
    vectorized arccos/arctan2 may differ from the platform libm by an ulp,
    and hit times feed straight into the recorded states.  Up to SCAN_ROWS
    rows are all scanned; of a wider region only the rows that
    ``_candidates`` keeps, in order, which changes no result.
    """
    kept = None
    if len(h) > SCAN_ROWS:
        kept = _candidates(fa, fb, h, t_max)
        fa, fb, h = fa[kept], fb[kept], h[kept]
        kept = kept.tolist()          # the scan numbers kept rows 0, 1, ...
        skip = kept.index(skip) if skip in kept else -1
    rows, roots = [], []
    k = 0
    for a, b, c in zip(fa.tolist(), fb.tolist(), h.tolist()):
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
            return (k if kept is None else kept[k]), root
    return -1, t_max        # unreachable: the minimum itself passes the cutoff


def _candidates(fa, fb, h, t_max):
    """Ascending rows among which first_hit's scan finds its result.

    Rows maybe in reach (u (1 + REACH_MARGIN) > |h|) are kept.  When each
    of them is surely in reach (u (1 - REACH_MARGIN) > |h|, so the scan
    counts it), numpy computes their approximate roots, and when the
    smallest, r, lies past the EPS_T window, only rows with roots up to
    min(t_max, r + TIE_TOL) + SELECT_SLACK are kept.  No root was moved by
    the window, so r is the scan's minimum up to the approximation's gap;
    SELECT_SLACK dwarfs that gap, so every row the scan could return is
    kept and the scan of the rest returns the same (k, tau) bit for bit.
    Otherwise every row maybe in reach is kept: a row that may only graze
    its level has a touching point that is no hit and cannot stand in for
    r, and near the window the skip and tau = 0 rules move roots.
    """
    u = np.sqrt(fa * fa + fb * fb)
    ah = np.abs(h)
    rows = np.flatnonzero(u * (1.0 + REACH_MARGIN) > ah)     # maybe in reach
    sure = np.count_nonzero(u * (1.0 - REACH_MARGIN) > ah)   # surely in reach
    if rows.size and sure == rows.size:
        # -phi = atan2(fa, fb)
        roots = np.arccos(-h[rows] / u[rows]) + np.arctan2(fa[rows], fb[rows])
        low = roots.min()
        if low > EPS_T + SELECT_SLACK:
            rows = rows[roots <= min(t_max, low + TIE_TOL) + SELECT_SLACK]
    return rows


def flight(a, b, t):
    """Position and velocity at time t of z(t) = a sin t + b cos t."""
    s, c = sin(t), cos(t)
    return a * s + b * c, a * c - b * s


def boundary_dynamics(zdot, j1, j2, g1, g2, P, V1, V2):
    """Velocity update at a potential step between regions j1 and j2.

    g1 is the unit normal into j1 in j1's coordinates (so the exiting
    particle has v1 = g1'zdot <= 0), g2 the one into j2 in j2's, and P
    carries face-tangent velocities from j1's coordinates to j2's.  The
    normal kinetic energy either clears the step (transmit: the tangential
    part through P, the surplus along g2) or does not (reflect; P is
    unused).  A hard wall is the step V2 = inf.  Returns (zdot_new, j_new).
    """
    v1 = float(g1.dot(zdot))
    E = 0.5 * v1 * v1
    dV = V2 - V1
    if E < dV:
        return zdot - 2.0 * v1 * g1, j1
    return P.dot(zdot - v1 * g1) + sqrt(2.0 * (E - dV)) * g2, j2


class Region:
    """Everything about region j that the segment loop reads.

    Built once, on the region's first visit: x_p and S from
    subspace.ode_param, M_j, the boundary rows G = F_j S and offsets
    h = F_j x_p + g_j of the sign-adjusted rows F_j, g_j in the model's cell
    table, per-row target region L_j and hyperplane index idx (Python
    ints), and base = V_j(x_p) + c_j.  A row's unit normal and, for a
    transition row, what lies across the face are filled on the row's first
    hit.  Nothing here is chain state.
    """

    __slots__ = ("j", "x_p", "S", "M", "G", "h", "L_j", "idx", "base",
                 "normals", "across")

    def __init__(self, spec, j, cells):
        M, r = spec.M[j - 1], spec.r[j - 1]
        x_p, self.S, c = subspace.ode_param(M, r, spec.A[j - 1],
                                            spec.y[j - 1])
        rows = slice(cells.start[j - 1], cells.start[j])
        F = cells.F[rows]
        self.j = j
        self.x_p = x_p
        self.M = M
        self.G = F.dot(self.S)
        self.h = F.dot(x_p) + cells.g[rows]
        self.L_j = (cells.t[rows] + 1).tolist()
        self.idx = (cells.i[rows] + 1).tolist()
        self.base = (0.5 * float(x_p.dot(M).dot(x_p)) - float(r.dot(x_p))
                     + float(spec.k[j - 1]) + c)
        self.normals = [None] * len(self.idx)
        self.across = [None] * len(self.idx)

    def coords(self, x):
        """Whitened coordinates S'M(x - x_p) of a point x on the piece."""
        return self.S.T.dot(self.M.dot(x - self.x_p))

    def normal(self, k):
        """Unit row k of G: the normal of row k's face in the metric M_j,
        oriented into this region."""
        g = self.normals[k]
        if g is None:
            w = self.G[k]
            nw = sqrt(float(w.dot(w)))
            if not nw >= NORMAL_DEGENERACY_TOL:        # NaN fails too
                raise DegenerateNormalError(
                    f"hyperplane {self.idx[k]} is parallel to region "
                    f"{self.j}'s piece (row norm {nw:.3e})")
            g = w / nw
            self.normals[k] = g
        return g

    def neighbor(self, k, table):
        """(record, k2, P, q, g2) across transition row k: the face's row
        k2 in the neighbor and its unit normal g2 into it, and the map
        z2 = P z + q of face points into the neighbor's coordinates,
        P = S2'M2 S and q = S2'M2 (x_p - x_p2)."""
        across = self.across[k]
        if across is None:
            other = table[self.L_j[k]]
            k2 = other.idx.index(self.idx[k])
            SM = other.S.T.dot(other.M)
            across = (other, k2, SM.dot(self.S), SM.dot(self.x_p - other.x_p),
                      other.normal(k2))
            self.across[k] = across
        return across


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


def evolve_segment_detail(t_budget, j, z0, zdot0, skip, table):
    """One segment: fly inside region j until a boundary or the budget ends.

    (z0, zdot0) is the state in region j's coordinates and skip the row of
    j just crossed (-1 if none).  Applies the boundary rule at the segment
    end.  Returns (z, zdot, tau, j_new, k, V1, V2, zdot_pre): the state in
    the coordinates of j_new (which differs from j only on a successful
    transition), the time used, the row hit as numbered in j_new (the next
    segment's skip; -1 when the budget ran out first), the potentials with
    c_j on either side of it (V2 = V1 at a wall) and the velocity before
    the update.
    """
    reg = table[j]
    # ndarray.dot makes the same BLAS call as @ without the ufunc dispatch,
    # which costs more than the product at these sizes.
    k, tau = first_hit(reg.G.dot(zdot0), reg.G.dot(z0), reg.h, t_budget,
                       skip)
    z, zdot = flight(zdot0, z0, tau)
    if k < 0:
        return z, zdot, tau, j, k, 0.0, 0.0, zdot

    g1 = reg.normal(k)
    V1 = 0.5 * float(z.dot(z)) + reg.base
    if reg.L_j[k] == j:
        zdot_new = boundary_dynamics(zdot, j, j, g1, g1, None, V1, inf)[0]
        return z, zdot_new, tau, j, k, V1, V1, zdot

    other, k2, P, q, g2 = reg.neighbor(k, table)
    z2 = P.dot(z) + q
    V2 = 0.5 * float(z2.dot(z2)) + other.base
    zdot_new, j_new = boundary_dynamics(zdot, j, other.j, g1, g2, P, V1, V2)
    if j_new == j:
        return z, zdot_new, tau, j, k, V1, V2, zdot
    return z2, zdot_new, tau, j_new, k2, V1, V2, zdot
