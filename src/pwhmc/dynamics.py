"""Exact within-region evolution and boundary-event handling.

Region j runs in its whitened tangent coordinates x = x_p + S z, S'M_jS = I
(see ``subspace.ode_param``), where the energy is 1/2 |zdot|^2 + 1/2 |z|^2 +
base_j and a trajectory is z(t) = zdot sin t + z cos t.  A chain carries
its state as one (2, n - d) array Y = [zdot; z]: a flight is one 2 x 2
rotation of Y, written into a scratch matrix the chain owns, and each
linear map of the state is one product Y.dot(.).
Crossing times of the boundary rows G_j z + h >= 0 have closed-form roots
(see ``first_hit``); at a crossing one rule, ``boundary_dynamics``, decides
from the velocity along the unit row of G_j, which is the face normal in
the metric M_j: transmit when the normal kinetic energy clears the
potential step, reflect otherwise.  A hard wall is a step that no energy
clears.  A flat face, whose two regions have equal M, r, k and c_j, has no
step: the particle transmits with its normal speed unchanged, and neither
potential is computed, since a computed dV there is rounding alone and
could reflect a near-grazing crossing.  For a state on such a face that
rule is one affine map of Y, with the kept normal speed folded into the
face map, so a flat crossing is one product and one add.

Everything that depends only on the region lives in one Region record per
region, sliced from the model's cell table on the region's first visit into
``ModelSpec.regions``, which every chain on the model shares.  Its faces
are columns of that table indexed by cell-table entry, built with it but
for the face maps, which a region's first visit fills; so a segment does
arithmetic only, and no array it makes outlives it but the states it
returns.
"""

from __future__ import annotations

from math import acos, atan2, cos, sin, sqrt

import numpy as np

from .errors import DegenerateNormalError
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
# A region table of up to this many entries hands the segment each
# transition's face map, far normal and offset as ready views, kept in
# lists: making a view of a stacked array costs about 0.17 us, three per
# transmission.  A larger table's segment makes the views on access, as
# three view headers of 128 bytes per entry then fall out of the cache and
# reading a cold one costs more: in one process on one CPU, lists made
# chains about 5% faster on onenorm (24 entries) and ntop (36), and 4%
# slower on the 1024-region sphere in R^10 (10,240) (BENCH_alloc.json).
VIEW_ENTRIES = 512


def first_hit(fa, fb, h, t_max, skip):
    """First boundary crossing among m constraints.

    fa, fb are per-constraint floats, as lists, which the scan reads
    fastest, or as arrays.  h holds the offsets: plain (a list or an
    array), which are all scanned, or a wide region's ``Reach``, whose
    constants the numpy pre-selection reads; fa and fb are then arrays,
    which it reads without a conversion.  skip is the row just crossed
    (-1 if none).  Returns (k, tau): k is the 0-based row of the winning
    constraint and tau its hit time, or (-1, t_max) when nothing is hit in
    [0, t_max].

    Per constraint the crossing function is K(t) = fa sin t + fb cos t + h
    = u cos(t + phi) + h with u = sqrt(fa^2 + fb^2) and phi = atan2(-fa, fb).
    Exiting roots (K' < 0) are t0 + 2*pi*n with t0 = arccos(-h/u) - phi in
    (-pi, 2*pi).  t0 <= EPS_T means the particle is leaving the row while
    outside its face or within about EPS_T u of it: on skip that is the
    face just left, and the root a period on is taken; any other row is hit
    at tau = 0.  The smallest root wins, near-ties (within TIE_TOL) going to
    the lowest row.  Scalar ``math`` calls are deliberate: numpy's
    vectorized arccos/arctan2 may differ from the platform libm by an ulp,
    and hit times feed straight into the recorded states.  Of a Reach only
    the rows that ``_candidates`` keeps are scanned, in order, which
    changes no result.

    The scan skips the roots of rows that cannot be hit first.  |K'| <= u,
    so a row with K(0) = fb + h > u cut has no root before cut, which
    starts at t_max + SELECT_SLACK and drops to root + TIE_TOL +
    SELECT_SLACK at each smaller root kept.  Such a row's computed root
    lies past the final minimum plus TIE_TOL: SELECT_SLACK dwarfs the
    error of acos near grazing (about 2e-8) and the rounding of the bound.
    So it is neither the minimum nor within the tie window, and skipping
    it changes no result, bit for bit.
    """
    kept = None
    if isinstance(h, Reach):
        rows = _candidates(fa, fb, h, t_max)
        if not rows.size:
            return -1, t_max
        kept = rows.tolist()          # the scan numbers kept rows 0, 1, ...
        fa, fb = fa[rows].tolist(), fb[rows].tolist()
        h = [h.offsets[k] for k in kept]
        skip = kept.index(skip) if skip in kept else -1
    rows, roots = [], []
    k = 0
    cut = t_max + SELECT_SLACK
    for a, b, c in zip(fa, fb, h):
        u = sqrt(a * a + b * b)
        if u > abs(c) and b + c <= u * cut:
            c = -c / u
            if abs(c) < 1.0:              # |c| = 1 grazes: K'(root) = 0
                root = acos(c) - atan2(-a, b)
                if root <= EPS_T:
                    root = root + TWO_PI if k == skip else 0.0
                if root <= t_max:
                    rows.append(k)
                    roots.append(root)
                    if root + TIE_TOL + SELECT_SLACK < cut:
                        cut = root + TIE_TOL + SELECT_SLACK
        k += 1
    if not roots:
        return -1, t_max
    cutoff = min(roots) + TIE_TOL
    for k, root in zip(rows, roots):
        if root <= cutoff:
            return (k if kept is None else kept[k]), root
    return -1, t_max        # unreachable: the minimum itself passes the cutoff


class Reach:
    """The constants of first_hit's pre-selection over offsets h, computed
    once per region: h as a list, for the scan, -h, and the thresholds that
    u = sqrt(fa^2 + fb^2) must pass for a row to be maybe in reach
    (|h| (1 - REACH_MARGIN)) or surely in reach (|h| (1 + REACH_MARGIN))."""

    __slots__ = ("offsets", "negh", "maybe", "sure")

    def __init__(self, h):
        h = np.asarray(h, dtype=float)
        ah = np.abs(h)
        self.offsets, self.negh = h.tolist(), -h
        self.maybe, self.sure = ah * (1.0 - REACH_MARGIN), ah * (1.0 + REACH_MARGIN)


def _candidates(fa, fb, reach, t_max):
    """Ascending rows among which first_hit's scan finds its result.

    Rows maybe in reach (u > |h| (1 - REACH_MARGIN)) are kept.  When each
    of them is surely in reach (u > |h| (1 + REACH_MARGIN), so the scan
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
    rows = (u > reach.maybe).nonzero()[0]                   # maybe in reach
    if rows.size:
        u = u[rows]
        if np.count_nonzero(u > reach.sure[rows]) == rows.size:   # all surely
            roots = np.arccos(reach.negh[rows] / u)
            roots += np.arctan2(fa[rows], fb[rows])         # -phi = atan2(fa, fb)
            low = roots.min()
            if low > EPS_T + SELECT_SLACK:
                rows = rows[roots <= min(t_max, low + TIE_TOL) + SELECT_SLACK]
    return rows


def flight(Y, s, c, rot):
    """State Y = [zdot; z] after time t on z(t) = zdot sin t + z cos t, given
    s = sin t and c = cos t: one rotation of the stacked rows.  The rotation
    is written into rot, a (2, 2) scratch of the caller's: each chain owns
    one, so that chains running in threads never share it."""
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1] = -s
    rot[1, 0] = s
    return rot.dot(Y)


def boundary_dynamics(v1, V1, V2):
    """The velocity rule at a potential step V1 -> V2, given the normal
    velocity v1 = g1'zdot <= 0 of the exiting particle (g1 the unit normal
    into the region it leaves, in that region's coordinates).

    The normal kinetic energy either clears the step, and the particle
    transmits: the face-tangent part of zdot carries over to the far side
    and the returned speed goes along the far side's unit normal g2.  Or it
    does not, and the particle reflects, zdot - 2 v1 g1: the return is None.
    A hard wall is the step V2 = inf.
    """
    E = 0.5 * v1 * v1
    dV = V2 - V1
    if E < dV:
        return None
    return sqrt(2.0 * (E - dV))


class Region:
    """Everything about region j that the segment loop reads, besides its
    faces' columns in the RegionTable.

    Built on the region's first visit from M_j and slices of the model's
    cell table: x_p, S, GT = (F_j S)' as one contiguous array, so that one
    product Y.dot(GT) gives both coefficient rows of the hit scan for a
    state Y = [zdot; z], normals = F_j S, whose contiguous row k is the
    unscaled normal a reflection off row k reads, hits, the row
    offsets h as first_hit takes them (a list of floats, or, for a wide
    region of more than SCAN_ROWS rows, its ``Reach``), and first, the
    cell-table entry of row 0: row k is entry first + k.  Nothing here is
    chain state.
    """

    __slots__ = ("x_p", "S", "M", "GT", "normals", "hits", "wide", "first")

    def __init__(self, cells, M, j):
        rows = slice(cells.start[j - 1], cells.start[j])
        self.x_p = cells.x_p[j - 1]
        self.S = cells.S[j - 1]
        self.M = M[j - 1]
        self.GT = np.ascontiguousarray(cells.G[rows].T)
        self.normals = cells.G[rows]
        self.wide = rows.stop - rows.start > SCAN_ROWS
        self.hits = Reach(cells.h[rows]) if self.wide else cells.h[rows].tolist()
        self.first = int(rows.start)

    def coords(self, x):
        """Whitened coordinates S'M(x - x_p) of a point x on the piece."""
        return self.S.T.dot(self.M.dot(x - self.x_p))


def _fault(cells, e):
    """The error a hit on entry e raises: its normal, or its mirror's, is too short."""
    bad = cells.mirror[e] if cells.norm[e] >= NORMAL_DEGENERACY_TOL else e
    return DegenerateNormalError(
        f"hyperplane {cells.i[e] + 1} is parallel to region {cells.j[bad] + 1}'s "
        f"piece (row norm {cells.norm[bad]:.3e})")


class RegionTable(dict):
    """Region records of one model (``ModelSpec.regions``) keyed by 1-based
    label, each built on first lookup from the model's cell table and M
    stack, and the face columns of every cell-table entry e; it holds the
    model's arrays, not the model.  base is the cell table's base column as
    a list, so that a segment reads offsets as floats.

    Built with the table, as lists: norm[e] = |G_e|, so the face's unit
    normal into the entry's region is g1 = G_e / norm[e]; label[e], the
    1-based region across a transition, 0 on a wall or -1 on a row no rule
    crosses (its normal or its mirror's is too short to divide by), which
    raises faults[e] when hit; k2[e], the face's row across (the mirror
    entry's); and pot[j - 1], region j's M, r, k and c in one row.
    A transition's face map TT[e] = T', G2[e] = g2, the neighbor's unit
    normal of row k2 into it, Q[e] = q_T and flat[e], whether the potential
    is the same function on both sides, are filled on its region's first
    visit (see ``fill``) into maps, the stacked arrays of all three.  A
    flat entry's TT and Q have the kept normal speed folded in, so only a
    general transmission reads G2.  TT, G2 and Q are those arrays, or, in a
    table of up to VIEW_ENTRIES entries, lists that hold each filled
    transition's views of them.
    """

    # slots: a segment reads these on every event, faster than from a __dict__
    __slots__ = ("cells", "M", "pot", "base", "label", "norm", "k2", "faults",
                 "maps", "TT", "G2", "Q", "flat")

    def __init__(self, spec):
        super().__init__()
        cells = spec.cells
        self.cells, self.M, self.base = cells, spec.M, cells.base.tolist()
        self.pot = np.concatenate([spec.M.reshape(spec.J, -1), spec.r,
                                   spec.k[:, None], cells.c[:, None]], axis=1)
        far = cells.mirror
        ok = cells.norm >= NORMAL_DEGENERACY_TOL           # NaN fails too
        # a wall has no mirror, and validation gives each transition one
        cross = ok & (cells.t != cells.j) & (cells.norm[far] >= NORMAL_DEGENERACY_TOL)
        label = np.where(cross, cells.t + 1, np.where(ok & (cells.t == cells.j), 0, -1))
        self.label, self.norm = label.tolist(), cells.norm.tolist()
        self.k2 = (far - cells.start[cells.t]).tolist()
        self.faults = {e: _fault(cells, e) for e in np.flatnonzero(label < 0).tolist()}
        E, w = cells.G.shape
        self.maps = np.empty((E, w, w)), np.empty((E, w)), np.empty((E, w))
        self.TT, self.G2, self.Q = ([None] * E for _ in self.maps) \
            if E <= VIEW_ENTRIES else self.maps
        self.flat = [False] * E

    def __missing__(self, j):
        reg = Region(self.cells, self.M, j)
        self.fill(slice(reg.first, reg.first + len(reg.normals)))
        return self.setdefault(j, reg)

    def fill(self, rows):
        """Fill TT, G2, Q and flat of the transitions among the entries rows
        (a slice) in one stacked pass; products run per entry, so no entry's
        bits depend on the others filled with it.

        Face points map into the neighbor's coordinates by z2 = P z + q, P
        = S2'M2 S, q = S2'M2 (x_p - x_p2) (S2'M2 from the cell table), and
        T = P (I - g1 g1') is P on the face's tangent directions.  On the
        face g1'z = -h_e / |G_e|, so for a state Y there Y.dot(TT) is [P
        (zdot - v1 g1); z2 - q_T], v1 = g1'zdot, q_T = q - (h_e / |G_e|) P
        g1: one product gives the tangential velocity carried across and,
        plus q_T, the position on the far side.

        A face is flat when its two regions' pot rows (M, r, k and c) are
        equal, so that V + c is one function on both sides: the exact rule
        transmits with the normal speed unchanged, and a computed dV would
        be rounding.  Since v1 <= 0, that speed |v1| = -g1'zdot along g2 is
        linear in zdot, and a flat entry stores it folded in: TT = T' - g1
        g2' and Q = q_T - (h_e / |G_e|) g2, so that Y.dot(TT) + [0; Q] is
        [P (zdot - v1 g1) + |v1| g2; z2] for a state Y on the face (there g1'z
        = -h_e / |G_e|).  Every other entry keeps T', g2 and q_T.
        """
        e = rows.start + np.flatnonzero(np.array(self.label[rows]) > 0)
        if not e.size:
            return
        cells = self.cells
        j, t, f, w = cells.j[e], cells.t[e], cells.mirror[e], cells.norm[e][:, None]
        SM = cells.SM[t]
        P = SM @ cells.S[j]
        g1 = cells.G[e] / w
        Pg1 = (P @ g1[..., None])[..., 0]
        g2 = cells.G[f] / cells.norm[f][:, None]
        hw = cells.h[e][:, None] / w
        T = (P - Pg1[..., None] * g1[:, None]).transpose(0, 2, 1)
        q = (SM @ (cells.x_p[j] - cells.x_p[t])[..., None])[..., 0] - hw * Pg1
        flat = (self.pot[t] == self.pot[j]).all(1)
        # each entry's final map is assigned once, so that a second fill of
        # the region, from another thread, writes the same bits
        TT, G2, Q = self.maps
        TT[e] = np.where(flat[:, None, None], T - g1[:, :, None] * g2[:, None], T)
        G2[e] = g2
        Q[e] = np.where(flat[:, None], q - hw * g2, q)
        if self.TT is not TT:               # lists: each entry's views, made once
            for entry in e.tolist():
                self.TT[entry], self.G2[entry] = TT[entry], G2[entry]
                self.Q[entry] = Q[entry]
        for entry in e[flat].tolist():
            self.flat[entry] = True


def evolve_segment_detail(t_budget, j, Y, skip, table, rot):
    """One segment: fly inside region j until a boundary or the budget ends.

    Y = [zdot; z] is the (2, n - d) state in region j's coordinates and skip
    the row of j just crossed (-1 if none); rot is the chain's (2, 2)
    scratch for ``flight``.  Applies the boundary rule at the segment end.
    Returns (Y, tau, j_new, k, step, Y_pre): the state in the coordinates
    of j_new (which differs from j only on a successful transition), the
    time used, the row hit as numbered in j_new (the next segment's skip;
    -1 when the budget ran out first), the potentials (V1, V2) with c_j on
    either side of a potential step, else None, and the state before the
    update.  Only a potential step computes them: a flat face transmits and
    a wall reflects whatever they are.  A flat crossing is the face map
    alone, one product and one add with the speed folded in; it reads no
    v1 and no G2.  Y is not modified; the returned
    state is a fresh array, and the segment allocates no other array that
    outlives it.
    """
    reg = table[j]
    # ndarray.dot makes the same BLAS call as @ without the ufunc dispatch,
    # which costs more than the product at these sizes; the scan then runs
    # on floats, from one tolist() (a wide region keeps arrays).
    fab = Y.dot(reg.GT)
    fa, fb = (fab[0], fab[1]) if reg.wide else fab.tolist()
    k, tau = first_hit(fa, fb, reg.hits, t_budget, skip)
    s, c = sin(tau), cos(tau)
    Y = flight(Y, s, c, rot)
    if k < 0:
        return Y, tau, j, k, None, Y

    e = reg.first + k
    label = table.label[e]
    if label < 0:                         # a row no rule crosses
        raise table.faults[e]
    step = None
    if label > 0:
        W = Y.dot(table.TT[e])
        z2 = W[1]
        z2 += table.Q[e]
        if table.flat[e]:                 # the speed is folded into the map
            return W, tau, label, table.k2[e], None, Y
        z = Y[1]
        step = (0.5 * float(z.dot(z)) + table.base[j - 1],
                0.5 * float(z2.dot(z2)) + table.base[label - 1])
    nw = table.norm[e]
    # v1 = g1'zdot at tau, from the hit scan's coefficients of row k
    v1 = (fa[k] * c - fb[k] * s) / nw
    if step is not None:
        speed = boundary_dynamics(v1, *step)
        if speed is not None:
            zdot2 = W[0]
            zdot2 += speed * table.G2[e]
            return W, tau, label, table.k2[e], step, Y
    # reflect: at a step the normal energy does not clear, or at a wall,
    # the step V2 = inf
    Y_new = Y.copy()
    Y_new[0] -= (2.0 * v1 / nw) * reg.normals[k]
    return Y_new, tau, j, k, step, Y
