"""Exact within-region evolution and boundary-event handling.

Region j runs in its whitened tangent coordinates x = x_p + S z, S'M_jS = I
(see ``subspace.ode_param``), where the energy is 1/2 |zdot|^2 + 1/2 |z|^2 +
base_j and a trajectory is z(t) = zdot sin t + z cos t.  A chain carries
its state as one (2, n - d) array Y = [zdot; z]: a flight is one 2 x 2
rotation of Y, written into a scratch matrix the chain owns, and each
linear map of the state is one product Y.dot(.).
Crossing times of the boundary rows G_j z + h >= 0 have closed-form roots
(see ``first_hit``, and ``wide_hit`` for a region of more than SCAN_ROWS
rows); at a crossing one rule, ``boundary_dynamics``, decides
from the velocity along the unit row of G_j, which is the face normal in
the metric M_j: transmit when the normal kinetic energy clears the
potential step, reflect otherwise.  A hard wall is a step that no energy
clears, and a flat face, whose two regions have equal M, r and k and c_j
within C_ULPS ulps, a step of zero, which every energy clears with its
normal speed unchanged.  For a state on the face both rules are one
affine map of Y, the reflection I - 2 g1 g1' at a wall and at a flat face
the face map with the kept normal speed folded in, so that such an event
is one product and one add and neither potential is computed: a computed
dV there is rounding alone and could reflect a near-grazing crossing.
Only a potential step forms the potentials and applies the rule.  A
segment that starts after a crossing into its region outside the region's
cell, which a model whose faces do not match from both sides allows,
raises ContractError there.  Only a crossing can land there: a wall's map
returns the position to rounding and a reflection keeps it, so the hit
scan tests the cell only on a segment that starts on a transition row.

Everything that depends only on the region lives in one Region record per
region, sliced from the model's cell table on the region's first visit into
``ModelSpec.regions``, which every chain on the model shares.  Its faces
are columns of that table indexed by cell-table entry, built with it but
for the face maps, which a region's first visit fills; so a segment does
arithmetic only, and no array it makes outlives it but the states it
returns.

On a model whose pieces are planes (n - d = 2) and whose regions all take
the scalar scan whole (at most SCAN_ROWS rows), numpy's dispatch costs
more than the arithmetic on arrays of two to four elements, so the table
also holds each region's rows and each face map as plain floats, and the
chain runs ``planar_segment``: the same rules on the state as a tuple of
four floats.  ``evolve_segment_detail`` runs every other model and is the
planar segment's reference.  The two round some products differently, so
a planar chain agrees with one on the arrays to rounding, not bit for bit.
"""

from __future__ import annotations

from math import acos, atan2, cos, inf, sin, sqrt

import numpy as np

from .errors import ContractError, DegenerateNormalError
from .subspace import NORMAL_DEGENERACY_TOL

# Root-exclusion window after an event: on the row just crossed, roots at
# t <= EPS_T are treated as the boundary just left, not a new hit.
EPS_T = 1e-9
# Hit times within TIE_TOL of the minimum count as a corner tie and resolve
# to the lowest constraint row.
TIE_TOL = 1e-9
TWO_PI = 6.283185307179586476925286766559
# Above this many rows a region's scan is wide_hit, which lets numpy drop
# the rows that cannot win before the exact scan.  The numpy step costs
# about as much as scanning 48-64 rows, whatever the width: per call on one
# CPU, the scan alone is 1.6x faster at 32 rows and 2.0x slower at 128
# (BENCH_hitscan.json).
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
# Tolerance of the start check, on the start's manifold residual and cell
# breach, of a segment's start after a crossing and of the kept-row check: a
# state more than this outside a row of its cell (K(0) = G z + h <
# -COEF_TOL) is refused.
COEF_TOL = 1e-8
# Two regions' c_j within this many ulps are one constant: c_j is computed
# (``subspace.ode_param``), not stated by the model, and the stacked
# computation rounds it apart by up to 2 ulps on faces where M, r and k
# agree bit for bit.
C_ULPS = 8


def first_hit(fa, fb, h, t_max, skip, check):
    """First boundary crossing among m constraints.

    fa, fb and h are per-constraint floats, as lists, which the scan reads
    fastest, or as arrays; a wide region's rows go to ``wide_hit``
    instead.  skip is the row just crossed (-1 if none).  Returns (k, tau,
    out): k is the 0-based row of the winning constraint and tau its hit
    time, or (-1, t_max) when nothing is hit in [0, t_max].  out is -1
    unless check is true and some row reads K(0) = fb + h < -COEF_TOL:
    then it is the first row with the smallest K(0), and the state lies
    outside the cell these rows bound, which a segment refuses.  The
    caller sets check, a segment only after a crossing into its region
    (see ``evolve_segment_detail``), and it moves no (k, tau).  Every row
    counts toward out, those out of reach too: a row with h < 0 and u <=
    -h lies outside its face for the whole segment, and no root of it is
    ever taken.

    Per constraint the crossing function is K(t) = fa sin t + fb cos t + h
    = u cos(t + phi) + h with u = sqrt(fa^2 + fb^2) and phi = atan2(-fa, fb).
    Exiting roots (K' < 0) are t0 + 2*pi*n with t0 = arccos(-h/u) - phi in
    (-pi, 2*pi).  t0 <= EPS_T means the particle is leaving the row while
    outside its face or within about EPS_T u of it: on skip that is the
    face just left, and the root a period on is taken; any other row is hit
    at tau = 0.  The smallest root wins, near-ties (within TIE_TOL) going to
    the lowest row.  Scalar ``math`` calls are deliberate: numpy's
    vectorized arccos/arctan2 may differ from the platform libm by an ulp,
    and hit times feed straight into the recorded states.

    The scan skips the roots of rows that cannot be hit first.  |K'| <= u,
    so a row with K(0) = fb + h > u cut has no root before cut, which
    starts at t_max + SELECT_SLACK and is root + TIE_TOL + SELECT_SLACK
    after each smaller root kept.  Such a row's computed root lies past
    the final minimum plus TIE_TOL: SELECT_SLACK dwarfs the error of acos
    near grazing (about 2e-8) and the rounding of the bound.  So it is
    neither the minimum nor within the tie window, and skipping it changes
    no result, bit for bit.  Nor is it out: a row in reach with K(0) < 0
    <= u cut passes the bound, so K(0) meets the floor only on rows that
    pass it or lie out of reach.
    """
    low = -COEF_TOL if check else -inf
    hits, out = [], -1                    # (row, root) of each root kept
    best, cut = t_max, t_max + SELECT_SLACK   # the smallest root kept
    k = 0
    for a, b, c in zip(fa, fb, h):
        u = sqrt(a * a + b * b)
        if u > abs(c):
            k0 = b + c
            if k0 <= u * cut:
                if k0 < low:
                    low, out = k0, k
                c = -c / u
                if abs(c) < 1.0:          # |c| = 1 grazes: K'(root) = 0
                    root = acos(c) - atan2(-a, b)
                    if root <= EPS_T:
                        root = root + TWO_PI if k == skip else 0.0
                    if root <= t_max:
                        hits.append((k, root))
                        if root < best:
                            best, cut = root, root + TIE_TOL + SELECT_SLACK
        elif b + c < low:
            low, out = b + c, k
        k += 1
    best += TIE_TOL
    for k, root in hits:
        if root <= best:
            return k, root, out
    return -1, t_max, out


def wide_hit(fa, fb, reach, t_max, skip, check):
    """``first_hit`` on a wide region's rows: fa and fb as arrays, the
    offsets as the region's ``Reach``.  The scan takes the rows that
    ``_candidates`` keeps, in order, which changes no (k, tau); with check,
    one numpy count finds out over every row, K(0) rounded as the scan
    rounds it."""
    rows = _candidates(fa, fb, reach, t_max)
    kept = rows.tolist()                  # the scan numbers kept rows 0, 1, ...
    k, tau, out = first_hit(fa[rows].tolist(), fb[rows].tolist(),
                            [reach.offsets[k] for k in kept], t_max,
                            kept.index(skip) if skip in kept else -1, False)
    if check:
        k0 = fb - reach.negh
        if np.count_nonzero(k0 < -COEF_TOL):
            out = int(k0.argmin())
    return (kept[k] if k >= 0 else -1), tau, out


class Reach:
    """The constants of wide_hit's pre-selection over offsets h, computed
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
    A hard wall is the step V2 = inf, and a flat face the step V2 = V1;
    their outcomes are the entries' maps (``RegionTable.fill``), so only a
    potential step calls this.
    """
    E = 0.5 * v1 * v1
    dV = V2 - V1
    if E < dV:
        return None
    return sqrt(2.0 * (E - dV))


class Region:
    """Everything about region j that the segment loop reads, besides its
    faces' columns in the RegionTable.

    Built on the region's first visit from slices of the model's cell
    table: GT = (F_j S)' as one contiguous array, so that one product
    Y.dot(GT) gives both coefficient rows of the hit scan for a state Y =
    [zdot; z], normals = F_j S, whose contiguous row k is the unscaled
    normal a reflection off row k reads, hits, the row offsets h as the
    scan takes them (a list of floats for ``first_hit``, or, for a wide
    region of more than SCAN_ROWS rows, its ``Reach`` for ``wide_hit``),
    and first, the cell-table entry of row 0: row k is entry first + k.
    On a planar table (``RegionTable``) it also holds, for
    ``planar_segment``, its rows of F_j S as float pairs, and None
    elsewhere.  Nothing here is chain state.
    """

    __slots__ = ("GT", "normals", "pairs", "hits", "wide", "first")

    def __init__(self, cells, j, planar):
        rows = slice(cells.start[j - 1], cells.start[j])
        self.GT = np.ascontiguousarray(cells.G[rows].T)
        self.normals = cells.G[rows]
        self.pairs = self.normals.tolist() if planar else None
        self.wide = rows.stop - rows.start > SCAN_ROWS
        self.hits = Reach(cells.h[rows]) if self.wide else cells.h[rows].tolist()
        self.first = int(rows.start)


def _outside(table, j, skip, row, fb):
    """The error a segment raises when its state starts, after a crossing
    onto region j's row skip, outside j's cell: K(0) = fb + h < -COEF_TOL on
    the region's row ``row``, with fb = G z on that row.  Across a
    transition the event's entry names the region left and the hyperplane
    crossed."""
    cells = table.cells
    first = int(cells.start[j - 1])
    e = first + skip
    a, i = cells.t[e] + 1, cells.i[e] + 1
    return ContractError(
        f"the state lies outside region {j}'s cell after the event at "
        f"L[{a},{i}] (hyperplane {i} from region {a}): past its row on "
        f"hyperplane {cells.i[first + row] + 1}",
        residual=-float(fb + cells.h[first + row]))


def _fault(cells, e):
    """The error a hit on entry e raises: its normal, or its mirror's, is too short."""
    bad = cells.mirror[e] if cells.norm[e] >= NORMAL_DEGENERACY_TOL else e
    return DegenerateNormalError(
        f"hyperplane {cells.i[e] + 1} is parallel to region {cells.j[bad] + 1}'s "
        f"piece (row norm {cells.norm[bad]:.3e})")


class RegionTable(dict):
    """Region records of one model (``ModelSpec.regions``) keyed by 1-based
    label, each built on first lookup from the model's cell table, and the
    face columns of every cell-table entry e; it holds the model's arrays,
    not the model.  base is the cell table's base column as a list, so that
    a segment reads offsets as floats.

    Built with the table, as lists: norm[e] = |G_e|, so the face's unit
    normal into the entry's region is g1 = G_e / norm[e]; label[e], the
    1-based region the particle is in after the entry's map (the region
    across a transition, the entry's own region at a wall), or -1 on a row
    no rule crosses (its normal or its mirror's is too short to divide by),
    which raises faults[e] when hit; k2[e], the row the particle is on
    after the map (the mirror entry's row across a transition, the entry's
    own row at a wall); and pot[j - 1], region j's M, r and k in one row.
    Each entry's map, TT[e], Q[e] and G2[e], and step[e], whether the entry
    is a potential step, are filled on its region's first visit (see
    ``fill``), as stacked arrays and a list.  Only a step reads G2.
    planar says that chains run ``planar_segment``: the pieces are planes
    (n - d = 2) and the widest region, the padded rows' width, takes the
    scalar scan whole.  A planar table also holds each filled entry's map
    as plain floats, faces[e] = TT's four in row order, Q's two and G2's
    two, which ``planar_segment`` reads.
    """

    # slots: a segment reads these on every event, faster than from a __dict__
    __slots__ = ("cells", "pot", "base", "label", "norm", "k2", "faults",
                 "TT", "G2", "Q", "step", "planar", "faces")

    def __init__(self, spec):
        super().__init__()
        cells = spec.cells
        self.cells, self.base = cells, cells.base.tolist()
        self.pot = np.concatenate([spec.M.reshape(spec.J, -1), spec.r,
                                   spec.k[:, None]], axis=1)
        E, w = cells.G.shape
        # the entry the particle is on after the map: validation gives each
        # transition a mirror, and a wall is its own
        after = np.where(cells.t == cells.j, np.arange(E), cells.mirror)
        ok = np.minimum(cells.norm, cells.norm[after]) >= NORMAL_DEGENERACY_TOL
        label = np.where(ok, cells.t + 1, -1)              # NaN fails too
        self.label, self.norm = label.tolist(), cells.norm.tolist()
        self.k2 = (after - cells.start[cells.t]).tolist()
        self.faults = {e: _fault(cells, e) for e in np.flatnonzero(~ok).tolist()}
        self.TT = np.empty((E, w, w))
        self.G2, self.Q = np.empty((E, w)), np.empty((E, w))
        self.step = [False] * E
        self.planar = w == 2 and cells.pad_g.shape[1] <= SCAN_ROWS
        self.faces = [None] * E if self.planar else None

    def __missing__(self, j):
        reg = Region(self.cells, j, self.planar)
        self.fill(slice(reg.first, reg.first + len(reg.normals)))
        return self.setdefault(j, reg)

    def fill(self, rows):
        """Fill TT, G2, Q and step of the entries rows (a slice) that a rule
        crosses, in one stacked pass; products run per entry, so no entry's
        bits depend on the others filled with it.

        Face points map into the neighbor's coordinates by z2 = P z + q, P
        = S2'M2 S, q = S2'M2 (x_p - x_p2) (S2'M2 from the cell table), and
        T = P (I - g1 g1') is P on the face's tangent directions.  On the
        face g1'z = -h_e / |G_e|, so for a state Y there Y.dot(T') is [P
        (zdot - v1 g1); z2 - q_T], v1 = g1'zdot, q_T = q - (h_e / |G_e|) P
        g1: one product gives the tangential velocity carried across and,
        plus q_T, the position on the far side.

        An entry is a potential step unless V + c is one function on both
        sides: at a wall, and across a transition whose regions' M, r and
        k are equal bit for bit and whose c_j agree within C_ULPS ulps.
        There the exact rule keeps the normal speed |v1| = -g1'zdot (v1 <=
        0), linear in zdot, along g2, the far side's unit normal, and the
        entry stores it folded in: TT = T' - g1 g2' and Q = q_T - (h_e /
        |G_e|) g2, so that Y.dot(TT) + [0; Q] is [P (zdot - v1 g1) + |v1|
        g2; z2] for a state Y on the face.  At a wall, P = I, g2 = g1 and q
        = 0, so the map is the reflection TT = I - 2 g1 g1', Q = -2 (h_e /
        |G_e|) g1, formed as such without P; the position comes back as z
        to rounding.  A step keeps T', g2 and q_T, to which its rule adds
        the speed it returns.
        """
        e = rows.start + np.flatnonzero(np.array(self.label[rows]) > 0)
        cells, TT, G2, Q = self.cells, self.TT, self.G2, self.Q
        # each entry's final map is assigned once, so that a second fill of
        # the region, from another thread, writes the same bits
        wall = cells.t[e] == cells.j[e]
        a = e[wall]
        if a.size:                        # neither SM nor P: a wall's P is I
            g1, hw = cells.G[a] / cells.norm[a][:, None], cells.h[a] / cells.norm[a]
            TT[a] = np.eye(g1.shape[1]) - 2.0 * g1[:, :, None] * g1[:, None]
            G2[a], Q[a] = g1, -2.0 * hw[:, None] * g1
        a = e[~wall]
        if a.size:                        # a region of walls only skips this pass
            j, t, f, w = cells.j[a], cells.t[a], cells.mirror[a], cells.norm[a][:, None]
            SM = cells.SM[t]
            P = SM @ cells.S[j]
            g1 = cells.G[a] / w
            Pg1 = (P @ g1[..., None])[..., 0]
            g2 = cells.G[f] / cells.norm[f][:, None]
            hw = cells.h[a][:, None] / w
            T = (P - Pg1[..., None] * g1[:, None]).transpose(0, 2, 1)
            q = (SM @ (cells.x_p[j] - cells.x_p[t])[..., None])[..., 0] - hw * Pg1
            c1, c2 = cells.c[j], cells.c[t]
            step = (self.pot[t] != self.pot[j]).any(1) | (
                abs(c2 - c1) > C_ULPS * np.spacing(np.maximum(abs(c1), abs(c2))))
            TT[a] = np.where(step[:, None, None], T, T - g1[:, :, None] * g2[:, None])
            G2[a] = g2
            Q[a] = np.where(step[:, None], q, q - hw * g2)
            for entry in a[step].tolist():
                self.step[entry] = True
        if self.planar:
            for entry, tt, qt, g in zip(e.tolist(), TT[e].reshape(-1, 4).tolist(),
                                        Q[e].tolist(), G2[e].tolist()):
                self.faces[entry] = (*tt, *qt, *g)


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
    update.  Every event is the entry's map, one product and one add; only
    at a potential step does the segment go on to form v1 and the two
    potentials and apply the rule, which adds the speed it returns along
    G2 or reflects.  When skip is a transition row of j, one the particle
    has just crossed into j by (or reflected off, at a potential step),
    the hit scan also tests the cell, and a state that starts more than
    COEF_TOL outside a row of it raises ContractError (see ``_outside``);
    after a wall, whose map returns the position to rounding, and at an
    iterate's start the test does not run.  A region wider than SCAN_ROWS
    takes ``wide_hit``.  Y is not modified; the returned state is a fresh
    array, and the segment allocates no other array that outlives it.
    """
    reg = table[j]
    # ndarray.dot makes the same BLAS call as @ without the ufunc dispatch,
    # which costs more than the product at these sizes; the scan then runs
    # on floats, from one tolist() (a wide region keeps arrays).
    fab = Y.dot(reg.GT)
    fa, fb = (fab[0], fab[1]) if reg.wide else fab.tolist()
    k, tau, out = (wide_hit if reg.wide else first_hit)(
        fa, fb, reg.hits, t_budget, skip,
        skip >= 0 and table.label[reg.first + skip] != j)
    if out >= 0:
        raise _outside(table, j, skip, out, fb[out])
    s, c = sin(tau), cos(tau)
    Y = flight(Y, s, c, rot)
    if k < 0:
        return Y, tau, j, k, None, Y

    e = reg.first + k
    label = table.label[e]
    if label < 0:                         # a row no rule crosses
        raise table.faults[e]
    W = Y.dot(table.TT[e])
    W[1] += table.Q[e]
    if not table.step[e]:                 # a wall or a flat face: the map alone
        return W, tau, label, table.k2[e], None, Y
    step = (0.5 * float(Y[1].dot(Y[1])) + table.base[j - 1],
            0.5 * float(W[1].dot(W[1])) + table.base[label - 1])
    nw = table.norm[e]
    # v1 = g1'zdot at tau, from the hit scan's coefficients of row k
    v1 = (fa[k] * c - fb[k] * s) / nw
    speed = boundary_dynamics(v1, *step)
    if speed is not None:
        W[0] += speed * table.G2[e]
        return W, tau, label, table.k2[e], step, Y
    # reflect: the normal kinetic energy does not clear the step
    Y_new = Y.copy()
    Y_new[0] -= (2.0 * v1 / nw) * reg.normals[k]
    return Y_new, tau, j, k, step, Y


def planar_segment(t_budget, j, Y, skip, table):
    """``evolve_segment_detail`` on a planar table (``RegionTable.planar``),
    on floats.

    Y = (zdot0, zdot1, z0, z1) is the state [zdot; z] as a tuple, and so is
    each state returned; otherwise the arguments and the returned 6-tuple
    are ``evolve_segment_detail``'s, and so are the rules, applied in the
    same order, each written out per component, and the cell test runs
    after the same events.  No region of a planar table is wide, so the
    scan is ``first_hit``, and its coefficients fa = G zdot and fb = G z
    are one comprehension each over the region's float pairs.  Each product of
    the state by a 2 x 2 map is rounded as Python rounds it, where numpy's
    BLAS may fuse a multiply and an add, so a chain on this path agrees
    with one on ``evolve_segment_detail`` to rounding, not bit for bit.
    """
    reg = table[j]
    zd0, zd1, z0, z1 = Y
    fa = [zd0 * a + zd1 * b for a, b in reg.pairs]
    fb = [z0 * a + z1 * b for a, b in reg.pairs]
    k, tau, out = first_hit(fa, fb, reg.hits, t_budget, skip,
                            skip >= 0 and table.label[reg.first + skip] != j)
    if out >= 0:
        raise _outside(table, j, skip, out, fb[out])
    s, c = sin(tau), cos(tau)
    d0, d1 = c * zd0 - s * z0, c * zd1 - s * z1       # zdot and z at tau
    p0, p1 = s * zd0 + c * z0, s * zd1 + c * z1
    Y_pre = (d0, d1, p0, p1)
    if k < 0:
        return Y_pre, tau, j, k, None, Y_pre

    e = reg.first + k
    label = table.label[e]
    if label < 0:                         # a row no rule crosses
        raise table.faults[e]
    t00, t01, t10, t11, q0, q1, g0, g1 = table.faces[e]
    u0, u1 = d0 * t00 + d1 * t10, d0 * t01 + d1 * t11
    w0, w1 = p0 * t00 + p1 * t10 + q0, p0 * t01 + p1 * t11 + q1
    if not table.step[e]:                 # a wall or a flat face: the map alone
        return (u0, u1, w0, w1), tau, label, table.k2[e], None, Y_pre
    step = (0.5 * (p0 * p0 + p1 * p1) + table.base[j - 1],
            0.5 * (w0 * w0 + w1 * w1) + table.base[label - 1])
    nw = table.norm[e]
    # v1 = g1'zdot at tau, from row k's scan coefficients, formed again from
    # the state before the flight as the scan formed them
    a, b = reg.pairs[k]
    v1 = ((zd0 * a + zd1 * b) * c - (z0 * a + z1 * b) * s) / nw
    speed = boundary_dynamics(v1, *step)
    if speed is not None:
        return ((u0 + speed * g0, u1 + speed * g1, w0, w1), tau, label,
                table.k2[e], step, Y_pre)
    # reflect: the normal kinetic energy does not clear the step
    f = 2.0 * v1 / nw
    return (d0 - f * a, d1 - f * b, p0, p1), tau, j, k, step, Y_pre
