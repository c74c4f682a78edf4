"""Chain orchestration: velocity refresh, per-iterate event loop, recording.

One iterate draws a fresh tangent velocity, then evolves the particle for a
total time t_max, consuming the budget segment by segment across however
many boundary events occur.  The chain carries its state [zdot; z] in the
current region's whitened coordinates (see ``dynamics``): as one stacked
array, or on a planar table (planes, no region wider than
``dynamics.SCAN_ROWS``) as a tuple of four floats, which
``planar_segment`` takes.  It appends each kept row's state to one flat
column and keeps its region label; after the loop, one pass over the kept
rows in row order, a batch at a time, writes them back in x and checks
each against its cell.  The event log is kept the same way: the loop
appends each event's numbers and states to flat columns, and the energies
are formed after it, one batched pass for all events.  The dynamics are
exact and the boundary rules energy-consistent, so there is no
accept/reject step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from math import nan

import numpy as np

from .dynamics import COEF_TOL, evolve_segment_detail, planar_segment
from .errors import ContractError, StallError
from .model import _ell, _slack

# Hard cap on events within one iterate; a healthy model triggers a handful.
MAX_EVENTS_PER_ITERATE = 1_000_000
# Cap on consecutive events at t = 0 within one iterate.  first_hit takes an
# event at t = 0 only on a row the particle is already leaving, and never on
# the row just crossed, so such events happen only at a corner where several
# faces meet, and finitely many there: a billiard in a wedge of angle alpha
# bounces at most about ceil(pi / alpha) times before it leaves, so 1,000
# admits corners down to about 0.18 degrees.  A longer run is a loop that
# would otherwise go on to MAX_EVENTS_PER_ITERATE, holding every event.
ZERO_TIME_EVENTS = 1000
# Kept rows written back and checked per batch after the loop: a bound on
# the pass's temporaries, whatever the chain's length.  A batch gathers
# each row's (n, n - d) basis, 92 kB on the 1024-region sphere in R^10.
RECORD_ROWS = 128
# Iterates whose velocities one refresh draws: numpy fills the block in
# stream order, so each iterate gets the draw a call of its own would give.
REFRESH_ROWS = 256
# The fields of an event, in the order of ChainOutput.events and of the
# event log's JSON lines.
EVENT_KEYS = ("iterate", "time", "constraint", "kind", "j_from", "j_to", "dV",
              "energy_pre", "energy_post")


@dataclass(frozen=True)
class ChainConfig:
    """Knobs of one chain.

    seed may be a non-negative integer or a numpy SeedSequence (the latter
    is how multi-chain runs derive independent streams).  n_samples counts
    kept rows, one per iterate of ``kept``.
    """

    n_samples: int
    seed: object = 0
    t_max: float = float(np.pi / 2)
    burn_in: int = 0
    thin: int = 1
    record_events: bool = False

    def __post_init__(self):
        for name, low in (("n_samples", 1), ("burn_in", 0), ("thin", 1)):
            value = getattr(self, name)
            if np.asarray(value).dtype.kind not in "iu" or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value}")
        seed = self.seed
        if not isinstance(seed, np.random.SeedSequence) and (
                isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
            raise ValueError(
                f"seed must be an integer >= 0 or a SeedSequence, got {seed!r}")
        if not 0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")

    @property
    def kept(self) -> range:
        """The kept iterates, 0-based: every thin-th after the burn_in first."""
        return range(self.burn_in + self.thin - 1,
                     self.burn_in + self.thin * self.n_samples, self.thin)

    @property
    def n_iterates(self) -> int:
        return self.kept.stop


@dataclass(frozen=True, eq=False)
class EventLog:
    """A chain's boundary events as columns, event n at row n of each.

    An event is a hit on the boundary row of a region: the constraint is
    the 1-based hyperplane, wall whether the row is a hard wall (else it is
    a transition entry, which the particle crossed if j_to != j_from and
    reflected off otherwise), and time the time into its iterate.  The
    energies are the conserved 1/2 |zdot|^2 + V + c_j before and after the
    boundary update, and dV = V2 - V1 is the potential step across the face
    (0 at a wall).
    """

    iterate: np.ndarray        # (N,) int
    time: np.ndarray           # (N,) float
    constraint: np.ndarray     # (N,) int
    wall: np.ndarray           # (N,) bool
    j_from: np.ndarray         # (N,) int
    j_to: np.ndarray           # (N,) int
    dV: np.ndarray             # (N,) float
    energy_pre: np.ndarray     # (N,) float
    energy_post: np.ndarray    # (N,) float

    def __len__(self):
        return len(self.iterate)

    def rows(self, start=0, stop=None):
        """Events start..stop-1 as tuples of Python ints, floats and the
        kind's word ("wall" or "transition"), in EVENT_KEYS order."""
        cut = slice(start, stop)
        kind = [("transition", "wall")[w] for w in self.wall[cut].tolist()]
        return zip(self.iterate[cut].tolist(), self.time[cut].tolist(),
                   self.constraint[cut].tolist(), kind, self.j_from[cut].tolist(),
                   self.j_to[cut].tolist(), self.dV[cut].tolist(),
                   self.energy_pre[cut].tolist(), self.energy_post[cut].tolist())


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """Kept samples plus the optional boundary-event log: log holds it as
    columns (an EventLog), from which events builds one dict per event."""

    X: np.ndarray          # (n_samples, n)
    Xdot: np.ndarray       # (n_samples, n) post-iterate velocities
    R: np.ndarray          # (n_samples,) region labels, 1-based
    log: EventLog | None = None

    @property
    def events(self) -> list | None:
        """The event log as one dict per event, keyed by EVENT_KEYS, built
        on each access; None for a chain run without record_events."""
        if self.log is None:
            return None
        return [dict(zip(EVENT_KEYS, row)) for row in self.log.rows()]


@dataclass(frozen=True)
class InitialPointReport:
    manifold_residual: float
    cell_slack: float
    passed: bool


def make_rng(seed) -> np.random.Generator:
    """The chain RNG: PCG64 over a SeedSequence, fixed across platforms."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.PCG64(seed))


def refresh_velocity(rng, count, width) -> np.ndarray:
    """Fresh velocities of count iterates, one row each: eps ~ N(0, I_width)
    in whitened coordinates (width = n - d), which is S @ eps in x in the
    region the iterate starts from."""
    return rng.standard_normal((count, width))


def initial_point_check(spec, j0, x0) -> InitialPointReport:
    """Is x0 a usable start: on region j0's manifold and inside its cell?
    A j0 not an integer in 1..J, or an x0 not n long, raises ContractError.
    The residual is the norm of ``ell``'s and the slack ``cell_slack``'s,
    each formed as they form it, on the region and point checked here."""
    if np.asarray(j0).dtype.kind not in "iu" or not 1 <= j0 <= spec.J:
        raise ContractError(f"start region {j0} is out of range 1..{spec.J}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.n,):
        raise ContractError(f"start point has shape {x0.shape}, expected ({spec.n},)")
    i = int(j0) - 1
    residual = float(np.linalg.norm(_ell(spec, i, x0)))
    slack = float(_slack(spec.cells, i, x0))
    return InitialPointReport(
        manifold_residual=residual,
        cell_slack=slack,
        passed=(residual <= COEF_TOL) and (slack >= -COEF_TOL),
    )


def check_start(spec, j0, x0):
    """Raise ContractError unless the model passes validation (it has
    ``regions``) and x0 passes ``initial_point_check`` in region j0."""
    spec.regions            # raises for a model that fails validation
    report = initial_point_check(spec, j0, x0)
    if not report.passed:
        raise ContractError(
            f"initial point rejected for region {j0}: "
            f"manifold residual {report.manifold_residual:.3e}, "
            f"cell slack {report.cell_slack:.3e}",
            residual=max(report.manifold_residual, -report.cell_slack),
        )


def run_chain(spec, j0, x0, cfg: ChainConfig) -> ChainOutput:
    """Run one chain from (j0, x0) and return the kept iterates.

    Stream order contract: exactly one velocity refresh is drawn per
    iterate, in iterate order, so outputs are reproducible bit for bit from
    (spec, j0, x0, cfg) and a chain's rows do not depend on its length.
    The draws are made REFRESH_ROWS iterates at a time, in stream order,
    which leaves each one's bits as a draw of its own would give them.  A
    chain on a planar table (``RegionTable.planar``: planes, no region wider
    than the scalar scan takes) runs ``planar_segment`` on floats, any
    other ``evolve_segment_detail`` on arrays; the two differ in rounding,
    so replay is bit for bit for a given model, seed and numpy build.  The
    loop keeps each kept iterate's state [zdot; z] and region label; after
    it, ``_record`` writes every kept row back in x and checks it against
    its cell, so that a row outside its cell raises ContractError naming
    the first such iterate, as ``check_start`` first does for the model and
    start.  Each segment after a crossing checks its own start against its
    cell, so a crossing that lands outside the cell across raises there,
    naming the region and the entry crossed.  Events at t = 0 come only
    at a corner, about ceil(pi / alpha) of them at a corner of angle
    alpha (a billiard in a wedge), so more than ZERO_TIME_EVENTS of them
    in a row raise StallError naming the iterate, the region and the row.
    With record_events, the loop appends each event's numbers and its
    states before and after the boundary update to flat columns, from
    which ``_event_log`` forms the log.  The chain owns every buffer it
    writes, the flight's scratch too, so chains on one model may run in
    threads at once.
    """
    check_start(spec, j0, x0)
    rng = make_rng(cfg.seed)
    table = spec.regions
    planar = table.planar
    w = spec.n - spec.d
    Ys = array("d")                      # each kept state [zdot; z], flat
    R = np.empty(cfg.n_samples, dtype=np.int64)
    rot = np.empty((2, 2))               # the flight's rotation
    record = cfg.record_events
    # per event: (iterate, row hit, j_from, j_to), (time, V2 of a potential
    # step or NaN), and the states before and after the update
    ints, floats, states = array("q"), array("d"), array("d")

    j = int(j0)
    cells = spec.cells
    z = cells.S[j - 1].T.dot(spec.M[j - 1].dot(x0 - cells.x_p[j - 1]))
    # [zdot; z], zdot drawn per iterate
    Y = (0.0, 0.0, *z.tolist()) if planar else np.stack([np.zeros(w), z])
    kept = cfg.kept
    N = kept.stop
    blocks = (refresh_velocity(rng, min(REFRESH_ROWS, N - start), w)
              for start in range(0, N, REFRESH_ROWS))
    draws = chain.from_iterable(b.tolist() if planar else b for b in blocks)
    for i, eps in enumerate(draws):
        if planar:
            Y = (*eps, Y[2], Y[3])
        else:
            Y[0] = eps
        t_left = cfg.t_max
        t_used = 0.0
        n_events = stalled = 0
        k = -1
        while True:
            Y, tau, j_new, k, step, Y_pre = (
                planar_segment(t_left, j, Y, k, table) if planar else
                evolve_segment_detail(t_left, j, Y, k, table, rot))
            t_used += tau
            t_left -= tau
            if k < 0:
                break
            n_events += 1
            if record:
                ints.extend((i, k, j, j_new))
                floats.extend((t_used, nan if step is None else step[1]))
                if planar:
                    states.extend(Y_pre)
                    states.extend(Y)
                else:
                    states.frombytes(Y_pre.tobytes())
                    states.frombytes(Y.tobytes())
            j = j_new
            if n_events > MAX_EVENTS_PER_ITERATE:
                raise StallError(
                    "event cap exceeded within one iterate",
                    context={"iterate": i, "region": j, "t_left": t_left},
                )
            stalled = stalled + 1 if tau == 0.0 else 0
            if stalled > ZERO_TIME_EVENTS:
                raise StallError(
                    "zero-time event cap exceeded within one iterate",
                    context={"iterate": i, "region": j, "row": k},
                )

        if i in kept:
            if planar:
                Ys.extend(Y)
            else:
                Ys.frombytes(Y.tobytes())
            R[kept.index(i)] = j

    log = None
    if record:
        # per event [[|zdot_pre|^2, |z_pre|^2], [|zdot_post|^2, |z_post|^2]];
        # the states go before the log's other temporaries are made
        V = np.frombuffer(states).reshape(-1, 2, 2, w)
        if planar:                    # rounded as planar_segment rounds them
            sq = V[..., 0] * V[..., 0]
            sq += V[..., 1] * V[..., 1]
        else:
            sq = squared_norms(V)
        del states, V
        log = _event_log(cells, ints, floats, sq)
    X, Xdot = _record(spec, np.frombuffer(Ys).reshape(-1, 2, w), R, cfg)
    return ChainOutput(X=X, Xdot=Xdot, R=R, log=log)


def squared_norms(V):
    """|v|^2 of each row v of V (..., w), each rounded as float(v.dot(v))
    rounds it: a stacked matmul of (1, w) by (w, 1) makes the dot call of a
    1-d v.dot(v) per row."""
    return (V[..., None, :] @ V[..., None])[..., 0, 0]


def _event_log(cells, ints, floats, sq):
    """The EventLog of the columns run_chain appended: per event
    (iterate, row k hit as numbered in j_to, j_from, j_to), (time, V2 of a
    potential step or NaN), and sq, the squared norms of the rows of the
    states before and after the boundary update.

    V1 = 1/2 |z_pre|^2 + base_from is the potential the particle left.  V2
    is V1 at a wall, the step's own V2 at a reflection off a potential
    step, and 1/2 |z_post|^2 + base_to after a crossing; each is the same
    float operation on the same operands as the segment's, so every value
    has the bits a computation per event gives it.
    """
    it, k, j_from, j_to = np.frombuffer(ints, dtype=np.int64).reshape(-1, 4).T
    time, step_V2 = np.frombuffer(floats).reshape(-1, 2).T
    e = cells.start[j_to - 1] + k
    wall = cells.t[e] == cells.j[e]
    stay = j_to == j_from
    V1 = 0.5 * sq[:, 0, 1] + cells.base[j_from - 1]
    V2 = np.where(wall, V1, np.where(stay, step_V2,
                                     0.5 * sq[:, 1, 1] + cells.base[j_to - 1]))
    return EventLog(iterate=it, time=time, constraint=cells.i[e] + 1, wall=wall,
                    j_from=j_from, j_to=j_to, dV=V2 - V1,
                    energy_pre=0.5 * sq[:, 0, 0] + V1,
                    energy_post=0.5 * sq[:, 1, 0] + np.where(stay, V1, V2))


def _record(spec, Ys, R, cfg):
    """(X, Xdot) of the kept states Ys (N, 2, n - d) in the coordinates of
    their regions R.

    The rows go in row order, RECORD_ROWS at a time.  A batch gathers its
    rows' S and x_p from the cell table for one stacked write-back, which
    makes each row's own (2, n - d) @ (n - d, n) product, as Y.dot(S')
    does, so no row's bits depend on its batch; its cell check is
    ``cell_slack``'s.  The first batch with a row outside its cell raises
    ContractError naming the earliest such kept iterate.
    """
    X = np.empty((len(R), spec.n))
    Xdot = np.empty_like(X)
    for start in range(0, len(R), RECORD_ROWS):
        rows = slice(start, start + RECORD_ROWS)
        r = R[rows] - 1
        xdot_x = Ys[rows] @ spec.cells.S[r].transpose(0, 2, 1)
        Xdot[rows] = xdot_x[:, 0]
        X[rows] = xdot_x[:, 1] + spec.cells.x_p[r]
        low = _slack(spec.cells, r, X[rows])
        bad = np.flatnonzero(~(low >= -COEF_TOL))          # NaN fails too
        if bad.size:
            row = start + bad.item(0)
            raise ContractError(
                f"iterate {cfg.kept[row]} ended outside region {R[row]}'s cell",
                residual=-float(low[bad[0]]))
    return X, Xdot
