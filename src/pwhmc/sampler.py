"""Chain orchestration: velocity refresh, per-iterate event loop, recording.

One iterate draws a fresh tangent velocity, then evolves the particle for a
total time t_max, consuming the budget segment by segment across however
many boundary events occur.  The chain carries its state in the current
region's whitened coordinates (see ``dynamics``) and writes each kept row
back in x.  The dynamics are exact and the boundary rules
energy-consistent, so there is no accept/reject step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_segment_detail, region_table
from .errors import ContractError, StallError
from .model import cell_slack, ell
from .subspace import COEF_TOL

# Hard cap on events within one iterate; a healthy model triggers a handful.
# It is the only runaway guard the chain needs.  first_hit takes an event at
# t = 0 only on a row the particle is already leaving, and never on the row
# just crossed, so zero-time events happen only at a corner where several
# faces meet; finitely many faces give finitely many of them (billiards in a
# wedge), and every other event advances time by more than EPS_T.
MAX_EVENTS_PER_ITERATE = 1_000_000


@dataclass(frozen=True)
class ChainConfig:
    """Knobs of one chain.

    seed may be an integer or a numpy SeedSequence (the latter is how
    multi-chain runs derive independent streams).  n_samples counts kept
    rows: the chain runs burn_in + thin * n_samples iterates.
    """

    n_samples: int
    seed: object = 0
    t_max: float = float(np.pi / 2)
    burn_in: int = 0
    thin: int = 1
    record_events: bool = False

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if not 0 < self.t_max < np.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.thin < 1:
            raise ValueError(f"thin must be at least 1, got {self.thin}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")

    @property
    def n_iterates(self) -> int:
        return self.burn_in + self.thin * self.n_samples


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """Kept samples plus the optional boundary-event log."""

    X: np.ndarray          # (n_samples, n)
    Xdot: np.ndarray       # (n_samples, n) post-iterate velocities
    R: np.ndarray          # (n_samples,) region labels, 1-based
    events: list | None = None


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


def refresh_velocity(reg, rng) -> np.ndarray:
    """Fresh velocity eps ~ N(0, I_{n-d}) in region reg's whitened
    coordinates; it is S @ eps in x."""
    return rng.standard_normal(reg.S.shape[1])


def initial_point_check(spec, j0, x0) -> InitialPointReport:
    """Is x0 a usable start: on region j0's manifold and inside its cell?
    A j0 outside 1..J raises ContractError."""
    if not 1 <= j0 <= spec.J:
        raise ContractError(f"start region {j0} is out of range 1..{spec.J}")
    x0 = np.asarray(x0, dtype=float)
    residual = float(np.linalg.norm(ell(spec, j0, x0)))
    slack = float(cell_slack(spec, j0, x0))
    return InitialPointReport(
        manifold_residual=residual,
        cell_slack=slack,
        passed=(residual <= COEF_TOL) and (slack >= -COEF_TOL),
    )


def run_chain(spec, j0, x0, cfg: ChainConfig) -> ChainOutput:
    """Run one chain from (j0, x0) and return the kept iterates.

    Stream order contract: exactly one velocity refresh is drawn per
    iterate, before any evolution, so outputs are reproducible bit for bit
    from (spec, j0, x0, cfg).
    """
    x0 = np.asarray(x0, dtype=float)
    report = initial_point_check(spec, j0, x0)
    if not report.passed:
        raise ContractError(
            f"initial point rejected for region {j0}: "
            f"manifold residual {report.manifold_residual:.3e}, "
            f"cell slack {report.cell_slack:.3e}",
            residual=max(report.manifold_residual, -report.cell_slack),
        )

    rng = make_rng(cfg.seed)
    table = region_table(spec)
    n = spec.n
    X = np.empty((cfg.n_samples, n))
    Xdot = np.empty((cfg.n_samples, n))
    R = np.empty(cfg.n_samples, dtype=np.int64)
    events = [] if cfg.record_events else None

    j = int(j0)
    z = table[j].coords(x0)
    for i in range(cfg.n_iterates):
        zdot = refresh_velocity(table[j], rng)
        t_left = cfg.t_max
        t_used = 0.0
        n_events = 0
        k = -1
        while True:
            z, zdot, tau, j_new, k, V1, V2, zdot_pre = evolve_segment_detail(
                t_left, j, z, zdot, k, table
            )
            t_used += tau
            t_left -= tau
            if k < 0:
                break
            n_events += 1
            if events is not None:
                reg = table[j_new]
                events.append({
                    "iterate": i,
                    "time": t_used,
                    "constraint": reg.idx[k],
                    "kind": "wall" if reg.L_j[k] == j_new else "transition",
                    "j_from": j,
                    "j_to": j_new,
                    "dV": V2 - V1,
                    "energy_pre": 0.5 * float(zdot_pre.dot(zdot_pre)) + V1,
                    "energy_post": 0.5 * float(zdot.dot(zdot))
                    + (V1 if j_new == j else V2),
                })
            j = j_new
            if n_events > MAX_EVENTS_PER_ITERATE:
                raise StallError(
                    "event cap exceeded within one iterate",
                    context={"iterate": i, "region": j, "t_left": t_left},
                )

        if i >= cfg.burn_in and (i - cfg.burn_in + 1) % cfg.thin == 0:
            reg = table[j]
            slack = reg.G.dot(z) + reg.h
            if slack.size and not slack.min() >= -COEF_TOL:
                raise ContractError(
                    f"iterate {i} ended outside region {j}'s cell",
                    residual=-float(slack.min()),
                )
            row = (i - cfg.burn_in + 1) // cfg.thin - 1
            X[row] = reg.x_p + reg.S.dot(z)
            Xdot[row] = reg.S.dot(zdot)
            R[row] = j

    return ChainOutput(X=X, Xdot=Xdot, R=R, events=events)
