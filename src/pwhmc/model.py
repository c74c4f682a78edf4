"""Problem definition: polyhedral regions, quadratic potentials, affine pieces.

A model is a collection of J regions.  Region j carries a quadratic energy
``V_j(x) = 1/2 x'M_j x - r_j'x + k_j``, an affine constraint piece
``ell_j(x) = A_j'x + y_j`` whose zero set is the manifold the sampler lives
on, and a row of the lookup table L that selects which hyperplanes bound the
region and which region lies across each of them.  An entry ``L[j,i]`` of
magnitude j marks a hard wall; magnitude j* != j marks a transition into
region j*; zero means hyperplane i does not touch region j.

Region indices are 1-based everywhere in the public API, matching the model
document and the lookup-table encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelFormatError
from .subspace import NORMAL_DEGENERACY_TOL, continuity_check, rank_margin

# ~100x unit roundoff at desk scale.
MEMBERSHIP_TOL = 1e-9
CONTINUITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable problem definition.

    Arrays are stacked over regions: ``M[j-1]`` is region j's precision-like
    matrix, ``r[j-1]`` the linear coefficient of its potential, and so on.
    """

    n: int
    d: int
    J: int
    m: int
    M: np.ndarray          # (J, n, n)
    r: np.ndarray          # (J, n)
    k: np.ndarray          # (J,)
    A: np.ndarray          # (J, n, d)
    y: np.ndarray          # (J, d)
    F: np.ndarray          # (m, n)
    g: np.ndarray          # (m,)
    L: np.ndarray          # (J, m) int
    init_region: int | None = None
    init_point: np.ndarray | None = None

    def __post_init__(self):
        for name in ("M", "r", "k", "A", "y", "F", "g", "L"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Active constraints of one region, sign-adjusted to be >= 0 inside.

    ``F_j x + g_j > 0`` strictly inside the region.  ``L_j`` holds the
    magnitudes of the active lookup entries (1-based target regions; the
    owning region's own index marks a wall) and ``idx`` the 1-based
    hyperplane indices the rows came from.
    """

    F_j: np.ndarray        # (m_j, n)
    g_j: np.ndarray        # (m_j,)
    L_j: np.ndarray        # (m_j,) int, target region per row
    idx: np.ndarray        # (m_j,) int, original hyperplane index

    def __len__(self):
        return self.F_j.shape[0]


# ---------------------------------------------------------------------------
# Document loading


def _field(doc, key, where):
    if key not in doc:
        raise ModelFormatError(f"missing field '{key}' in {where}")
    return doc[key]


def _integer(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"field '{name}' must be an integer, got {value!r}")
    return value


def _number(value, name):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value)):
        raise ModelFormatError(f"field '{name}' must be a finite number, got {value!r}")
    return float(value)


def _object(value, name):
    if not isinstance(value, dict):
        raise ModelFormatError(f"field '{name}' must be a JSON object, got {value!r}")
    return value


def _as_array(value, shape, name, dtype=float):
    arr = np.asarray(value, dtype=dtype)
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ModelFormatError(
            f"field '{name}' has shape {arr.shape}, expected {shape}"
        )
    if dtype is float and not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"field '{name}' contains non-finite entries")
    return arr


def load_model(text: str) -> ModelSpec:
    """Parse a model document (JSON text) into a ModelSpec.

    Raises ModelFormatError naming the offending field on any schema
    violation.  Symmetry of each M is enforced by symmetrizing, tolerating
    serialization noise; definiteness is checked later by validate_model.
    A document with ``"mean": true`` gives each region's mean mu as "r"; it
    is stored as the linear coefficient M mu.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")

    n, d, J, m = (_integer(_field(doc, key, "document"), key)
                  for key in ("n", "d", "J", "m"))
    if n <= 0 or d <= 0 or J <= 0 or m < 0:
        raise ModelFormatError(
            "fields 'n', 'd', 'J' must be positive and 'm' nonnegative"
        )
    if d >= n:
        raise ModelFormatError(f"field 'd' must satisfy d < n, got d={d}, n={n}")
    mean = doc.get("mean", False)
    if not isinstance(mean, bool):
        raise ModelFormatError(f"field 'mean' must be true or false, got {mean!r}")

    regions = _field(doc, "regions", "document")
    if not isinstance(regions, list) or len(regions) != J:
        raise ModelFormatError(f"field 'regions' must be a list of J={J} objects")

    M = np.empty((J, n, n))
    r = np.empty((J, n))
    k = np.empty(J)
    A = np.empty((J, n, d))
    y = np.empty((J, d))
    L = np.empty((J, m), dtype=np.int64)
    for jz, reg in enumerate(regions):
        where = f"regions[{jz}]"
        _object(reg, where)
        Mj = _as_array(_field(reg, "M", where), (n, n), f"{where}.M")
        M[jz] = 0.5 * (Mj + Mj.T)
        r[jz] = _as_array(_field(reg, "r", where), (n,), f"{where}.r")
        if mean:
            r[jz] = M[jz] @ r[jz]
        k[jz] = _number(_field(reg, "k", where), f"{where}.k")
        A[jz] = _as_array(_field(reg, "A", where), (n, d), f"{where}.A")
        y[jz] = _as_array(_field(reg, "y", where), (d,), f"{where}.y")
        L_row = _field(reg, "L_row", where)
        for v in L_row if isinstance(L_row, list) else ():
            _integer(v, f"{where}.L_row")
        L[jz] = _as_array(L_row, (m,), f"{where}.L_row", dtype=np.int64)
    if np.any(np.abs(L) > J):
        raise ModelFormatError("field 'L_row' entries must lie in -J..J")

    hyper = _object(_field(doc, "hyperplanes", "document"), "hyperplanes")
    F = _as_array(_field(hyper, "F", "hyperplanes"), (m, n), "hyperplanes.F")
    g = _as_array(_field(hyper, "g", "hyperplanes"), (m,), "hyperplanes.g")

    init_region = None
    init_point = None
    if "init" in doc:
        init = _object(doc["init"], "init")
        init_region = _integer(_field(init, "region", "init"), "init.region")
        if not 1 <= init_region <= J:
            raise ModelFormatError("field 'init.region' out of range 1..J")
        init_point = _as_array(_field(init, "x", "init"), (n,), "init.x")

    return ModelSpec(
        n=n, d=d, J=J, m=m, M=M, r=r, k=k, A=A, y=y, F=F, g=g, L=L,
        init_region=init_region, init_point=init_point,
    )


def load_model_file(path) -> ModelSpec:
    """Read a model document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read())


# ---------------------------------------------------------------------------
# Region-local queries


def ell(spec: ModelSpec, j: int, x: np.ndarray) -> np.ndarray:
    """Affine piece A_j'x + y_j; zero iff x is on region j's manifold piece."""
    x = np.asarray(x, dtype=float)
    return spec.A[j - 1].T @ x + spec.y[j - 1]


def region_boundaries(spec: ModelSpec, j: int) -> RegionBoundary:
    """Extract region j's active constraints, sign-adjusted to >= 0 inside."""
    row = spec.L[j - 1]
    active = np.flatnonzero(row != 0)
    signs = np.sign(row[active]).astype(float)
    return RegionBoundary(
        F_j=spec.F[active] * signs[:, None],
        g_j=spec.g[active] * signs,
        L_j=np.abs(row[active]),
        idx=active + 1,
    )


def region_membership(spec: ModelSpec, x: np.ndarray, tol: float = MEMBERSHIP_TOL):
    """All regions whose sign-adjusted constraints hold at x within tol.

    Boundary points belong to every region touching them.
    """
    x = np.asarray(x, dtype=float)
    slack_all = spec.F @ x + spec.g
    members = set()
    for j in range(1, spec.J + 1):
        row = spec.L[j - 1]
        active = row != 0
        if np.all(np.sign(row[active]) * slack_all[active] >= -tol):
            members.add(j)
    return members


def min_slack(spec: ModelSpec, j: int, x: np.ndarray) -> float:
    """Smallest sign-adjusted constraint value of region j at x.

    Positive means strictly inside; +inf for an unconstrained region.
    """
    rb = region_boundaries(spec, j)
    if len(rb) == 0:
        return np.inf
    return float(np.min(rb.F_j @ np.asarray(x, dtype=float) + rb.g_j))


# ---------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    name: str
    subject: str
    passed: bool
    residual: float | None = None

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tail = "" if self.residual is None else f"  residual={self.residual:.3e}"
        return f"{verdict}  {self.name:<18} {self.subject}{tail}"


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def format(self) -> str:
        return "\n".join(c.format() for c in self.checks)


def _rank_checks(spec: ModelSpec, qrs, report: ValidationReport):
    for j, (_, R) in enumerate(qrs, start=1):
        margin = rank_margin(R[: spec.d])
        report.checks.append(
            CheckResult("A_full_rank", f"region {j}",
                        margin > NORMAL_DEGENERACY_TOL, margin)
        )


def _spd_checks(spec: ModelSpec, report: ValidationReport):
    for j in range(1, spec.J + 1):
        Mj = spec.M[j - 1]
        asym = float(np.max(np.abs(Mj - Mj.T))) if Mj.size else 0.0
        try:
            np.linalg.cholesky(Mj)
            ok = True
        except np.linalg.LinAlgError:
            ok = False
        report.checks.append(CheckResult("M_spd", f"region {j}", ok, asym))


def _normal_checks(spec: ModelSpec, qrs, report: ValidationReport):
    # Each active hyperplane normal must leave the column space of A_j,
    # otherwise there is no in-manifold direction crossing it.
    for j, (Q, _) in enumerate(qrs, start=1):
        Q1 = Q[:, : spec.d]
        rb = region_boundaries(spec, j)
        for f_row, i in zip(rb.F_j, rb.idx):
            resid = f_row - Q1 @ (Q1.T @ f_row)
            rn = float(np.linalg.norm(resid))
            report.checks.append(
                CheckResult(
                    "normal_escapes_A",
                    f"region {j}, hyperplane {i}",
                    rn > NORMAL_DEGENERACY_TOL,
                    rn,
                )
            )


def _adjacency_checks(spec: ModelSpec, report: ValidationReport):
    # Reciprocity: a transition entry (j, i) -> j* must be mirrored by
    # (j*, i) -> j with the opposite sign.
    for j in range(1, spec.J + 1):
        for i in range(1, spec.m + 1):
            entry = int(spec.L[j - 1, i - 1])
            target = abs(entry)
            if entry == 0 or target == j:
                continue
            if not 1 <= target <= spec.J:
                report.checks.append(
                    CheckResult("reciprocity", f"L[{j},{i}] -> {target}", False, None)
                )
                continue
            mirror = int(spec.L[target - 1, i - 1])
            ok = abs(mirror) == j and np.sign(mirror) == -np.sign(entry)
            report.checks.append(
                CheckResult("reciprocity", f"L[{j},{i}] <-> L[{target},{i}]", ok, None)
            )

    # Per-face uniqueness: convex regions can share at most one facet, so a
    # pair (j, j*) may be designated across at most one hyperplane.
    for j in range(1, spec.J + 1):
        row = spec.L[j - 1]
        targets = np.abs(row[(row != 0) & (np.abs(row) != j)])
        uniq, counts = np.unique(targets, return_counts=True)
        for t, c in zip(uniq, counts):
            report.checks.append(
                CheckResult("face_uniqueness", f"pair ({j},{t})", c == 1, float(c))
            )


def _continuity_checks(spec: ModelSpec, tol: float, report: ValidationReport):
    seen = set()
    for j in range(1, spec.J + 1):
        rb = region_boundaries(spec, j)
        for f_row, g_row, target, i in zip(rb.F_j, rb.g_j, rb.L_j, rb.idx):
            target = int(target)
            if target == j:
                continue  # walls have no partner piece
            key = (min(j, target), max(j, target), int(i))
            if key in seen:
                continue
            seen.add(key)
            try:
                ok, e1, e2 = continuity_check(
                    f_row, g_row,
                    spec.A[j - 1], spec.A[target - 1],
                    spec.y[j - 1], spec.y[target - 1],
                    tol,
                )
            except np.linalg.LinAlgError:
                ok, e1, e2 = False, np.inf, np.inf
            report.checks.append(
                CheckResult(
                    "continuity",
                    f"face ({j}|{target}) via hyperplane {i}",
                    ok,
                    max(e1, e2),
                )
            )


def validate_model(spec: ModelSpec, tol: float = CONTINUITY_TOL) -> ValidationReport:
    """Run all structural checks and return a pass/fail report.

    Failures are report entries, never exceptions; a single-region model
    passes vacuously.
    """
    report = ValidationReport()
    qrs = [np.linalg.qr(A, mode="complete") for A in spec.A]
    _rank_checks(spec, qrs, report)
    _spd_checks(spec, report)
    _normal_checks(spec, qrs, report)
    _adjacency_checks(spec, report)
    _continuity_checks(spec, tol, report)
    return report
