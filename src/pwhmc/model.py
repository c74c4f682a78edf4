"""Problem definition: polyhedral regions, quadratic potentials, affine pieces.

A model is a collection of J regions.  Region j carries a quadratic energy
``V_j(x) = 1/2 x'M_j x - r_j'x + k_j``, an affine constraint piece
``ell_j(x) = A_j'x + y_j`` whose zero set is the manifold the sampler lives
on, and a row of the lookup table L that selects which hyperplanes bound the
region and which region lies across each of them.  An entry ``L[j,i]`` of
magnitude j marks a hard wall; magnitude j* != j marks a transition into
region j*; zero means hyperplane i does not touch region j.

Region indices are 1-based everywhere in the public API, matching the model
document and the lookup-table encoding.  ``cell_table`` is the one decoder of
L, run once per model as ``ModelSpec.cells``: the sampler's region records,
the exact oracle, validation and every point's cell test read their
boundary rows from it, the cell test through region rows padded to one
width (``_slack``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ContractError, ModelFormatError
from . import dynamics, subspace
from .subspace import NORMAL_DEGENERACY_TOL, face_residuals

CONTINUITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable problem definition.

    Arrays are stacked over regions: ``M[j-1]`` is region j's precision-like
    matrix, ``r[j-1]`` the linear coefficient of its potential, and so on.
    ``cells``, ``report`` and ``regions`` are built on first use and cached
    on the object; none refers back to it.
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

    @cached_property
    def cells(self) -> CellTable:
        """The model's one cell table, built on first use."""
        return cell_table(self)

    @cached_property
    def report(self) -> ValidationReport:
        """The model's validation report (``validate_model``)."""
        return _checks(self)

    @cached_property
    def regions(self) -> dynamics.RegionTable:
        """The region records that every chain on this model shares; for a
        model that fails validation, ContractError listing each failure."""
        report = self.report
        if not report.passed:
            raise ContractError("\n".join(
                ["model failed validation"]
                + [c.format() for c in report.failures()]))
        return dynamics.RegionTable(self)


@dataclass(frozen=True, eq=False)
class CellTable:
    """A model's active lookup entries and region geometry, in read-only arrays.

    Entry e is (region j[e], hyperplane i[e]) in row-major order of L, all
    0-based, with its sign-adjusted row F[e] x + g[e] >= 0 inside region
    j[e] and its target region t[e] (t[e] == j[e] marks a wall).  Region
    j's entries (1-based j) are rows start[j-1]:start[j].  On its piece
    x = x_p[j-1] + S[j-1] z (one stacked ``subspace.ode_param`` call), z =
    SM[j-1] (x - x_p[j-1]), V_j + c_j = 1/2 |z|^2 + base[j-1] (c[j-1] and
    base[j-1] NaN if the rank or metric test fails) and entry e is the row
    G[e] z + h[e] >= 0, whose normal has length norm[e] in M_j.
    Across a transition, mirror[e] is the entry (t[e], i[e]), else -1.
    Region j's rows F[e], g[e] are also pad_F[j-1], pad_g[j-1], in entry
    order and padded to the widest region's w entries with rows that never
    bind (F = 0, g = +inf).
    """

    j: np.ndarray          # (E,) int
    i: np.ndarray          # (E,) int
    t: np.ndarray          # (E,) int
    F: np.ndarray          # (E, n)
    g: np.ndarray          # (E,)
    start: np.ndarray      # (J + 1,) int
    x_p: np.ndarray        # (J, n)
    S: np.ndarray          # (J, n, n - d)
    c: np.ndarray          # (J,)
    base: np.ndarray       # (J,)
    SM: np.ndarray         # (J, n - d, n)
    margin: np.ndarray     # (J,)
    G: np.ndarray          # (E, n - d)
    h: np.ndarray          # (E,)
    norm: np.ndarray       # (E,)
    mirror: np.ndarray     # (E,) int
    pad_F: np.ndarray      # (J, w, n)
    pad_g: np.ndarray      # (J, w)

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)


# ---------------------------------------------------------------------------
# Document loading


def _field(doc, key, where):
    if key not in doc:
        raise ModelFormatError(f"missing field '{key}' in {where}")
    return doc[key]


_INT64 = range(-2**63, 2**63)


def _integer(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"field '{name}' must be an integer, got {value!r}")
    if value not in _INT64:
        raise ModelFormatError(f"field '{name}' is out of range: {value}")
    return value


def _object(value, name):
    if not isinstance(value, dict):
        raise ModelFormatError(f"field '{name}' must be a JSON object, got {value!r}")
    return value


def _as_array(value, shape, name, dtype=float):
    # Entries are checked as parsed, since numpy would coerce strings and
    # booleans (a JSON true is a Python int) to numbers.
    try:
        cells = np.asarray(value, dtype=object)
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(f"field '{name}' is not an array: {exc}") from exc
    if cells.size == 0 and 0 in shape:
        cells = cells.reshape(shape)
    if cells.shape != shape:
        raise ModelFormatError(
            f"field '{name}' has shape {cells.shape}, expected {shape}"
        )
    kinds = set(map(type, cells.flat))
    if dtype is not float and not kinds <= {int}:
        bad = next(v for v in cells.flat if type(v) is not int)
        raise ModelFormatError(f"field '{name}' must be an integer, got {bad!r}")
    if not kinds <= {int, float}:
        raise ModelFormatError(f"field '{name}' must hold JSON numbers only")
    try:
        arr = cells.astype(dtype)
    except OverflowError as exc:
        raise ModelFormatError(f"field '{name}' is out of range: {exc}") from exc
    if dtype is float and not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"field '{name}' contains non-finite entries")
    # every JSON integer must fit in 64 bits, in a float field as in L_row
    if dtype is float and any(type(v) is int and v not in _INT64
                              for v in cells[np.abs(arr) >= 2.0**63]):
        raise ModelFormatError(f"field '{name}' is out of range: an integer "
                               "beyond 64 bits")
    return arr


def _stacked(regions, key, shape, dtype=float):
    """Field ``key`` of every region as one (J, *shape) array.

    Only if the one stacked check fails is the field checked region by
    region, so that the error names ``regions[j].key``.
    """
    try:
        values = [reg[key] for reg in regions]
        return _as_array(values, (len(values), *shape), f"regions.{key}", dtype)
    except (KeyError, ModelFormatError):
        return np.stack([_as_array(_field(reg, key, f"regions[{jz}]"), shape,
                                   f"regions[{jz}].{key}", dtype)
                         for jz, reg in enumerate(regions)])


def load_model(text: str) -> ModelSpec:
    """Parse a model document (JSON text) into a ModelSpec.

    Raises ModelFormatError naming the offending field on any schema
    violation.  Each region field is converted and checked for all J
    regions at once, field by field (M, r, k, A, y, L_row); a faulty field
    is then re-checked region by region to name ``regions[j].<field>``.
    Symmetry of each M is enforced by symmetrizing, tolerating
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
    for jz, reg in enumerate(regions):
        _object(reg, f"regions[{jz}]")

    M = _stacked(regions, "M", (n, n))
    M = 0.5 * M + 0.5 * M.swapaxes(1, 2)    # halves: cannot overflow
    r = _stacked(regions, "r", (n,))
    if mean:
        with np.errstate(over="ignore", invalid="ignore"):
            r = (M @ r[..., None])[..., 0]   # matmul rounds as each M[j] @ r[j]
        bad = np.flatnonzero(~np.isfinite(r).all(1))
        if bad.size:
            raise ModelFormatError(f"field 'regions[{bad[0]}].r' overflows: "
                                   "M mu is not finite")
    k = _stacked(regions, "k", ())
    A = _stacked(regions, "A", (n, d))
    y = _stacked(regions, "y", (d,))
    L = _stacked(regions, "L_row", (m,), dtype=np.int64)
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
# Cell table and point queries


def cell_table(spec: ModelSpec) -> CellTable:
    """Decode the lookup table L and compute every region's geometry."""
    j, i = np.nonzero(spec.L)
    entry = spec.L[j, i]
    key, far = j * spec.m + i, (np.abs(entry) - 1) * spec.m + i  # key ascends
    mirror = np.searchsorted(key, far)
    mirror[(far == key) | (key.take(mirror, mode="clip") != far)] = -1
    signs = np.sign(entry).astype(float)
    F, g = spec.F[i] * signs[:, None], spec.g[i] * signs
    x_p, S, c, margin = subspace.ode_param(spec.M, spec.r, spec.A, spec.y)
    # matmul rounds each row as the region's own x_p.dot(M).dot(x_p),
    # r.dot(x_p) and S.T @ M do; like those, it overflows without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        base = (0.5 * (x_p[:, None] @ spec.M @ x_p[..., None])[:, 0, 0]
                - (spec.r[:, None] @ x_p[..., None])[:, 0, 0] + spec.k + c)
        SM = S.transpose(0, 2, 1) @ spec.M
    # matmul, not einsum: each row rounds as in the product F_j S_j
    G = (F[:, None, :] @ S[j])[:, 0]
    start = np.searchsorted(j, np.arange(spec.J + 1))
    pos = np.arange(len(j)) - start[j]
    pad_F = np.zeros((spec.J, (start[1:] - start[:-1]).max(), spec.n))
    pad_g = np.full(pad_F.shape[:2], np.inf)
    pad_F[j, pos], pad_g[j, pos] = F, g
    return CellTable(j=j, i=i, t=np.abs(entry) - 1, F=F, g=g, start=start,
                     x_p=x_p, S=S, c=c, base=base, SM=SM, margin=margin, G=G,
                     mirror=mirror, h=np.einsum("en,en->e", F, x_p[j]) + g,
                     norm=np.sqrt(np.einsum("ek,ek->e", G, G)),
                     pad_F=pad_F, pad_g=pad_g)


def _region_index(spec: ModelSpec, R) -> np.ndarray:
    """0-based index of the 1-based region label(s) R.

    A label not an integer in 1..J raises ContractError, never wraps around.
    """
    R = np.asarray(R)
    if R.dtype.kind not in "iu" or not np.all((R >= 1) & (R <= spec.J)):
        raise ContractError(f"region label out of range 1..{spec.J}")
    return R - 1


def _points(spec: ModelSpec, X) -> np.ndarray:
    """X as floats; a point or stack of points without n components raises
    ContractError, never a broadcast error."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (spec.n,):
        raise ContractError(f"point has shape {X.shape}, expected n = {spec.n} "
                            "components")
    return X


def ell(spec: ModelSpec, R, X) -> np.ndarray:
    """Affine piece A_R'X + y_R; zero iff X is on region R's manifold piece.

    R is one 1-based region label or an array of them, X one point or a
    stack of points; the two broadcast against each other.
    """
    return _ell(spec, _region_index(spec, R), _points(spec, X))


def _ell(spec: ModelSpec, i, X) -> np.ndarray:
    """A_i'X + y_i of the 0-based region(s) i at the float point(s) X (..., n),
    broadcast as in ``ell``."""
    return np.einsum("...nd,...n->...d", spec.A[i], X) + spec.y[i]


def cell_slack(spec: ModelSpec, R, X):
    """Smallest sign-adjusted constraint value of region R at X.

    Positive means strictly inside the cell; +inf for a region without
    boundary rows.  R and X broadcast as in ``ell``.
    """
    return _slack(spec.cells, _region_index(spec, R), _points(spec, X))


def _slack(cells: CellTable, jz, X) -> np.ndarray:
    """Smallest row value F x + g of the 0-based region(s) jz at X (..., n),
    broadcast as in ``ell``; a padding row reads +inf at a finite x."""
    rows = (cells.pad_F[jz] @ X[..., None])[..., 0] + cells.pad_g[jz]
    return rows.min(-1, initial=np.inf)


# ---------------------------------------------------------------------------
# Validation


@dataclass
class CheckResult:
    """One failing subject of a check."""

    name: str
    subject: str
    residual: float | None = None

    def format(self) -> str:
        tail = "" if self.residual is None else f"  residual={self.residual:.3e}"
        return f"FAIL  {self.name:<18} {self.subject}{tail}"


@dataclass(frozen=True, eq=False)
class CheckKind:
    """One check on all its subjects: subject e passed iff passed[e], and only
    a failing e is labelled, ``subject.format(*(c[e] for c in columns))``."""

    name: str
    passed: np.ndarray             # (K,) bool
    residual: np.ndarray | None    # (K,) float
    subject: str
    columns: tuple


@dataclass
class ValidationReport:
    checks: list[CheckKind]

    @property
    def passed(self) -> bool:
        return all(c.passed.all() for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [CheckResult(c.name, c.subject.format(*(k[e] for k in c.columns)),
                            None if c.residual is None else float(c.residual[e]))
                for c in self.checks for e in np.flatnonzero(~c.passed).tolist()]

    def format(self) -> str:
        """Failing checks, a ``name: passed/total`` line per kind, the total."""
        lines = [f.format() for f in self.failures()]
        lines += [f"{c.name}: {c.passed.sum()}/{c.passed.size}"
                  for c in self.checks if c.passed.size]
        passed = np.concatenate([c.passed for c in self.checks])
        return "\n".join(lines + [f"{passed.sum()}/{passed.size} checks passed"])


def validate_model(spec: ModelSpec) -> ValidationReport:
    """The pass/fail report of all structural checks, run once per model.

    Every face is checked once, and each check runs on all its subjects
    at once.  Failures are report entries, never exceptions; a
    single-region model passes vacuously.
    """
    return spec.report


def _checks(spec: ModelSpec) -> ValidationReport:
    tab = spec.cells
    region = ("region {}", (np.arange(1, spec.J + 1),))
    full = tab.margin > NORMAL_DEGENERACY_TOL
    spd = subspace.spd_factor(spec.M)[1]
    finite = np.isfinite(tab.x_p).all(1) & np.isfinite(tab.base)
    checks = [
        CheckKind("A_full_rank", full, tab.margin, *region),
        # Cholesky gives the verdict; the smallest eigenvalue is the margin.
        CheckKind("M_spd", spd, np.linalg.eigvalsh(spec.M)[:, 0], *region),
        # A center or potential offset beyond the float range would give the
        # flow an infinite speed at its first crossing.  Where A or M fails
        # above, neither is defined, and only that failure is reported.
        CheckKind("finite_center", finite | ~(full & spd), tab.base, *region),
        # Each row needs a normal on the piece, |G_e| = |S_j'F_e|, which the
        # sampler divides by, or a constant value h_e there off 0: above the
        # tolerance it never binds, below its negative the piece misses the cell.
        CheckKind("normal_escapes_A",
                  (tab.norm > NORMAL_DEGENERACY_TOL) | (np.abs(tab.h) > CONTINUITY_TOL),
                  tab.norm, "region {}, hyperplane {}", (tab.j + 1, tab.i + 1))]

    # The transition entries, and each face (a pair of regions and the
    # hyperplane between them) once: at the first of two mirrored entries.
    trans = np.flatnonzero(tab.t != tab.j)
    j, i, t, far = tab.j[trans], tab.i[trans], tab.t[trans], tab.mirror[trans]
    component = _components(j, t, spec.J)
    back = (far >= 0) & (tab.t[far] == j)
    face = trans[~back | (trans < far)]

    # Reciprocity: a transition entry (j, i) -> t must be mirrored by
    # (t, i) -> j with the opposite sign, that is with its row reversed.
    ok = back & (tab.g[far] == -tab.g[trans]) & (tab.F[far] == -tab.F[trans]).all(1)
    checks.append(CheckKind("reciprocity", ok, None, "L[{0},{2}] <-> L[{1},{2}]",
                            (j + 1, t + 1, i + 1)))

    # Per-face uniqueness: convex regions can share at most one facet, so a
    # pair (j, t) may be designated across at most one hyperplane.
    pairs, counts = np.unique(j * spec.J + t, return_counts=True)
    checks.append(CheckKind("face_uniqueness", counts == 1, counts, "pair ({},{})",
                            (pairs // spec.J + 1, pairs % spec.J + 1)))

    j, i, t = tab.j[face], tab.i[face], tab.t[face]
    faces = ("face ({}|{}) via hyperplane {}", (j + 1, t + 1, i + 1))
    gap = np.maximum(*face_residuals(tab.F[face], tab.g[face], spec.A[j],
                                     spec.A[t], spec.y[j], spec.y[t]))
    # No boundary rule is derived for a mass matrix that jumps across a
    # face, so both sides of every face must share M.
    dM = np.zeros(len(face))
    for row in range(spec.n):          # K x n temporaries, not K x n x n
        np.maximum(dM, np.abs(spec.M[j, row] - spec.M[t, row]).max(axis=1), out=dM)
    return ValidationReport(checks + [
        CheckKind("continuity", gap <= CONTINUITY_TOL, gap, *faces),
        CheckKind("mass_continuity", dM <= CONTINUITY_TOL, dM, *faces),
        # A chain never leaves the regions that transitions link to its
        # start, so a region that none links to region 1 would get no mass.
        CheckKind("connected", component == 0, None, *region)])


def _components(j, t, J):
    """Each 0-based region's component over the transitions j -> t, which
    reciprocity pairs both ways, labelled by the component's lowest region.

    Each round gives each region its neighbors' lowest label (minimum.at)
    and then follows labels to their labels' (pointer jumping), so that
    labels travel along chains of any length in a few rounds: 4 on the
    1024-region sphere in R^10.
    """
    label = np.arange(J)
    while True:
        new = label.copy()
        np.minimum.at(new, j, label[t])
        new = new[new]
        if (new == label).all():
            return label
        label = new
