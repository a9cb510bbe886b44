"""Optimality criteria over amplitude/HRF-parameter grids.

Amplitude directions live on the unit hemisphere (first nonzero coordinate
positive); they are parameterized by hyperspherical angles in (-pi/2, pi/2].
Because the criterion is invariant to amplitude scaling, grids cover only
directions (plus the zero vector where the worst case includes it).

The reduced region theta0 exploits label-permutation symmetry: evaluating a
design over theta0 and bounding the loss over each permutation image (the
R_g ratios, from rows picked by direction, so that a report grid's pass can
hold them) brackets the full-hemisphere worst case at a fraction of the cost.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .designs import Design, design_from_text
from .errors import ConfigurationError, MmdesignError, TableFormatError, TableLookupError
from .glsmodel import DirectionBlocks, DriftSpec, NoiseSpec, evaluator_for
from .hrf import HrfParams
from .util import is_finite_number

P1_RANGE = (6.0, 9.0)
P6_RANGE = (0.0, 2.0)

SEARCH_P_STEP = 0.2
SEARCH_PHI_STEP = 0.1 * math.pi
COMPARISON_P_STEP = 0.1
COMPARISON_PHI_STEP = 0.05 * math.pi
GRID_PRESETS = {"search": (SEARCH_P_STEP, SEARCH_PHI_STEP),  # preset: (p_step, phi_step)
                "comparison": (COMPARISON_P_STEP, COMPARISON_PHI_STEP)}

_KEY_DIGITS = 9
MAX_AXIS_VALUES = 1000  # values allowed on one grid axis; the finest preset has 31


def angles_to_theta(phi) -> tuple[float, ...]:
    """Unit vector from hyperspherical angles; Q = len(phi) + 1.

    theta_1 = cos phi_1; theta_q = cos phi_q * prod_{i<q} sin phi_i;
    theta_Q = prod of all sines.  An empty angle tuple gives (1,).
    """
    phi = tuple(float(x) for x in phi)
    q = len(phi) + 1
    out = []
    sin_prod = 1.0
    for i in range(q - 1):
        out.append(math.cos(phi[i]) * sin_prod)
        sin_prod *= math.sin(phi[i])
    out.append(sin_prod)
    return tuple(out)


def zero_theta(q: int) -> tuple[float, ...]:
    return (0.0,) * q


def theta_to_angles(theta) -> tuple[float, ...]:
    """Inverse of angles_to_theta for directions with first nonzero coordinate
    positive; the zero vector (and zero tails) map to zero angles.

    Writing s_k for the running sine product, |s_k| equals the norm of the
    coordinate tail from k on, and the sign of s_{k+1} must match the first
    nonzero later coordinate (all in-range angles have nonnegative cosines).
    """
    th = [float(x) for x in theta]
    q = len(th)
    angles: list[float] = []
    sign = 1.0  # sign of the sine product entering level k
    for k in range(q - 1):
        r = math.sqrt(math.fsum(x * x for x in th[k:]))
        if r <= 0.0:
            angles.extend([0.0] * (q - 1 - k))
            break
        r_next = math.sqrt(math.fsum(x * x for x in th[k + 1:]))
        cos_k = th[k] / (sign * r)
        sign_next = sign
        for x in th[k + 1:]:
            if abs(x) > 1e-15:
                sign_next = 1.0 if x > 0 else -1.0
                break
        sin_k = sign_next * r_next / (sign * r)
        angles.append(math.atan2(sin_k, cos_k))
        sign = sign_next
    return tuple(angles)


def canonical_direction(theta) -> tuple[float, ...]:
    """Scale-free key for an amplitude vector: unit norm, first nonzero
    coordinate positive, rounded.  The zero vector maps to itself."""
    th = np.asarray(theta, dtype=float)
    norm = float(np.linalg.norm(th))
    if norm == 0.0:
        return (0.0,) * th.shape[0]
    u = th / norm
    for x in u:
        if abs(x) > 1e-12:
            if x < 0:
                u = -u
            break
    return tuple(float(round(x, _KEY_DIGITS)) + 0.0 for x in u)


def _check_step(name: str, step: float, span: float) -> None:
    """Reject a step that is not finite and positive, or that cuts an axis of
    length `span` into more than about MAX_AXIS_VALUES values."""
    if not (math.isfinite(step) and step > 0):
        raise ConfigurationError(f"grid step {name} must be finite and positive (got {step})")
    if span / step >= MAX_AXIS_VALUES:
        raise ConfigurationError(f"grid step {name} = {step} puts more than {MAX_AXIS_VALUES} "
                                 f"values on an axis of length {span:.6g}")


def _axis(start: float, stop: float, step: float) -> list[float]:
    """start, start+step, ... capped at stop; stop always included."""
    vals = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        vals.append(v)
        k += 1
    if not vals or abs(vals[-1] - stop) > 1e-12:
        vals.append(stop)
    return vals


def p_grid(p_step: float) -> tuple[HrfParams, ...]:
    """Product grid over the HRF-parameter box, anchored at the lower corner,
    upper endpoints always included."""
    _check_step("p_step", p_step, max(P1_RANGE[1] - P1_RANGE[0], P6_RANGE[1] - P6_RANGE[0]))
    p1s = _axis(P1_RANGE[0], P1_RANGE[1], p_step)
    p6s = _axis(P6_RANGE[0], P6_RANGE[1], p_step)
    return tuple(HrfParams(p1=a, p6=b) for a in p1s for b in p6s)


def _centered_offsets(bound: float, step: float) -> list[float]:
    """Positive cell-centered points (k + 1/2)*step strictly inside (0, bound)."""
    vals = []
    k = 0
    while True:
        v = (k + 0.5) * step
        if v >= bound - 1e-12:
            break
        vals.append(v)
        k += 1
    return vals


def full_theta_grid(q: int, phi_step: float) -> tuple[tuple[float, ...], ...]:
    """Hemisphere grid: each angle ranges over (-pi/2, pi/2], anchored so
    pi/2 is on the grid; duplicate directions are removed."""
    _check_step("phi_step", phi_step, math.pi if q > 1 else 0.0)
    if q < 1:
        raise ConfigurationError(f"q must be >= 1 (got {q})")
    if q == 1:
        return ((1.0,),)
    half = 0.5 * math.pi
    vals = []
    k = 0
    while True:
        v = half - k * phi_step
        if v <= -half + 1e-12:
            break
        vals.append(v)
        k += 1
    vals.sort()
    seen: dict[tuple[float, ...], tuple[float, ...]] = {}
    for combo in itertools.product(vals, repeat=q - 1):
        th = angles_to_theta(combo)
        key = tuple(round(x, 12) for x in th)
        if key not in seen:
            seen[key] = th
    return tuple(seen.values())


def theta0_grid(q: int, phi_step: float) -> tuple[tuple[float, ...], ...]:
    """Grid over the reduced amplitude region (q <= 3).

    Q=1: the single direction (1,).  Q=2: first angle in [-pi/4, pi/4].
    Q=3: (cos a, +/- sin a cos b, +/- sin a sin b) with a in [0, arccos(1/sqrt 3)]
    and b from max(kappa(a), 0) to pi/4, where cos kappa = cot a once a exceeds
    pi/4.  Points sit at half-step offsets, region endpoints always included.
    """
    _check_step("phi_step", phi_step, 0.5 * math.pi if q > 1 else 0.0)  # Q=3's axes are shorter
    if q == 1:
        return ((1.0,),)
    if q == 2:
        bound = 0.25 * math.pi
        offs = _centered_offsets(bound, phi_step)
        phis = sorted({-bound, *(-v for v in offs), *offs, bound})
        return tuple(angles_to_theta((phi,)) for phi in phis)
    if q == 3:
        a_hi = math.acos(1.0 / math.sqrt(3.0))
        a_vals = sorted({0.0, *_centered_offsets(a_hi, phi_step), a_hi})
        seen: dict[tuple[float, ...], tuple[float, ...]] = {}
        for a in a_vals:
            if a > 0.25 * math.pi:
                kappa = math.acos(min(1.0, max(-1.0, math.cos(a) / math.sin(a))))
            else:
                kappa = 0.0
            b_hi = 0.25 * math.pi
            b_inner = [v for v in _centered_offsets(b_hi, phi_step) if v > kappa + 1e-12]
            b_vals = sorted({kappa, *b_inner, b_hi})
            for b in b_vals:
                base = (math.cos(a), math.sin(a) * math.cos(b), math.sin(a) * math.sin(b))
                for s2, s3 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    th = (base[0], s2 * base[1], s3 * base[2])
                    key = tuple(round(x, 12) for x in th)
                    if key not in seen:
                        seen[key] = th
        return tuple(seen.values())
    raise ConfigurationError(f"reduced amplitude region implemented for q <= 3 (got {q})")


@dataclass(frozen=True)
class ParamGrid:
    """Product grid of amplitude directions (plus optionally the zero vector)
    and HRF parameter points; `make_grid` records its amplitude step."""

    thetas: tuple[tuple[float, ...], ...]
    ps: tuple[HrfParams, ...]
    phi_step: float | None = None

    @property
    def q_types(self) -> int:
        return len(self.thetas[0])

    @property
    def n_points(self) -> int:
        return len(self.thetas) * len(self.ps)

    def points(self):
        """Theta-major enumeration; defines the deterministic grid order."""
        for th in self.thetas:
            for p in self.ps:
                yield th, p

    def with_zero(self) -> "ParamGrid":
        z = zero_theta(self.q_types)
        if z in self.thetas:
            return self
        return replace(self, thetas=(z,) + self.thetas)


def make_grid(q: int, preset: str = "search", region: str = "theta0",
              include_zero: bool = False, p_step: float | None = None,
              phi_step: float | None = None) -> ParamGrid:
    if preset not in GRID_PRESETS:
        raise ConfigurationError(f"unknown grid preset {preset!r}")
    p_step = GRID_PRESETS[preset][0] if p_step is None else p_step
    phi_step = GRID_PRESETS[preset][1] if phi_step is None else phi_step
    if region == "theta0":
        thetas = theta0_grid(q, phi_step)
    elif region == "full":
        thetas = full_theta_grid(q, phi_step)
    else:
        raise ConfigurationError(f"unknown amplitude region {region!r}")
    grid = ParamGrid(thetas=thetas, ps=p_grid(p_step), phi_step=phi_step)
    return grid.with_zero() if include_zero else grid


# ---------------------------------------------------------------------------
# permutation images
# ---------------------------------------------------------------------------

def label_permutations(q: int, include_identity: bool = False) -> list[tuple[int, ...]]:
    """All label bijections as tuples (sigma(1), ..., sigma(Q)), identity first
    when requested."""
    perms = [p for p in itertools.permutations(range(1, q + 1))]
    identity = tuple(range(1, q + 1))
    perms.remove(identity)
    return ([identity] if include_identity else []) + perms


def perm_matrix(sigma: tuple[int, ...]) -> np.ndarray:
    """Matrix G with G e_j = e_{sigma(j)}."""
    q = len(sigma)
    g = np.zeros((q, q))
    for j, img in enumerate(sigma):
        g[img - 1, j] = 1.0
    return g


def apply_perm(theta, sigma: tuple[int, ...]) -> tuple[float, ...]:
    th = tuple(float(x) for x in theta)
    out = [0.0] * len(th)
    for j, img in enumerate(sigma):
        out[img - 1] = th[j]
    return tuple(out)


def signed_image(theta, sigma: tuple[int, ...]) -> tuple[float, ...]:
    """Permutation image flipped back into the hemisphere (first component
    positive; zero first components left untouched)."""
    img = apply_perm(theta, sigma)
    tau = 1.0 if img[0] >= 0.0 else -1.0
    return tuple(tau * x for x in img)


# ---------------------------------------------------------------------------
# worst-case criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinResult:
    value: float
    theta: tuple[float, ...]
    p: HrfParams
    index: int


def worst_case(values: np.ndarray, grid: ParamGrid) -> MinResult:
    """Smallest of a design's values over `grid`, with its point.

    `values` is shaped like `Evaluator.phi_a_grid(d, grid.thetas, grid.ps)`:
    A-criterion values for the maximin criterion, or those divided by
    `LocalOptTable.denominators(grid)` for the maximin-efficient one.  Ties
    go to the first point in grid order.
    """
    flat = values.reshape(-1)  # row-major matches the theta-major grid order
    idx = int(np.argmin(flat))
    th = grid.thetas[idx // len(grid.ps)]
    p = grid.ps[idx % len(grid.ps)]
    return MinResult(value=float(flat[idx]), theta=th, p=p, index=idx)


def min_phi_a(d: Design, grid: ParamGrid, tr: float, noise: NoiseSpec,
              drift: DriftSpec) -> MinResult:
    """Worst-case A-criterion value over the grid (first minimizer in grid
    order on ties)."""
    values = evaluator_for(d, tr, noise, drift).phi_a_grid(d, grid.thetas, grid.ps)
    return worst_case(values, grid)


# ---------------------------------------------------------------------------
# local-optimum tables and relative efficiency
# ---------------------------------------------------------------------------

def _p_key(p: HrfParams) -> tuple[float, float]:
    return (round(p.p1, _KEY_DIGITS) + 0.0, round(p.p6, _KEY_DIGITS) + 0.0)


@dataclass(frozen=True)
class TableEntry:
    theta: tuple[float, ...]
    p: HrfParams
    phi_a: float
    design: Design


@dataclass
class LocalOptTable:
    """Best-known A-criterion value (and design) per (direction, p) point.

    Keys are scale-free: any positive or negative multiple of a stored
    direction hits the same entry.
    """

    q_types: int
    isi: float
    entries: dict = field(default_factory=dict)

    @staticmethod
    def key(theta, p: HrfParams):
        return (canonical_direction(theta), _p_key(p))

    def put(self, theta, p: HrfParams, phi_a: float, design: Design) -> bool:
        """Insert or keep-the-larger merge; returns True when stored."""
        if phi_a <= 0.0:
            raise ConfigurationError(
                f"local optimum must be positive (got {phi_a} at theta={theta}, p={p})")
        k = self.key(theta, p)
        cur = self.entries.get(k)
        if cur is not None and cur.phi_a >= phi_a:
            return False
        self.entries[k] = TableEntry(theta=tuple(float(x) for x in theta), p=p,
                                     phi_a=float(phi_a), design=design)
        return True

    def entry(self, theta, p: HrfParams) -> TableEntry:
        k = self.key(theta, p)
        if k not in self.entries:
            raise TableLookupError(f"no table entry for theta={theta}, p=({p.p1}, {p.p6})")
        return self.entries[k]

    def value(self, theta, p: HrfParams) -> float:
        return self.entry(theta, p).phi_a

    def missing(self, grid: ParamGrid) -> list:
        return [(th, p) for th, p in grid.points() if self.key(th, p) not in self.entries]

    def denominators(self, grid: ParamGrid) -> np.ndarray:
        """Tabulated local optimum at every point of `grid`, shaped like the
        values of `Evaluator.phi_a_grid(d, grid.thetas, grid.ps)`, so that
        dividing those values by it gives relative efficiencies.

        Raises TableLookupError naming how many points are missing and the
        first of them in grid order.
        """
        missing = self.missing(grid)
        if missing:
            th, p = missing[0]
            raise TableLookupError(
                f"table does not cover the grid ({len(missing)} points missing, "
                f"first: theta={th}, p=({p.p1}, {p.p6}))")
        return np.array([[self.value(th, p) for p in grid.ps] for th in grid.thetas])

    def covers(self, grid: ParamGrid) -> bool:
        return not self.missing(grid)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path) -> None:
        rows = []
        for k in sorted(self.entries.keys()):
            e = self.entries[k]
            rows.append({"theta": list(e.theta), "p": [e.p.p1, e.p.p6],
                         "phi_a": e.phi_a,
                         "design": " ".join(str(x) for x in e.design.labels)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path, q_types: int, isi: float) -> "LocalOptTable":
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        if not isinstance(rows, list):
            raise TableFormatError(f"{path}: expected a JSON list of table entries")
        table = cls(q_types=q_types, isi=isi)
        for i, row in enumerate(rows):
            problem = _row_problem(row, q_types)
            if problem:
                raise TableFormatError(f"{path}: row {i}: {problem}")
            try:
                p = HrfParams(p1=float(row["p"][0]), p6=float(row["p"][1]))
                d = design_from_text(row["design"] + "\n", q_types=q_types, isi=isi)
                table.put(tuple(float(x) for x in row["theta"]), p,
                          float(row["phi_a"]), d)
            except MmdesignError as exc:
                raise TableFormatError(f"{path}: row {i}: {exc}") from exc
        return table


def _row_problem(row, q_types: int) -> str | None:
    """What is wrong with the keys and types of one saved table row, if anything."""
    if not isinstance(row, dict):
        return "expected an object with keys theta, p, phi_a, design"
    missing = [k for k in ("theta", "p", "phi_a", "design") if k not in row]
    if missing:
        return f"missing key {missing[0]!r}"
    theta, p = row["theta"], row["p"]
    if not (isinstance(theta, list) and len(theta) == q_types
            and all(map(is_finite_number, theta))):
        return f"'theta' must be a list of {q_types} finite numbers"
    if not (isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p))):
        return "'p' must be a list of 2 finite numbers"
    if not is_finite_number(row["phi_a"]):
        return "'phi_a' must be a finite number"
    if not isinstance(row["design"], str):
        return "'design' must be a string of labels"
    return None


def relative_efficiency(d: Design, theta, p: HrfParams, table: LocalOptTable,
                        tr: float, noise: NoiseSpec, drift: DriftSpec) -> float:
    """A-criterion value divided by the tabulated local optimum at the point."""
    return evaluator_for(d, tr, noise, drift).phi_a(d, theta, p) / table.value(theta, p)


def min_re(d: Design, grid: ParamGrid, table: LocalOptTable, tr: float,
           noise: NoiseSpec, drift: DriftSpec) -> MinResult:
    """Worst-case relative efficiency over the grid (zero direction included
    by the caller via grid.with_zero())."""
    values = evaluator_for(d, tr, noise, drift).phi_a_grid(d, grid.thetas, grid.ps)
    return worst_case(values / table.denominators(grid), grid)


# ---------------------------------------------------------------------------
# permutation-image ratios (efficiency lower bound for the reduced region)
# ---------------------------------------------------------------------------

def rg_directions(q: int, phi_step: float) -> dict[tuple[int, ...], tuple]:
    """Each labeling, identity first, mapped to the signed images of the
    reduced region at `phi_step` under it (the identity's are the region)."""
    base = theta0_grid(q, phi_step)
    return {tuple(range(1, q + 1)): base,
            **{sg: tuple(signed_image(th, sg) for th in base) for sg in label_permutations(q)}}


def with_rg_directions(thetas, q: int, phi_step: float) -> DirectionBlocks:
    """`thetas`, then in a block of their own the directions R_g scores (the
    reduced region at `phi_step` and its images) not among them, each once."""
    known = set(thetas)
    return DirectionBlocks(thetas, dict.fromkeys(
        th for th in itertools.chain(*rg_directions(q, phi_step).values()) if th not in known))


def min_rg(d: Design, ps: tuple[HrfParams, ...], tr: float, noise: NoiseSpec,
           drift: DriftSpec, phi_step: float = COMPARISON_PHI_STEP,
           scored: tuple | None = None) -> float | None:
    """Efficiency lower bound: the smallest ratio of the worst case over a
    permutation image of the reduced region to the worst case over the region
    itself, capped at 1; None where the region's worst case is 0.  Values
    come from the rows of `scored` = (thetas, `Evaluator.phi_a_grid(d, thetas,
    ps)`) picked by direction; by default thetas = `with_rg_directions((), ...)`."""
    q = d.q_types
    if q < 2:
        return 1.0
    if scored is None:
        thetas = with_rg_directions((), q, phi_step)
        scored = thetas, evaluator_for(d, tr, noise, drift).phi_a_grid(d, thetas, ps)
    thetas, values = scored
    row = {th: i for i, th in enumerate(thetas)}
    base_min, *image_mins = (float(values[[row[th] for th in directions]].min())
                             for directions in rg_directions(q, phi_step).values())
    return min(1.0, min(m / base_min for m in image_mins)) if base_min > 0 else None
