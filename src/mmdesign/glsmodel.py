"""Generalized-least-squares information machinery.

The observation model: each scan is a sum of per-type responses (design matrix
times sampled HRF heights times a type amplitude), plus a polynomial nuisance
drift, plus AR(1) noise with unit innovation variance.  After whitening and
residualizing the drift, the information matrix for the Q amplitudes treats
the two free HRF parameters as a nuisance direction that gets projected out:

    M = E' (I - w{L}) E,   E = [I - w{VS}] V X (I_Q kron h),
    L_i = [I - w{VS}] V X (I_Q kron dh_i) theta',  i in {p1, p6},

with w{A} = A (A'A)^- A'.  X = [X_1 ... X_Q] joins the per-type blocks that
`designs.design_matrix` returns; h and dh_i are the sampled heights and
partials of the one fixed-shape HRF (`hrf.hrf_bundle`), so p1 and p6 are the
only curve parameters.  The A-criterion value is 1/trace(M^{-1}), zero when
M is singular or near-singular.

Residualizing never forms an n x n operator: V is lower-bidiagonal, so V A
is one shifted subtraction, and the drift projector is the identity minus
Qs Qs' for a thin orthonormal basis Qs of V S.  The evaluator has two routes.

Grid (`phi_a_grid`): the Gram matrix Y of a design's Q*K residualized columns
(`gram`; `residualized` is its dense definition) from lagged label-pair
counts, split by onset index mod rtr, weighted by entries of the tridiagonal
V'V, less per-onset terms for the end scans and the drift term Z'Z with
Z = (V'D)'X.  Then the grid stage on flat per-entry arrays: one matrix product
of all p points' transposed HRF bundles with Y, one batched product over p
with the bundles, then, with p the last axis, one product each for E'L and
L'L over each block of directions theta.  A closed-form 2 x 2 pseudo-inverse
F = (L'L)^- L'E gives the Schur complement M_ab = (E'E)_ab - (E'L)_a F_b one
entry at a time, each an (n_theta, n_p) array; Q <= 2 takes 1/trace(M^{-1})
in closed form from the entries, Q >= 3 stacks them for an eigenvalue solve.
A batch of L'L blocks with t > 0 and det > 2 r t^2 (t the trace, r the
rank-one cutoff) is full rank, as lmin/lmax >= det/t^2, so skips the
eigenvalues that find rank-one blocks.  A Q = 2 batch of M with t > 0 and
det > 2 RCOND_SINGULAR t^2 is nonsingular and skips them too, with the same
values.
`hrf.hrf_bundle` builds a grid's HRF bundles in one vectorized pass and
caches them by value; the evaluator keeps the last grid (`Evaluator._grid`).

One point (`phi_a`, `info_matrix`): X times the point's HRF bundle and theta
first, which gives the Q+2 columns [E L] of each run; only those are
residualized, and the same Schur complement, with the pseudo-inverse on
Python floats (`_pinv_sym2`), acts on their (Q+2) x (Q+2) Gram matrix.  The
evaluator keeps the last point's weights.

Two runs present one sequence, the second with its HRF sampled `run_shift`
seconds later; `NoiseSpec` holds both the run count and the shift.  The runs
are independent and share the amplitudes, so E'E, E'L and L'L are sums of
per-run terms: Y is one run's, and the runs' quadratic forms in their own HRF
bundles (or the runs' Gram blocks of [E L]) are added before the nuisance
pseudo-inverse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .designs import Design, _scan_index, delta_t, design_matrix
from .errors import ConfigurationError
from .hrf import HrfParams, default_hrf_length, hrf_bundle

RCOND_SINGULAR = 1e-12  # below this reciprocal condition number, phi_a = 0
# At or below this eigenvalue ratio, L'L counts as rank one.  L'L is a Gram
# matrix, so its small eigenvalue is known only to about eps * lmax: the
# full-rank inverse errs by about eps / ratio and the rank-one one by about
# ratio, and the two errors meet at sqrt(eps).
LL_RANK_ONE_RATIO = math.sqrt(np.finfo(float).eps)
DEFAULT_RUN_SHIFT = 1.25


@dataclass(frozen=True)
class NoiseSpec:
    """AR(1) correlation, number of runs, and the second run's HRF delay (s)."""

    rho: float = 0.3
    runs: int = 1
    run_shift: float = DEFAULT_RUN_SHIFT

    def __post_init__(self) -> None:
        if not -1.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie in (-1, 1) (got {self.rho})")
        if self.runs not in (1, 2):
            raise ConfigurationError(f"runs must be 1 or 2 (got {self.runs})")
        if not math.isfinite(self.run_shift):  # NaN would zero the second run's HRF
            raise ConfigurationError(f"run_shift must be finite (got {self.run_shift})")


@dataclass(frozen=True)
class DriftSpec:
    """Polynomial drift order (per run)."""

    order: int = 2

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ConfigurationError(f"drift order must be >= 0 (got {self.order})")


@dataclass(frozen=True)
class InfoMatrix:
    """Information matrix for the type amplitudes at one parameter point."""

    m: np.ndarray
    theta: tuple[float, ...]
    p: HrfParams

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


def whitening_matrix(n_scans: int, rho: float) -> np.ndarray:
    """Lower-bidiagonal AR(1) whitener: V Sigma V' = I for the AR(1)
    covariance Sigma_ij = rho^|i-j| / (1 - rho^2) (unit innovation variance)."""
    if n_scans < 1:
        raise ConfigurationError(f"n_scans must be >= 1 (got {n_scans})")
    if not -1.0 < rho < 1.0:
        raise ConfigurationError(f"rho must lie in (-1, 1) (got {rho})")
    v = np.eye(n_scans)
    v[0, 0] = math.sqrt(1.0 - rho * rho)
    idx = np.arange(1, n_scans)
    v[idx, idx - 1] = -rho
    return v


def drift_matrix(n_scans: int, order: int) -> np.ndarray:
    """Orthonormal polynomial drift basis (QR of centered monomials)."""
    if order < 0:
        raise ConfigurationError(f"order must be >= 0 (got {order})")
    if n_scans < order + 1:
        raise ConfigurationError(f"need at least order+1={order + 1} scans (got {n_scans})")
    t = np.arange(1, n_scans + 1, dtype=float)
    tc = t - t.mean()
    raw = np.column_stack([tc ** j for j in range(order + 1)])
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of `a`.

    Rank decided by SVD with tolerance max(shape) * eps * s_max; an empty or
    all-zero matrix projects onto nothing.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] == 0 or not np.any(a):
        return np.zeros((n, n))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = max(a.shape) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > tol))
    p = u[:, :rank] @ u[:, :rank].T
    return 0.5 * (p + p.T)


class Evaluator:
    """Criterion evaluation for designs of one fixed configuration.

    Configuration = (types, slots, ISI, TR, noise and runs, drift).  The
    constructor keeps only the AR(1) coefficient and a thin orthonormal basis
    of one run's whitened drift columns.  On a grid, each design yields one
    run's Gram matrix, from which information matrices at every (theta, p)
    follow by small quadratic forms summed over the runs; at one point, only
    the point's Q+2 columns are residualized.  It keeps two things, the last
    grid (directions and stacked HRF bundles) and the last point's weights;
    `hrf_bundle` caches grids by value.
    """

    def __init__(self, q_types: int, n_slots: int, isi: float, tr: float,
                 noise: NoiseSpec, drift: DriftSpec) -> None:
        self.q_types = q_types
        self.n_slots = n_slots
        self.isi = isi
        self.tr = tr
        self.noise = noise
        self.delta = delta_t(isi, tr)
        self.hrf_length = default_hrf_length(self.delta)
        # the one place that knows the run count: one HRF sampling per run
        self.offsets = (0.0,) if noise.runs == 1 else (0.0, noise.run_shift)
        s = drift_matrix(_scan_index(n_slots, isi, tr)[2], drift.order)
        # V S has full column rank (V is nonsingular), so QR gives its range
        self.drift_basis = np.linalg.qr(self._whiten(s))[0]
        self._recent_grid = self._recent_point = (None, None, None)

    # -- drift removal -----------------------------------------------------

    def _whiten(self, a: np.ndarray) -> np.ndarray:
        """V a for the AR(1) whitener: the first row is scaled by sqrt(1 - rho^2)
        and every later row has rho times its predecessor subtracted."""
        rho = self.noise.rho
        out = np.empty_like(a)
        out[0] = math.sqrt(1.0 - rho * rho) * a[0]
        np.subtract(a[1:], rho * a[:-1], out=out[1:])
        return out

    # -- per-design pieces ------------------------------------------------

    def _check(self, d: Design) -> None:
        if d.q_types != self.q_types or len(d) != self.n_slots or d.isi != self.isi:
            raise ConfigurationError(
                f"design (q={d.q_types}, L={len(d)}, isi={d.isi}) does not match "
                f"evaluator (q={self.q_types}, L={self.n_slots}, isi={self.isi})")

    def _residualize(self, a: np.ndarray) -> np.ndarray:
        """(I - w{VS}) V a for columns a of one run."""
        va = self._whiten(a)
        return va - self.drift_basis @ (self.drift_basis.T @ va)

    def residualized(self, d: Design) -> np.ndarray:
        """(I - w{VS}) V X: whitened, drift-residualized design columns of one
        run (n_scans x Q*hrf_length); every run shares them."""
        self._check(d)
        return self._residualize(np.hstack(design_matrix(d, self.tr)))

    def gram(self, d: Design) -> np.ndarray:
        """The Gram matrix of `residualized(d)`, from the labels alone."""
        self._check(d)
        q, w, n = self.q_types, self.hrf_length, self.n_slots
        rtr, lags, index, omega, onset_rows, end_rows = self._gram_tables
        # one-hot onsets between `lags` zero rows (labels fit in a byte)
        o = np.eye(q + 1)[:, 1:].take(
            np.frombuffer(bytes(lags) + bytes(d.labels) + bytes(lags), np.uint8), axis=0)
        # counts[c, v, b, a]: onsets j = c mod rtr labelled a whose onset
        # j + v - lags is labelled b, from a window over o; then a zero row
        counts = np.zeros(((2 * lags + 1) * rtr + 1) * q * q)
        window = np.ndarray((n // rtr, rtr, (2 * lags + 1) * q), buffer=o,
                            strides=(rtr * o.strides[0], *o.strides)).transpose(1, 2, 0)
        np.matmul(window, o[lags:lags + n].reshape(-1, rtr, q).transpose(1, 0, 2),
                  out=counts[:-q * q].reshape(rtr, -1, q))
        y = np.dot(omega, counts.reshape(-1, q * q).take(index, axis=0).reshape(3, -1))
        y = y.reshape(w, w, q, q).transpose(3, 0, 2, 1).reshape(q * w, q * w)
        onsets = o[lags:lags + n].T
        z = np.concatenate((np.dot(onsets, onset_rows).reshape(q * w, -1),
                            np.dot(onsets[:, n - len(end_rows):], end_rows).reshape(q * w, -1)), 1)
        y -= np.dot(z, z.T)
        return 0.5 * (y + y.T)

    @cached_property
    def _gram_tables(self) -> tuple:
        """`gram`'s label-free tables, built on its first call as one tuple."""
        risi, rtr, n_scans, w = _scan_index(self.n_slots, self.isi, self.tr)
        rho, n, k, nd = self.noise.rho, self.n_slots, np.arange(w), self.drift_basis.shape[1]
        # onset j's height k is on a scan iff j = c(k) mod rtr (risi and rtr
        # are coprime, and rtr divides n); onset j + m's height k' is then
        # delta scans later iff m risi = delta rtr + k - k', for |m| <= lags
        lags = (w - 1 + rtr) // risi
        c = (-k * pow(risi, -1, rtr)) % rtr
        m, r = np.divmod(np.array([-rtr, 0, rtr])[:, None, None] + k[:, None] - k, risi)
        index = np.where(r == 0, c[:, None] * (2 * lags + 1) + m + lags, rtr * (2 * lags + 1))
        # what a height at each slot adds to Z = (V'D)'X, to rho x_0 (the first
        # scan has no AR(1) predecessor) and to the uncut run's whitened rows
        # from scan T on (in the counts, and reached by the last `lags` onsets)
        t = np.arange((w - 1) // rtr + 2)
        slots = np.zeros((n * risi + w + rtr, nd + 1 + len(t)))
        slots[:n * risi:rtr, :nd] = self.drift_basis
        slots[0] *= math.sqrt(1.0 - rho * rho)
        slots[:(n_scans - 1) * rtr:rtr, :nd] -= rho * self.drift_basis[1:]
        slots[0, nd] = rho
        slots[(n_scans + t) * rtr, nd + 1 + t] = 1.0
        slots[(n_scans - 1 + t) * rtr, nd + 1 + t] = -rho
        at = np.arange(n)[:, None] * risi + k  # the slots of each onset's heights
        return (rtr, lags, index, np.array([-rho, 1.0 + rho * rho, -rho]),
                slots[:, :nd + 1][at].reshape(n, -1),
                slots[:, nd + 1:][at[max(n - lags, 0):]].reshape(-1, w * len(t)))

    def bundle(self, p: HrfParams) -> np.ndarray:
        """(runs*hrf_length, 3) columns: heights, d/dp1, d/dp6, one
        hrf_length block per run offset."""
        return hrf_bundle((p.p1,), (p.p6,), self.delta, self.offsets, self.hrf_length)[0]

    def _directions(self, thetas) -> np.ndarray:
        """The directions as a finite (n, Q) array."""
        th = np.asarray(list(thetas), dtype=float)
        th = th.reshape(0, self.q_types) if th.size == 0 else th
        if th.ndim != 2 or th.shape[1] != self.q_types:
            raise ConfigurationError(f"thetas must be (n, {self.q_types}) (got {th.shape})")
        if not np.isfinite(th).all():
            raise ConfigurationError("thetas must be finite")
        return th

    # -- one-point route ----------------------------------------------------

    def info_matrix(self, d: Design, theta, p: HrfParams) -> np.ndarray:
        """M at one (theta, p): X times the point's weights first, then the
        Gram matrix of each run's Q+2 residualized columns [E L]."""
        self._check(d)
        b = self._point_weights(theta, p)
        c = self._residualize(sum(x @ bq for x, bq in zip(design_matrix(d, self.tr), b)))
        return self._runs_info(c.T @ c)

    def _runs_info(self, g: np.ndarray) -> np.ndarray:
        """M from the Gram matrix g of every run's [E L] columns (B'YB for
        weights B and a Gram matrix Y of `gram`): the runs' blocks summed,
        then `_point_info`."""
        n = self.q_types + 2
        return _point_info(g if len(g) == n else g[:n, :n] + g[n:, n:], self.q_types)

    def phi_a(self, d: Design, theta, p: HrfParams) -> float:
        return phi_from_info(self.info_matrix(d, theta, p))

    def _point_weights(self, theta, p: HrfParams) -> np.ndarray:
        """(Q, hrf_length, runs*(Q+2)) weights B, sum_q X_q B_q = [E L] per run.
        The last point's are kept, found by identity (a tuple theta is its
        own tuple), as one (theta, p, B) triple."""
        theta = tuple(theta)
        recent_theta, recent_p, recent = self._recent_point
        if recent_theta is theta and recent_p is p:
            return recent
        q, w = self.q_types, self.hrf_length
        th = self._directions([theta])[0]
        h = self.bundle(p).reshape(-1, w, 3).transpose(1, 0, 2)
        b = np.zeros((q, w, h.shape[1], q + 2))
        b[range(q), :, :, range(q)] = h[:, :, 0]
        b[..., q:] = th[:, None, None, None] * h[:, :, 1:]
        b = b.reshape(q, w, -1)
        self._recent_point = (theta, p, b)
        return b

    # -- grid route -----------------------------------------------------------

    def phi_a_grid(self, d: Design, thetas, ps) -> np.ndarray:
        """A-criterion values over a product grid: result[i, j] is the value
        at thetas[i], ps[j]."""
        blocks = self._phi_from_gram(self.gram(d), thetas, ps)
        return blocks[0][0] if len(blocks) == 1 else np.concatenate([v for v, _ in blocks])

    def _grid(self, thetas, ps) -> tuple:
        """(blocks, w_t, w_all): the finite (n, Q) directions, one array per
        `DirectionBlocks` block (else one); the p points' bundles from one
        `hrf_bundle` pass as n_s = n_p*runs (hrf_length, 3) slices W_s,
        point-major (w_all), and w_t (n_s*3, hrf_length) stacking every W_s'.
        The last grid of a tuple of tuples and a tuple of points is kept
        read-only, found by identity, as one (thetas, ps, grid) entry."""
        recent_thetas, recent_ps, recent = self._recent_grid
        if recent_thetas is thetas and recent_ps is ps:
            return recent
        th, w, pts = self._directions(thetas), self.hrf_length, tuple(ps)
        w_all = hrf_bundle(tuple(p.p1 for p in pts), tuple(p.p6 for p in pts),
                           self.delta, self.offsets, w).reshape(-1, w, 3)
        w_t = np.ascontiguousarray(w_all.transpose(0, 2, 1)).reshape(-1, w)
        for a in (th, w_t):
            a.setflags(write=False)
        grid = (tuple(np.split(th, np.cumsum(thetas.sizes[:-1])))
                if isinstance(thetas, DirectionBlocks) else (th,), w_t, w_all)
        if isinstance(ps, tuple) and isinstance(thetas, tuple) and all(
                isinstance(t, tuple) for t in thetas):
            self._recent_grid = (thetas, ps, grid)
        return grid

    def _phi_from_gram(self, y: np.ndarray, thetas, ps) -> list:
        """(values, M) of each direction block of `_grid`: A-criterion values
        over the block's product grid, and its information matrices as
        entries M[a][b], each an (n_block, n_ps) array."""
        q, w = self.q_types, self.hrf_length
        blocks, w_t, w_all = self._grid(thetas, ps)
        # h[s, i, a, b, v] = sum_u W_s[u, i] Y[a, u, b, v]: one GEMM for all s
        y_t = y.reshape(q, w, q * w).transpose(1, 0, 2).reshape(w, q * q * w)
        h = (w_t @ y_t).reshape(-1, 3 * q * q, w)
        g = np.matmul(h, w_all).reshape(-1, len(self.offsets), 3, q, q, 3)
        # gp[i, j, b, a, p]: p's W_s[:, i]' Y[a, b] W_s[:, j] summed over its runs
        gp = np.empty((3, 3, q, q, len(g)))
        np.sum(g.transpose(2, 5, 4, 3, 0, 1), axis=-1, out=gp)
        return [_theta_stage(gp, th) for th in blocks]


def _theta_stage(gp: np.ndarray, th: np.ndarray):
    """(values, M) of `Evaluator._phi_from_gram` for the (n_t, Q) directions
    `th` of one block, from the p points' summed quadratic forms gp[i, j, b, a, p]."""
    q, n_p, n_t = gp.shape[2], gp.shape[-1], th.shape[0]
    # E'L columns el[j - 1, t, a, p] and L'L entries ll[i - 1, j - 1, t, p]
    el = np.matmul(th, gp[0, 1:].reshape(2, q, q * n_p)).reshape(2, n_t, q, n_p)
    tt = (th[:, :, None] * th[:, None, :]).reshape(n_t, q * q)
    ll = np.matmul(tt, gp[1:, 1:].reshape(2, 2, q * q, n_p))
    i00, i01, i11 = _pinv_sym2_batch(ll[0, 0], ll[0, 1], ll[1, 1])
    # M = E'E - E'L pinv(L'L) L'E entry by entry, with F = pinv(L'L) L'E
    e1, e2 = el
    f1 = i00[:, None] * e1 + i01[:, None] * e2
    f2 = i01[:, None] * e1 + i11[:, None] * e2
    a00 = 0.5 * (gp[0, 0] + gp[0, 0].transpose(1, 0, 2))
    m = [[None] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            m[a][b] = m[b][a] = a00[a, b] - (e1[:, a] * f1[:, b] + e2[:, a] * f2[:, b])
    return _phi_batch(m), m


class DirectionBlocks(tuple):
    """Directions in blocks that `Evaluator.phi_a_grid` scores each as if alone:
    BLAS may round a row of a matrix product differently among more rows."""

    def __new__(cls, *blocks):
        self = super().__new__(cls, itertools.chain(*blocks))
        self.sizes = tuple(map(len, blocks))
        return self


def _eig_sym2(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trace, lmax, lmin) of symmetric 2x2 [[a, b], [b, c]] batches."""
    t = a + c
    s = np.sqrt((a - c) ** 2 + 4.0 * b * b)
    return t, 0.5 * (t + s), 0.5 * (t - s)


def _pinv_sym2_batch(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (i00, i01, i11) of the Moore-Penrose inverse of symmetric PSD
    2x2 [[a, b], [b, c]] batches; a, b, c may have any common shape."""
    # lmin/lmax >= det/t^2 (t = a + c > 0): a batch this proves full rank, with
    # a margin of 2 for rounding, takes the full-rank branch below, bit for bit
    t, det = a + c, a * c - b * b
    if ((det > 2 * LL_RANK_ONE_RATIO * t * t) & (t > 0)).all():
        return c / det, -b / det, a / det
    _, lmax, lmin = _eig_sym2(a, b, c)
    full = lmin > LL_RANK_ONE_RATIO * lmax
    # rank-one fallback: M/lmax^2 approximates the truncated inverse; an
    # all-zero block divides by infinity and gets a zero inverse
    rank1 = (~full) & (lmax > 0)
    den = np.where(full, det, np.where(rank1, lmax ** 2, np.inf))
    return np.where(full, c, a) / den, np.where(full, -b, b) / den, np.where(full, a, c) / den


def _pinv_sym2(a: float, b: float, c: float) -> tuple[float, float, float]:
    """`_pinv_sym2_batch` of one block of Python floats, operation for
    operation as on numpy scalars (which square by `pow`, as floats do);
    where floats would raise, numpy's inf and nan come from the batch form."""
    try:
        t = a + c
        s = math.sqrt((a - c) ** 2 + 4.0 * b * b)
        lmax, lmin = 0.5 * (t + s), 0.5 * (t - s)
        if lmin > LL_RANK_ONE_RATIO * lmax:
            den = a * c - b * b
            return c / den, -b / den, a / den
        den = lmax ** 2 if lmax > 0 else math.inf
        return a / den, b / den, c / den
    except (OverflowError, ZeroDivisionError):
        return _pinv_sym2_batch(np.float64(a), np.float64(b), np.float64(c))


def _point_info(g: np.ndarray, q: int) -> np.ndarray:
    """M = E'E - E'L pinv(L'L) L'E from the Gram matrix g of [E L] (Q + 2
    columns), with the grid route's Schur complement."""
    i00, i01, i11 = _pinv_sym2(g.item(q, q), g.item(q, q + 1), g.item(q + 1, q + 1))
    el = g[:q, q:]
    m = g[:q, :q] - (el @ np.array([[i00, i01], [i01, i11]])) @ el.T
    return 0.5 * (m + m.T)


def _phi_batch(m) -> np.ndarray:
    """1/trace(M^{-1}) for symmetric matrices given by their entries m[a][b],
    arrays of any common shape (or a single q x q matrix); 0 where the
    reciprocal condition number is at or below RCOND_SINGULAR."""
    q = len(m)
    if q == 1:
        return np.where(m[0][0] > 0.0, m[0][0], 0.0)
    if q == 2:  # lmin/lmax >= det/t^2 proves a batch nonsingular, as above
        a, b, c = m[0][0], m[0][1], m[1][1]
        t, det = a + c, a * c - b * b
        if ((det > 2 * RCOND_SINGULAR * t * t) & (t > 0)).all():
            return det / t
        _, lmax, lmin = _eig_sym2(a, b, c)
        ok = (lmax > 0) & (lmin > RCOND_SINGULAR * lmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(ok, det / t, 0.0)
    # a cofactor form det / (sum of 2 x 2 principal minors) loses far more than
    # eps * kappa when two eigenvalues are small, so Q >= 3 solves for them
    lam = np.linalg.eigvalsh(np.stack([np.stack(row, axis=-1) for row in m], axis=-2))
    lmin, lmax = lam[..., 0], lam[..., -1]
    ok = (lmax > 0) & (lmin > RCOND_SINGULAR * lmax)
    with np.errstate(divide="ignore", invalid="ignore"):
        tr_inv = np.sum(1.0 / np.where(lam > 0, lam, 1.0), axis=-1)
    return np.where(ok, 1.0 / tr_inv, 0.0)


def phi_from_info(m: np.ndarray) -> float:
    """1/trace(M^{-1}) for a single symmetric matrix (0 if near-singular)."""
    return float(_phi_batch(np.asarray(m, dtype=float)))


@lru_cache(maxsize=16)
def get_evaluator(q_types: int, n_slots: int, isi: float, tr: float,
                  noise: NoiseSpec, drift: DriftSpec) -> Evaluator:
    """Shared evaluator cache keyed by the full configuration."""
    return Evaluator(q_types, n_slots, isi, tr, noise, drift)


def evaluator_for(d: Design, tr: float, noise: NoiseSpec, drift: DriftSpec) -> Evaluator:
    return get_evaluator(d.q_types, len(d), d.isi, tr, noise, drift)


# -- single-point contract functions ----------------------------------------

def info_matrix(d: Design, theta, p: HrfParams, noise: NoiseSpec, drift: DriftSpec,
                tr: float) -> InfoMatrix:
    m = evaluator_for(d, tr, noise, drift).info_matrix(d, theta, p)
    return InfoMatrix(m=m, theta=tuple(float(x) for x in theta), p=p)


def phi_a(d: Design, theta, p: HrfParams, noise: NoiseSpec, drift: DriftSpec,
          tr: float) -> float:
    return evaluator_for(d, tr, noise, drift).phi_a(d, theta, p)
