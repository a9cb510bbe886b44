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

The evaluator reduces each design to a Gram matrix Y of its residualized
columns.  Residualizing never forms an n x n operator: V is lower-bidiagonal,
so V X is one shifted subtraction, and the drift projector is the identity
minus Qs Qs' for a thin orthonormal basis Qs of V S.  Everything after the
Gram matrix works on flat per-entry arrays: one matrix product of all p
points' transposed HRF bundles with Y, one batched product over p with the
bundles, then, with p the last axis, one product each for E'L and L'L over
all directions theta.  A closed-form 2 x 2 pseudo-inverse F = (L'L)^- L'E
gives the Schur complement M_ab = (E'E)_ab - (E'L)_a F_b one entry at a time,
each an (n_theta, n_p) array; Q <= 2 takes 1/trace(M^{-1}) in closed form
from the entries, Q >= 3 stacks them for an eigenvalue solve.  `hrf.hrf_bundle`
builds a grid's HRF bundles in one vectorized pass and caches them by value;
the evaluator keeps the last grid's transposed copy.

Two runs present one sequence, the second with its HRF sampled `run_shift`
seconds later; `NoiseSpec` holds both the run count and the shift.  The runs
are independent and share the amplitudes, so E'E, E'L and L'L are sums of
per-run terms: Y is one run's, and the runs' quadratic forms in their own HRF
bundles are added before the nuisance pseudo-inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    of one run's whitened drift columns; each design then yields one run's
    Gram matrix, from which information matrices at any (theta, p) follow by
    small quadratic forms summed over the runs.  The stacked HRF bundles of
    the last grid scored are kept, and `hrf_bundle` caches grids by value.
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
        s = drift_matrix(_scan_index(n_slots, isi, tr)[1].shape[0], drift.order)
        # V S has full column rank (V is nonsingular), so QR gives its range
        self.drift_basis = np.linalg.qr(self._whiten(s))[0]
        self._recent_stack: tuple = (None, None)

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

    def residualized(self, d: Design) -> np.ndarray:
        """(I - w{VS}) V X: whitened, drift-residualized design columns of one
        run (n_scans x Q*hrf_length); every run shares them."""
        self._check(d)
        vx = self._whiten(np.hstack(design_matrix(d, self.tr)))
        return vx - self.drift_basis @ (self.drift_basis.T @ vx)

    def gram(self, d: Design) -> np.ndarray:
        u = self.residualized(d)
        y = u.T @ u
        return 0.5 * (y + y.T)

    def bundle(self, p: HrfParams) -> np.ndarray:
        """(runs*hrf_length, 3) columns: heights, d/dp1, d/dp6, one
        hrf_length block per run offset."""
        return hrf_bundle((p.p1,), (p.p6,), self.delta, self.offsets, self.hrf_length)[0]

    def info_matrix(self, d: Design, theta, p: HrfParams) -> np.ndarray:
        _, m = self._phi_from_gram(self.gram(d), [tuple(np.asarray(theta, dtype=float))], [p])
        return np.array([[entry[0, 0] for entry in row] for row in m])

    def phi_a(self, d: Design, theta, p: HrfParams) -> float:
        grid = self.phi_a_grid(d, [tuple(np.asarray(theta, dtype=float))], [p])
        return float(grid[0, 0])

    # -- fast grid path -----------------------------------------------------

    def phi_a_grid(self, d: Design, thetas, ps) -> np.ndarray:
        """A-criterion values over a product grid: result[i, j] is the value
        at thetas[i], ps[j]."""
        out, _ = self._phi_from_gram(self.gram(d), thetas, ps)
        return out

    def _stacked_bundles(self, ps) -> tuple[np.ndarray, np.ndarray]:
        """Bundles of the p points in the tuple `ps`, built in one pass and cut
        into n_s = n_p*runs (hrf_length, 3) slices W_s, point-major: one
        transposed copy (n_s*3, hrf_length) stacking every W_s' for the
        product with the Gram matrix, and the (n_s, hrf_length, 3) view of
        `hrf_bundle`'s array for the batched product.  Only the last tuple's
        are kept, found by identity, as one (ps, stacked) pair that threads
        replace whole; other tuples come from `hrf_bundle`'s cache."""
        recent_ps, recent = self._recent_stack
        if recent_ps is ps:
            return recent
        w = self.hrf_length
        w_all = hrf_bundle(tuple(p.p1 for p in ps), tuple(p.p6 for p in ps),
                           self.delta, self.offsets, w).reshape(-1, w, 3)
        stacked = (np.ascontiguousarray(w_all.transpose(0, 2, 1)).reshape(-1, w), w_all)
        self._recent_stack = (ps, stacked)
        return stacked

    def _phi_from_gram(self, y: np.ndarray, thetas, ps):
        """(values, M): A-criterion values over the product grid, and the
        information matrices as entries M[a][b], each an (n_thetas, n_ps) array."""
        q, w = self.q_types, self.hrf_length
        ps = ps if isinstance(ps, tuple) else tuple(ps)
        th = np.asarray(list(thetas), dtype=float)
        if th.size == 0:
            th = th.reshape(0, q)
        if th.ndim != 2 or th.shape[1] != q:
            raise ConfigurationError(f"thetas must be (n, {q}) (got {th.shape})")
        n_t, n_p = th.shape[0], len(ps)
        w_t, w_all = self._stacked_bundles(ps)
        # h[s, i, a, b, v] = sum_u W_s[u, i] Y[a, u, b, v]: one GEMM for all s
        y_t = y.reshape(q, w, q * w).transpose(1, 0, 2).reshape(w, q * q * w)
        h = (w_t @ y_t).reshape(-1, 3 * q * q, w)
        g = np.matmul(h, w_all).reshape(n_p, len(self.offsets), 3, q, q, 3)
        # gp[i, j, b, a, p]: p's W_s[:, i]' Y[a, b] W_s[:, j] summed over its runs
        gp = np.empty((3, 3, q, q, n_p))
        np.sum(g.transpose(2, 5, 4, 3, 0, 1), axis=-1, out=gp)
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


def _eig_sym2(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(trace, lmax, lmin) of symmetric 2x2 [[a, b], [b, c]] batches."""
    t = a + c
    s = np.sqrt((a - c) ** 2 + 4.0 * b * b)
    return t, 0.5 * (t + s), 0.5 * (t - s)


def _pinv_sym2_batch(a, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (i00, i01, i11) of the Moore-Penrose inverse of symmetric PSD
    2x2 [[a, b], [b, c]] batches; a, b, c may have any common shape."""
    _, lmax, lmin = _eig_sym2(a, b, c)
    full = lmin > LL_RANK_ONE_RATIO * lmax
    # rank-one fallback: M/lmax^2 approximates the truncated inverse; an
    # all-zero block divides by infinity and gets a zero inverse
    rank1 = (~full) & (lmax > 0)
    den = np.where(full, a * c - b * b, np.where(rank1, lmax ** 2, np.inf))
    return np.where(full, c, a) / den, np.where(full, -b, b) / den, np.where(full, a, c) / den


def _phi_batch(m) -> np.ndarray:
    """1/trace(M^{-1}) for symmetric matrices given by their entries m[a][b],
    arrays of any common shape (or a single q x q matrix); 0 where the
    reciprocal condition number is at or below RCOND_SINGULAR."""
    q = len(m)
    if q == 1:
        return np.where(m[0][0] > 0.0, m[0][0], 0.0)
    if q == 2:
        a, b, c = m[0][0], m[0][1], m[1][1]
        t, lmax, lmin = _eig_sym2(a, b, c)
        det = a * c - b * b
        ok = (lmax > 0) & (lmin > RCOND_SINGULAR * lmax)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = np.where(ok, det / t, 0.0)
        return phi
    # a cofactor form det / (sum of 2 x 2 principal minors) loses far more than
    # eps * kappa when two eigenvalues are small, so Q >= 3 solves for them
    lam = np.linalg.eigvalsh(np.stack([np.stack(row, axis=-1) for row in m], axis=-2))
    lmin = lam[..., 0]
    lmax = lam[..., -1]
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
