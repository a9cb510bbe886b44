"""Parametric double-gamma hemodynamic response function (HRF).

The curve is a difference of two gamma densities, normalized so its running
maximum over [0, 32] seconds equals one.  Two parameters are free: the
time-to-peak ``p1`` of the positive lobe and the onset delay ``p6``.  The
rest of the shape is fixed by the module constants P2-P5: undershoot delay
16, both dispersions 1 and undershoot weight 1/6.

The normalizing constant is the exact maximum over the canonical 0.001 s
scan of [0, 32] s, found by a windowed scan (see ``_norm_info``).  Sampled
heights and their two parameter partials come from ``hrf_bundle``, which
evaluates the p points of a grid together, in vectorized passes of 64
points; ``Evaluator.bundle`` is its one-point case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericalError

# Window (seconds) over which the response is considered nonzero, and the
# resolution of the canonical normalization scan.
HRF_WINDOW = 32.0
NORM_SCAN_STEP = 1e-3
NORM_COARSE_STRIDE = 100  # canonical scan points per coarse step (0.1 s)
FD_STEP = 1e-5  # central finite-difference step for parameter partials
# Points per vectorized pass of hrf_bundle: keeps its working arrays (and the
# normalization scans of their p1 values) small; a whole 651-point grid at
# once raised a search's peak resident memory by about 4%.
BUNDLE_CHUNK = 64

# Fixed shape: undershoot peak, dispersions of both lobes, undershoot weight.
P2 = 16.0
P3 = 1.0
P4 = 1.0
P5 = 1.0 / 6.0


@dataclass(frozen=True)
class HrfParams:
    """The free parameters: p1 time-to-peak, p6 onset delay.

    Any finite p1 > 1 with finite p6 >= 0 is evaluable; the case-study
    region is p1 in [6, 9], p6 in [0, 2].
    """

    p1: float
    p6: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p1) and self.p1 > 1.0):
            raise ConfigurationError(f"p1 must be finite and > 1 (got {self.p1})")
        if not (math.isfinite(self.p6) and self.p6 >= 0.0):
            raise ConfigurationError(f"p6 must be finite and >= 0 (got {self.p6})")


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def gamma_pdf(x, alpha, beta: float):
    """Gamma density x^(alpha-1) exp(-x/beta) / (Gamma(alpha) beta^alpha).

    Zero for x <= 0.  Accepts scalars or arrays; `alpha` may be an array that
    broadcasts against `x` (one shape per row).  A scalar result is a float.
    """
    a = np.asarray(alpha, dtype=float)
    if np.any(a <= 0) or beta <= 0:
        raise ConfigurationError(f"gamma_pdf needs alpha, beta > 0 (got {alpha}, {beta})")
    arr = np.asarray(x, dtype=float)
    log_norm = np.asarray(_lgamma(a), dtype=float) + a * math.log(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(
            arr > 0.0,
            np.exp((a - 1.0) * np.log(np.where(arr > 0.0, arr, 1.0)) - arr / beta - log_norm),
            0.0,
        )
    if vals.ndim == 0:
        return float(vals)
    return vals


def _g_raw_floats(t, p1, p6):
    """Unnormalized double-gamma curve at time(s) t, for time-to-peak p1 and
    onset delay p6; p1 and p6 may be arrays that broadcast against t."""
    x = np.asarray(t, dtype=float) - p6
    return gamma_pdf(x, p1 / P3, P3) - P5 * gamma_pdf(x, P2 / P4, P4)


@lru_cache(maxsize=4096)
def _norm_info(p1s: tuple[float, ...]) -> np.ndarray:
    """Normalizing max of the p6 = 0 curve at each p1 in `p1s`.

    The max over s of the curve does not depend on p6 (pure time shift with
    the peak interior to the scan window), so the constant is computed once on
    the p6 = 0 axis; this also makes the shift identity exact.  The constant
    is the exact maximum over the canonical 0.001 s grid of [0, 32] s, but not
    every grid point is evaluated: the scan takes every 100th point (0.1 s
    apart), keeps each coarse point at least as high as its coarse neighbours
    (an end point has one), and evaluates every canonical point within one
    coarse step of those.  Each point's value is computed exactly as the full
    scan computes it.  The result is the full 32,001-point scan's whenever no
    other turning point of the curve lies within 0.2 s of its maximum: the
    curve then rises over the two coarse steps before the maximum and falls
    over the two after, so the higher end of the coarse step holding the
    maximum is a kept coarse point.
    """
    last = int(round(HRF_WINDOW / NORM_SCAN_STEP))
    p1 = np.array(p1s, dtype=float)[:, None]
    coarse_idx = np.arange(0, last + 1, NORM_COARSE_STRIDE)
    coarse = _g_raw_floats(coarse_idx * NORM_SCAN_STEP, p1, 0.0)
    edge = np.full((len(p1s), 1), -np.inf)
    padded = np.hstack([edge, coarse, edge])
    kept = (coarse >= padded[:, :-2]) & (coarse >= padded[:, 2:])
    # each row's kept coarse points in index order, padded with its first
    n_kept = kept.sum(axis=1)
    width = max(int(n_kept.max()), 1)
    order = np.argsort(~kept, axis=1, kind="stable")[:, :width]
    ks = np.where(np.arange(width) < n_kept[:, None], order, order[:, :1])
    window = np.arange(-NORM_COARSE_STRIDE, NORM_COARSE_STRIDE + 1)
    near = np.clip(coarse_idx[ks][:, :, None] + window, 0, last).reshape(len(p1s), -1)
    vals = _g_raw_floats(near * NORM_SCAN_STEP, p1, 0.0)
    c = vals.max(axis=1)
    if not np.all(c > 0.0):
        raise NumericalError(f"HRF normalization failed: nonpositive max for p1 in {p1s}")
    c.setflags(write=False)
    return c


def default_hrf_length(delta_t: float) -> int:
    """Number of sampled heights: 1 + floor(window / delta_t)."""
    if delta_t <= 0:
        raise ConfigurationError(f"delta_t must be positive (got {delta_t})")
    return 1 + int(math.floor(HRF_WINDOW / delta_t + 1e-9))


@lru_cache(maxsize=65536)
def hrf_bundle(p1s: tuple[float, ...], p6s: tuple[float, ...], delta_t: float,
               offsets: tuple[float, ...], length: int) -> np.ndarray:
    """(n_p, len(offsets)*length, 3) array of [heights, d/dp1, d/dp6] at the
    points (p1s[i], p6s[i]).

    One sampling run per offset, concatenated; all offsets of a point share
    its normalizing denominator.  The five curves each point needs (itself,
    p1 +- 1e-5 and p6 +- 1e-5) are evaluated as one array for up to
    BUNDLE_CHUNK points at a time, with every element computed as the
    one-point curve computes it, so a grid's bundles equal its points'
    one-point bundles bit for bit.  Cached per argument tuple (cache hits
    are bit-identical to cold computation: pure function of the arguments).
    """
    p1 = np.array(p1s, dtype=float)
    p6 = np.array(p6s, dtype=float)
    if p1.shape != p6.shape or p1.ndim != 1:
        raise ConfigurationError("p1s and p6s must be equal-length sequences")
    ok = np.isfinite(p1) & (p1 > 1.0) & np.isfinite(p6) & (p6 >= 0.0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ConfigurationError(f"need finite p1 > 1 and p6 >= 0 (got {p1[k]}, {p6[k]})")
    eps = FD_STEP
    t = np.concatenate([off + np.arange(length) * delta_t for off in offsets])
    out = np.empty((len(p1), len(t), 3))
    for k in range(0, len(p1), BUNDLE_CHUNK):
        rows = slice(k, k + BUNDLE_CHUNK)
        a, b = p1[rows], p6[rows]
        # per point, the curves at the point, p1 + eps, p1 - eps, p6 + eps, p6 - eps
        c1 = np.stack([a, a + eps, a - eps, a, a], axis=1)
        c6 = np.stack([b, b, b, b + eps, b - eps], axis=1)
        distinct = tuple(sorted(set(c1.ravel().tolist())))
        norm = _norm_info(distinct)[np.searchsorted(distinct, c1)]
        curves = _g_raw_floats(t, c1[..., None], c6[..., None]) / norm[..., None]
        out[rows, :, 0] = curves[:, 0]
        out[rows, :, 1] = (curves[:, 1] - curves[:, 2]) / (2.0 * eps)
        out[rows, :, 2] = (curves[:, 3] - curves[:, 4]) / (2.0 * eps)
    out.setflags(write=False)
    return out
