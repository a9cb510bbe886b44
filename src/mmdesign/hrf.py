"""Parametric double-gamma hemodynamic response function (HRF).

The curve is a difference of two gamma densities, normalized so its running
maximum over [0, 32] seconds equals one.  Two parameters are treated as
unknown: the time-to-peak ``p1`` of the positive lobe and the onset delay
``p6``; the remaining shape constants default to the conventional values
(16, 1, 1, 1/6) for the undershoot delay, the two dispersions, and the
undershoot weight.
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
FD_STEP = 1e-5  # central finite-difference step for parameter partials

# Shape constants: undershoot peak, dispersions of both lobes, undershoot weight.
DEFAULT_P2 = 16.0
DEFAULT_P3 = 1.0
DEFAULT_P4 = 1.0
DEFAULT_P5 = 1.0 / 6.0


@dataclass(frozen=True)
class HrfParams:
    """Free parameters (p1 time-to-peak, p6 onset delay) plus shape constants.

    Any p1 > 1 with p6 >= 0 is evaluable; the case-study region is
    p1 in [6, 9], p6 in [0, 2].
    """

    p1: float
    p6: float
    p2: float = DEFAULT_P2
    p3: float = DEFAULT_P3
    p4: float = DEFAULT_P4
    p5: float = DEFAULT_P5

    def __post_init__(self) -> None:
        if not self.p1 > 1.0:
            raise ConfigurationError(f"p1 must be > 1 (got {self.p1})")
        if self.p6 < 0.0:
            raise ConfigurationError(f"p6 must be >= 0 (got {self.p6})")
        if min(self.p2, self.p3, self.p4) <= 0.0:
            raise ConfigurationError("shape constants p2, p3, p4 must be positive")


@dataclass(frozen=True)
class HrfVector:
    """HRF heights sampled at offset + j*delta_t, j = 0..len-1."""

    heights: np.ndarray
    delta_t: float
    offset: float

    def __post_init__(self) -> None:
        h = np.asarray(self.heights, dtype=float)
        h.setflags(write=False)
        object.__setattr__(self, "heights", h)

    def __len__(self) -> int:
        return self.heights.shape[0]


def gamma_pdf(x, alpha: float, beta: float):
    """Gamma density x^(alpha-1) exp(-x/beta) / (Gamma(alpha) beta^alpha).

    Zero for x <= 0.  Accepts scalars or arrays; scalars return floats.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError(f"gamma_pdf needs alpha, beta > 0 (got {alpha}, {beta})")
    arr = np.asarray(x, dtype=float)
    log_norm = math.lgamma(alpha) + alpha * math.log(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(
            arr > 0.0,
            np.exp((alpha - 1.0) * np.log(np.where(arr > 0.0, arr, 1.0)) - arr / beta - log_norm),
            0.0,
        )
    if np.isscalar(x) or arr.ndim == 0:
        return float(vals)
    return vals


def g_raw(t, p: HrfParams):
    """Unnormalized double-gamma curve at time(s) t."""
    return _g_raw_floats(t, p.p1, p.p6, p.p2, p.p3, p.p4, p.p5)


def _g_raw_floats(t, p1, p6, p2, p3, p4, p5):
    x = np.asarray(t, dtype=float) - p6
    vals = gamma_pdf(x, p1 / p3, p3) - p5 * gamma_pdf(x, p2 / p4, p4)
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(vals)
    return vals


@lru_cache(maxsize=4096)
def _norm_info(p1: float, p2: float, p3: float, p4: float, p5: float) -> tuple[float, int]:
    """(normalizing max, its index on the canonical scan) of the p6 = 0 curve.

    The max over s of the curve does not depend on p6 (pure time shift with
    the peak interior to the scan window), so the constant is computed once on
    the p6 = 0 axis; this also makes the shift identity exact.  The constant
    itself is the exact maximum over the canonical 0.001 s grid.
    """
    grid = np.arange(int(round(HRF_WINDOW / NORM_SCAN_STEP)) + 1) * NORM_SCAN_STEP
    vals = _g_raw_floats(grid, p1, 0.0, p2, p3, p4, p5)
    idx = int(np.argmax(vals))
    c = float(vals[idx])
    if not c > 0.0:
        raise NumericalError(f"HRF normalization failed: nonpositive max for p1={p1}")
    return c, idx


def _golden_argmax(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximizer of a unimodal scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def normalizing_max(p: HrfParams) -> float:
    """Denominator used by g_normalized (independent of p6)."""
    return _norm_info(p.p1, p.p2, p.p3, p.p4, p.p5)[0]


def peak_time(p: HrfParams) -> float:
    """Time at which the normalized curve peaks (includes the p6 shift):
    golden-section refinement between the canonical scan's neighbours of its
    maximum.  Only this needs the refinement, so normalizing does not pay
    for it."""
    idx = _norm_info(p.p1, p.p2, p.p3, p.p4, p.p5)[1]
    last = int(round(HRF_WINDOW / NORM_SCAN_STEP))
    lo = max(idx - 1, 0) * NORM_SCAN_STEP
    hi = min(idx + 1, last) * NORM_SCAN_STEP
    t_peak = _golden_argmax(lambda s: _g_raw_floats(s, p.p1, 0.0, p.p2, p.p3, p.p4, p.p5), lo, hi)
    return t_peak + p.p6


def g_normalized(t, p: HrfParams):
    """Double-gamma curve scaled so its maximum over the window is one."""
    c = normalizing_max(p)
    return _g_normalized_floats(t, p.p1, p.p6, p.p2, p.p3, p.p4, p.p5, c)


def _g_normalized_floats(t, p1, p6, p2, p3, p4, p5, c=None):
    if c is None:
        c = _norm_info(p1, p2, p3, p4, p5)[0]
    raw = _g_raw_floats(t, p1, p6, p2, p3, p4, p5)
    return raw / c


def default_hrf_length(delta_t: float) -> int:
    """Number of sampled heights: 1 + floor(window / delta_t)."""
    if delta_t <= 0:
        raise ConfigurationError(f"delta_t must be positive (got {delta_t})")
    return 1 + int(math.floor(HRF_WINDOW / delta_t + 1e-9))


def sample_hrf(p: HrfParams, delta_t: float, offset: float = 0.0, length: int | None = None) -> HrfVector:
    """Sample the normalized curve at offset + j*delta_t, j = 0..length-1."""
    if length is None:
        length = default_hrf_length(delta_t)
    if length < 1:
        raise ConfigurationError(f"length must be >= 1 (got {length})")
    t = offset + np.arange(length) * delta_t
    return HrfVector(heights=np.asarray(g_normalized(t, p)), delta_t=delta_t, offset=offset)


def hrf_partial(p: HrfParams, which: str, delta_t: float, offset: float = 0.0,
                length: int | None = None) -> np.ndarray:
    """Partial derivative of the sampled normalized heights w.r.t. p1 or p6.

    Central finite differences with step 1e-5 on the *normalized* curve, so
    the derivative of the normalizing denominator is captured.  For p6 the
    perturbed curve may use a slightly negative onset shift; the curve stays
    well-defined (zero before onset).
    """
    if which not in ("p1", "p6"):
        raise ConfigurationError(f"which must be 'p1' or 'p6' (got {which!r})")
    if length is None:
        length = default_hrf_length(delta_t)
    t = offset + np.arange(length) * delta_t
    eps = FD_STEP
    if which == "p1":
        hi = _g_normalized_floats(t, p.p1 + eps, p.p6, p.p2, p.p3, p.p4, p.p5)
        lo = _g_normalized_floats(t, p.p1 - eps, p.p6, p.p2, p.p3, p.p4, p.p5)
    else:
        hi = _g_normalized_floats(t, p.p1, p.p6 + eps, p.p2, p.p3, p.p4, p.p5)
        lo = _g_normalized_floats(t, p.p1, p.p6 - eps, p.p2, p.p3, p.p4, p.p5)
    return (np.asarray(hi) - np.asarray(lo)) / (2.0 * eps)


@lru_cache(maxsize=65536)
def hrf_bundle(p1: float, p6: float, delta_t: float, offsets: tuple[float, ...],
               length: int) -> np.ndarray:
    """Stacked (len(offsets)*length, 3) array of [heights, d/dp1, d/dp6].

    One sampling run per offset, concatenated; all offsets share the single
    normalizing denominator.  Cached per parameter point (cache hits are
    bit-identical to cold computation: pure function of the arguments).
    """
    p = HrfParams(p1=p1, p6=p6)
    cols = []
    for off in offsets:
        h = sample_hrf(p, delta_t, offset=off, length=length).heights
        d1 = hrf_partial(p, "p1", delta_t, offset=off, length=length)
        d6 = hrf_partial(p, "p6", delta_t, offset=off, length=length)
        cols.append(np.column_stack([h, d1, d6]))
    out = np.vstack(cols)
    out.setflags(write=False)
    return out
