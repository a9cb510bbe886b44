"""Small shared helpers: the `--threads` check, the finite-number test, float
formatting, and a mean with its standard error."""

from __future__ import annotations

import math
from typing import Iterable

from .errors import ConfigurationError


def resolve_threads(requested: int) -> int:
    """Checked `--threads` value: at least one.  Seeds are searched one after
    another, so the count is read nowhere else."""
    if requested < 1:
        raise ConfigurationError(f"thread count must be >= 1 (got {requested})")
    return requested


def is_finite_number(x) -> bool:
    """True for a finite int or float; False for a bool or anything else."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def fmt_float(x: float) -> str:
    """Deterministic float rendering for CSV/report output."""
    return format(float(x), ".12g")


def mean_and_stderr(values: Iterable[float]) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1); stderr 0 for n < 2."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n == 0:
        raise ValueError("need at least one value")
    mean = sum(vals) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    return mean, (var / n) ** 0.5
