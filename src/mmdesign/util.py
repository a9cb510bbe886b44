"""Small shared helpers: worker-pool plumbing and float formatting."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from .errors import ConfigurationError


def resolve_threads(requested: int) -> int:
    """Checked worker count: at least one."""
    if requested < 1:
        raise ConfigurationError(f"thread count must be >= 1 (got {requested})")
    return requested


def parallel_map(fn: Callable, items: Sequence, threads: int = 1) -> list:
    """Order-preserving map over independent pure tasks.

    Results are identical for any pool size.  numpy releases the GIL only
    inside its larger array operations, and a search is mostly small ones, so
    threads have not been measured to give a speedup.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


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
