"""The package's own response curve at one parameter point, for tests.

These are the one-point forms of what `hrf.hrf_bundle` computes for a grid:
they call the same private pieces (`_g_raw_floats`, `_norm_info`), so tests
can compare the bundles with them bit for bit.  `reference.py` holds the
independent scipy curves.
"""

from mmdesign.hrf import HrfParams, _g_raw_floats, _norm_info


def g_raw(t, p: HrfParams):
    """Unnormalized double-gamma curve at time(s) t."""
    return _g_raw_floats(t, p.p1, p.p6)


def normalizing_max(p: HrfParams) -> float:
    """Denominator used by g_normalized (independent of p6)."""
    return float(_norm_info((p.p1,))[0])


def g_normalized(t, p: HrfParams):
    """Double-gamma curve scaled so its maximum over the window is one."""
    return g_raw(t, p) / normalizing_max(p)
