"""Response-curve tests: known densities, normalization, shifts, partials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdesign.criteria import make_grid
from mmdesign.errors import ConfigurationError
from mmdesign.hrf import (
    FD_STEP,
    NORM_SCAN_STEP,
    HrfParams,
    _norm_info,
    default_hrf_length,
    gamma_pdf,
    hrf_bundle,
)

from hrf_curves import g_normalized, g_raw, normalizing_max
from reference import ref_hrf, ref_hrf_partial


def test_gamma_pdf_known_values():
    assert gamma_pdf(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    # alpha=6, beta=1 at x=5: 5^5 e^-5 / 5!
    assert gamma_pdf(5.0, 6.0, 1.0) == pytest.approx(3125.0 * math.exp(-5.0) / 120.0,
                                                     rel=1e-14)
    assert gamma_pdf(5.0, 6.0, 1.0) == pytest.approx(0.175467, abs=1e-6)
    assert gamma_pdf(1.0, 1.0, 1.0) == pytest.approx(0.367879, abs=1e-6)


def test_gamma_pdf_zero_for_nonpositive_x():
    assert gamma_pdf(0.0, 2.0, 1.0) == 0.0
    assert gamma_pdf(-3.0, 2.0, 1.0) == 0.0
    vals = gamma_pdf(np.array([-1.0, 0.0, 1.0]), 2.0, 1.0)
    assert vals[0] == 0.0 and vals[1] == 0.0 and vals[2] > 0.0


def test_gamma_pdf_rejects_bad_shape():
    with pytest.raises(ConfigurationError):
        gamma_pdf(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        gamma_pdf(1.0, 1.0, -2.0)


def test_gamma_pdf_scalar_vs_array():
    xs = np.linspace(0.1, 20.0, 37)
    arr = gamma_pdf(xs, 6.0, 1.0)
    for x, v in zip(xs, arr):
        assert gamma_pdf(float(x), 6.0, 1.0) == v


@given(st.floats(0.01, 40.0), st.floats(1.1, 20.0), st.floats(0.1, 4.0))
def test_gamma_pdf_nonnegative(x, alpha, beta):
    assert gamma_pdf(x, alpha, beta) >= 0.0


def test_raw_curve_difference_of_densities():
    p = HrfParams(6.0, 0.0)
    want = gamma_pdf(5.0, 6.0, 1.0) - (1.0 / 6.0) * gamma_pdf(5.0, 16.0, 1.0)
    assert g_raw(5.0, p) == want
    assert g_raw(0.0, p) == 0.0
    assert abs(g_raw(100.0, p)) < 1e-10


def test_raw_curve_zero_before_onset():
    p = HrfParams(7.0, 1.5)
    assert g_raw(1.5, p) == 0.0
    assert g_raw(0.7, p) == 0.0
    assert g_raw(1.6, p) > 0.0


def test_params_validation():
    with pytest.raises(ConfigurationError):
        HrfParams(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        HrfParams(6.0, -0.1)
    with pytest.raises(TypeError):  # the shape beyond p1 and p6 is fixed
        HrfParams(6.0, 0.0, p2=10.0)


NON_FINITE_POINTS = [(6.0, math.nan), (6.0, math.inf), (6.0, -math.inf),
                     (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0)]


@pytest.mark.parametrize("p1,p6", NON_FINITE_POINTS)
def test_params_reject_non_finite(p1, p6):
    with pytest.raises(ConfigurationError, match="must be finite"):
        HrfParams(p1, p6)


@pytest.mark.parametrize("p1,p6", NON_FINITE_POINTS)
def test_bundle_rejects_non_finite(p1, p6):
    with pytest.raises(ConfigurationError, match="need finite"):
        hrf_bundle((7.0, p1), (1.0, p6), 2.0, (0.0,), 17)


def test_normalized_max_is_one_on_scan_grid():
    # the normalizing constant is the exact max over the 0.001 s scan, so the
    # normalized curve attains 1 on that grid when p6 = 0
    grid = np.arange(32001) / 1000.0
    scan = np.arange(32001) * NORM_SCAN_STEP
    for p1 in (6.0, 7.3, 9.0):
        vals = g_normalized(grid, HrfParams(p1, 0.0))
        assert np.max(vals) == pytest.approx(1.0, abs=1e-15)
        assert np.max(vals) <= 1.0
        # on the canonical scan's own sample times the peak is exactly one
        assert np.max(g_normalized(scan, HrfParams(p1, 0.0))) == 1.0


def test_normalizing_max_positive_and_shift_invariant():
    assert normalizing_max(HrfParams(6.0, 0.0)) > 0.0
    assert normalizing_max(HrfParams(6.0, 1.7)) == normalizing_max(HrfParams(6.0, 0.0))


def test_shift_identity_exact():
    t = np.linspace(0.0, 34.0, 173)
    for p1, p6 in ((6.0, 0.8), (7.5, 2.0), (9.0, 0.25)):
        shifted = g_normalized(t, HrfParams(p1, p6))
        base = g_normalized(t - p6, HrfParams(p1, 0.0))
        np.testing.assert_array_equal(shifted, base)


def test_default_hrf_length():
    assert default_hrf_length(2.0) == 17
    assert default_hrf_length(2.5) == 13
    assert default_hrf_length(1.0) == 33


def one_point(p1, p6, delta, offset=0.0):
    """One point's (length, 3) bundle: heights, d/dp1, d/dp6."""
    return hrf_bundle((p1,), (p6,), delta, (offset,), default_hrf_length(delta))[0]


def test_sample_hrf_shapes_and_offsets():
    p = HrfParams(6.0, 0.0)
    v = one_point(6.0, 0.0, 2.0)[:, 0]
    assert v.shape == (17,)
    assert v[0] == 0.0
    v2 = one_point(6.0, 0.0, 2.5, offset=1.25)[:, 0]
    assert v2.shape == (13,)
    # offset samples are the curve at offset + j*delta
    t = 1.25 + np.arange(13) * 2.5
    np.testing.assert_array_equal(v2, g_normalized(t, p))
    assert not v2.flags.writeable


def test_sample_hrf_matches_reference():
    for p1, p6 in ((6.0, 0.0), (7.2, 1.1), (9.0, 2.0)):
        got = one_point(p1, p6, 2.0)[:, 0]
        want = ref_hrf(p1, p6, 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_partial_p6_equals_negative_time_derivative():
    # g(t; p6 + e) = g(t - e; p6), so the p6 partial is exactly the negated
    # central time difference at the same step
    p = HrfParams(7.0, 1.0)
    t = np.arange(17) * 2.0
    got = one_point(7.0, 1.0, 2.0)[:, 2]
    manual = -(g_normalized(t + FD_STEP, p) - g_normalized(t - FD_STEP, p)) / (2 * FD_STEP)
    np.testing.assert_allclose(got, manual, rtol=1e-9, atol=1e-12)


def test_partials_match_reference_same_step():
    for which, got in zip(("p1", "p6"), one_point(6.4, 0.3, 2.0)[:, 1:].T):
        want = ref_hrf_partial(6.4, 0.3, which, 2.0, eps=FD_STEP)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-11)


def test_partials_converged_in_step():
    # central differences at 1e-5 agree with a 10x finer step to ~1e-9, so the
    # step is well inside the converged regime
    for which in ("p1", "p6"):
        coarse = ref_hrf_partial(7.7, 1.9, which, 2.0, eps=1e-5)
        fine = ref_hrf_partial(7.7, 1.9, which, 2.0, eps=1e-6)
        np.testing.assert_allclose(coarse, fine, rtol=1e-5, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(6.0, 9.0), st.floats(0.0, 2.0))
def test_normalized_curve_bounded(p1, p6):
    t = np.linspace(0.0, 36.0, 400)
    vals = g_normalized(t, HrfParams(p1, p6))
    assert np.all(vals <= 1.0 + 1e-6)
    assert np.all(vals >= -1.0)


def test_bundle_layout_and_caching():
    arr = hrf_bundle((6.5,), (0.5,), 2.0, (0.0,), 17)
    assert arr.shape == (1, 17, 3)
    assert not arr.flags.writeable
    t = np.arange(17) * 2.0
    np.testing.assert_array_equal(arr[0, :, 0], g_normalized(t, HrfParams(6.5, 0.5)))
    assert hrf_bundle((6.5,), (0.5,), 2.0, (0.0,), 17) is arr


def test_bundle_two_offsets_stacks_runs():
    arr = hrf_bundle((6.0,), (0.0,), 2.5, (0.0, 1.25), 13)
    assert arr.shape == (1, 26, 3)
    np.testing.assert_array_equal(arr[0, :13, 0], one_point(6.0, 0.0, 2.5)[:, 0])
    np.testing.assert_array_equal(arr[0, 13:, 0], one_point(6.0, 0.0, 2.5, offset=1.25)[:, 0])


@pytest.mark.parametrize("preset", ["search", "comparison"])
@pytest.mark.parametrize("delta, offsets, length", [(2.0, (0.0,), 17), (2.5, (0.0, 1.25), 13)])
def test_grid_bundle_equals_one_point_bundles(preset, delta, offsets, length):
    ps = make_grid(1, preset=preset).ps
    grid = hrf_bundle(tuple(p.p1 for p in ps), tuple(p.p6 for p in ps), delta, offsets, length)
    one_point = np.stack([hrf_bundle((p.p1,), (p.p6,), delta, offsets, length)[0] for p in ps])
    assert grid.shape == (len(ps), len(offsets) * length, 3)
    assert np.array_equal(grid, one_point)


@pytest.mark.parametrize("delta, offsets, length", [(2.0, (0.0,), 17), (2.5, (0.0, 1.25), 13)])
def test_bundle_equals_per_point_loop(delta, offsets, length):
    # the vectorized pass keeps the per-point expression order: each curve is
    # the raw curve over its own normalizing constant, each partial a central
    # difference of two such curves
    ps = make_grid(1, preset="comparison").ps[::7]
    got = hrf_bundle(tuple(p.p1 for p in ps), tuple(p.p6 for p in ps), delta, offsets, length)
    for p, bundle in zip(ps, got):
        cols = []
        for off in offsets:
            t = off + np.arange(length) * delta

            def curve(p1, p6):
                return g_raw(t - p6, HrfParams(p1, 0.0)) / normalizing_max(HrfParams(p1, 0.0))

            cols.append(np.column_stack([
                curve(p.p1, p.p6),
                (curve(p.p1 + FD_STEP, p.p6) - curve(p.p1 - FD_STEP, p.p6)) / (2.0 * FD_STEP),
                (curve(p.p1, p.p6 + FD_STEP) - curve(p.p1, p.p6 - FD_STEP)) / (2.0 * FD_STEP)]))
        assert np.array_equal(bundle, np.vstack(cols)), p


def test_bundle_rejects_bad_points():
    with pytest.raises(ConfigurationError):
        hrf_bundle((6.0, 7.0), (0.0,), 2.0, (0.0,), 17)
    with pytest.raises(ConfigurationError):
        hrf_bundle((6.0, 1.0), (0.0, 0.0), 2.0, (0.0,), 17)
    with pytest.raises(ConfigurationError):
        hrf_bundle((6.0,), (-0.1,), 2.0, (0.0,), 17)


def test_norm_info_matches_full_scan():
    # the windowed scan must return the full 32,001-point scan's max; the
    # sweep covers (1, 32] and every grid p1 with its partials' p1 +- 1e-5
    grid_p1s = {p.p1 for preset in ("search", "comparison") for p in make_grid(1, preset=preset).ps}
    sweep = set((1.0 + 0.01 * np.arange(1, 3101)).tolist()) | {1.000001, 1.00001}
    sweep |= {v + d for v in grid_p1s for d in (-FD_STEP, 0.0, FD_STEP)}
    p1s = tuple(sorted(sweep))
    consts = _norm_info(p1s)
    scan = np.arange(32001) * NORM_SCAN_STEP
    for p1, c in zip(p1s, consts):
        assert c == g_raw(scan, HrfParams(p1, 0.0)).max(), p1
