"""Amplitude grids, permutation images, tables, worst-case criteria."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdesign.criteria import (
    LocalOptTable,
    ParamGrid,
    angles_to_theta,
    apply_perm,
    canonical_direction,
    full_theta_grid,
    label_permutations,
    make_grid,
    min_re,
    min_rg,
    p_grid,
    perm_matrix,
    relative_efficiency,
    rg_directions,
    signed_image,
    theta0_grid,
    theta_to_angles,
    worst_case,
    zero_theta,
)
from mmdesign.designs import Design, random_design, relabel
from mmdesign.errors import ConfigurationError, TableLookupError
from mmdesign.glsmodel import DriftSpec, NoiseSpec, evaluator_for
from mmdesign.hrf import HrfParams

NOISE = NoiseSpec(rho=0.3)
DRIFT = DriftSpec(order=2)


# -- hyperspherical coordinates ------------------------------------------------

def test_angles_to_theta_examples():
    assert angles_to_theta(()) == (1.0,)
    np.testing.assert_allclose(angles_to_theta((0.0,)), (1.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(angles_to_theta((0.25 * math.pi,)),
                               (math.sqrt(0.5), math.sqrt(0.5)), atol=1e-15)
    np.testing.assert_allclose(angles_to_theta((0.5 * math.pi, 0.5 * math.pi)),
                               (0.0, 0.0, 1.0), atol=1e-12)


@given(st.lists(st.floats(-0.5 * math.pi + 1e-9, 0.5 * math.pi), min_size=1, max_size=5))
@settings(max_examples=80)
def test_angles_give_unit_vectors(phis):
    th = np.array(angles_to_theta(tuple(phis)))
    assert np.linalg.norm(th) == pytest.approx(1.0, abs=1e-12)


def test_theta_to_angles_inverts_on_grids():
    grids = [theta0_grid(2, 0.1 * math.pi), theta0_grid(3, 0.1 * math.pi),
             full_theta_grid(2, 0.05 * math.pi), full_theta_grid(3, 0.1 * math.pi)]
    for grid in grids:
        for th in grid:
            back = angles_to_theta(theta_to_angles(th))
            np.testing.assert_allclose(back, th, atol=1e-12)


def test_theta_to_angles_degenerate():
    assert theta_to_angles((1.0,)) == ()
    assert theta_to_angles((0.0, 0.0)) == (0.0,)
    assert theta_to_angles((0.0, 0.0, 0.0)) == (0.0, 0.0)
    # zero tail after a nonzero head
    assert theta_to_angles((1.0, 0.0, 0.0)) == (0.0, 0.0)


# -- grids ----------------------------------------------------------------------

def test_p_grid_counts_and_anchoring():
    coarse = p_grid(0.2)
    assert len(coarse) == 176  # 16 x 11
    assert (coarse[0].p1, coarse[0].p6) == (6.0, 0.0)
    assert any(p.p1 == 9.0 and p.p6 == 2.0 for p in coarse)
    assert len({p.p1 for p in coarse}) == 16
    assert len({p.p6 for p in coarse}) == 11
    assert len(p_grid(0.1)) == 651  # 31 x 21


def test_p_grid_includes_upper_endpoints_for_uneven_step():
    ps = p_grid(0.4)
    p1s = sorted({p.p1 for p in ps})
    assert p1s[0] == 6.0 and p1s[-1] == 9.0
    p6s = sorted({p.p6 for p in ps})
    assert p6s[-1] == 2.0


def test_theta0_grid_q1_single_direction():
    assert theta0_grid(1, 0.1 * math.pi) == ((1.0,),)
    assert full_theta_grid(1, 0.1 * math.pi) == ((1.0,),)


def test_theta0_grid_q2_angles():
    grid = theta0_grid(2, 0.1 * math.pi)
    assert len(grid) == 6
    angles = sorted(theta_to_angles(th)[0] for th in grid)
    want = [-0.25 * math.pi, -0.15 * math.pi, -0.05 * math.pi,
            0.05 * math.pi, 0.15 * math.pi, 0.25 * math.pi]
    np.testing.assert_allclose(angles, want, atol=1e-12)
    for th in grid:
        assert th[0] >= abs(th[1]) - 1e-12


def test_theta0_grid_q3_count_and_region():
    grid = theta0_grid(3, 0.1 * math.pi)
    assert len(grid) == 47
    for th in grid:
        assert np.linalg.norm(th) == pytest.approx(1.0, abs=1e-12)
        assert th[0] >= abs(th[1]) - 1e-12
        assert abs(th[1]) >= abs(th[2]) - 1e-12


def test_theta0_grid_rejects_large_q():
    with pytest.raises(ConfigurationError):
        theta0_grid(4, 0.1 * math.pi)


def test_reduced_region_images_cover_hemisphere():
    # every hemisphere direction sits within half a grid step (q=2; slightly
    # more for the two-angle region) of some permutation/sign image of the
    # reduced-region grid
    for q, step, bound in ((2, 0.05 * math.pi, 0.5), (3, 0.1 * math.pi, 0.75)):
        full = full_theta_grid(q, step)
        base = theta0_grid(q, step)
        covers = list(base)
        for sg in label_permutations(q):
            covers.extend(signed_image(th, sg) for th in base)
        cov = np.array(covers)
        for th in full:
            best = float(np.max(np.abs(cov @ np.array(th))))
            assert math.acos(min(1.0, best)) <= bound * step + 1e-9


def test_make_grid_presets_and_sizes():
    search = make_grid(1, "search")
    assert search.thetas == ((1.0,),) and len(search.ps) == 176
    assert search.n_points == 176
    comparison = make_grid(1, "comparison")
    assert len(comparison.ps) == 651
    assert make_grid(1, "search", include_zero=True).n_points == 352
    assert make_grid(2, "search", include_zero=True).n_points == 7 * 176
    with pytest.raises(ConfigurationError):
        make_grid(1, "fine")
    with pytest.raises(ConfigurationError):
        make_grid(1, "search", region="upper")


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("region", ["theta0", "full"])
@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
def test_make_grid_rejects_bad_steps(q, region, bad):
    # a zero, negative or NaN step would otherwise build an endless axis
    for steps in ({"p_step": bad}, {"phi_step": bad}):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            make_grid(q, "search", region=region, **steps)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("region", ["theta0", "full"])
def test_make_grid_rejects_tiny_steps(q, region):
    # more than MAX_AXIS_VALUES values on one axis is refused before any loop
    with pytest.raises(ConfigurationError, match="p_step .* more than 1000 values"):
        make_grid(q, "search", region=region, p_step=1e-9)
    if q > 1:
        with pytest.raises(ConfigurationError, match="phi_step .* more than 1000 values"):
            make_grid(q, "search", region=region, phi_step=1e-9)
    else:  # Q=1 has no angle axis
        assert make_grid(q, "search", region=region, phi_step=1e-9).thetas == ((1.0,),)


def test_param_grid_order_and_with_zero():
    grid = make_grid(2, "search")
    pts = list(grid.points())
    assert len(pts) == grid.n_points
    assert pts[0][0] == grid.thetas[0] and pts[0][1] == grid.ps[0]
    assert pts[1][0] == grid.thetas[0] and pts[1][1] == grid.ps[1]
    withz = grid.with_zero()
    assert withz.thetas[0] == (0.0, 0.0)
    assert withz.with_zero() is withz
    assert grid.q_types == 2


def test_grids_are_deterministic():
    a = make_grid(2, "comparison")
    b = make_grid(2, "comparison")
    assert a.thetas == b.thetas
    assert [(p.p1, p.p6) for p in a.ps] == [(p.p1, p.p6) for p in b.ps]


# -- canonical directions and permutations ---------------------------------------

def test_canonical_direction_scale_and_sign():
    base = canonical_direction((0.6, 0.8))
    assert canonical_direction((1.2, 1.6)) == base
    assert canonical_direction((-0.6, -0.8)) == base
    assert canonical_direction((3.0, 4.0)) == base
    assert canonical_direction((0.0, 0.0)) == (0.0, 0.0)
    assert canonical_direction((-0.6, 0.8))[0] > 0


def test_label_permutations():
    assert label_permutations(2) == [(2, 1)]
    assert label_permutations(2, include_identity=True) == [(1, 2), (2, 1)]
    assert len(label_permutations(3)) == 5
    assert label_permutations(3, include_identity=True)[0] == (1, 2, 3)


def test_perm_matrix_and_apply_perm():
    sigma = (2, 3, 1)  # 1->2, 2->3, 3->1
    g = perm_matrix(sigma)
    np.testing.assert_array_equal(g @ np.array([1.0, 0.0, 0.0]),
                                  np.array([0.0, 1.0, 0.0]))
    theta = (0.5, -0.3, 0.2)
    np.testing.assert_array_equal(np.array(apply_perm(theta, sigma)),
                                  g @ np.array(theta))


def test_signed_image_flips_into_hemisphere():
    assert signed_image((0.6, -0.8), (2, 1)) == (0.8, -0.6)
    img = signed_image((-0.6, 0.8), (1, 2))
    assert img[0] > 0


# -- worst-case helpers -----------------------------------------------------------

def small_grid(q):
    return make_grid(q, "search", p_step=1.0, phi_step=0.25 * math.pi)


def test_min_phi_a_matches_direct_scan():
    d = random_design(2, 24, 4.0, seed=30)
    grid = small_grid(2)
    ev = evaluator_for(d, 2.0, NOISE, DRIFT)
    vals = ev.phi_a_grid(d, grid.thetas, grid.ps)
    res = worst_case(vals, grid)
    assert res.value == vals.min()
    assert res.value == pytest.approx(ev.phi_a(d, res.theta, res.p), rel=1e-12)
    flat = list(grid.points())
    assert flat[res.index] == (res.theta, res.p)


def test_min_phi_a_tie_takes_first_grid_point():
    d = Design(labels=(0,) * 24, q_types=2, isi=4.0)
    grid = small_grid(2)
    res = worst_case(evaluator_for(d, 2.0, NOISE, DRIFT).phi_a_grid(d, grid.thetas, grid.ps),
                     grid)
    assert res.value == 0.0 and res.index == 0
    assert res.theta == grid.thetas[0]
    assert (res.p.p1, res.p.p6) == (grid.ps[0].p1, grid.ps[0].p6)


# -- local-optimum tables ----------------------------------------------------------

def make_table(q=1):
    table = LocalOptTable(q_types=q, isi=4.0)
    d = random_design(q, 24, 4.0, seed=31)
    grid = small_grid(q)
    ev = evaluator_for(d, 2.0, NOISE, DRIFT)
    for th, p in grid.points():
        table.put(th, p, ev.phi_a(d, th, p), d)
    return table, d, grid


def test_table_put_keeps_larger():
    table = LocalOptTable(q_types=1, isi=4.0)
    d = random_design(1, 9, 4.0, seed=32)
    p = HrfParams(6.0, 0.0)
    assert table.put((1.0,), p, 2.0, d)
    assert not table.put((1.0,), p, 1.5, d)
    assert table.value((1.0,), p) == 2.0
    assert table.put((1.0,), p, 2.5, d)
    assert table.value((1.0,), p) == 2.5
    with pytest.raises(ConfigurationError):
        table.put((1.0,), p, 0.0, d)


def test_table_keys_are_scale_free():
    table = LocalOptTable(q_types=2, isi=4.0)
    d = random_design(2, 24, 4.0, seed=33)
    p = HrfParams(7.0, 1.0)
    table.put((0.6, 0.8), p, 3.0, d)
    assert table.value((1.2, 1.6), p) == 3.0
    assert table.value((-0.6, -0.8), p) == 3.0
    assert len(table) == 1
    with pytest.raises(TableLookupError):
        table.value((0.8, 0.6), p)


def test_table_missing_and_covers():
    table, d, grid = make_table()
    assert table.covers(grid)
    assert table.missing(grid) == []
    denom = table.denominators(grid)
    assert denom.shape == (len(grid.thetas), len(grid.ps))
    for i, th in enumerate(grid.thetas):
        for j, p in enumerate(grid.ps):
            assert denom[i, j] == table.value(th, p)
    bigger = make_grid(1, "search", p_step=0.5, phi_step=0.25 * math.pi)
    assert not table.covers(bigger)
    missing = table.missing(bigger)
    assert len(missing) > 0
    th, p = missing[0]
    first = f"({len(missing)} points missing, first: theta={th}, p=({p.p1}, {p.p6}))"
    with pytest.raises(TableLookupError, match=re.escape(first)):
        table.denominators(bigger)


def test_table_merge_keeps_best():
    # put is the merge: the larger value at a point stays, a new point is added
    table = LocalOptTable(q_types=1, isi=4.0)
    d = random_design(1, 9, 4.0, seed=34)
    p = HrfParams(6.0, 0.0)
    assert table.put((1.0,), p, 2.0, d)
    assert table.put((1.0,), p, 3.0, d)
    assert not table.put((1.0,), p, 2.5, d)
    assert table.put((1.0,), HrfParams(7.0, 0.0), 1.0, d)
    assert table.value((1.0,), p) == 3.0
    assert len(table) == 2


def test_table_save_load_round_trip(tmp_path):
    table, d, grid = make_table()
    path = tmp_path / "table.json"
    table.save(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    assert isinstance(raw, list) and len(raw) == len(table)
    assert set(raw[0]) == {"theta", "p", "phi_a", "design"}
    back = LocalOptTable.load(path, q_types=1, isi=4.0)
    assert len(back) == len(table)
    for k, e in table.entries.items():
        b = back.entries[k]
        assert b.phi_a == e.phi_a
        assert b.design.labels == e.design.labels
        assert (b.p.p1, b.p.p6) == (e.p.p1, e.p.p6)


def test_table_load_rejects_non_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}\n", encoding="utf-8")
    with pytest.raises(TableLookupError):
        LocalOptTable.load(path, q_types=1, isi=4.0)


@pytest.mark.parametrize("key, value, message", [
    ("p", None, "missing key 'p'"),
    ("theta", None, "missing key 'theta'"),
    ("p", [6.0, "x"], "'p' must be"),
    ("theta", [1.0, 0.0], "'theta' must be"),
    ("phi_a", "big", "'phi_a' must be"),
    ("phi_a", float("nan"), "'phi_a' must be"),
    ("design", [1, 0], "'design' must be"),
    ("phi_a", -1.0, "positive"),
    ("p", [0.5, 0.0], "p1 must be"),
])
def test_table_load_rejects_malformed_rows(tmp_path, key, value, message):
    table, _, _ = make_table()
    path = tmp_path / "table.json"
    table.save(path)
    rows = json.loads(path.read_text(encoding="utf-8"))
    if value is None:
        del rows[1][key]
    else:
        rows[1][key] = value
    path.write_text(json.dumps(rows), encoding="utf-8")
    with pytest.raises(TableLookupError, match=message) as exc:
        LocalOptTable.load(path, q_types=1, isi=4.0)
    assert "row 1:" in str(exc.value)
    assert exc.value.exit_code == 3


# -- relative efficiency ------------------------------------------------------------

def test_relative_efficiency_of_stored_design_is_one():
    table, d, grid = make_table()
    for th, p in list(grid.points())[:4]:
        re = relative_efficiency(d, th, p, table, tr=2.0, noise=NOISE, drift=DRIFT)
        assert re == pytest.approx(1.0, rel=1e-9)


def test_relative_efficiency_scale_invariant_and_zero_floor():
    table, d, grid = make_table()
    th, p = next(iter(grid.points()))
    other = random_design(1, 24, 4.0, seed=35)
    r1 = relative_efficiency(other, th, p, table, tr=2.0, noise=NOISE, drift=DRIFT)
    r2 = relative_efficiency(other, tuple(2.0 * x for x in th), p, table,
                             tr=2.0, noise=NOISE, drift=DRIFT)
    assert r1 == pytest.approx(r2, rel=1e-10)
    rest = Design(labels=(0,) * 24, q_types=1, isi=4.0)
    assert relative_efficiency(rest, th, p, table, tr=2.0, noise=NOISE, drift=DRIFT) == 0.0


def test_min_re_is_pointwise_minimum():
    table, d, grid = make_table()
    other = random_design(1, 24, 4.0, seed=36)
    res = min_re(other, grid, table, tr=2.0, noise=NOISE, drift=DRIFT)
    res_self = min_re(d, grid, table, tr=2.0, noise=NOISE, drift=DRIFT)
    assert res_self.value == pytest.approx(1.0, rel=1e-9)
    direct = min(relative_efficiency(other, th, p, table, tr=2.0, noise=NOISE,
                                     drift=DRIFT) for th, p in grid.points())
    assert res.value == pytest.approx(direct, rel=1e-10)
    assert res.value <= res_self.value + 1e-9


def test_min_re_requires_full_coverage():
    table, d, grid = make_table()
    bigger = make_grid(1, "search", p_step=0.5, phi_step=0.25 * math.pi)
    with pytest.raises(TableLookupError):
        min_re(d, bigger, table, tr=2.0, noise=NOISE, drift=DRIFT)


# -- permutation-image ratios --------------------------------------------------------

PS_COARSE = tuple(p_grid(1.0))


def test_rg_trivial_for_single_type():
    d = random_design(1, 24, 4.0, seed=37)
    assert min_rg(d, PS_COARSE, 2.0, NOISE, DRIFT) == 1.0


def test_rg_directions_are_the_region_then_its_images():
    for q, step in ((2, 0.25 * math.pi), (3, 0.25 * math.pi), (3, 0.1 * math.pi)):
        base = theta0_grid(q, step)
        directions = rg_directions(q, step)
        assert list(directions) == label_permutations(q, include_identity=True)
        sigmas = iter(directions)
        assert directions[next(sigmas)] == base
        for sigma in sigmas:
            assert directions[sigma] == tuple(signed_image(th, sigma) for th in base)


def test_min_rg_matches_direct_computation():
    # the bound against base and image minima taken directly, for every
    # labeling; each design has a ratio below 1, so the cap at 1 hides nothing
    step = 0.25 * math.pi
    for d in (relabel(random_design(2, 24, 4.0, seed=40), (2, 1)),
              random_design(3, 24, 4.0, seed=41)):
        q = d.q_types
        ev = evaluator_for(d, 2.0, NOISE, DRIFT)
        base = theta0_grid(q, step)
        base_min = ev.phi_a_grid(d, base, PS_COARSE).min()
        assert base_min > 0
        ratios = [ev.phi_a_grid(d, tuple(signed_image(th, sigma) for th in base),
                                PS_COARSE).min() / base_min
                  for sigma in label_permutations(q)]
        assert len(ratios) == math.factorial(q) - 1 and min(ratios) < 1
        got = min_rg(d, PS_COARSE, 2.0, NOISE, DRIFT, phi_step=step)
        assert got == pytest.approx(min(1.0, *ratios), rel=1e-12)


def test_rg_union_minimum_invariant_under_relabeling():
    # the reduced-region min times the floored ratio equals the min over the
    # whole hemisphere cover, which cannot depend on how labels are named
    step = 0.25 * math.pi
    for q, seed in ((2, 39), (3, 40)):
        d = random_design(q, 24, 4.0, seed=seed)
        ev = evaluator_for(d, 2.0, NOISE, DRIFT)
        base = theta0_grid(q, step)

        def union_min(design):
            base_min = evaluator_for(design, 2.0, NOISE, DRIFT).phi_a_grid(
                design, base, PS_COARSE).min()
            r = min_rg(design, PS_COARSE, 2.0, NOISE, DRIFT, phi_step=step)
            return base_min * r

        ref = union_min(d)
        for sigma in label_permutations(q):
            assert union_min(relabel(d, sigma)) == pytest.approx(ref, rel=1e-9)


def test_rg_rejects_singular_design():
    d = Design(labels=(0,) * 24, q_types=2, isi=4.0)
    assert min_rg(d, PS_COARSE, 2.0, NOISE, DRIFT) is None  # the bound is undefined
