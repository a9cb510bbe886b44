"""Whitening, drift, projections, information matrices, criterion values."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdesign.criteria import (LocalOptTable, ParamGrid, apply_perm, label_permutations,
                               make_grid, perm_matrix, relative_efficiency, with_rg_directions)
from mmdesign.designs import Design, delta_t, random_design, relabel
from mmdesign.errors import ConfigurationError
from mmdesign.glsmodel import (
    LL_RANK_ONE_RATIO,
    RCOND_SINGULAR,
    DirectionBlocks,
    DriftSpec,
    Evaluator,
    NoiseSpec,
    _eig_sym2,
    _pinv_sym2,
    _phi_batch,
    _pinv_sym2_batch,
    _point_info,
    drift_matrix,
    info_matrix,
    phi_a,
    phi_from_info,
    projection,
    whitening_matrix,
)
from mmdesign.hrf import HrfParams
from mmdesign.search import SCREEN_MARGIN, WorstCase

from hrf_curves import g_normalized
from reference import (
    ref_design_blocks,
    ref_drift_raw,
    ref_model_matrices,
    ref_phi_a,
    ref_phi_sweep,
    ref_proj,
    ref_whitening,
)


def make_eval(q=1, length=9, isi=4.0, tr=2.0, rho=0.3, order=2, runs=1):
    return Evaluator(q_types=q, n_slots=length, isi=isi, tr=tr,
                     noise=NoiseSpec(rho=rho, runs=runs), drift=DriftSpec(order=order))


# -- whitening ----------------------------------------------------------------

def test_whitening_identity_at_zero_rho():
    np.testing.assert_array_equal(whitening_matrix(5, 0.0), np.eye(5))


def test_whitening_explicit_small_case():
    want = np.array([
        [math.sqrt(0.91), 0.0, 0.0],
        [-0.3, 1.0, 0.0],
        [0.0, -0.3, 1.0],
    ])
    np.testing.assert_allclose(whitening_matrix(3, 0.3), want, atol=1e-15)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, -0.4])
def test_whitening_whitens_ar1_covariance(rho):
    t = 50
    idx = np.arange(t)
    sigma = rho ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - rho * rho)
    v = whitening_matrix(t, rho)
    np.testing.assert_allclose(v @ sigma @ v.T, np.eye(t), atol=1e-10)


def test_whitening_matches_cholesky_reference():
    np.testing.assert_allclose(whitening_matrix(20, 0.3), ref_whitening(20, 0.3),
                               atol=1e-12)


def test_whitening_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        whitening_matrix(0, 0.3)
    with pytest.raises(ConfigurationError):
        whitening_matrix(5, 1.0)


# -- drift --------------------------------------------------------------------

def test_drift_order_zero_is_normalized_constant():
    s = drift_matrix(10, 0)
    np.testing.assert_allclose(s, np.full((10, 1), 1.0 / math.sqrt(10.0)), atol=1e-14)


def test_drift_columns_orthonormal():
    for t, order in ((18, 2), (510, 2), (50, 4)):
        s = drift_matrix(t, order)
        assert s.shape == (t, order + 1)
        np.testing.assert_allclose(s.T @ s, np.eye(order + 1), atol=1e-11)


def test_drift_spans_raw_monomials():
    for t, order in ((18, 2), (40, 3)):
        p_pkg = projection(drift_matrix(t, order))
        p_ref = ref_proj(ref_drift_raw(t, order))
        np.testing.assert_allclose(p_pkg, p_ref, atol=1e-10)


def test_drift_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        drift_matrix(10, -1)
    with pytest.raises(ConfigurationError):
        drift_matrix(2, 2)


# -- projection ---------------------------------------------------------------

def test_projection_zero_and_empty():
    np.testing.assert_array_equal(projection(np.zeros((4, 2))), np.zeros((4, 4)))
    np.testing.assert_array_equal(projection(np.zeros((4, 0))), np.zeros((4, 4)))


def test_projection_orthonormal_case():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    np.testing.assert_allclose(projection(a), a @ a.T, atol=1e-12)


def test_projection_rank_deficiency_is_harmless():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(9, 2))
    dup = np.hstack([a, a[:, :1]])
    np.testing.assert_allclose(projection(dup), projection(a), atol=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_projection_idempotent_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(7, rng.integers(1, 5)))
    p = projection(a)
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    np.testing.assert_allclose(p @ p, p, atol=1e-11)
    np.testing.assert_allclose(p @ a, a, atol=1e-10)
    np.testing.assert_allclose(p, ref_proj(a), atol=1e-10)


# -- E matrix -----------------------------------------------------------------
# E = [I - w{VS}] V X (I_Q kron h): the residualized columns times the heights

def test_e_matrix_hand_case_single_onset():
    # one onset at slot 0, white noise, constant drift: the single column is
    # the response sampled every 2 s, truncated past the window, then centered
    labels = tuple(1 if i == 0 else 0 for i in range(9))
    d = Design(labels=labels, q_types=1, isi=4.0)
    ev = make_eval(q=1, length=9, rho=0.0, order=0)
    e = ev.residualized(d) @ ev.bundle(HrfParams(6.0, 0.0))[:, :1]
    assert e.shape == (18, 1)
    samples = np.zeros(18)
    samples[:17] = g_normalized(np.arange(17) * 2.0, HrfParams(6.0, 0.0))
    np.testing.assert_allclose(e[:, 0], samples - samples.mean(), atol=1e-12)


def test_e_matrix_zero_for_rest_only_design():
    d = Design(labels=(0,) * 8, q_types=2, isi=4.0)
    u = make_eval(q=2, length=8).residualized(d)
    assert u.shape == (16, 2 * 17)
    assert not np.any(u)


def test_e_matrix_orthogonal_to_whitened_drift():
    d = random_design(2, 30, 4.0, seed=7)
    u = make_eval(q=2, length=30, rho=0.3, order=2).residualized(d)
    v = whitening_matrix(60, 0.3)
    s = drift_matrix(60, 2)
    assert np.max(np.abs((v @ s).T @ u)) < 1e-9


# -- information matrix and criterion ------------------------------------------

def test_info_matrix_at_zero_is_gram_of_e():
    d = random_design(2, 24, 4.0, seed=13)
    p = HrfParams(7.0, 1.0)
    noise, drift = NoiseSpec(rho=0.3), DriftSpec(order=2)
    m = info_matrix(d, (0.0, 0.0), p, noise, drift, tr=2.0).m
    e, _, _ = ref_model_matrices(list(d.labels), 2, 4.0, 2.0, 0.3, 2, (0.0, 0.0), 7.0, 1.0)
    np.testing.assert_allclose(m, e.T @ e, atol=1e-10)


def test_info_matrix_scale_invariant_in_amplitudes():
    d = random_design(2, 24, 4.0, seed=14)
    p = HrfParams(6.5, 0.5)
    noise, drift = NoiseSpec(rho=0.3), DriftSpec(order=2)
    m1 = info_matrix(d, (0.6, 0.8), p, noise, drift, tr=2.0).m
    m2 = info_matrix(d, (1.2, 1.6), p, noise, drift, tr=2.0).m
    np.testing.assert_allclose(m1, m2, atol=1e-10)


def test_info_matrix_psd_and_dominated_by_zero_amplitude():
    rng = np.random.default_rng(15)
    noise, drift = NoiseSpec(rho=0.3), DriftSpec(order=2)
    for _ in range(20):
        q = int(rng.integers(1, 4))
        d = random_design(q, 24, 4.0, seed=int(rng.integers(10 ** 6)))
        theta = rng.normal(size=q)
        theta /= np.linalg.norm(theta)
        p = HrfParams(rng.uniform(6, 9), rng.uniform(0, 2))
        m = info_matrix(d, theta, p, noise, drift, tr=2.0).m
        m0 = info_matrix(d, (0.0,) * q, p, noise, drift, tr=2.0).m
        lam = np.linalg.eigvalsh(m)
        assert lam[0] >= -1e-8 * max(lam[-1], 1.0)
        gap = np.linalg.eigvalsh(m0 - m)
        assert gap[0] >= -1e-8 * max(np.linalg.eigvalsh(m0)[-1], 1.0)


def test_info_matrix_permutation_identity():
    noise, drift = NoiseSpec(rho=0.3), DriftSpec(order=2)
    rng = np.random.default_rng(16)
    for q in (2, 3):
        d = random_design(q, 24, 4.0, seed=17 + q)
        theta = rng.normal(size=q)
        theta /= np.linalg.norm(theta)
        p = HrfParams(7.0, 0.5)
        m = info_matrix(d, theta, p, noise, drift, tr=2.0).m
        for sigma in label_permutations(q, include_identity=True):
            g = perm_matrix(sigma)
            m_perm = info_matrix(relabel(d, sigma), apply_perm(theta, sigma),
                                 p, noise, drift, tr=2.0).m
            np.testing.assert_allclose(m_perm, g @ m @ g.T, atol=1e-10)
            assert phi_a(relabel(d, sigma), apply_perm(theta, sigma), p, noise,
                         drift, tr=2.0) == pytest.approx(
                phi_a(d, theta, p, noise, drift, tr=2.0), rel=1e-10, abs=1e-12)


def test_phi_from_info_values():
    assert phi_from_info(np.array([[3.0]])) == 3.0
    assert phi_from_info(np.array([[-1.0]])) == 0.0
    assert phi_from_info(np.array([[0.0]])) == 0.0
    assert phi_from_info(np.diag([2.0, 4.0])) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert phi_from_info(np.diag([1.0, 2.0, 4.0])) == pytest.approx(4.0 / 7.0, rel=1e-14)
    assert phi_from_info(np.ones((2, 2))) == 0.0
    assert phi_from_info(np.diag([1.0, 1e-13])) == 0.0
    assert phi_from_info(np.diag([1.0, 1e-10])) > 0.0


@given(q=st.integers(2, 3), seed=st.integers(0, 10 ** 6), log_scale=st.floats(-3.0, 6.0),
       log_ratio=st.floats(-15.0, -8.0))
@settings(max_examples=300, deadline=None)
def test_phi_from_info_nearly_singular(q, seed, log_scale, log_ratio):
    # M = U diag(lam) U' with U orthogonal: rounding M moves lam_min by about
    # eps * lam_max, so phi_A = 1/sum(1/lam) is known only to about eps * kappa
    # relative, and the zero verdict only outside a band of that width around
    # RCOND_SINGULAR.  Q=2 takes the closed form, Q=3 eigvalsh.
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(q, q)))[0]
    ratio = 10.0 ** log_ratio
    lam = 10.0 ** log_scale * np.array(
        [ratio, *10.0 ** rng.uniform(log_ratio, 0.0, q - 2), 1.0])
    m = (u * lam) @ u.T
    got = phi_from_info(0.5 * (m + m.T))
    kappa = 1.0 / ratio
    band = 64 * np.finfo(float).eps * kappa
    if ratio > RCOND_SINGULAR * (1.0 + band):
        assert got > 0.0
    elif ratio < RCOND_SINGULAR * (1.0 - band):
        assert got == 0.0
    if got != 0.0:
        want = 1.0 / math.fsum(1.0 / lam)
        assert abs(got - want) <= 16 * np.finfo(float).eps * kappa * want


def test_phi_a_zero_for_rest_only_design():
    d = Design(labels=(0,) * 9, q_types=1, isi=4.0)
    assert phi_a(d, (1.0,), HrfParams(6.0, 0.0), NoiseSpec(), DriftSpec(), tr=2.0) == 0.0


def test_phi_a_matches_reference_cases():
    cases = [
        (random_design(1, 9, 4.0, seed=3), 0.3, 2, (1.0,), 7.0, 1.3, 1, 2.0),
        (random_design(2, 36, 4.0, seed=5), 0.3, 2, (0.8, 0.6), 6.4, 0.2, 1, 2.0),
        (random_design(3, 24, 3.0, seed=9), 0.3, 2,
         (0.5, -0.5, math.sqrt(0.5)), 9.0, 2.0, 1, 2.0),
        (random_design(1, 12, 2.5, seed=11), 0.3, 2, (1.0,), 6.0, 0.0, 2, 2.5),
        (random_design(2, 36, 4.0, seed=5), 0.3, 2, (0.0, 0.0), 8.2, 1.1, 1, 2.0),
        (random_design(1, 9, 4.0, seed=3), 0.0, 0, (1.0,), 6.0, 0.0, 1, 2.0),
        (random_design(2, 12, 2.5, seed=21), 0.5, 1, (0.6, -0.8), 7.7, 1.9, 2, 2.5),
    ]
    for d, rho, order, theta, p1, p6, runs, tr in cases:
        got = phi_a(d, theta, HrfParams(p1, p6), NoiseSpec(rho=rho, runs=runs),
                    DriftSpec(order=order), tr=tr)
        want = ref_phi_a(list(d.labels), d.q_types, d.isi, tr, rho, order,
                         theta, p1, p6, runs=runs)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


# (q, runs) -> (slots, isi, tr, directions including zero, (p1, p6) points)
SWEEP_CASES = {
    (1, 1): (18, 4.0, 2.0, [(0.0,), (1.0,)], [(6.0, 0.0), (7.4, 1.1), (9.0, 2.0)]),
    (1, 2): (12, 2.5, 2.5, [(0.0,), (1.0,)], [(6.0, 0.0), (8.1, 1.6)]),
    (2, 1): (24, 4.0, 2.0, [(0.0, 0.0), (1.0, 0.0), (0.6, 0.8), (0.6, -0.8)],
             [(6.0, 0.0), (7.3, 1.2), (9.0, 2.0)]),
    (2, 2): (12, 2.5, 2.5, [(0.0, 0.0), (0.8, 0.6), (0.0, 1.0)], [(6.5, 0.4), (8.8, 1.9)]),
    (3, 1): (24, 3.0, 2.0, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.5, -0.5, math.sqrt(0.5))],
             [(6.2, 0.3), (8.5, 1.7)]),
    (3, 2): (18, 2.5, 2.5, [(0.0, 0.0, 0.0), (0.6, 0.0, 0.8)], [(7.0, 1.25), (9.0, 0.0)]),
}


@pytest.mark.parametrize("q, runs", sorted(SWEEP_CASES))
def test_phi_a_grid_matches_pointwise_loop(q, runs):
    length, isi, tr, thetas, p_pairs = SWEEP_CASES[(q, runs)]
    ev = make_eval(q=q, length=length, isi=isi, tr=tr, runs=runs)
    d = random_design(q, length, isi, seed=18)
    ps = [HrfParams(p1, p6) for p1, p6 in p_pairs]
    thetas = thetas + [(-0.7, 0.3, 0.2)[:q]]  # and one direction off the reduced region
    grid = ev.phi_a_grid(d, thetas, ps)
    assert grid.shape == (len(thetas), len(ps))
    for i, th in enumerate(thetas):
        for j, p in enumerate(ps):
            assert grid[i, j] == pytest.approx(ev.phi_a(d, th, p), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("q, runs", sorted(SWEEP_CASES))
def test_phi_a_grid_dead_point_among_live_ones(q, runs):
    # at p6 = 40 every sampled height and partial is zero: that column's
    # information matrices are all zero, and the other columns must not notice
    length, isi, tr, thetas, p_pairs = SWEEP_CASES[(q, runs)]
    ev = make_eval(q=q, length=length, isi=isi, tr=tr, runs=runs)
    d = random_design(q, length, isi, seed=40)
    pairs = p_pairs[:1] + [(6.0, 40.0)] + p_pairs[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ev.phi_a_grid(d, thetas, [HrfParams(p1, p6) for p1, p6 in pairs])
    assert np.all(got[:, 1] == 0.0)
    want = ref_phi_sweep([list(d.labels)], q, isi, tr, 0.3, 2, thetas, p_pairs, runs=runs)[0]
    np.testing.assert_allclose(np.delete(got, 1, axis=1), want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("q, runs", sorted(SWEEP_CASES))
def test_phi_a_grid_matches_dense_sweep(q, runs):
    length, isi, tr, thetas, p_pairs = SWEEP_CASES[(q, runs)]
    designs = [random_design(q, length, isi, seed=40 + k) for k in range(2)]
    ev = make_eval(q=q, length=length, isi=isi, tr=tr, runs=runs)
    ps = [HrfParams(p1, p6) for p1, p6 in p_pairs]
    got = np.stack([ev.phi_a_grid(d, thetas, ps) for d in designs])
    want = ref_phi_sweep([list(d.labels) for d in designs], q, isi, tr, 0.3, 2,
                         thetas, p_pairs, runs=runs)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
    # the one-point route (phi_a) against the same reference
    for j, th in enumerate(thetas):
        assert ev.phi_a(designs[0], th, ps[-1]) == pytest.approx(
            ref_phi_a(list(designs[0].labels), q, isi, tr, 0.3, 2, th, *p_pairs[-1],
                      runs=runs), rel=1e-8)


@pytest.mark.parametrize("runs", [1, 2])
def test_residualized_equals_dense_operator(runs):
    # every run shares one run's residualized columns; the runs differ only
    # in their HRF bundles, summed in the grid stage
    q, length, isi, tr = 2, 20, 2.5, 2.5
    d = random_design(q, length, isi, seed=50 + runs)
    ev = make_eval(q=q, length=length, isi=isi, tr=tr, runs=runs)
    blocks = ref_design_blocks(list(d.labels), q, isi, tr, ev.hrf_length)
    t_run = blocks[0].shape[0]
    v = ref_whitening(t_run, 0.3)
    s = ref_drift_raw(t_run, 2)
    x = np.hstack(blocks)
    want = (np.eye(v.shape[0]) - ref_proj(v @ s)) @ v @ x
    got = ev.residualized(d)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * np.abs(want).max())


@given(q=st.integers(1, 3), seed=st.integers(0, 10 ** 6), runs=st.integers(1, 2),
       p1=st.floats(6.0, 9.0), p6=st.floats(0.0, 2.0), zero=st.booleans())
@settings(max_examples=30, deadline=None)
def test_information_dominated_by_gram_of_e(q, seed, runs, p1, p6, zero):
    rng = np.random.default_rng(seed)
    ev = make_eval(q=q, length=12, isi=2.5, tr=2.5, runs=runs)
    d = random_design(q, 12, 2.5, seed=seed)
    theta = np.zeros(q) if zero else rng.normal(size=q)
    p = HrfParams(p1, p6)
    e, _, _ = ref_model_matrices(list(d.labels), q, 2.5, 2.5, 0.3, 2, theta, p1, p6,
                                 runs=runs)
    ete = e.T @ e
    m = ev.info_matrix(d, theta, p)
    gap = np.linalg.eigvalsh(ete - m)
    assert gap[0] >= -1e-9 * np.linalg.norm(ete, 2)
    # E'E as the one-point route gives it: M at the zero direction, where L = 0.
    # The reference E'E above differs from it by rounding, which phi_A can
    # amplify by the condition number (1.4e-9 relative at rcond 2e-11).
    ete_gram = ev.info_matrix(d, np.zeros(q), p)
    assert 0.0 <= phi_from_info(m) <= phi_from_info(ete_gram)


def _sym2_blocks(kind, n, rng):
    """n symmetric 2x2 blocks (a, b, c) of one kind, as float arrays, PSD
    but for the negated ones: rounding can leave a nearly zero L'L so."""
    if kind == "negative-definite":
        return tuple(-x for x in _sym2_blocks("psd", n, rng))
    if kind == "psd":
        x = rng.normal(size=(n, 5, 2)) * np.exp(rng.normal(size=(n, 1, 2)))
        g = np.einsum("nki,nkj->nij", x, x)
        return g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
    if kind == "rank-one":
        u, v = rng.normal(size=(2, n)) * np.exp(3 * rng.normal(size=n))
        return u * u, u * v, v * v
    if kind == "zero":
        return np.zeros(n), np.zeros(n), np.zeros(n)
    # eigenvalue ratio within a factor 2 of the rank-one cutoff, or within a
    # factor 4 of twice it, where the full-rank certificate det/t^2 > 2 cutoff
    # changes its verdict; on both sides, with off-diagonals of both signs
    ratio, spread = {"near-rank-one": (LL_RANK_ONE_RATIO, 2.0),
                     "near-certificate": (2 * LL_RANK_ONE_RATIO, 4.0)}[kind]
    lmax = np.exp(3 * rng.normal(size=n))
    lmin = lmax * ratio * np.exp(rng.uniform(-math.log(spread), math.log(spread), n))
    phi = rng.uniform(-math.pi, math.pi, n)
    cs, sn = np.cos(phi), np.sin(phi)
    return (lmax * cs * cs + lmin * sn * sn, (lmax - lmin) * cs * sn,
            lmax * sn * sn + lmin * cs * cs)


SYM2_KINDS = ["psd", "rank-one", "near-rank-one", "zero", "near-certificate",
              "negative-definite"]


@pytest.mark.parametrize("kind", SYM2_KINDS)
def test_pinv_sym2_is_the_batch_form_on_one_block(kind):
    # the one-point route's float twin must repeat the batch form bit for bit
    # on the numpy scalars it replaced, or table.json would move
    rng = np.random.default_rng(SYM2_KINDS.index(kind))
    a, b, c = _sym2_blocks(kind, 20_000, rng)
    for ai, bi, ci in zip(a, b, c):  # numpy scalars
        want = _pinv_sym2_batch(ai, bi, ci)
        got = _pinv_sym2(float(ai), float(bi), float(ci))
        assert got == want, (ai, bi, ci, got, want)
    if kind == "near-rank-one":  # both branches drawn
        _, lmax, lmin = _eig_sym2(a, b, c)
        assert 0 < np.sum(lmin > LL_RANK_ONE_RATIO * lmax) < len(a)
    # where Python floats would raise, numpy's overflow to inf is kept
    with np.errstate(over="ignore"):
        assert _pinv_sym2(1e300, 0.0, 1.0) == _pinv_sym2_batch(
            np.float64(1e300), np.float64(0.0), np.float64(1.0)) == (0.0, 0.0, 0.0)


def test_pinv_sym2_batch_is_the_one_block_form_on_whole_batches():
    # full-rank blocks mixed with rank-one, all-zero and overflowing ones, and
    # a batch of full-rank blocks only, whose rank-one branches are all unused
    rng = np.random.default_rng(9)
    kinds = ("psd", "rank-one", "near-rank-one", "zero")
    mixed = [np.append(np.concatenate(x), v) for x, v in
             zip(zip(*(_sym2_blocks(kind, 50, rng) for kind in kinds)), (1e300, 0.0, 1.0))]
    full = _sym2_blocks("psd", 200, rng)
    _, lmax, lmin = _eig_sym2(*full)
    assert np.all(lmin > LL_RANK_ONE_RATIO * lmax)
    for blocks in (mixed, full):
        order = rng.permutation(len(blocks[0]))
        a, b, c = (x[order] for x in blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = np.array(_pinv_sym2_batch(a, b, c))
            one = np.array([_pinv_sym2(*map(float, abc)) for abc in zip(a, b, c)]).T
        assert batch.tobytes() == one.tobytes()


def _certified(ratio, a, b, c):
    """Which blocks the trace and determinant test proves far from singular."""
    t = a + c
    return (a * c - b * b > 2 * ratio * t * t) & (t > 0)


def test_pinv_sym2_batch_certificate_never_changes_a_value():
    # a batch the certificate proves full rank skips the eigenvalues; one it
    # does not takes the general form.  Every block must come out with the
    # same bytes either way: alone (certified where it can be) and inside a
    # mixed batch that is not certified as a whole
    rng = np.random.default_rng(21)
    blocks = [np.concatenate(x) for x in zip(*(_sym2_blocks(kind, 400, rng)
                                               for kind in SYM2_KINDS))]
    k = SYM2_KINDS.index("near-certificate")
    near = _certified(LL_RANK_ONE_RATIO, *blocks)[400 * k:400 * (k + 1)]
    assert 0 < near.sum() < len(near)  # both sides of the threshold drawn
    assert not _certified(LL_RANK_ONE_RATIO, *blocks).all()
    mixed = np.array(_pinv_sym2_batch(*blocks))
    for i in range(len(blocks[0])):
        alone = np.array(_pinv_sym2_batch(*(x[i:i + 1] for x in blocks)))
        assert alone.tobytes() == mixed[:, i:i + 1].tobytes(), i
    # a certified batch is all full-rank: the general form's branch for it
    full = _certified(LL_RANK_ONE_RATIO, *blocks)
    _, lmax, lmin = _eig_sym2(*blocks)
    assert np.all(lmin[full] > LL_RANK_ONE_RATIO * lmax[full])
    whole = np.array(_pinv_sym2_batch(*(x[full] for x in blocks)))
    assert whole.tobytes() == mixed[:, full].tobytes()


def test_phi_batch_q2_certificate_never_changes_a_value():
    # Q=2 M drawn as in test_phi_from_info_nearly_singular, with its
    # eigenvalue ratio within a factor 4 of the certificate's 2 RCOND_SINGULAR
    # on both sides, plus a few singular, indefinite and negative definite ones
    rng = np.random.default_rng(22)
    n = 2000
    angle = rng.uniform(-math.pi, math.pi, n)
    cs, sn = np.cos(angle), np.sin(angle)
    lmax = 10.0 ** rng.uniform(-3.0, 6.0, n)
    lmin = lmax * 2 * RCOND_SINGULAR * np.exp(rng.uniform(-math.log(4), math.log(4), n))
    lmin[:20] = 0.0
    lmin[20:40] *= -1.0
    lmin[40:60], lmax[40:60] = -lmax[40:60], -lmin[40:60]
    a, b, c = (lmax * cs * cs + lmin * sn * sn, (lmax - lmin) * cs * sn,
               lmax * sn * sn + lmin * cs * cs)
    near = _certified(RCOND_SINGULAR, a, b, c)
    assert 0 < near.sum() < n  # both sides of the threshold drawn
    with np.errstate(divide="ignore", invalid="ignore"):
        mixed = _phi_batch([[a, b], [b, c]])
    assert np.any(mixed[~near] > 0.0) and np.any(mixed[~near] == 0.0)
    for i in range(n):
        one = [x[i:i + 1] for x in (a, b, c)]
        with np.errstate(divide="ignore", invalid="ignore"):
            alone = _phi_batch([one[:2], one[1:]])
        assert alone.tobytes() == mixed[i:i + 1].tobytes(), i
    whole = _phi_batch([[a[near], b[near]], [b[near], c[near]]])
    assert whole.tobytes() == mixed[near].tobytes()


@given(q=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_phi_continuous_across_rank_one_cutoff(q, seed):
    # L = [L1, alpha L1 + s r] loses rank as s -> 0, and E is orthogonal to r,
    # so for every s the exact M is E'E - E'L1 L1'E / |L1|^2.  As s takes
    # L'L's eigenvalue ratio across the rank-one cutoff of _pinv_sym2_batch,
    # phi_A must stay at that value instead of jumping between the branches.
    # From a Gram matrix the rank decision costs about sqrt(eps) = 1.5e-8 of
    # relative accuracy near the cutoff; the tolerance allows 64 times that.
    rng = np.random.default_rng(seed)
    ev = make_eval(q=q)
    p = HrfParams(7.0, 1.0)
    to_images = np.linalg.pinv(ev.bundle(p))  # U b = T for U = T pinv(b), b = [h, d1, d6]
    n = 3 * q + 4
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    r, rest = basis[:, 0], basis[:, 1:]
    e = rest @ rng.normal(size=(n - 1, q))
    l1 = rest @ rng.normal(size=(n - 1, q))
    theta = rng.normal(size=q)
    c = theta / (theta @ theta)  # sum_a theta_a c_a = 1, so L6 = alpha L1 + s r
    alpha = rng.normal()
    big_l1 = l1 @ theta
    m_exact = e.T @ e - np.outer(e.T @ big_l1, e.T @ big_l1) / (big_l1 @ big_l1)
    want = phi_from_info(m_exact)
    # eigenvalue ratio of L'L is about s^2 / (|L1|^2 (1 + alpha^2)^2)
    s0 = math.sqrt(LL_RANK_ONE_RATIO) * (big_l1 @ big_l1) ** 0.5 * (1.0 + alpha ** 2)
    eps = np.finfo(float).eps
    screen = WorstCase(ev, ParamGrid(thetas=(tuple(theta),), ps=(p,))).per_search(1)
    ratios = []
    for s in s0 * np.geomspace(30.0, 1.0 / 30.0, 13):
        l6 = alpha * l1 + s * np.outer(r, c)
        u = np.hstack([np.column_stack([e[:, a], l1[:, a], l6[:, a]]) @ to_images
                       for a in range(q)])
        big_l = np.column_stack([big_l1, l6 @ theta])
        lam = np.linalg.eigvalsh(big_l.T @ big_l)
        ratios.append(lam[0] / lam[1])
        [(values, m)] = ev._phi_from_gram(u.T @ u, [tuple(theta)], (p,))
        got = values[0, 0]
        assert got == pytest.approx(want, rel=64 * math.sqrt(eps)), (s, ratios[-1])
        # the search screen's value there, from the same Y, may take the other
        # branch at the cutoff: its margin covers the two routes' difference
        assert screen.point_value(u.T @ u, 0) == pytest.approx(got, rel=SCREEN_MARGIN)
        # the one-point route from the same columns: [E L] = U B, then their
        # (Q+2)^2 Gram.  Off the cutoff both routes take the same branch.
        # Their M agree to a few eps relative to E'E (worst 8e-13 over 3,000
        # draws: U's columns pass through pinv(b), of norm 18), plus, on the
        # full-rank side, the eps / ratio each route errs by there (see
        # LL_RANK_ONE_RATIO): 3e-11 at a ratio of 4e-7.
        if abs(math.log(ratios[-1] / LL_RANK_ONE_RATIO)) > 1e-4:
            cols = sum(u[:, a * ev.hrf_length:(a + 1) * ev.hrf_length] @ b
                       for a, b in enumerate(ev._point_weights(tuple(theta), p)))
            point_m = _point_info(cols.T @ cols, q)
            grid_m = np.array([[m[a][b][0, 0] for b in range(q)] for a in range(q)])
            rel = 4e-12 + (8 * eps / ratios[-1] if ratios[-1] > LL_RANK_ONE_RATIO else 0.0)
            assert np.abs(point_m - grid_m).max() <= rel * np.abs(e.T @ e).max()
    assert min(ratios) < LL_RANK_ONE_RATIO < max(ratios)


@given(q=st.integers(1, 3), runs=st.integers(1, 2), seed=st.integers(0, 10 ** 6),
       p1=st.floats(6.0, 9.0), p6=st.floats(0.0, 2.0), zero=st.booleans())
@settings(max_examples=60, deadline=None)
def test_point_route_matches_grid_route(q, runs, seed, p1, p6, zero):
    # phi_a and info_matrix multiply X by the HRF bundle first and
    # residualize Q + 2 columns; phi_a_grid residualizes all Q*K columns and
    # goes through their Gram matrix.  At p6 = 40 the whole response lies
    # past the window, and both routes must give an exact, quiet zero.
    ev = make_eval(q=q, length=24, isi=2.5, tr=2.5, runs=runs)
    d = random_design(q, 24, 2.5, seed=seed)
    theta = (0.0,) * q if zero else tuple(np.random.default_rng(seed).normal(size=q))
    ps = (HrfParams(p1, p6), HrfParams(6.0, 40.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(grid_values, m)] = ev._phi_from_gram(ev.gram(d), [theta], ps)  # phi_a_grid's and M
        values = [ev.phi_a(d, theta, p) for p in ps]
        infos = [ev.info_matrix(d, theta, p) for p in ps]
    assert values[1] == 0.0 == grid_values[0, 1]
    assert np.all(infos[1] == 0.0)
    assert values[0] == pytest.approx(grid_values[0, 0], rel=1e-12, abs=0.0)
    grid_m = np.array([[m[a][b][0, 0] for b in range(q)] for a in range(q)])
    assert np.abs(infos[0] - grid_m).max() <= 1e-12 * np.abs(grid_m).max()


@pytest.mark.parametrize("theta", [(math.nan, 1.0), (math.inf, 0.0), (0.6, -math.inf)])
def test_non_finite_theta_rejected(theta):
    # NaN and inf directions used to score 0.0 (inf with a RuntimeWarning) or
    # give an all-NaN M; both routes now refuse them
    ev = make_eval(q=2, length=40)
    d = random_design(2, 40, 4.0, seed=7)
    p = HrfParams(6.0, 0.0)
    table = LocalOptTable(q_types=2, isi=4.0)
    calls = [lambda: ev.phi_a(d, theta, p), lambda: ev.info_matrix(d, theta, p),
             lambda: ev.phi_a_grid(d, [(0.6, 0.8), theta], [p]),
             lambda: relative_efficiency(d, theta, p, table, 2.0, NoiseSpec(), DriftSpec())]
    for call in calls:
        with pytest.raises(ConfigurationError, match="thetas must be finite"):
            call()
    for call in (lambda: ev.phi_a(d, (1.0, 0.0, 0.0), p),
                 lambda: ev.phi_a_grid(d, [(1.0, 0.0, 0.0)], [p])):
        with pytest.raises(ConfigurationError, match=r"thetas must be \(n, 2\)"):
            call()


def test_kept_directions_never_go_stale():
    # the last grid of a tuple of tuples and a tuple of points is kept by
    # identity; anything that could have changed since, or was never
    # validated, is read again
    ev = make_eval(q=2, length=40)
    grid = ((0.6, 0.8), (1.0, 0.0))
    ps = (HrfParams(6.0, 0.0), HrfParams(8.0, 1.5))
    first = ev._grid(grid, ps)
    assert ev._grid(grid, ps) is first
    (th,), w_t, w_all = first
    assert not any(a.flags.writeable for a in (th, w_t, w_all))
    assert np.array_equal(ev._grid(tuple(map(tuple, th)), ps)[0][0], th)
    listed = [[0.6, 0.8], [1.0, 0.0]]
    assert np.array_equal(ev._grid(listed, ps)[0][0], th)
    listed[0][0] = 0.3
    assert ev._grid(listed, ps)[0][0][0, 0] == 0.3
    rows = ([0.6, 0.8], [1.0, 0.0])  # a tuple, but of mutable rows
    ev._grid(rows, ps)
    rows[0][0] = 0.3
    assert ev._grid(rows, ps)[0][0][0, 0] == 0.3
    points = list(ps)  # a list of points
    ev._grid(grid, points)
    points[0] = HrfParams(7.0, 0.5)
    assert np.array_equal(ev._grid(grid, points)[2], ev._grid(grid, (points[0], ps[1]))[2])
    assert not np.array_equal(ev._grid(grid, points)[2], w_all)
    blocks = DirectionBlocks(grid, ((0.0, 1.0),))
    split = ev._grid(blocks, ps)
    assert ev._grid(blocks, ps) is split
    assert [b.tolist() for b in split[0]] == [[[0.6, 0.8], [1.0, 0.0]], [[0.0, 1.0]]]
    bad = ((0.6, 0.8), (math.nan, 1.0))
    for _ in range(3):
        with pytest.raises(ConfigurationError, match="thetas must be finite"):
            ev._grid(bad, ps)
    # grids A, B, A, each as a fresh evaluator scores it
    d = random_design(2, 40, 4.0, seed=8)
    grid_b = ((0.0, 1.0), (0.6, -0.8), (0.8, 0.6))
    for thetas in (grid, grid_b, grid):
        want = make_eval(q=2, length=40).phi_a_grid(d, thetas, ps)
        assert ev.phi_a_grid(d, thetas, ps).tobytes() == want.tobytes()
    # grids of other p points and single points in turn, each its fresh
    # evaluator's value whichever grid or point was kept before it
    ps_b = (HrfParams(7.0, 0.5),)
    for thetas, p_set in ((grid_b, ps_b), (grid, ps_b), (grid_b, ps), (grid, ps)):
        fresh = make_eval(q=2, length=40)
        assert (ev.phi_a_grid(d, thetas, p_set).tobytes()
                == fresh.phi_a_grid(d, thetas, p_set).tobytes())
        assert ev.phi_a(d, thetas[-1], p_set[0]) == fresh.phi_a(d, thetas[-1], p_set[0])


def test_phi_a_grid_empty_inputs():
    ev = make_eval()
    d = random_design(1, 9, 4.0, seed=19)
    assert ev.phi_a_grid(d, [], [HrfParams(6.0, 0.0)]).shape == (0, 1)
    assert ev.phi_a_grid(d, [(1.0,)], []).shape == (1, 0)


def test_evaluator_rejects_mismatched_design():
    ev = make_eval(q=1, length=9)
    with pytest.raises(ConfigurationError):
        ev.phi_a(random_design(1, 10, 4.0, seed=0), (1.0,), HrfParams(6.0, 0.0))
    with pytest.raises(ConfigurationError):
        ev.phi_a(random_design(2, 9, 4.0, seed=0), (1.0, 0.0), HrfParams(6.0, 0.0))


@given(q=st.integers(1, 3), runs=st.integers(1, 2),
       timing=st.sampled_from([(4.0, 2.0), (2.5, 2.0), (4.0, 2.5), (40.0, 2.0)]),
       rho=st.sampled_from([-0.5, 0.0, 0.3, 0.9]), scans=st.integers(1, 12),
       kind=st.sampled_from(["random", "rest", "ends"]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_gram_is_the_gram_of_the_residualized_columns(q, runs, timing, rho, scans, kind, data):
    # the count route against its dense definition, over rtr 1, 4 and 5, an
    # ISI longer than the HRF window (no onset reaches the last scan), runs
    # of one slot and up, and onsets in the first and last slots
    isi, tr = timing
    risi, rtr = round(isi / delta_t(isi, tr)), round(tr / delta_t(isi, tr))
    length = scans * rtr  # a whole number of scans: scans * risi of them
    order = data.draw(st.integers(0, min(3, scans * risi - 2)), label="order")
    labels = data.draw(st.lists(st.integers(0, q), min_size=length, max_size=length))
    if kind == "rest":
        labels = [0] * length
    elif kind == "ends":
        labels[0] = labels[-1] = q
    ev = make_eval(q=q, length=length, isi=isi, tr=tr, rho=rho, order=order, runs=runs)
    d = Design(tuple(labels), q, isi)
    u = ev.residualized(d)
    want, got = u.T @ u, ev.gram(d)
    np.testing.assert_array_equal(got, got.T)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_gram_tables_stay_small_at_a_fine_height_grid():
    # ISI 2.3 s, TR 2 s: delta 0.1 s, K = 321 heights, rtr = 20; a dense
    # kernel per onset lag and residue class would take about 480 MB
    ev = make_eval(q=2, length=40, isi=2.3, tr=2.0)
    d = random_design(2, 40, 2.3, seed=8)
    u = ev.residualized(d)
    want, got = u.T @ u, ev.gram(d)
    assert (ev.hrf_length, round(2.0 / ev.delta)) == (321, 20)
    assert sum(t.nbytes for t in ev._gram_tables if isinstance(t, np.ndarray)) < 4e6
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_gram_is_symmetric_psd():
    ev = make_eval(q=2, length=24)
    y = ev.gram(random_design(2, 24, 4.0, seed=20))
    np.testing.assert_array_equal(y, y.T)
    assert np.linalg.eigvalsh(y)[0] >= -1e-10


# -- two-run variant -----------------------------------------------------------

def test_two_identical_runs_with_zero_shift_double_the_information():
    p = HrfParams(6.6, 0.7)
    for q, theta in ((1, (1.0,)), (2, (0.6, -0.8))):
        d = random_design(q, 12, 2.5, seed=23 + q)
        single = phi_a(d, theta, p, NoiseSpec(rho=0.3), DriftSpec(order=2), tr=2.5)
        double = phi_a(d, theta, p, NoiseSpec(rho=0.3, runs=2, run_shift=0.0),
                       DriftSpec(order=2), tr=2.5)
        assert double == pytest.approx(2.0 * single, rel=1e-10)


def test_two_run_matches_reference():
    d = random_design(1, 12, 2.5, seed=25)
    got = phi_a(d, (1.0,), HrfParams(7.0, 1.25), NoiseSpec(rho=0.3, runs=2, run_shift=1.25),
                DriftSpec(order=2), tr=2.5)
    want = ref_phi_a(list(d.labels), 1, 2.5, 2.5, 0.3, 2, (1.0,), 7.0, 1.25,
                     runs=2, shift=1.25)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("shift", [math.nan, math.inf])
def test_evaluator_rejects_non_finite_run_shift(shift):
    # a NaN shift would zero every second-run height (NaN > 0 is false); the
    # noise spec carries the shift, so no evaluator can be built with one
    with pytest.raises(ConfigurationError, match="run_shift"):
        NoiseSpec(runs=2, run_shift=shift)


def test_direction_blocks_score_each_block_as_alone():
    # the Q=3 comparison grid and its R_g directions in one pass: each block's
    # rows equal a pass over that block alone, although one matrix product
    # over all 855 directions rounds some of the first block's rows otherwise
    # under OpenBLAS
    grid = make_grid(3, "comparison")
    extra = with_rg_directions(grid.thetas, 3, grid.phi_step)[len(grid.thetas):]
    ev = Evaluator(3, 40, 4.0, 2.0, NoiseSpec(rho=0.3), DriftSpec(order=2))
    d = random_design(3, 40, 4.0, seed=5)
    both = ev.phi_a_grid(d, DirectionBlocks(grid.thetas, extra), grid.ps)
    assert np.array_equal(both[:len(grid.thetas)], ev.phi_a_grid(d, grid.thetas, grid.ps))
    assert np.array_equal(both[len(grid.thetas):], ev.phi_a_grid(d, extra, grid.ps))
