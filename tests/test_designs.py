"""Sequence generators, relabelings, and design-matrix construction."""

import collections
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdesign.designs import (
    DEFAULT_PRIMITIVE_POLYS,
    Design,
    _scan_index,
    block_design,
    constrained_random,
    cycle_labels_once,
    cyclic_design,
    delta_t,
    design_from_text,
    design_matrix,
    extend_m_sequence,
    find_primitive_poly,
    load_design,
    m_sequence,
    m_sequence_design,
    random_design,
    relabel,
    save_design,
)
from mmdesign.errors import (
    ConfigurationError,
    GenerationError,
    InputParseError,
    SamplingError,
)
from mmdesign.hrf import default_hrf_length


def labels_of(d):
    return list(d.labels)


# -- timing grid -------------------------------------------------------------

def test_delta_t_examples():
    assert delta_t(4.0, 2.0) == 2.0
    assert delta_t(2.5, 2.5) == 2.5
    assert delta_t(3.0, 2.0) == 1.0
    assert delta_t(2.0, 3.0) == 1.0
    assert delta_t(1.5, 2.0) == 0.5


def test_delta_t_rejects_incommensurate():
    with pytest.raises(ConfigurationError):
        delta_t(math.sqrt(2.0), 1.0)
    with pytest.raises(ConfigurationError):
        delta_t(0.0, 2.0)
    with pytest.raises(ConfigurationError):
        delta_t(2.0, -1.0)
    # below 1e-9 a value approximates to 0/1 within the tolerance: no measure
    for isi, tr in ((4.0, 1e-10), (1e-10, 2.0), (4e-10, 1e-10)):
        with pytest.raises(ConfigurationError, match="no rational common measure"):
            delta_t(isi, tr)


@given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([0.25, 0.5, 1.0]))
def test_delta_t_divides_both(a, b, unit):
    isi, tr = a * unit, b * unit
    d = delta_t(isi, tr)
    assert abs(isi / d - round(isi / d)) < 1e-9
    assert abs(tr / d - round(tr / d)) < 1e-9


# -- Design container --------------------------------------------------------

def test_design_validation():
    with pytest.raises(ConfigurationError):
        Design(labels=(0, 3), q_types=2, isi=4.0)
    with pytest.raises(ConfigurationError):
        Design(labels=(0, -1), q_types=2, isi=4.0)
    with pytest.raises(ConfigurationError):
        Design(labels=(), q_types=1, isi=4.0)
    with pytest.raises(ConfigurationError):
        Design(labels=(1,), q_types=0, isi=4.0)


def test_design_counts_and_text():
    d = Design(labels=(1, 0, 2, 1), q_types=2, isi=4.0)
    assert d.labels.count(1) == 2 and d.labels.count(2) == 1 and d.labels.count(0) == 1
    assert d.to_text() == "1 0 2 1\n"
    assert len(d) == 4


def test_text_round_trip(tmp_path):
    d = Design(labels=(1, 0, 2, 1), q_types=2, isi=4.0)
    path = tmp_path / "d.txt"
    save_design(d, path)
    back = load_design(path, q_types=2, isi=4.0)
    assert back == d


def test_json_round_trip(tmp_path):
    d = Design(labels=(1, 0, 2, 1), q_types=2, isi=2.5)
    path = tmp_path / "d.json"
    save_design(d, path, fmt="json")
    assert load_design(path) == d
    path.write_text('{"q": 2, "isi": 4, "labels": [1, 0, 2]}', encoding="utf-8")
    assert load_design(path) == Design(labels=(1, 0, 2), q_types=2, isi=4.0)

def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputParseError, match="line 1"):
        design_from_text("1 0 x 1\n", q_types=2, isi=4.0)
    with pytest.raises(InputParseError):
        design_from_text("1 0\n1 1\n", q_types=2, isi=4.0)
    with pytest.raises(InputParseError, match="line 1"):
        design_from_text("1 0 3\n", q_types=2, isi=4.0)


# -- generators --------------------------------------------------------------

def test_block_design_examples():
    assert labels_of(block_design(1, 4, 16, 4.0)) == [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4
    assert labels_of(block_design(1, 6, 12, 2.5)) == [0] * 6 + [1] * 6
    assert labels_of(block_design(2, 4, 10, 4.0)) == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]


def test_block_design_truncates_mid_block():
    assert labels_of(block_design(1, 4, 6, 4.0)) == [0, 0, 0, 0, 1, 1]
    with pytest.raises(ConfigurationError):
        block_design(1, 0, 8, 4.0)


def test_random_design_reproducible_and_uniform():
    d1 = random_design(2, 300, 4.0, seed=42)
    d2 = random_design(2, 300, 4.0, seed=42)
    assert d1 == d2
    assert random_design(2, 300, 4.0, seed=43) != d1
    counts = collections.Counter(d1.labels)
    for lab in (0, 1, 2):
        assert 60 <= counts[lab] <= 140  # loose LLN band around 100


def test_constrained_random_composition_and_gap():
    d = constrained_random(132, 0.5, (4.9, 5.1), isi=2.5, seed=0)
    assert d.labels.count(0) == 66 and d.labels.count(1) == 66
    onsets = np.nonzero(np.array(d.labels) == 1)[0]
    mean_gap = float(np.mean(np.diff(onsets))) * 2.5
    assert 4.9 <= mean_gap <= 5.1
    assert constrained_random(132, 0.5, (4.9, 5.1), isi=2.5, seed=0) == d


def test_constrained_random_infeasible_window():
    with pytest.raises(SamplingError):
        constrained_random(20, 0.5, (100.0, 101.0), isi=2.5, seed=0, max_tries=50)


@pytest.mark.parametrize("isi, zero_fraction, lo, hi", [
    (2.5, 0.5, "4.9", "5.1"),  # exactly the two-run example's window
    (4.0, 0.5, "7.84", "8.16"),
    (2.0, 0.75, "7.84", "8.16"),
])
def test_constrained_random_default_window(isi, zero_fraction, lo, hi):
    # a None bound is the composition's mean gap isi / (1 - zero_fraction), -/+ 2%
    for window, text in (((None, None), f"[{lo}, {hi}]"), ((None, 9.0), f"[{lo}, 9.0]"),
                         ((1.0, None), f"[1.0, {hi}]")):
        with pytest.raises(SamplingError, match=re.escape(text)):
            constrained_random(40, zero_fraction, window, isi=isi, seed=0, max_tries=0)


@pytest.mark.parametrize("window", [(9.0, 8.0), (None, 4.0), (math.nan, None), (None, math.nan)])
def test_constrained_random_rejects_empty_window_before_sampling(window):
    # an empty or NaN window once failed with SamplingError after every try
    with pytest.raises(ConfigurationError, match="gap window"):
        constrained_random(40, 0.5, window, isi=2.5, seed=0)


@pytest.mark.parametrize("length, zero_fraction", [(20, 1.0), (20, 0.95), (1, 0.0)])
def test_constrained_random_needs_two_onsets(length, zero_fraction):
    with pytest.raises(ConfigurationError, match="fewer than 2 onsets"):
        constrained_random(length, zero_fraction, (None, None), isi=2.5, seed=0)


def test_m_sequence_gf2_counts():
    seq = m_sequence(2, 8)
    assert len(seq) == 255
    c = collections.Counter(seq)
    assert c[1] == 128 and c[0] == 127


def test_m_sequence_gf3_counts():
    seq = m_sequence(3, 5)
    assert len(seq) == 242
    c = collections.Counter(seq)
    assert c[0] == 80 and c[1] == 81 and c[2] == 81


def test_m_sequence_gf4_counts():
    seq = m_sequence(4, 4)
    assert len(seq) == 255
    c = collections.Counter(seq)
    assert c[0] == 63
    assert c[1] == c[2] == c[3] == 64


@pytest.mark.parametrize("field_order, degree", sorted(DEFAULT_PRIMITIVE_POLYS))
def test_default_primitive_polys_give_full_period(field_order, degree):
    seq = m_sequence(field_order, degree, DEFAULT_PRIMITIVE_POLYS[(field_order, degree)])
    assert len(seq) == field_order ** degree - 1


def test_find_primitive_poly_matches_the_table_but_at_gf4_degree_4():
    # the search returns the first primitive polynomial in its order; the
    # table's (4, 4) entry is another one, kept because Q=3 m-sequences use it
    found = {key: find_primitive_poly(*key) for key in DEFAULT_PRIMITIVE_POLYS}
    assert found.pop((4, 4)) == (3, 2, 1, 0)
    assert found == {k: v for k, v in DEFAULT_PRIMITIVE_POLYS.items() if k != (4, 4)}
    assert len(m_sequence(4, 4, (3, 2, 1, 0))) == 255


def test_find_primitive_poly_beyond_the_table():
    # GF(2) degree 11 is what Q=1 searches longer than 1023 slots need
    assert (2, 11) not in DEFAULT_PRIMITIVE_POLYS
    poly = find_primitive_poly(2, 11)
    assert poly == (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    seq = m_sequence(2, 11, poly)
    assert len(seq) == 2047 and seq.count(1) == 1024
    assert m_sequence_design(1, 1500, 4.0).labels == tuple(seq[:1500])
    with pytest.raises(ConfigurationError, match="too large"):
        find_primitive_poly(2, 21)


def test_m_sequence_window_property():
    # every nonzero length-r word over GF(q) appears exactly once per period
    seq = m_sequence(2, 4)
    words = set()
    for i in range(len(seq)):
        words.add(tuple(seq[(i + j) % len(seq)] for j in range(4)))
    assert len(words) == 15
    assert (0, 0, 0, 0) not in words


def test_m_sequence_rejects_non_primitive():
    # x^2 + 1 over GF(2) divides x^4 - 1, period 4 < 15... use degree 2: (1, 0)
    with pytest.raises(GenerationError):
        m_sequence(2, 2, primitive_poly=(1, 0))
    with pytest.raises(ConfigurationError):
        m_sequence(6, 2)
    with pytest.raises(ConfigurationError):
        m_sequence(2, 3, primitive_poly=(1, 1))


def test_extend_wraps_cyclically():
    seq = m_sequence(2, 7)
    assert len(seq) == 127
    d = extend_m_sequence(seq, 132, isi=2.5)
    assert labels_of(d)[:127] == seq
    assert labels_of(d)[127:] == seq[:5]
    with pytest.raises(ConfigurationError):
        extend_m_sequence([], 10, isi=2.0)


def test_m_sequence_design_picks_degree():
    d = m_sequence_design(1, 255, 4.0)
    assert len(d) == 255 and d.q_types == 1
    assert collections.Counter(d.labels)[1] == 128
    d2 = m_sequence_design(2, 242, 4.0)
    assert len(d2) == 242 and max(d2.labels) == 2
    # shorter than the natural period: truncated wrap of the next degree up
    d3 = m_sequence_design(1, 60, 4.0)
    assert len(d3) == 60
    assert labels_of(d3) == m_sequence(2, 6)[:60]


# -- relabelings -------------------------------------------------------------

def test_relabel_example_swap():
    d = Design(labels=(1, 0, 2, 1), q_types=2, isi=4.0)
    assert labels_of(relabel(d, {1: 2, 2: 1})) == [2, 0, 1, 2]
    assert labels_of(relabel(d, (2, 1))) == [2, 0, 1, 2]


def test_relabel_identity_and_inverse():
    d = random_design(3, 40, 4.0, seed=1)
    assert relabel(d, (1, 2, 3)) == d
    fwd = relabel(d, (2, 3, 1))
    assert relabel(fwd, (3, 1, 2)) == d


def test_relabel_rejects_non_bijection():
    d = Design(labels=(1, 2), q_types=2, isi=4.0)
    with pytest.raises(ConfigurationError):
        relabel(d, (1, 1))


def test_cycle_labels_once():
    assert cycle_labels_once((1, 0, 2, 3), 3) == (2, 0, 3, 1)


def test_cyclic_design_examples():
    short = Design(labels=(1, 0, 2), q_types=2, isi=4.0)
    assert labels_of(cyclic_design(short, 2, 6)) == [1, 0, 2, 2, 0, 1]
    assert labels_of(cyclic_design(short, 2, 5)) == [1, 0, 2, 2, 0]
    short3 = Design(labels=(1, 1, 1), q_types=3, isi=4.0)
    assert labels_of(cyclic_design(short3, 3, 9)) == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_cyclic_design_length_check():
    short = Design(labels=(1, 0), q_types=2, isi=4.0)
    with pytest.raises(ConfigurationError):
        cyclic_design(short, 2, 6)  # needs ceil(6/2) = 3 slots


@given(st.integers(2, 3), st.integers(4, 30), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_cyclic_design_prefix_is_short_design(q, length, seed):
    glen = -(-length // q)
    short = random_design(q, glen, 4.0, seed=seed)
    full = cyclic_design(short, q, length)
    assert len(full) == length
    assert full.labels[:min(glen, length)] == short.labels[:min(glen, length)]


# -- design matrices ---------------------------------------------------------

def test_design_matrix_single_onset():
    # one onset at slot 1 (4 s = grid index 2); scans land every grid step, so
    # scan t sees the onset k = t - 2 steps back
    labels = tuple(1 if i == 1 else 0 for i in range(9))
    d = Design(labels=labels, q_types=1, isi=4.0)
    (x,) = design_matrix(d, tr=2.0)
    assert x.shape == (18, 17)
    want = np.zeros((18, 17))
    for t in range(18):
        k = t - 2
        if 0 <= k < 17:
            want[t, k] = 1.0
    np.testing.assert_array_equal(x, want)


def test_design_matrix_all_rest_is_zero():
    d = Design(labels=(0,) * 8, q_types=2, isi=4.0)
    blocks = design_matrix(d, tr=2.0)
    assert len(blocks) == 2
    for b in blocks:
        assert not np.any(b)


def test_design_matrix_row_sums_count_contributing_onsets():
    d = random_design(1, 24, 4.0, seed=2)
    (x,) = design_matrix(d, tr=2.0)
    onsets = [i * 2 for i, lab in enumerate(d.labels) if lab == 1]
    for t in range(x.shape[0]):
        expect = sum(1 for o in onsets if 0 <= t - o < 17)
        assert x[t].sum() == expect


def test_design_matrix_column_recovers_onsets():
    # column k of X_q is the type-q onset indicator delayed by k grid steps
    # (isi 4 / tr 2: one scan per grid step)
    d = random_design(2, 30, 4.0, seed=3)
    blocks = design_matrix(d, tr=2.0)
    for q in (1, 2):
        col0 = blocks[q - 1][:, 0]
        onsets = np.zeros(60)
        onsets[[i * 2 for i, lab in enumerate(d.labels) if lab == q]] = 1.0
        np.testing.assert_array_equal(col0, onsets)
        col3 = blocks[q - 1][:, 3]
        np.testing.assert_array_equal(col3[3:], onsets[:-3])
        assert not np.any(col3[:3])


def test_design_matrix_subsampling_picks_scan_rows():
    # isi 2 / tr 4: scans every second height-grid step, so scan t sees the
    # onset indicator (one grid step per slot) k steps before grid step 2t
    d = random_design(1, 24, 2.0, seed=4)
    (coarse,) = design_matrix(d, tr=4.0)
    u = np.array(d.labels, dtype=float)
    fine = np.array([[u[s - k] if s >= k else 0.0 for k in range(17)] for s in range(24)])
    np.testing.assert_array_equal(coarse, fine[::2])


def test_design_matrix_relabel_permutes_blocks():
    d = random_design(2, 20, 4.0, seed=5)
    swapped = relabel(d, (2, 1))
    blocks = design_matrix(d, tr=2.0)
    swapped_blocks = design_matrix(swapped, tr=2.0)
    np.testing.assert_array_equal(blocks[0], swapped_blocks[1])
    np.testing.assert_array_equal(blocks[1], swapped_blocks[0])


def test_design_matrix_rejects_partial_scan():
    d = Design(labels=(1, 0, 1), q_types=1, isi=2.0)
    with pytest.raises(ConfigurationError):
        design_matrix(d, tr=4.0)  # 3 slots * 2 s = 1.5 scans
    # the scan index is cached per configuration, but a failed build is not
    with pytest.raises(ConfigurationError):
        design_matrix(d, tr=4.0)


@pytest.mark.parametrize("q, length, isi, tr", [
    (1, 30, 4.0, 2.0),   # one scan per height-grid step
    (2, 24, 4.0, 4.0),   # every other step is scanned
    (3, 16, 3.0, 2.0),   # delta 1 s: 33 heights
    (2, 20, 2.5, 2.0),   # delta 0.5 s
    (3, 10, 4.0, 4.0),
], ids=["q1-isi4-tr2", "q2-isi4-tr4", "q3-isi3-tr2", "q2-isi2.5-tr2", "q3-isi4-tr4"])
def test_design_matrix_matches_reference(q, length, isi, tr):
    from reference import ref_design_blocks
    for seed in (6, 7, 8):
        d = random_design(q, length, isi, seed=seed)
        blocks = design_matrix(d, tr=tr)
        ref = ref_design_blocks(list(d.labels), q, isi, tr,
                                default_hrf_length(delta_t(isi, tr)))
        assert len(blocks) == q
        for got, want in zip(blocks, ref):
            np.testing.assert_array_equal(got, want)


def test_design_matrix_blocks_are_fresh():
    d = random_design(2, 24, 4.0, seed=7)
    first = design_matrix(d, tr=2.0)
    want = [b.copy() for b in first]
    assert all(b.flags.c_contiguous and b.flags.writeable for b in first)
    first[0][:] = 5.0  # the caller owns what it gets back
    for got, expect in zip(design_matrix(d, tr=2.0), want):
        np.testing.assert_array_equal(got, expect)
    # (slots per onset spacing, per scan, scans T, heights K)
    assert _scan_index(24, 4.0, 2.0) == (2, 1, 48, 17)
    # same length, other ISI: a matrix of its own shape
    assert _scan_index(24, 2.0, 2.0) == (1, 1, 24, 17) and first[0].shape == (48, 17)
    fast = design_matrix(Design(labels=d.labels, q_types=2, isi=2.0), tr=2.0)
    assert fast[0].shape == (24, 17)
