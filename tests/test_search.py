"""Genetic search: reproducibility, budgets, spaces, objectives, tables."""

import hashlib
import json
import math

import numpy as np
import pytest

from mmdesign.criteria import LocalOptTable, ParamGrid, make_grid
from mmdesign.designs import Design, cyclic_design, random_design
from mmdesign.errors import ConfigurationError, NumericalError, TableLookupError
from mmdesign.glsmodel import DriftSpec, Evaluator, NoiseSpec
from mmdesign.hrf import HrfParams
from mmdesign.search import (
    GaConfig,
    build_local_opt_table,
    decode_genome,
    ga_search,
    maximin_objective,
    mme_objective,
)


def count_ones(d: Design) -> float:
    return float(sum(1 for x in d.labels if x == 1))


def tiny_eval(q=1, length=12, isi=4.0, tr=2.0):
    return Evaluator(q_types=q, n_slots=length, isi=isi, tr=tr,
                     noise=NoiseSpec(rho=0.3), drift=DriftSpec(order=2))


TINY_GRID = make_grid(1, "search", p_step=1.5, phi_step=0.25 * math.pi)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    base = dict(q_types=1, length=12, isi=4.0)
    with pytest.raises(ConfigurationError):
        GaConfig(space="free", **base)
    with pytest.raises(ConfigurationError):
        GaConfig(q_types=0, length=12, isi=4.0)
    with pytest.raises(ConfigurationError):
        GaConfig(q_types=1, length=12, isi=0.0)
    with pytest.raises(ConfigurationError, match="population_size must be >= 2"):
        GaConfig(population_size=1, crossover_pairs=0, **base)
    with pytest.raises(ConfigurationError):
        GaConfig(population_size=10, crossover_pairs=6, **base)
    with pytest.raises(ConfigurationError):
        GaConfig(mutation_rate=1.5, **base)
    with pytest.raises(ConfigurationError):
        GaConfig(immigrant_count=-1, **base)
    with pytest.raises(ConfigurationError):
        GaConfig(population_size=20, max_evaluations=10, **base)


def test_genome_length_by_space():
    assert GaConfig(q_types=1, length=12, isi=4.0).genome_length == 12
    assert GaConfig(q_types=2, length=12, isi=4.0, space="xi0").genome_length == 6
    assert GaConfig(q_types=3, length=10, isi=4.0, space="xi0").genome_length == 4


def test_decode_genome_full_and_restricted():
    cfg = GaConfig(q_types=2, length=6, isi=4.0)
    assert decode_genome((1, 0, 2, 2, 0, 1), cfg).labels == (1, 0, 2, 2, 0, 1)
    cfg0 = GaConfig(q_types=2, length=6, isi=4.0, space="xi0")
    d = decode_genome((1, 0, 2), cfg0)
    assert d.labels == (1, 0, 2, 2, 0, 1)
    short = Design(labels=(1, 0, 2), q_types=2, isi=4.0)
    assert d == cyclic_design(short, 2, 6)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("space", ["xi", "xi0"])
def test_decode_genome_equals_validated_design(q, space):
    # decode_genome skips Design's validation; the result must still be the
    # validated design: the same tuple of Python ints, types and isi
    cfg = GaConfig(q_types=q, length=23, isi=2.5, space=space)
    rng = np.random.default_rng(q)
    for _ in range(20):
        genome = tuple(rng.integers(0, q + 1, size=cfg.genome_length).tolist())
        got = decode_genome(genome, cfg)
        short = Design(labels=genome, q_types=q, isi=2.5)
        want = short if space == "xi" else cyclic_design(short, q, 23)
        assert got == want and hash(got) == hash(want)  # labels, q_types and isi
        assert type(got.labels) is tuple and all(type(x) is int for x in got.labels)


# -- search behavior -------------------------------------------------------------

def test_search_is_deterministic_per_seed():
    cfg = GaConfig(q_types=1, length=12, isi=4.0, max_evaluations=400, seed=7)
    r1 = ga_search(count_ones, cfg)
    r2 = ga_search(count_ones, cfg)
    assert r1.best_design == r2.best_design
    assert r1.trace == r2.trace
    assert r1.n_evaluations == r2.n_evaluations
    r3 = ga_search(count_ones, GaConfig(q_types=1, length=12, isi=4.0,
                                        max_evaluations=400, seed=8))
    assert r3.trace != r1.trace or r3.best_design != r1.best_design


def test_search_trace_monotone_and_budgeted():
    cfg = GaConfig(q_types=2, length=18, isi=4.0, max_evaluations=500, seed=1)
    res = ga_search(count_ones, cfg)
    assert all(b >= a for a, b in zip(res.trace, res.trace[1:]))
    assert res.n_evaluations <= cfg.max_evaluations
    assert res.best_objective == res.trace[-1]
    assert res.trace[-1] >= res.trace[0]


def test_search_finds_trivial_optimum():
    cfg = GaConfig(q_types=1, length=12, isi=4.0, max_evaluations=2000, seed=0)
    res = ga_search(count_ones, cfg)
    assert res.best_objective == 12.0
    assert res.best_design.labels == (1,) * 12


def test_search_restricted_space_yields_cyclic_designs():
    cfg = GaConfig(q_types=2, length=12, isi=4.0, space="xi0",
                   max_evaluations=2000, seed=1)
    res = ga_search(count_ones, cfg)
    short = Design(labels=res.best_design.labels[:6], q_types=2, isi=4.0)
    assert res.best_design == cyclic_design(short, 2, 12)
    # the restricted optimum: ones in every short slot, relabeled to twos in
    # the second copy
    assert res.best_objective == 6.0


def test_search_zero_generations_scores_initial_population_only():
    # a budget of one population stops the search before its first generation
    cfg = GaConfig(q_types=1, length=12, isi=4.0, max_evaluations=20, seed=3)
    res = ga_search(count_ones, cfg)
    assert res.n_evaluations == cfg.population_size
    assert len(res.trace) == 1


def test_search_result_feasible_and_serializable():
    cfg = GaConfig(q_types=2, length=15, isi=4.0, max_evaluations=300, seed=5)
    res = ga_search(count_ones, cfg)
    assert len(res.best_design) == 15
    assert res.best_design.q_types == 2 and res.best_design.isi == 4.0
    assert all(0 <= x <= 2 for x in res.best_design.labels)
    blob = json.dumps(res.to_json_dict())
    assert json.loads(blob)["seed"] == 5


@pytest.mark.parametrize("space, q, length, n_genomes", [("xi", 1, 3, 8), ("xi0", 3, 6, 16)])
def test_search_space_must_hold_the_population(space, q, length, n_genomes):
    # the initial fill draws distinct genomes, so a space holding fewer than
    # population_size of them would loop for ever; one holding exactly that
    # many fills up
    base = dict(q_types=q, length=length, isi=4.0, space=space, crossover_pairs=2,
                max_evaluations=40)
    with pytest.raises(ConfigurationError, match=f"{n_genomes} genomes, fewer than "
                                                 f"population_size {n_genomes + 1}"):
        ga_search(count_ones, GaConfig(population_size=n_genomes + 1, **base))
    result = ga_search(count_ones, GaConfig(population_size=n_genomes, **base))
    assert result.n_evaluations == 40


def test_seed_designs_warm_start():
    cfg = GaConfig(q_types=1, length=12, isi=4.0, max_evaluations=20, seed=9)
    best = Design(labels=(1,) * 12, q_types=1, isi=4.0)
    res = ga_search(count_ones, cfg, seed_designs=(best,))
    assert res.trace[0] == 12.0
    assert res.best_design == best


def test_seed_designs_must_match_genome_length():
    cfg = GaConfig(q_types=2, length=12, isi=4.0, space="xi0", max_evaluations=100)
    wrong = random_design(2, 12, 4.0, seed=0)  # full-length, not the short form
    with pytest.raises(ConfigurationError):
        ga_search(count_ones, cfg, seed_designs=(wrong,))


def test_seed_designs_must_match_types():
    # decode_genome trusts genomes to lie in 0..Q, so a seed with more types
    # than the search must be refused up front
    cfg = GaConfig(q_types=1, length=12, isi=4.0, max_evaluations=100)
    wrong = random_design(3, 12, 4.0, seed=0)
    with pytest.raises(ConfigurationError, match=r"q=3, length 12"):
        ga_search(count_ones, cfg, seed_designs=(wrong,))


# -- objectives -------------------------------------------------------------------

def test_maximin_objective_is_grid_minimum():
    ev = tiny_eval()
    fit = maximin_objective(ev, TINY_GRID)
    d = random_design(1, 12, 4.0, seed=13)
    want = ev.phi_a_grid(d, TINY_GRID.thetas, TINY_GRID.ps).min()
    assert fit(d) == want


def test_mme_objective_is_grid_minimum_of_ratios():
    ev = tiny_eval()
    grid = TINY_GRID.with_zero()
    table = LocalOptTable(q_types=1, isi=4.0)
    ref = random_design(1, 12, 4.0, seed=14)
    for th, p in grid.points():
        table.put(th, p, max(ev.phi_a(ref, th, p), 1e-6), ref)
    fit = mme_objective(ev, grid, table)
    d = random_design(1, 12, 4.0, seed=15)
    direct = min(ev.phi_a(d, th, p) / table.value(th, p) for th, p in grid.points())
    assert fit(d) == pytest.approx(direct, rel=1e-12)
    assert fit(ref) == pytest.approx(1.0, rel=1e-9)


def test_mme_objective_rejects_incomplete_table():
    ev = tiny_eval()
    with pytest.raises(TableLookupError):
        mme_objective(ev, TINY_GRID, LocalOptTable(q_types=1, isi=4.0))


# -- table construction -------------------------------------------------------------

GA_TINY = GaConfig(q_types=1, length=12, isi=4.0, population_size=10,
                   crossover_pairs=4, max_evaluations=60, seed=2)


def test_build_table_covers_grid_and_entries_reevaluate():
    ev = tiny_eval()
    table = build_local_opt_table(TINY_GRID, ev, GA_TINY)
    assert table.covers(TINY_GRID)
    assert len(table) == TINY_GRID.n_points
    for entry in table.entries.values():
        assert ev.phi_a(entry.design, entry.theta, entry.p) == entry.phi_a


def test_build_table_is_deterministic():
    ev = tiny_eval()
    t1 = build_local_opt_table(TINY_GRID, ev, GA_TINY)
    t2 = build_local_opt_table(TINY_GRID, ev, GA_TINY)
    assert {k: e.phi_a for k, e in t1.entries.items()} == \
        {k: e.phi_a for k, e in t2.entries.items()}


def test_build_table_merges_keep_larger():
    ev = tiny_eval()
    first = build_local_opt_table(TINY_GRID, ev, GA_TINY)
    before = {k: e.phi_a for k, e in first.entries.items()}
    merged = build_local_opt_table(TINY_GRID, ev,
                                   GaConfig(q_types=1, length=12, isi=4.0,
                                            population_size=10, crossover_pairs=4,
                                            max_evaluations=120, seed=5),
                                   existing=first)
    assert merged is first
    for k, val in before.items():
        assert merged.entries[k].phi_a >= val


def test_build_table_progress_callback():
    ev = tiny_eval()
    calls = []
    build_local_opt_table(TINY_GRID, ev, GA_TINY,
                          progress=lambda done, total: calls.append((done, total)))
    assert calls == [(i + 1, TINY_GRID.n_points) for i in range(TINY_GRID.n_points)]


def test_build_table_raises_when_nothing_estimable():
    # an onset delay of 40 s puts the whole response past the 32 s window:
    # every sampled height and partial is zero, so every design scores zero
    # and no grid point has a positive optimum
    grid = ParamGrid(thetas=((1.0,),), ps=(HrfParams(6.0, 40.0),))
    with pytest.raises(NumericalError):
        build_local_opt_table(grid, tiny_eval(), GA_TINY)


# -- pinned trajectories ------------------------------------------------------------
# Recorded once and asserted exactly: a change to the RNG draw order, the
# seeding, the tie-breaking or the table builder's warm start moves these,
# while a run that merely repeats itself within one checkout would not.

def weighted_labels(d: Design) -> float:
    """Label sum under position weights in {-2..2}: cheap, exact, full of ties."""
    return float(sum(((7 * i) % 5 - 2) * x for i, x in enumerate(d.labels)))


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("cfg, objective, evaluations, generations, sha", [
    (GaConfig(q_types=1, length=255, isi=4.0, max_evaluations=400, seed=11),
     60.0, 400, 20, "3c6f755939370db0"),
    (GaConfig(q_types=2, length=242, isi=4.0, space="xi0", max_evaluations=200, seed=12),
     52.0, 200, 10, "4e19c8eed7905eb2"),
    (GaConfig(q_types=3, length=12, isi=4.0, max_evaluations=300, seed=13),
     18.0, 300, 15, "7e552d1573b1b122"),
    # one generation, cut to 5 of its 21 candidates by the budget
    (GaConfig(q_types=1, length=40, isi=4.0, max_evaluations=25, seed=14),
     9.0, 25, 2, "9484ef72fd4da88b"),
    # 4-slot genomes: 64 distinct in 150 evaluations, children repeat members
    (GaConfig(q_types=2, length=8, isi=4.0, space="xi0", max_evaluations=150, seed=15),
     7.0, 150, 8, "8b407d95cba6a062"),
])
def test_ga_trajectory_is_pinned(cfg, objective, evaluations, generations, sha):
    out = ga_search(weighted_labels, cfg).to_json_dict()
    assert (out["objective"], out["evaluations"], len(out["trace"])) == \
        (objective, evaluations, generations)
    assert digest(out) == sha


def test_every_evaluation_is_one_objective_call():
    # repeated genomes are scored again: callers that wrap the objective
    # count its calls as the evaluations
    calls = []
    cfg = GaConfig(q_types=2, length=8, isi=4.0, space="xi0", max_evaluations=150, seed=15)
    res = ga_search(lambda d: calls.append(d.labels) or weighted_labels(d), cfg)
    assert len(calls) == res.n_evaluations == 150
    assert len(set(calls)) == 64


class PointwiseStub:
    """Stands in for an Evaluator: a weighted label sum whose weights shift
    with the grid point, so every point has its own optimum."""

    def phi_a(self, d, theta, p):
        shift = int(round(2 * p.p1 + 4 * p.p6))
        w = [((7 * i + shift) % 5) - 2 for i in range(len(d))]
        return 100.0 + sum(a * x for a, x in zip(w, d.labels))


def test_restricted_space_table_decodes_its_genomes():
    # xi0 genomes are ceil(L/Q) slots; every point after the first is
    # warm-started from the previous point's genome, not its decoded design
    ga = GaConfig(q_types=2, length=12, isi=4.0, space="xi0", population_size=10,
                  crossover_pairs=4, max_evaluations=30, seed=4)
    grid = make_grid(2, "search", p_step=3.0, phi_step=1.5)
    table = build_local_opt_table(grid, PointwiseStub(), ga)
    assert len(list(grid.points())) >= 2
    for th, p in grid.points():
        d = table.entry(th, p).design
        assert len(d) == 12
        assert d == decode_genome(d.labels[:6], ga)


def test_build_table_is_pinned():
    table = build_local_opt_table(TINY_GRID, PointwiseStub(), GA_TINY)
    rows = [[list(th), [p.p1, p.p6], table.entry(th, p).phi_a,
             list(table.entry(th, p).design.labels)] for th, p in TINY_GRID.points()]
    assert [r[2] for r in rows] == [108.0, 107.0, 104.0, 104.0, 107.0, 107.0,
                                    107.0, 107.0, 106.0]
    assert digest(rows) == "edba067a7083432f"
