"""Knowledge-based genetic search over stimulus sequences.

Each generation: parents are paired by fitness rank and recombined at a single
random cut point, children are mutated positionwise, and a few immigrants
(block designs, rotations of an m-sequence, uniform random sequences) keep the
population from collapsing.  Survivors are the best of parents, children, and
immigrants.  Everything is driven by one seeded generator, so runs are exactly
reproducible.

The search space is either all label sequences of the given length, or the
restricted class built by cyclically relabeling a short sequence and
concatenating Q copies (genomes are then the short sequence).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .criteria import LocalOptTable, ParamGrid
from .designs import Design, block_design, cyclic_design, m_sequence_design
from .errors import ConfigurationError, NumericalError
from .glsmodel import Evaluator, phi_from_info

SPACE_FULL = "xi"
SPACE_RESTRICTED = "xi0"


@dataclass(frozen=True)
class GaConfig:
    """Search-space description plus genetic-algorithm settings."""

    q_types: int
    length: int
    isi: float
    space: str = SPACE_FULL
    population_size: int = 20
    max_evaluations: int = 10_000
    crossover_pairs: int = 9
    mutation_rate: float = 0.01
    immigrant_count: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.space not in (SPACE_FULL, SPACE_RESTRICTED):
            raise ConfigurationError(f"space must be 'xi' or 'xi0' (got {self.space!r})")
        if self.q_types < 1 or self.length < 1:
            raise ConfigurationError("q_types and length must be >= 1")
        if self.isi <= 0:
            raise ConfigurationError(f"isi must be positive (got {self.isi})")
        if self.population_size < 2:
            raise ConfigurationError(
                f"population_size must be >= 2 (got {self.population_size})")
        if 2 * self.crossover_pairs > self.population_size:
            raise ConfigurationError("crossover needs 2*crossover_pairs <= population_size")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError(
                f"mutation_rate must lie in [0, 1] (got {self.mutation_rate})")
        if self.immigrant_count < 0:
            raise ConfigurationError("immigrant_count must be >= 0")
        if self.max_evaluations < self.population_size:
            raise ConfigurationError(
                "max_evaluations must cover at least the initial population")

    @property
    def genome_length(self) -> int:
        if self.space == SPACE_RESTRICTED:
            return -(-self.length // self.q_types)  # ceil(L / Q)
        return self.length


@dataclass(frozen=True)
class SearchResult:
    best_design: Design
    best_genome: tuple[int, ...]  # best_design's genome: its short sequence for xi0
    best_objective: float
    trace: tuple[float, ...]  # best objective after each generation
    n_evaluations: int
    config: GaConfig

    def to_json_dict(self) -> dict:
        return {
            "design": " ".join(str(x) for x in self.best_design.labels),
            "objective": self.best_objective,
            "trace": list(self.trace),
            "evaluations": self.n_evaluations,
            "seed": self.config.seed,
            "space": self.config.space,
        }


def decode_genome(genome: tuple[int, ...], config: GaConfig) -> Design:
    """Genome to design: identity for the full space, cyclic concatenation of
    the short sequence for the restricted space.  Genomes are tuples of ints
    in 0..Q by construction, so the design is not validated again."""
    d = Design.unchecked(genome, config.q_types, config.isi)
    if config.space == SPACE_RESTRICTED:
        return cyclic_design(d, config.q_types, config.length)
    return d


@lru_cache(maxsize=64)
def _base_m_sequence(q_types: int, genome_length: int, isi: float) -> tuple[int, ...] | None:
    try:
        d = m_sequence_design(q_types, genome_length, isi)
    except ConfigurationError:
        return None
    return d.labels


@lru_cache(maxsize=64)
def _block_genome(q_types: int, size: int, length: int) -> tuple[int, ...]:
    return block_design(q_types, size, length, 1.0).labels  # the isi is not in the labels


def ga_search(objective, config: GaConfig,
              seed_designs: tuple[Design, ...] = ()) -> SearchResult:
    """Maximize `objective` (a pure function of a Design) under the budget.

    `seed_designs` are injected into the initial population (used to warm-start
    from a neighboring grid point's winner when building tables); they must
    live in the configured search space.  A nonzero mutation rate is floored
    at one expected flip per child.

    The objective is called once per evaluation.  After each generation the
    population is the best `population_size` distinct genomes of everything
    evaluated so far, so a design below that many distinct evaluated designs
    never enters it, whatever value below them it is given; the search's
    result then does not depend on that value (`ScreenedWorstCase` relies on
    this).
    """
    rng = np.random.default_rng(config.seed)
    glen = config.genome_length
    q = config.q_types
    if (q + 1) ** glen < config.population_size:  # the distinct-genome fill would never end
        raise ConfigurationError(f"the {config.space} space holds {(q + 1) ** glen} genomes, "
                                 f"fewer than population_size {config.population_size}")
    # floor the per-position rate at 1/length so every child carries one
    # expected flip; short genomes would otherwise clone their parents and
    # burn the budget on duplicates (rate 0 still disables mutation)
    mut_rate = config.mutation_rate
    if mut_rate > 0.0:
        mut_rate = max(mut_rate, 1.0 / glen)

    def random_genome() -> tuple[int, ...]:
        return tuple(rng.integers(0, q + 1, size=glen).tolist())

    genomes: list[tuple[int, ...]] = []
    for d in seed_designs:
        g = tuple(d.labels)
        if len(g) != glen or d.q_types != q:
            raise ConfigurationError(f"seed design (q={d.q_types}, length {len(g)}) does "
                                     f"not match the genomes (q={q}, length {glen})")
        genomes.append(g)
    # knowledge-based seeds: the m-sequence (also the immigrants' base) and a block design
    mseq_base = _base_m_sequence(q, glen, config.isi)
    if mseq_base is not None:
        genomes.append(mseq_base)
    genomes.append(_block_genome(q, 4, glen))
    seen = set()
    unique = []
    for g in genomes:
        if g not in seen:
            seen.add(g)
            unique.append(g)
    while len(unique) < config.population_size:
        g = random_genome()
        if g not in seen:
            seen.add(g)
            unique.append(g)
    genomes = unique[:config.population_size]

    n_evals = 0
    budget = config.max_evaluations

    def evaluate(batch: list[tuple[int, ...]]) -> list[tuple[float, tuple[int, ...]]]:
        nonlocal n_evals
        n_evals += len(batch)
        return [(float(objective(decode_genome(g, config))), g) for g in batch]

    population = evaluate(genomes)
    population.sort(key=lambda it: (-it[0], it[1]))
    trace = [population[0][0]]

    while n_evals < budget:
        candidates: list[tuple[int, ...]] = []
        for c in range(config.crossover_pairs):
            ga = population[2 * c][1]
            gb = population[2 * c + 1][1]
            cut = int(rng.integers(1, glen)) if glen > 1 else 0
            candidates.append(ga[:cut] + gb[cut:])
            candidates.append(gb[:cut] + ga[cut:])
        # only the candidates the budget scores are built: the generator is
        # not read after the last generation, so the trimming is exact
        room = budget - n_evals
        candidates = candidates[:room]
        # positionwise mutation of every child, uniform resample over {0..Q}
        for j, g in enumerate(candidates):
            flips = np.flatnonzero(rng.random(glen) < mut_rate).tolist()
            vals = rng.integers(0, q + 1, size=glen)
            child = list(g)
            for i, v in zip(flips, vals[flips].tolist()):
                child[i] = v
            candidates[j] = tuple(child)
        for i in range(min(config.immigrant_count, room - len(candidates))):
            kind = i % 3
            if kind == 0:
                size = int(rng.integers(1, 9))
                candidates.append(_block_genome(q, size, glen))
            elif kind == 1 and mseq_base is not None:
                shift = int(rng.integers(0, glen))
                candidates.append(mseq_base[shift:] + mseq_base[:shift])
            else:
                candidates.append(random_genome())
        if not candidates:
            break
        population.extend(evaluate(candidates))
        population.sort(key=lambda it: (-it[0], it[1]))
        # keep distinct genomes ahead of duplicates when truncating, so
        # immigrants are not crowded out once the population collapses onto
        # a few sequences (short genomes mutate rarely and duplicate fast)
        kept_genomes = set()
        uniques, duplicates = [], []
        for item in population:
            if item[1] in kept_genomes:
                duplicates.append(item)
            else:
                kept_genomes.add(item[1])
                uniques.append(item)
        population = (uniques + duplicates)[:config.population_size]
        trace.append(population[0][0])

    best_val, best_genome = population[0]
    return SearchResult(
        best_design=decode_genome(best_genome, config),
        best_genome=best_genome,
        best_objective=best_val,
        trace=tuple(trace),
        n_evaluations=n_evals,
        config=config,
    )


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

# A design whose value at one point, through the one-point Schur complement,
# lies this far below the floor is below it on the grid too: the two routes
# round differently and may take different L'L branches near the rank-one
# cutoff, which costs about sqrt(eps) of relative accuracy there
SCREEN_MARGIN = 64 * math.sqrt(np.finfo(float).eps)


class WorstCase:
    """A design's smallest value over the grid, divided pointwise by `denom`
    when given; the grid's fixed tuples are the evaluator's kept grid.

    Calling it scores the whole grid.  `per_search(population_size)` is the
    objective of one `ga_search` run with that population size (see
    `ScreenedWorstCase`)."""

    def __init__(self, ev: Evaluator, grid: ParamGrid, denom: np.ndarray | None = None):
        self.ev, self.thetas, self.ps, self.denom = ev, grid.thetas, grid.ps, denom

    def __call__(self, d: Design) -> float:
        values = self.ev.phi_a_grid(d, self.thetas, self.ps)
        return float((values if self.denom is None else values / self.denom).min())

    def per_search(self, population_size: int) -> "ScreenedWorstCase":
        return ScreenedWorstCase(self, population_size)


class ScreenedWorstCase:
    """`WorstCase` for one `ga_search` run: exact for every design that can
    enter the population, and no more than that.

    It remembers the best `size` distinct designs it has scored in full, each
    with its value and the grid point of its minimum; the floor is the worst
    of them once there are `size`.  A remembered design gets its stored
    value.  Any other design's Gram matrix Y is scored first at the
    remembered minima's points, through the one-point Schur complement; a
    value there below floor * (1 - SCREEN_MARGIN) is returned as it is,
    since the design is then below `size` distinct members and `ga_search`
    drops it.  Otherwise the grid stage scores Y in full.  `memo_hits`,
    `screened` and `scored` count the three outcomes."""

    def __init__(self, objective: WorstCase, size: int):
        self.ev, self.thetas, self.ps, self.denom = (objective.ev, objective.thetas,
                                                     objective.ps, objective.denom)
        self.size = size
        self.memo: dict[tuple[int, ...], tuple[float, int]] = {}  # labels -> (value, argmin)
        self.heap: list[tuple[float, tuple[int, ...]]] = []  # the memo's (value, labels)
        self.floor = 0.0  # screens only once positive
        self.active: tuple[int, ...] = ()  # the memo's argmin points, flat grid indices
        self.weights: dict[int, np.ndarray] = {}  # flat grid index -> B
        self.memo_hits = self.screened = self.scored = 0

    def __call__(self, d: Design) -> float:
        kept = self.memo.get(d.labels)
        if kept is not None:
            self.memo_hits += 1
            return kept[0]
        y = self.ev.gram(d)
        if self.floor > 0.0:
            cut = self.floor * (1.0 - SCREEN_MARGIN)
            for i in self.active:
                value = self.point_value(y, i)
                if value < cut:
                    self.screened += 1
                    return value
        [(values, _)] = self.ev._phi_from_gram(y, self.thetas, self.ps)
        if self.denom is not None:
            values = values / self.denom
        i = int(values.argmin())
        value = float(values.flat[i])
        self.scored += 1
        self._remember(d.labels, value, i)
        return value

    def point_value(self, y: np.ndarray, i: int) -> float:
        """The value at flat grid index i from a design's Gram matrix y."""
        b = self.weights.get(i)
        if b is None:
            n_p = len(self.ps)
            b = self.ev._point_weights(self.thetas[i // n_p], self.ps[i % n_p])
            b = self.weights[i] = b.reshape(len(y), -1)
        value = phi_from_info(self.ev._runs_info(b.T @ y @ b))
        return value if self.denom is None else value / self.denom.flat[i]

    def _remember(self, labels: tuple[int, ...], value: float, i: int) -> None:
        if len(self.memo) == self.size:
            if not value > self.floor:
                return
            del self.memo[heapq.heapreplace(self.heap, (value, labels))[1]]
        else:
            heapq.heappush(self.heap, (value, labels))
        self.memo[labels] = (value, i)
        if len(self.memo) == self.size:
            self.floor = self.heap[0][0]
            self.active = tuple(dict.fromkeys(j for _, j in self.memo.values()))


def maximin_objective(ev: Evaluator, grid: ParamGrid) -> WorstCase:
    """Worst-case A-criterion value over the grid, as a fitness function."""
    return WorstCase(ev, grid)


def mme_objective(ev: Evaluator, grid: ParamGrid, table: LocalOptTable) -> WorstCase:
    """Worst-case relative efficiency over the grid (which should include the
    zero direction), as a fitness function."""
    return WorstCase(ev, grid, table.denominators(grid))


# ---------------------------------------------------------------------------
# local-optimum table construction
# ---------------------------------------------------------------------------

def build_local_opt_table(grid: ParamGrid, ev: Evaluator, ga: GaConfig,
                          existing: LocalOptTable | None = None,
                          progress=None) -> LocalOptTable:
    """One genetic search per grid point, warm-started from the previous
    point's winner; keep-the-larger merge into `existing` when given.

    Per-point seeds are spawned deterministically from ga.seed, so the table
    is reproducible regardless of how the per-point budget is configured.
    """
    table = existing if existing is not None else LocalOptTable(
        q_types=ga.q_types, isi=ga.isi)
    points = list(grid.points())
    children = np.random.SeedSequence(ga.seed).spawn(len(points))
    prev: Design | None = None  # the previous point's best genome, as a Design
    for idx, (theta, p) in enumerate(points):
        point_seed = int(children[idx].generate_state(1, dtype=np.uint64)[0] % (2 ** 63))
        cfg = replace(ga, seed=point_seed)
        seeds = (prev,) if prev is not None else ()
        result = ga_search(partial(ev.phi_a, theta=theta, p=p), cfg, seed_designs=seeds)
        if result.best_objective <= 0.0:
            raise NumericalError(
                f"no estimable design found at theta={theta}, p=({p.p1}, {p.p6})")
        table.put(theta, p, result.best_objective, result.best_design)
        prev = Design.unchecked(result.best_genome, ga.q_types, ga.isi)
        if progress is not None:
            progress(idx + 1, len(points))
    return table
