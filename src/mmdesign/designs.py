"""Stimulus sequences and their zero-one design matrices.

A design is a length-L sequence of labels in {0..Q}: label 0 is a rest slot,
labels 1..Q are the stimulus types, presented every ISI seconds.  The design
matrix is a tuple of per-type blocks: the block for type q marks, for each
scan, which sampled HRF height of each past type-q onset contributes to that
scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, GenerationError, InputParseError, SamplingError
from .hrf import default_hrf_length
from .util import is_finite_number


@dataclass(frozen=True)
class Design:
    """Immutable stimulus sequence with its stimulus-onset spacing."""

    labels: tuple[int, ...]
    q_types: int
    isi: float

    def __post_init__(self) -> None:
        labels = tuple(map(int, self.labels))
        object.__setattr__(self, "labels", labels)
        if self.q_types < 1:
            raise ConfigurationError(f"q_types must be >= 1 (got {self.q_types})")
        if len(labels) < 1:
            raise ConfigurationError("design must have at least one slot")
        if not (self.isi > 0 and math.isfinite(self.isi)):
            raise ConfigurationError(f"isi must be finite and positive (got {self.isi})")
        if min(labels) < 0 or max(labels) > self.q_types:
            bad = [x for x in labels if x < 0 or x > self.q_types]
            raise ConfigurationError(
                f"labels must lie in 0..{self.q_types}; offending value {bad[0]}")

    @classmethod
    def unchecked(cls, labels: tuple[int, ...], q_types: int, isi: float) -> "Design":
        """A Design of a tuple of ints known to lie in 0..q_types, not validated again."""
        d = object.__new__(cls)
        d.__dict__.update(labels=labels, q_types=q_types, isi=isi)
        return d

    def __len__(self) -> int:
        return len(self.labels)

    def to_text(self) -> str:
        return " ".join(str(x) for x in self.labels) + "\n"

    def to_json_dict(self) -> dict:
        return {"q": self.q_types, "isi": self.isi, "labels": list(self.labels)}


def design_from_text(text: str, q_types: int, isi: float) -> Design:
    """Parse the one-line space-separated label format."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if len(lines) != 1:
        raise InputParseError(
            f"expected exactly one nonempty line of labels, found {len(lines)}")
    lineno, content = lines[0]
    labels = []
    for tok in content.split():
        try:
            labels.append(int(tok))
        except ValueError as exc:
            raise InputParseError(f"line {lineno}: not an integer label: {tok!r}") from exc
    try:
        return Design(labels=tuple(labels), q_types=q_types, isi=isi)
    except ConfigurationError as exc:
        raise InputParseError(f"line {lineno}: {exc}") from exc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def design_from_json_dict(obj: dict) -> Design:
    """Design from its JSON object; no field is coerced to its type."""
    try:
        labels, q, isi = obj["labels"], obj["q"], obj["isi"]
    except (KeyError, TypeError) as exc:
        raise InputParseError(f"bad design JSON: {exc!r}") from exc
    if not (isinstance(labels, list) and all(map(_is_int, labels))):
        raise InputParseError("bad design JSON: 'labels' must be a list of integers")
    if not _is_int(q):
        raise InputParseError(f"bad design JSON: 'q' must be an integer (got {q!r})")
    if not is_finite_number(isi):
        raise InputParseError(f"bad design JSON: 'isi' must be a finite number (got {isi!r})")
    try:
        return Design(labels=tuple(labels), q_types=q, isi=float(isi))
    except ConfigurationError as exc:
        raise InputParseError(f"bad design JSON: {exc}") from exc


def load_design(path, q_types: int | None = None, isi: float | None = None) -> Design:
    """Read a design file; JSON (self-describing) or plain text (needs q/isi)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputParseError(f"{path}: invalid JSON: {exc}") from exc
        return design_from_json_dict(obj)
    if q_types is None or isi is None:
        raise ConfigurationError(
            f"{path}: plain-text designs need q_types and isi from the configuration")
    try:
        return design_from_text(text, q_types=q_types, isi=isi)
    except InputParseError as exc:
        raise InputParseError(f"{path}: {exc}") from exc


def save_design(d: Design, path, fmt: str = "text") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "text":
            fh.write(d.to_text())
        elif fmt == "json":
            json.dump(d.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            raise ConfigurationError(f"unknown design format {fmt!r}")


# ---------------------------------------------------------------------------
# timing grid
# ---------------------------------------------------------------------------

def delta_t(isi: float, tr: float) -> float:
    """Greatest common divisor of the onset spacing and the scan interval.

    Both must be (near-)rational with a nonzero common measure; tolerance 1e-9.
    """
    if not (isi > 0 and tr > 0 and math.isfinite(isi) and math.isfinite(tr)):
        raise ConfigurationError(f"isi and tr must be finite and positive (got {isi}, {tr})")
    fi = Fraction(isi).limit_denominator(10 ** 6)
    ft = Fraction(tr).limit_denominator(10 ** 6)
    if fi == 0 or ft == 0 or abs(float(fi) - isi) > 1e-9 or abs(float(ft) - tr) > 1e-9:
        raise ConfigurationError(f"isi/tr have no rational common measure: {isi}, {tr}")
    num = math.gcd(fi.numerator * ft.denominator, ft.numerator * fi.denominator)
    den = fi.denominator * ft.denominator
    delta = num / den
    for name, val in (("isi", isi), ("tr", tr)):
        ratio = val / delta
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigurationError(f"{name}={val} is not a multiple of delta={delta}")
    return delta


@lru_cache(maxsize=64)
def _scan_index(n_labels: int, isi: float, tr: float) -> tuple[int, int, int, int]:
    """Slots per onset spacing, slots per scan, the number of scans T and
    the number of heights K, on the height grid of step delta_t(isi, tr)."""
    delta = delta_t(isi, tr)
    risi = int(round(isi / delta))
    rtr = int(round(tr / delta))
    n_slots = n_labels * risi
    if n_slots % rtr != 0:
        raise ConfigurationError(
            f"L*isi must be a whole number of scans (L={n_labels}, isi={isi}, tr={tr})")
    return risi, rtr, n_slots // rtr, default_hrf_length(delta)


def design_matrix(d: Design, tr: float) -> tuple[np.ndarray, ...]:
    """The scan-by-height matrices X_{d,q}, one (T, K) block per stimulus
    type 1..Q, with K = default_hrf_length(delta).

    Entry [t, k] is one when some type-q onset occurred exactly k height-grid
    steps before scan time t*TR.  Contributions past the end of the experiment
    are discarded with the final scans.
    """
    risi, rtr, n_scans, k = _scan_index(len(d), d.isi, tr)
    # one row per label 0..Q of onsets after K - 1 zero slots: entry [t, k] of
    # X_q is slot K - 1 + t*rtr - k of row q, a window read backwards
    u = np.zeros((d.q_types + 1, k - 1 + len(d) * risi))
    u[np.fromiter(d.labels, np.intp, len(d)), np.arange(k - 1, u.shape[1], risi)] = 1.0
    s0, s1 = u.strides
    x = np.ndarray((d.q_types, n_scans, k), buffer=u, offset=s0 + (k - 1) * s1,
                   strides=(s0, rtr * s1, -s1))
    return tuple(x.copy())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def block_design(q_types: int, size: int, length: int, isi: float) -> Design:
    """Repeating pattern of `size` rests then `size` of each type, truncated."""
    if size < 1:
        raise ConfigurationError(f"block size must be >= 1 (got {size})")
    period = []
    for q in range(0, q_types + 1):
        period.extend([q] * size)
    labels = [period[i % len(period)] for i in range(length)]
    return Design(labels=tuple(labels), q_types=q_types, isi=isi)


def random_design(q_types: int, length: int, isi: float, seed: int) -> Design:
    """Labels iid uniform over {0..Q}; reproducible from the seed."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, q_types + 1, size=length)
    return Design(labels=tuple(int(x) for x in labels), q_types=q_types, isi=isi)


def constrained_random(length: int, zero_fraction: float, gap_window: tuple,
                       isi: float, seed: int, max_tries: int = 10_000) -> Design:
    """Random permutation of a fixed 0/1 composition whose mean inter-onset
    time falls in `gap_window` (seconds; a None bound is isi / (1 -
    zero_fraction) less or more 2%); rejection sampling."""
    share = length * zero_fraction
    if not (math.isfinite(share) and 0 <= round(share) <= length):
        raise ConfigurationError(f"zero_fraction {zero_fraction} out of range")
    n_zero = int(round(share))
    if length - n_zero < 2:
        raise ConfigurationError(f"zero_fraction {zero_fraction} leaves fewer than 2 onsets")
    expected = isi / (1.0 - zero_fraction)
    lo = expected * 0.98 if gap_window[0] is None else gap_window[0]
    hi = expected * 1.02 if gap_window[1] is None else gap_window[1]
    if not lo <= hi:  # also a NaN bound
        raise ConfigurationError(f"gap window [{lo}, {hi}] s is empty")
    base = np.array([0] * n_zero + [1] * (length - n_zero))
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        perm = rng.permutation(base)
        onsets = np.nonzero(perm == 1)[0]
        mean_gap = float(np.mean(np.diff(onsets))) * isi
        if lo <= mean_gap <= hi:
            return Design(labels=tuple(int(x) for x in perm), q_types=1, isi=isi)
    raise SamplingError(
        f"no permutation with mean gap in [{lo}, {hi}] s after {max_tries} tries")


# --- m-sequences over GF(q), q prime or 4 ---------------------------------

_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13}

# Verified-primitive defaults, keyed (field_order, degree); coefficient tuple
# (a_0..a_{r-1}) of the monic polynomial x^r + a_{r-1} x^{r-1} + ... + a_0.
DEFAULT_PRIMITIVE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1), (2, 3): (1, 1, 0), (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0), (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0), (2, 8): (1, 0, 1, 1, 1, 0, 0, 0),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0), (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (3, 2): (2, 1), (3, 3): (1, 2, 0), (3, 4): (2, 1, 0, 0), (3, 5): (1, 2, 0, 0, 0),
    (4, 2): (2, 1), (4, 3): (2, 1, 1), (4, 4): (2, 0, 1, 1),
    (5, 2): (2, 1), (5, 3): (2, 3, 0),
}


def _field_ops(q: int):
    """(add, mul, neg) callables for GF(q); q prime or 4."""
    if q == 4:
        return (lambda a, b: a ^ b,
                lambda a, b: _GF4_MUL[a][b],
                lambda a: a)
    if q not in _SMALL_PRIMES:
        raise ConfigurationError(f"field order {q} unsupported (need a small prime or 4)")
    return (lambda a, b: (a + b) % q,
            lambda a, b: (a * b) % q,
            lambda a: (-a) % q)


def m_sequence(field_order: int, degree: int,
               primitive_poly: tuple[int, ...] | None = None) -> list[int]:
    """Full-period LFSR output over GF(q) from state (1, 0, ..., 0); length q^degree - 1.

    The polynomial is verified primitive by running the register a full period
    and checking the state first returns to the start exactly then; failure is
    a generation error.
    """
    if degree < 1:
        raise ConfigurationError(f"degree must be >= 1 (got {degree})")
    add, mul, neg = _field_ops(field_order)
    if primitive_poly is None:
        primitive_poly = default_primitive_poly(field_order, degree)
    coeffs = tuple(int(c) for c in primitive_poly)
    if len(coeffs) != degree:
        raise ConfigurationError(
            f"need {degree} coefficients a_0..a_{degree - 1}, got {len(coeffs)}")
    if any(c < 0 or c >= field_order for c in coeffs):
        raise ConfigurationError(f"coefficients must lie in 0..{field_order - 1}")
    state = (1,) + (0,) * (degree - 1)
    period = field_order ** degree - 1
    out: list[int] = []
    cur = state
    for step in range(period):
        out.append(cur[0])
        fb = 0
        for i in range(degree):
            fb = add(fb, mul(coeffs[i], cur[i]))
        cur = cur[1:] + (neg(fb),)
        if cur == state and step != period - 1:
            raise GenerationError(
                f"polynomial {coeffs} over GF({field_order}) is not primitive "
                f"(period {step + 1} < {period})")
    if cur != state:
        raise GenerationError(
            f"polynomial {coeffs} over GF({field_order}) is not primitive "
            f"(state did not recur after {period} steps)")
    return out


def default_primitive_poly(field_order: int, degree: int) -> tuple[int, ...]:
    """The verified default for (field_order, degree), else the first found."""
    poly = DEFAULT_PRIMITIVE_POLYS.get((field_order, degree))
    return poly if poly is not None else find_primitive_poly(field_order, degree)


def find_primitive_poly(field_order: int, degree: int) -> tuple[int, ...]:
    """First coefficient tuple (lexicographic) passing the full-period check."""
    _field_ops(field_order)  # validate the order early
    period = field_order ** degree - 1
    if period > 2 ** 20:
        raise ConfigurationError(
            f"primitive-poly search too large for GF({field_order})^{degree}")

    def candidates():
        total = field_order ** degree
        for code in range(total):
            c, rest = [], code
            for _ in range(degree):
                c.append(rest % field_order)
                rest //= field_order
            if c[0] != 0:  # a_0 = 0 is divisible by x, never primitive
                yield tuple(c)

    for coeffs in candidates():
        try:
            m_sequence(field_order, degree, primitive_poly=coeffs)
            return coeffs
        except GenerationError:
            continue
    raise GenerationError(f"no primitive polynomial found for GF({field_order})^{degree}")


def extend_m_sequence(seq: list[int], target_len: int, isi: float,
                      q_types: int | None = None) -> Design:
    """Wrap a label sequence cyclically out to `target_len` slots."""
    if target_len < 1:
        raise ConfigurationError(f"target_len must be >= 1 (got {target_len})")
    if not seq:
        raise ConfigurationError("empty sequence")
    if q_types is None:
        q_types = max(seq)
    labels = tuple(int(seq[i % len(seq)]) for i in range(target_len))
    return Design(labels=labels, q_types=q_types, isi=isi)


def m_sequence_params(q_types: int, length: int,
                      degree: int | None = None) -> tuple[int, int, tuple[int, ...]]:
    """(field order, degree, primitive polynomial) of the m-sequence design of
    `length` slots over {0..Q}.

    The field is GF(Q+1); the default degree is the smallest with period >=
    length (wrapping handles shortfalls when no degree fits exactly).
    """
    field = q_types + 1
    if degree is None:
        degree = 2
        while field ** degree - 1 < length and degree < 20:
            degree += 1
    if degree < 1:
        raise ConfigurationError(f"m-sequence degree must be >= 1 (got {degree})")
    return field, degree, default_primitive_poly(field, degree)


def m_sequence_design(q_types: int, length: int, isi: float,
                      degree: int | None = None) -> Design:
    """m-sequence-based design of exactly `length` slots over {0..Q}; see
    m_sequence_params."""
    field, degree, poly = m_sequence_params(q_types, length, degree)
    seq = m_sequence(field, degree, primitive_poly=poly)
    return extend_m_sequence(seq, length, isi=isi, q_types=q_types)


# ---------------------------------------------------------------------------
# relabelings and the restricted (cyclically concatenated) class
# ---------------------------------------------------------------------------

def relabel(d: Design, perm) -> Design:
    """Apply a bijection of {1..Q} to the nonzero labels (0 stays fixed).

    `perm` is a dict {q: sigma(q)} or a length-Q sequence with sigma(q) at
    index q-1.
    """
    if isinstance(perm, dict):
        mapping = {int(k): int(v) for k, v in perm.items()}
    else:
        mapping = {i + 1: int(v) for i, v in enumerate(perm)}
    if sorted(mapping.keys()) != list(range(1, d.q_types + 1)) or \
            sorted(mapping.values()) != list(range(1, d.q_types + 1)):
        raise ConfigurationError(f"perm must be a bijection of 1..{d.q_types}: {perm}")
    labels = tuple(0 if x == 0 else mapping[x] for x in d.labels)
    return Design(labels=labels, q_types=d.q_types, isi=d.isi)


def cycle_labels_once(labels: tuple[int, ...], q_types: int) -> tuple[int, ...]:
    """One step of the cyclic relabeling q -> q+1, Q -> 1, 0 fixed."""
    return tuple(0 if x == 0 else (x % q_types) + 1 for x in labels)


def cyclic_design(short: Design, q_types: int, length: int) -> Design:
    """Concatenate Q successively relabeled copies of a short design.

    The short design must have ceil(length / Q) slots; the concatenation is
    truncated to `length`.
    """
    if short.q_types != q_types:
        raise ConfigurationError(
            f"short design has q_types={short.q_types}, expected {q_types}")
    expect = -(-length // q_types)  # ceil
    if len(short) != expect:
        raise ConfigurationError(
            f"short design must have ceil({length}/{q_types}) = {expect} slots, "
            f"got {len(short)}")
    labels: list[int] = []
    cur = short.labels
    for _ in range(q_types):
        labels.extend(cur)
        cur = cycle_labels_once(cur, q_types)
    # relabeling a valid design keeps every label in 0..Q
    return Design.unchecked(tuple(labels[:length]), q_types, short.isi)
