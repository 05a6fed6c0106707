"""Nonincreasing Markov chains with an absorbing floor, and the law of the
number of zero decrements before absorption.

A chain starts at n, moves from state i > floor to j in {floor, ..., i}
with probabilities s_{i,j} (s_{i,i-1} > 0 guarantees absorption), and sits
at the floor forever.  The zero-decrement count (steps that stay put above
the floor) is the chain-side picture of the sieve's empty-box count: the
sieve chain with floor 0 and rows s_{i,j} = C(i,j) E W^j (1-W)^{i-j}
reproduces that count's law exactly.

Three routes to the law are implemented and cross-checked: an exact DP over
(state, count), direct chain simulation, and the embedded-chain
representation (strictly decreasing positions plus independent geometric
stay counts, success probability 1 - s_{j,j}).  Both samplers run their
replicates in lockstep; a single draw is a ``size=1`` call.  A ``ChainSpec``
holds its rows end to end in one array, and beside it, built once, each
row's cumulative sums, which both samplers and every chunk read: each round
moves every live replicate by one vectorised bisection over its own row of
them.  Both draw over the live replicates in index order: the direct
sampler one array of uniforms per round, the embedded one an array of
geometric stay counts and then an array of uniforms.  When every row has
s_{j,floor} = s_{j,j}, the law is geometric with success 1/2 for every n, an
exactness anchor the DP is tested against at 1e-10.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Pmf",
    "ChainSpec",
    "exact_zero_decrement_pmf",
    "exact_zero_decrement_pmfs",
    "sample_zero_decrements",
    "sample_geometric_rep",
    "sieve_chain_spec",
    "barrier_chain_spec",
    "mixed_poisson_diagnostic",
    "mixed_poisson_counts_diagnostic",
    "MixedPoissonReport",
    "empirical_pmf",
    "counts_pmf",
    "geometric_pmf",
    "chain_to_json",
    "chain_from_json",
]

_ROW_SUM_TOL = 1e-12
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class Pmf:
    """Finite distribution over {0, 1, ..., len(masses)-1} with explicit
    bookkeeping of the mass beyond the stored support."""

    masses: np.ndarray
    tail_deficit: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if np.any(self.masses < 0.0) or self.tail_deficit < -1e-15:
            raise ValueError("pmf masses and tail deficit must be nonnegative")
        total = float(self.masses.sum()) + self.tail_deficit
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pmf mass + deficit = {total}, expected 1 within 1e-9")


def empirical_pmf(samples, width: int = 0) -> Pmf:
    """Empirical pmf of nonnegative integer samples (zero tail deficit)."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0 or np.any(samples < 0):
        raise ValueError("need a nonempty sample of nonnegative integers")
    return counts_pmf([np.bincount(samples)], width)


def _pooled_counts(parts, width: int = 0) -> np.ndarray:
    """The value counts, on at least ``width`` values, of the union of
    samples given by their value counts (``np.bincount`` of each)."""
    width = max(width, *(c.size for c in parts))
    return sum(np.pad(c, (0, width - c.size)) for c in parts)


def counts_pmf(parts, width: int = 0) -> Pmf:
    """Empirical pmf, on at least ``width`` masses, of the union of samples
    given by their value counts (``np.bincount`` of each)."""
    counts = _pooled_counts(parts, width)
    return Pmf(masses=counts / counts.sum())


def geometric_pmf(success: float, width: int) -> Pmf:
    """Geometric law starting at zero, truncated at ``width`` masses."""
    if not 0.0 < success <= 1.0:
        raise ValueError(f"success probability must lie in (0,1], got {success}")
    m = np.arange(width)
    masses = success * (1.0 - success) ** m
    return Pmf(masses=masses, tail_deficit=float((1.0 - success) ** width))


class ChainSpec:
    """Transition rows of a nonincreasing chain with absorbing floor.

    ``probs`` holds the rows (s_{i,floor}, ..., s_{i,i}) of the states
    floor+1, ..., n_max laid end to end, so n_max follows from its length;
    ``row(i)`` is a view into it.  ``floor`` must be a nonnegative integer
    (a Python or numpy int, not a bool).  Rows must hold finite entries,
    sum to 1 within 1e-12 and carry s_{i,i-1} > 0 so absorption is
    certain; s_{i,i} must stay below 1 after rounding, as the embedded
    chain divides by 1 - s_{i,i}; n_max must fit the samplers' int64
    states.  The constructor also builds what the samplers read, each
    indexed by state - floor - 1: ``start``, each row's offset into
    ``probs``; ``stay``, each s_{i,i}; and ``cum``, laid out as ``probs``,
    each row's ``np.cumsum``.
    """

    def __init__(self, floor: int, probs):
        if isinstance(floor, bool) or not isinstance(floor, (int, np.integer)):
            raise ValueError(f"floor must be an integer, got {floor!r}")
        if floor < 0:
            raise ValueError(f"floor must be nonnegative, got {floor}")
        self.floor = int(floor)
        self.probs = probs = np.asarray(probs, dtype=float)
        m = (math.isqrt(9 + 8 * probs.size) - 3) // 2  # rows of 2, 3, ..., m + 1 entries
        if probs.ndim != 1 or (m + 1) * (m + 2) // 2 - 1 != probs.size:
            raise ValueError(f"{probs.size} probabilities fill no whole number of rows")
        self.n_max = self.floor + m
        if self.n_max > _INT64_MAX:
            raise ValueError(f"n_max {self.n_max} exceeds 2^63 - 1, the samplers' int64 states")
        lengths = np.arange(2, m + 2)
        ends = np.cumsum(lengths)
        self.start, self.stay = ends - lengths, probs[ends - 1]
        self.cum = np.empty_like(probs)
        for a, b in zip(self.start.tolist(), ends.tolist()):
            np.cumsum(probs[a:b], out=self.cum[a:b])
        lo, hi, total = (f.reduceat(probs, self.start) for f in (np.minimum, np.maximum, np.add))
        # each row's first failed check, in this order
        checks = [
            (~(np.isfinite(lo) & np.isfinite(hi)), "row for state {i} has non-finite entries"),
            (lo < 0.0, "row for state {i} has negative entries"),
            (np.abs(total - 1.0) > _ROW_SUM_TOL, "row for state {i} sums to {total}, not 1"),
            (~(probs[ends - 2] > 0.0), "state {i} has s_(i,i-1) = 0; absorption is not certain"),
            (~(self.stay < 1.0), "state {i} has s_(i,i) = {stay}; the chain never leaves it"),
        ]
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            k = int(np.argmax(bad))
            msg = next(msg for mask, msg in checks if mask[k])
            raise ValueError(msg.format(i=self.floor + 1 + k, total=total[k], stay=self.stay[k]))

    def row(self, i: int) -> np.ndarray:
        if not self.floor < i <= self.n_max:
            raise ValueError(f"no transition row for state {i}")
        a = int(self.start[i - self.floor - 1])
        return self.probs[a:a + i - self.floor + 1]

    def _require_range(self, n: int):
        if not self.floor <= n <= self.n_max:
            raise ValueError(f"start state {n} outside the states {self.floor}..{self.n_max}")


_DP_COUNT_LIMIT = 10_000
DEFICIT_CAP = 1e-12  # the DP's largest tail deficit


def exact_zero_decrement_pmf(spec: ChainSpec, n: int) -> Pmf:
    """Exact law of the zero-decrement count from start state n: the
    one-start call of ``exact_zero_decrement_pmfs``."""
    return exact_zero_decrement_pmfs(spec, [n])[0]


def exact_zero_decrement_pmfs(spec: ChainSpec, starts) -> list[Pmf]:
    """Exact laws of the zero-decrement count from each start state, in the
    order of ``starts``.

    Conditioning on the first step gives the recursion
    P{Z_i = j} = s_{i,i} P{Z_i = j-1} + sum_{floor <= k < i} s_{i,k} P{Z_k = j}
    with Z_floor = 0.  Column j holds every state up to the highest start;
    state i reads only states below it, so one run serves every start, each
    law cut at the first column where its accumulated mass reaches
    1 - DEFICIT_CAP.  Columns are added until every start is cut.
    """
    starts = [int(n) for n in starts]
    if not starts:
        raise ValueError("need at least one start state")
    for n in (min(starts), max(starts)):
        spec._require_range(n)
    width = max(starts) - spec.floor + 1  # states floor..max(starts)
    strict = [spec.row(i)[:-1] for i in range(spec.floor + 1, width + spec.floor)]
    diag = spec.stay[:width - 1]
    columns = []
    cum = dict.fromkeys(starts, 0.0)
    cut: dict[int, int] = {}  # start -> number of columns in its law
    prev = np.zeros(width)
    for j in range(_DP_COUNT_LIMIT + 1):
        col = np.empty(width)
        col[0] = 1.0 if j == 0 else 0.0
        for idx in range(1, width):
            col[idx] = diag[idx - 1] * prev[idx] + float(strict[idx - 1] @ col[:idx])
        columns.append(col)
        for n in cum.keys() - cut.keys():
            cum[n] += col[n - spec.floor]
            if 1.0 - cum[n] <= DEFICIT_CAP:
                cut[n] = j + 1
        if len(cut) == len(cum):
            return [Pmf(masses=np.array([c[n - spec.floor] for c in columns[:cut[n]]]),
                        tail_deficit=max(0.0, 1.0 - cum[n])) for n in starts]
        prev = col
    n = next(n for n in starts if n not in cut)
    raise RuntimeError(
        f"start state {n}: deficit {1.0 - cum[n]:.3e} not reached within "
        f"{_DP_COUNT_LIMIT} counts"
    )


def _bisect(cum, start, top, u):
    """For every (a, m, x) of ``start``, ``top`` and ``u`` at once, the count of
    the first m entries of the row at a that are <= x: bit for bit
    ``min(np.searchsorted(cum[a:a + m + 1], x, side="right"), m)``, since rows
    are nondecreasing."""
    pos = np.zeros_like(start)
    step = 1 << int(top.max()).bit_length()
    while step > 1:
        step >>= 1
        # a candidate past m reads entry m - 1 (some other entry when m = 0),
        # and the clip below makes either exact
        pos += step * (cum[start + np.minimum(pos + step, top) - 1] <= u)
    return np.minimum(pos, top)


def sample_zero_decrements(spec: ChainSpec, n: int, size: int, rng) -> np.ndarray:
    """Replicated direct simulation in lockstep: each round draws an array of
    uniforms u over the live replicates in index order, each placed at u in
    its full row's cumsum."""
    spec._require_range(n)
    counts = np.zeros(size, dtype=np.int64)
    states = np.full(size, n, dtype=np.int64)
    active = np.arange(size if n > spec.floor else 0)
    while active.size:
        top = states[active] - spec.floor  # position of the stay, the row's last entry
        pos = _bisect(spec.cum, spec.start[top - 1], top, rng.random(active.size))
        counts[active] += pos == top
        states[active] = spec.floor + pos
        active = active[states[active] > spec.floor]
    return counts


def sample_geometric_rep(spec: ChainSpec, n: int, size: int, rng) -> np.ndarray:
    """Replicated embedded-representation sampling in lockstep: each round
    draws the live replicates' stay counts (geometric, success 1 - s_{i,i}),
    then uniforms u, each placed at u (1 - s_{i,i}) in its strict row's cumsum."""
    spec._require_range(n)
    counts = np.zeros(size, dtype=np.int64)
    states = np.full(size, n, dtype=np.int64)
    active = np.arange(size if n > spec.floor else 0)
    while active.size:
        k = states[active] - spec.floor - 1
        leave = 1.0 - spec.stay[k]
        counts[active] += rng.geometric(leave) - 1
        u = rng.random(active.size) * leave
        states[active] = spec.floor + _bisect(spec.cum, spec.start[k], k, u)
        active = active[states[active] > spec.floor]
    return counts


# The chain builders' largest state: the rows hold n_max^2 / 2 probabilities,
# 400 MB of float64 at this cap, and the spec builds their cumulative copy at
# construction, 800 MB in all.
_MAX_CHAIN_STATES = 10_000


def _check_n_max(n_max: int, low: int):
    if not low <= n_max <= _MAX_CHAIN_STATES:
        raise ValueError(f"n_max must lie in [{low}, {_MAX_CHAIN_STATES}], got {n_max}")


def sieve_chain_spec(wlaw, n_max: int) -> ChainSpec:
    """Sieve chain: floor 0, s_{i,j} = C(i,j) E W^j (1-W)^{i-j}.

    Rows are built by exact-ratio recurrence from s_{i,0} = E (1-W)^i, one
    cumulative product per row, which keeps the relative error at a few ulps
    per step; this needs a law with a closed-form ``mixed_moment`` (the
    uniform, beta and constant families).
    """
    _check_n_max(n_max, 1)
    try:
        wlaw.mixed_moment(0, 1)
    except NotImplementedError as exc:
        raise ValueError(f"{wlaw!r} provides no exact mixed moments") from exc
    # the rows go into the spec's one buffer: rows kept between the recurrence's
    # temporaries would fragment the heap, to about twice their size at the cap
    flat = np.empty((n_max + 1) * (n_max + 2) // 2 - 1)
    for i in range(1, n_max + 1):
        head = wlaw.mixed_moment(0, i)
        if head == 0.0:
            raise ValueError(f"E(1-W)^{i} underflows; reduce n_max for {wlaw!r}")
        j = np.arange(1, i + 1)
        row = flat[i * (i + 1) // 2 - 1:(i + 1) * (i + 2) // 2 - 1]  # after rows 1..i-1
        row[0] = head
        # s_{i,j} / s_{i,j-1} = C(i,j)/C(i,j-1) * moment ratio, C ratio (i-j+1)/j
        row[1:] = (i - j + 1) / j * wlaw.moment_ratios(i)
        np.cumprod(row, out=row)
        drift = row.sum() - 1.0
        if abs(drift) > 1e-9:
            raise ValueError(f"row for state {i} sums to 1{drift:+.2e}; moment evaluator is off")
        row /= row.sum()  # remove the few-ulp-per-step recurrence drift
    return ChainSpec(floor=0, probs=flat)


def barrier_chain_spec(step_pmf, n_max: int) -> ChainSpec:
    """Random walk with a barrier, seen as its nonincreasing distance chain.

    ``step_pmf[k-1]`` is P{step = k} for k = 1, 2, ...; steps that would
    reach or pass the barrier are suppressed.  The distance chain has floor
    1, s_{i,j} = p_{i-j} for j < i and s_{i,i} = sum_{k >= i} p_k (computed
    as 1 minus a partial sum, so dyadic step laws stay float-exact).
    """
    p = np.asarray(step_pmf, dtype=float)
    if p.size == 0 or not p[0] > 0.0:
        raise ValueError("step law needs p_1 > 0 (absorption is not certain otherwise)")
    if np.any(p < 0.0) or p.sum() > 1.0 + 1e-12:
        raise ValueError("step probabilities must be nonnegative and sum to at most 1")
    _check_n_max(n_max, 2)
    partial = np.concatenate([[0.0], np.cumsum(p)])
    flat = np.zeros(n_max * (n_max + 1) // 2 - 1)
    for i in range(2, n_max + 1):
        row = flat[i * (i - 1) // 2 - 1:i * (i + 1) // 2 - 1]  # states 1..i, after rows 2..i-1
        k = min(i - 1, p.size)  # steps 1..k land above the barrier, at states i-1..i-k
        row[i - 1 - k:i - 1] = p[k - 1::-1]
        # a step law summing to 1 can overshoot it by an ulp in the partial sum
        row[i - 1] = max(0.0, 1.0 - float(partial[k]))
    return ChainSpec(floor=1, probs=flat)


@dataclass(frozen=True)
class MixedPoissonReport:
    """Moment-based consistency diagnostics for a mixed Poisson law.

    Factorial moments of a mixed Poisson law equal the raw moments of its
    mixing law, so (1, phi_1, ..., phi_4) must be a valid moment sequence of
    a nonnegative random variable: the 2x2 and 3x3 Hankel determinants are
    nonnegative, and variance >= mean (their difference IS the 2x2
    determinant).  Tolerances are one-sided at 5 propagated standard errors.
    """

    factorial_moments: tuple
    mean: float
    variance: float
    hankel2: float
    hankel3: float
    hankel2_tol: float
    hankel3_tol: float
    violations: tuple
    passed: bool


def _falling_factorials(values: np.ndarray) -> np.ndarray:
    """The falling factorials of orders 1 to 4 of ``values``, one column each."""
    cols = []
    acc = np.ones_like(values, dtype=float)
    for r in range(1, 5):
        acc = acc * (values - (r - 1))
        cols.append(acc.copy())
    return np.stack(cols, axis=1)


def _hankel3(phi) -> float:
    p1, p2, p3, p4 = phi
    return p2 * p4 - p3**2 - p1**2 * p4 + 2.0 * p1 * p2 * p3 - p2**3


def _hankel3_grad(phi) -> np.ndarray:
    p1, p2, p3, p4 = phi
    return np.array(
        [
            -2.0 * p1 * p4 + 2.0 * p2 * p3,
            p4 + 2.0 * p1 * p3 - 3.0 * p2**2,
            -2.0 * p3 + 2.0 * p1 * p2,
            p2 - p1**2,
        ]
    )


def mixed_poisson_diagnostic(pmf: Pmf) -> MixedPoissonReport:
    """Run the mixed-Poisson moment diagnostics on a Pmf; an integer sample
    goes through its value counts (``mixed_poisson_counts_diagnostic``)."""
    if pmf.tail_deficit > 1e-6:
        raise ValueError(f"tail deficit {pmf.tail_deficit:.2e} too large for moments")
    phi = pmf.masses @ _falling_factorials(np.arange(pmf.masses.size, dtype=float))
    scale = max(1.0, float(np.abs(phi).max()))
    return _mixed_poisson_report(phi, float(phi[0]), float(phi[1] + phi[0] - phi[0] ** 2),
                                 1e-9 * scale**2, 1e-9 * scale**3)


def mixed_poisson_counts_diagnostic(parts) -> MixedPoissonReport:
    """The diagnostics of the union of integer samples given by their value
    counts (``np.bincount`` of each), as ``counts_pmf`` takes them.

    Each phi_r is the sum of the sample's falling factorials of order r over
    its size: while those sums stay below 2^53 they are exact, so phi has the
    bits of the mean of the per-sample falling factorials, and the mean those
    of the sample mean.  The variance and the falling factorials' covariance
    are frequency-weighted (``np.cov`` with ``fweights``); tolerances are
    the delta method's at 5 standard errors.
    """
    counts = _pooled_counts(parts)
    size = int(counts.sum())
    if size < 2 or np.any(counts < 0):
        raise ValueError("need the value counts of at least two nonnegative integer samples")
    values = np.arange(counts.size, dtype=float)
    ff = _falling_factorials(values)
    phi = counts @ ff / size
    mean = float(phi[0])
    variance = float(counts @ (values - mean) ** 2 / (size - 1))
    cov = np.cov(ff, rowvar=False, fweights=counts) / size
    g2 = np.array([-2.0 * phi[0], 1.0, 0.0, 0.0])
    g3 = _hankel3_grad(phi)
    return _mixed_poisson_report(phi, mean, variance, 5.0 * float(np.sqrt(g2 @ cov @ g2)),
                                 5.0 * float(np.sqrt(g3 @ cov @ g3)))


def _mixed_poisson_report(phi, mean, variance, h2_tol, h3_tol) -> MixedPoissonReport:
    h2 = float(phi[1] - phi[0] ** 2)
    h3 = float(_hankel3(phi))
    violations = []
    if h2 < -h2_tol:
        violations.append(f"hankel 2x2 determinant {h2:.4e} below -{h2_tol:.4e}")
    if h3 < -h3_tol:
        violations.append(f"hankel 3x3 determinant {h3:.4e} below -{h3_tol:.4e}")
    if variance < mean - 2.0 * h2_tol:
        violations.append(f"variance {variance:.4f} under mean {mean:.4f} beyond tolerance")
    return MixedPoissonReport(
        factorial_moments=tuple(float(x) for x in phi),
        mean=mean,
        variance=variance,
        hankel2=h2,
        hankel3=h3,
        hankel2_tol=float(h2_tol),
        hankel3_tol=float(h3_tol),
        violations=tuple(violations),
        passed=not violations,
    )


def chain_to_json(spec: ChainSpec) -> str:
    """Serialize with probabilities as decimal strings (repr round-trips floats)."""
    rows = {str(i): [repr(x) for x in spec.row(i).tolist()]
            for i in range(spec.floor + 1, spec.n_max + 1)}
    return json.dumps({"floor": spec.floor, "rows": rows}, sort_keys=True, indent=2)


def chain_from_json(text: str) -> ChainSpec:
    """The spec ``chain_to_json`` wrote; one whose floor is not a JSON integer,
    or whose rows are not those of the states floor+1..n_max, each of its
    length, is refused before any array is built."""
    payload = json.loads(text)
    try:
        rows = {int(i): row for i, row in payload["rows"].items()}
        floor = payload["floor"]
        if type(floor) is not int:
            raise ValueError(f"floor must be a JSON integer, got {floor!r}")
        states = range(floor + 1, floor + 1 + len(rows))
        i = next((i for i in states if len(rows.get(i, ())) != i - floor + 1), None)
        if i is not None:
            raise ValueError(f"state {i} has no row of {i - floor + 1} entries; a chain spec "
                             f"has one for each state {floor + 1}..n_max, without gaps")
        probs = np.fromiter((float(x) for i in states for x in rows[i]), dtype=float)
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed chain spec: {exc}") from None
    return ChainSpec(floor=floor, probs=probs)
