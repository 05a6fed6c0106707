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
replicates in lockstep; a single draw is a ``size=1`` call.  When every row
has s_{j,floor} = s_{j,j}, the law is geometric with success 1/2 for every
n, an exactness anchor the DP is tested against at 1e-10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .randkit import as_generator

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
    "MixedPoissonReport",
    "empirical_pmf",
    "geometric_pmf",
    "chain_to_json",
    "chain_from_json",
]

_ROW_SUM_TOL = 1e-12


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


def empirical_pmf(samples, width: int | None = None) -> Pmf:
    """Empirical pmf of nonnegative integer samples (zero tail deficit)."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0 or np.any(samples < 0):
        raise ValueError("need a nonempty sample of nonnegative integers")
    counts = np.bincount(samples, minlength=0 if width is None else width)
    return Pmf(masses=counts / samples.size)


def geometric_pmf(success: float, width: int) -> Pmf:
    """Geometric law starting at zero, truncated at ``width`` masses."""
    if not 0.0 < success <= 1.0:
        raise ValueError(f"success probability must lie in (0,1], got {success}")
    m = np.arange(width)
    masses = success * (1.0 - success) ** m
    return Pmf(masses=masses, tail_deficit=float((1.0 - success) ** width))


class ChainSpec:
    """Transition rows of a nonincreasing chain with absorbing floor.

    ``rows[i]`` holds the probabilities (s_{i,floor}, ..., s_{i,i}) for every
    state floor+1 <= i <= n_max.  Rows must sum to 1 within 1e-12 and carry
    s_{i,i-1} > 0 so absorption is certain.
    """

    def __init__(self, floor: int, rows: dict[int, np.ndarray]):
        if floor < 0:
            raise ValueError(f"floor must be nonnegative, got {floor}")
        self.floor = int(floor)
        self.rows: dict[int, np.ndarray] = {}
        for i, row in sorted(rows.items()):
            i = int(i)
            row = np.asarray(row, dtype=float)
            if i <= floor:
                raise ValueError(f"row given for state {i} at or below the floor {floor}")
            if row.size != i - floor + 1:
                raise ValueError(
                    f"row for state {i} must have {i - floor + 1} entries, got {row.size}"
                )
            if np.any(row < 0.0):
                raise ValueError(f"row for state {i} has negative entries")
            if abs(row.sum() - 1.0) > _ROW_SUM_TOL:
                raise ValueError(f"row for state {i} sums to {row.sum()!r}, not 1")
            if not row[-2] > 0.0:
                raise ValueError(f"state {i} has s_(i,i-1) = 0; absorption is not certain")
            self.rows[i] = row
        self._cum_cache: dict[int, np.ndarray] = {}
        self._embedded_cache: dict[int, np.ndarray] = {}

    def row(self, i: int) -> np.ndarray:
        try:
            return self.rows[i]
        except KeyError:
            raise ValueError(f"no transition row for state {i}") from None

    def stay_prob(self, i: int) -> float:
        return float(self.row(i)[-1])

    def _cum_row(self, i: int) -> np.ndarray:
        if i not in self._cum_cache:
            self._cum_cache[i] = np.cumsum(self.row(i))
        return self._cum_cache[i]

    def _embedded_cum(self, i: int) -> np.ndarray:
        """Cumulative strict-descent probabilities s_{i,j}/(1 - s_{i,i}), j < i."""
        if i not in self._embedded_cache:
            row = self.row(i)
            stay = row[-1]
            if stay >= 1.0:
                raise ValueError(f"state {i} has s_(i,i) = 1; the embedded chain is undefined")
            self._embedded_cache[i] = np.cumsum(row[:-1] / (1.0 - stay))
        return self._embedded_cache[i]

    def _require_range(self, n: int):
        if n < self.floor:
            raise ValueError(f"start state {n} below floor {self.floor}")
        for i in range(self.floor + 1, n + 1):
            if i not in self.rows:
                raise ValueError(f"no transition row for state {i}")


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
    diag = np.array([spec.stay_prob(i) for i in range(spec.floor + 1, width + spec.floor)])
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
            table = np.array(columns)
            return [Pmf(masses=table[:cut[n], n - spec.floor].copy(),
                        tail_deficit=max(0.0, 1.0 - cum[n])) for n in starts]
        prev = col
    n = next(n for n in starts if n not in cut)
    raise RuntimeError(
        f"start state {n}: deficit {1.0 - cum[n]:.3e} not reached within "
        f"{_DP_COUNT_LIMIT} counts"
    )


def _state_groups(states: np.ndarray, active: np.ndarray):
    """The live replicates ``active`` in a stable sort by state, their states
    in that order, and each state with its slice of that order, states
    ascending."""
    cur = states[active]
    order = np.argsort(cur, kind="stable")
    ranked = cur[order]
    edges = (np.flatnonzero(np.diff(ranked)) + 1).tolist()
    lo, hi = [0, *edges], [*edges, ranked.size]
    return active[order], ranked, zip(ranked[lo].tolist(), lo, hi)


def sample_zero_decrements(spec: ChainSpec, n: int, size: int, rng) -> np.ndarray:
    """Replicated direct simulation, run in lockstep grouped by current state.

    Each round draws one uniform per live replicate, state by state in
    ascending order and each state's replicates in index order.
    """
    spec._require_range(n)
    rng = as_generator(rng)
    states = np.full(size, n, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    active = np.flatnonzero(states > spec.floor)
    while active.size:
        sel, ranked, groups = _state_groups(states, active)
        u = rng.random(sel.size)
        nxt = np.empty_like(sel)
        for s, lo, hi in groups:
            cum = spec._cum_row(s)
            nxt[lo:hi] = np.minimum(np.searchsorted(cum, u[lo:hi], side="right"), cum.size - 1)
        nxt += spec.floor
        counts[sel] += nxt == ranked
        states[sel] = nxt
        active = active[states[active] > spec.floor]
    return counts


def sample_geometric_rep(spec: ChainSpec, n: int, size: int, rng) -> np.ndarray:
    """Replicated embedded-representation sampling, lockstep by state: each
    state's replicates, in ascending state order, draw their stay counts and
    then their next positions."""
    spec._require_range(n)
    rng = as_generator(rng)
    states = np.full(size, n, dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    active = np.flatnonzero(states > spec.floor)
    while active.size:
        sel, _, groups = _state_groups(states, active)
        nxt = np.empty_like(sel)
        for s, lo, hi in groups:
            stay = spec.stay_prob(s)
            if stay > 0.0:
                counts[sel[lo:hi]] += rng.geometric(1.0 - stay, size=hi - lo) - 1
            cum = spec._embedded_cum(s)
            nxt[lo:hi] = np.minimum(
                np.searchsorted(cum, rng.random(hi - lo), side="right"), cum.size - 1
            )
        nxt += spec.floor
        states[sel] = nxt
        active = active[states[active] > spec.floor]
    return counts


def sieve_chain_spec(wlaw, n_max: int) -> ChainSpec:
    """Sieve chain: floor 0, s_{i,j} = C(i,j) E W^j (1-W)^{i-j}.

    Rows are built by exact-ratio recurrence from s_{i,0} = E (1-W)^i, one
    cumulative product per row, which keeps the relative error at a few ulps
    per step; this needs a law with a closed-form ``mixed_moment`` (the beta
    and constant families).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    try:
        wlaw.mixed_moment(0, 1)
    except NotImplementedError as exc:
        raise ValueError(f"{wlaw!r} provides no exact mixed moments") from exc
    rows = {}
    for i in range(1, n_max + 1):
        head = wlaw.mixed_moment(0, i)
        if head == 0.0:
            raise ValueError(f"E(1-W)^{i} underflows; reduce n_max for {wlaw!r}")
        j = np.arange(1, i + 1)
        # s_{i,j} / s_{i,j-1} = C(i,j)/C(i,j-1) * moment ratio, C ratio (i-j+1)/j
        steps = (i - j + 1) / j * wlaw.moment_ratios(i)
        row = np.cumprod(np.concatenate(([head], steps)))
        drift = row.sum() - 1.0
        if abs(drift) > 1e-9:
            raise ValueError(f"row for state {i} sums to 1{drift:+.2e}; moment evaluator is off")
        row /= row.sum()  # remove the few-ulp-per-step recurrence drift
        rows[i] = row
    return ChainSpec(floor=0, rows=rows)


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
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    partial = np.concatenate([[0.0], np.cumsum(p)])

    def head_sum(count: int) -> float:
        return float(partial[min(count, p.size)])

    rows = {}
    for i in range(2, n_max + 1):
        row = np.zeros(i)  # states 1..i
        for j in range(1, i):
            step = i - j
            if step <= p.size:
                row[j - 1] = p[step - 1]
        # a step law summing to 1 can overshoot it by an ulp in the partial sum
        row[i - 1] = max(0.0, 1.0 - head_sum(i - 1))
        rows[i] = row
    return ChainSpec(floor=1, rows=rows)


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


def _falling_factorials(values: np.ndarray, orders: int = 4) -> np.ndarray:
    cols = []
    acc = np.ones_like(values, dtype=float)
    for r in range(1, orders + 1):
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


def mixed_poisson_diagnostic(pmf_or_samples) -> MixedPoissonReport:
    """Run the mixed-Poisson moment diagnostics on a Pmf or an integer sample."""
    if isinstance(pmf_or_samples, Pmf):
        pmf = pmf_or_samples
        if pmf.tail_deficit > 1e-6:
            raise ValueError(f"tail deficit {pmf.tail_deficit:.2e} too large for moments")
        m = np.arange(pmf.masses.size, dtype=float)
        ff = _falling_factorials(m)
        phi = pmf.masses @ ff
        mean = float(phi[0])
        variance = float(phi[1] + phi[0] - phi[0] ** 2)
        scale = max(1.0, float(np.abs(phi).max()))
        h2_tol = 1e-9 * scale**2
        h3_tol = 1e-9 * scale**3
    else:
        samples = np.asarray(pmf_or_samples, dtype=np.int64)
        if samples.size < 2 or np.any(samples < 0):
            raise ValueError("need at least two nonnegative integer samples")
        ff = _falling_factorials(samples.astype(float))
        phi = ff.mean(axis=0)
        cov = np.cov(ff, rowvar=False) / samples.size
        mean = float(samples.mean())
        variance = float(samples.var(ddof=1))
        g2 = np.array([-2.0 * phi[0], 1.0, 0.0, 0.0])
        h2_tol = 5.0 * float(np.sqrt(g2 @ cov @ g2))
        g3 = _hankel3_grad(phi)
        h3_tol = 5.0 * float(np.sqrt(g3 @ cov @ g3))
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
    payload = {
        "floor": spec.floor,
        "rows": {str(i): [repr(float(x)) for x in row] for i, row in spec.rows.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def chain_from_json(text: str) -> ChainSpec:
    payload = json.loads(text)
    rows = {int(i): np.array([float(x) for x in row]) for i, row in payload["rows"].items()}
    return ChainSpec(floor=int(payload["floor"]), rows=rows)
