"""The CLI operations each benchmark workload runs, in order.

Every operation is one ``sievesim`` command line without ``--seed``,
``--out`` and ``--jobs``; the driver appends those.  ``rows`` is the number
of detail rows the operation must write, where the arguments fix it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple
    rows: int | None = None


# Three of criterion 3's four (alpha, beta) pairs, at its pinned grid: the
# beta = 0 branch, the beta-weight branch at alpha = 1/2 and at alpha != 1/2.
# The fourth pair, (0.5, 0.5), runs the same branch at the same alpha as
# (0.5, 0.25); leaving it out buys a third timed pass within a run.
Z_PAIRS = ((0.5, 0.0), (0.5, 0.25), (0.75, 0.5))


def zlaw(draws: int = 8192, expfunc_draws: int = 32768) -> list[Op]:
    """Limit-law draws: the path-integral sampler at criterion-3 pairs plus
    the exponential-functional sampler at (0.5, 0.25).

    8192 draws are two 4096-draw chunks, one per worker at ``--jobs 2``.
    """
    ops = [
        Op(("sample-z", "--alpha", str(a), "--beta", str(b), "--n", str(draws),
            "--grid-step", "1e-4"), rows=draws)
        for a, b in Z_PAIRS
    ]
    ops.append(Op(("sample-z", "--alpha", "0.5", "--beta", "0.25", "--sampler", "expfunc",
                   "--eps", "1e-4", "--n", str(expfunc_draws)), rows=expfunc_draws))
    return ops


def detail(csv_reps: int = 250_000, json_reps: int = 50_000,
           ml_draws: int = 250_000) -> list[Op]:
    """Large detail files written three ways: integer CSV rows, JSON
    records, and float ``repr`` CSV rows.

    Each operation takes about a second, so that a run holds several
    passes and the per-operation medians shed bursts of contention.
    """
    sieve = ("sieve", "--wlaw", "uniform", "--balls", "100", "--reps")
    return [
        Op((*sieve, str(csv_reps)), rows=csv_reps),
        Op((*sieve, str(json_reps), "--format", "json"), rows=json_reps),
        Op(("sample-z", "--sampler", "mittag-leffler", "--alpha", "0.5", "--beta", "0",
            "--n", str(ml_draws)), rows=ml_draws),
    ]


def checks(suites=("exact", "chain", "sieve", "trend", "determinism"),
           walk_paths: int = 30_000) -> list[Op]:
    """Verification suites (criteria 1, 2, 7-10, 13-15), both chain
    constructors, and walk functionals sized so that ``walks`` carries
    about a fifth of the traced time."""
    prw = ("prw", "--xi", "pareto:0.5", "--eta", "pareto:0.25", "--t", "1e4",
           "--reps", str(walk_paths))
    return [
        *(Op(("verify", "--suite", s)) for s in suites),
        Op(("markov", "--chain", "sieve:beta:2,3", "--n", "100")),
        Op(("markov", "--chain", "barrier:dyadic", "--n", "60")),
        Op((*prw, "--stat", "empty"), rows=walk_paths),
        Op((*prw, "--stat", "window"), rows=walk_paths),
    ]


WORKLOADS = {
    "zlaw": zlaw,
    "detail": detail,
    "checks": checks,
}

# The same operations at a size that runs in seconds: the warm-up before
# timing, and the smoke test.  The sieve runs keep enough replicates for
# their total-variation check (tolerance 0.01) to pass.
TINY = {
    "zlaw": lambda: zlaw(draws=64, expfunc_draws=256),
    "detail": lambda: detail(csv_reps=50_000, json_reps=50_000, ml_draws=4096),
    "checks": lambda: checks(suites=("exact", "determinism"), walk_paths=256),
}
