"""The chunked replicate runner that every chunked sample goes through: the
CLI experiments' and ``verify``'s alike.

Replicates are partitioned into fixed-size chunks, one indexed RNG stream
per chunk, and chunk results are taken in index order, so results are
identical for a given config regardless of ``jobs``.  A chunk worker
checks its own payload, and the runner first draws a sample of size 0 in the
parent, so a bad payload raises before a file or a pool exists.  The
process that draws a chunk formats its rows and reduces its sample to what
the caller needs (value counts, integer sums, mergeable moments).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np

from . import chains, limitlaw, sieve, stats, walks
from .randkit import RngStream

CHUNK = 4096


def _chunk_plan(total: int):
    return [(cid, min(CHUNK, total - cid * CHUNK)) for cid in range((total + CHUNK - 1) // CHUNK)]


_run = None  # (worker, payload, layout, reduce) of the chunks this process draws


def _serve(*run):
    global _run
    _run = run or None  # a call with no argument clears it


def _call_chunk(task):
    stream, start, count = task
    worker, payload, layout, reduce = _run
    result = worker(stream.generator(), count, *payload)
    text = None
    if layout is not None:
        values = result[0] if isinstance(result, tuple) else result
        text = layout.rows([range(start, start + count), *values.reshape(count, -1).T])
    return result if reduce is None else reduce(result), count, text


def run_chunks(worker, seed: int, total: int, jobs: int, payload: tuple, stream: int = 0,
               detail=None, reduce=None) -> list:
    """``worker(rng, count, *payload)`` on each chunk of ``total`` replicates,
    results (or with ``reduce``, each chunk's ``reduce(result)``) in chunk order.

    First the parent calls ``worker(rng, 0, *payload)``: a draw of size 0
    runs the worker's checks of its payload and takes nothing from ``rng``,
    so a bad payload raises before ``detail`` is opened or a pool starts.

    Chunk ``cid`` of the sample with stream id ``stream`` draws from
    ``RngStream(seed, (stream << 32) | cid)``: the address is (seed, sample,
    chunk), so results do not depend on ``jobs``.  The experiments use
    stream 0, so their chunk ``cid`` draws from ``RngStream(seed, cid)``;
    ``markov`` draws its second sample on stream 1.

    With a ``Detail``, the parent enters it, and the process that draws a
    chunk also formats its rows (the replicate index, then the columns of its
    array, a tuple result's first item); the parent writes them to ``detail``
    as each chunk arrives.  Then it applies ``reduce``, so the parent holds
    one chunk's text and the chunk reductions, not the sample.

    A task carries only its chunk's stream, first index and count: each
    process gets ``(worker, payload, layout, reduce)`` once from ``_serve``,
    a pool's initializer (under fork nothing is pickled) or, at ``jobs`` 1,
    a call in the parent, and it is cleared when the run ends.
    """
    worker(np.random.default_rng(0), 0, *payload)
    run = (worker, payload, None if detail is None else detail.layout, reduce)
    tasks = [(RngStream(seed, (stream << 32) | cid), cid * CHUNK, count)
             for cid, count in _chunk_plan(total)]

    def gather(done):
        parts = []
        for result, count, text in done:
            if text is not None:
                detail.write(text, count)
            parts.append(result)
        return parts

    try:
        with nullcontext() if detail is None else detail:
            if jobs <= 1 or len(tasks) == 1:
                _serve(*run)
                return gather(map(_call_chunk, tasks))
            # a fork pool starts every worker at the first submit, so ask for
            # no more workers than there are chunks
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_serve,
                                     initargs=run) as pool:
                return gather(pool.map(_call_chunk, tasks))
    finally:
        _serve()


def chunk_sample_z(rng, count, params: limitlaw.AlphaBeta, sampler, grid_step, eps):
    if sampler == "pathint":
        return limitlaw.sample_z_pathint(params, grid_step, rng, size=count)
    if sampler == "expfunc":
        return limitlaw.sample_z_expfunctional(params, eps, rng, size=count)
    if params.beta != 0.0:
        raise ValueError("the direct Mittag-Leffler sampler requires beta = 0")
    return limitlaw.sample_mittag_leffler(params.alpha, rng, size=count)


def chunk_sieve(rng, count, wlaw: sieve.WLaw, balls):
    batch = sieve.sample_occupancy(wlaw, balls, count, rng)
    table = np.stack([batch.occupied, batch.last_occupied, batch.empty_in_range], axis=1)
    return table, batch.truncated


def reduce_sieve(result):
    """A sieve chunk's empty-box value counts, occupied and empty sums and truncations."""
    table, truncated = result
    return np.bincount(table[:, 2]), int(table[:, 0].sum()), int(table[:, 2].sum()), truncated


def reduce_z(draws):
    return stats.mc_accumulate(draws), stats.mc_accumulate(draws**2)


def prw_scale(law: walks.PrwLaw, t: float, stat: str) -> float:
    """The factor that normalises ``prw --stat`` at ``t``.

    The empty-box and busy-server statistics are normalised by
    P{xi > t} / P{eta > t}: a zero P{eta > t} raises ValueError.
    """
    if stat in ("empty", "busy"):
        eta_tail = float(law.eta_tail(t))
        if not eta_tail > 0.0:
            raise ValueError(
                f"--stat {stat} is normalised by P{{eta > t}}, which is 0 at t = {t}; "
                "choose an eta law with mass above t"
            )
        return float(law.xi_tail(t)) / eta_tail
    if stat == "renewals":
        return float(law.xi_tail(t))
    return 1.0  # the window statistic carries its own normalisation


def chunk_prw(rng, count, law: walks.PrwLaw, t_values, stats, q_exponent):
    """Normalised walk functionals of ``count`` walks: column ``i * len(t_values) + j``
    holds ``stats[i]`` at ``t_values[j]``, all from the same walks."""
    # the window weight Q(x) = (1+x)^(-q) must be finite and nonincreasing
    if not (math.isfinite(q_exponent) and q_exponent >= 0.0):
        raise ValueError(f"q exponent must be finite nonnegative, got {q_exponent}")
    q = lambda x: (1.0 + x) ** -q_exponent
    values = walks.walk_functionals(law, t_values, count, rng, stats, q=q)
    scales = [prw_scale(law, t, stat) for stat in stats for t in t_values]
    return np.hstack([values[stat] for stat in stats]) * scales


def reduce_prw(values):
    return stats.mc_accumulate(values[:, 0])


def chunk_markov(rng, count, spec: chains.ChainSpec, n, sample):
    return sample(spec, n, count, rng)
