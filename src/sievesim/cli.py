"""Command-line front end: named experiments plus the verification suite.

Replicates are partitioned into fixed-size chunks, one indexed RNG stream
per chunk, and chunk results are taken in index order, so output files are
byte-identical for a given config regardless of ``--jobs``.  A chunk worker
checks its own payload, and the runner first draws a sample of size 0 in the
parent, so a bad payload exits 2 before a file or a pool exists.  Every
command writes its detail file through one ``Detail``, deleted if the run
fails: the process that draws a chunk formats its rows and reduces its
sample to what the summary needs (value counts, integer sums, mergeable
moments), and the parent writes the rows and folds the reductions in chunk
order as chunks arrive, so it never holds a whole sample; the small tables
go in blocks of rows.  Output files carry no timestamps; metric rows carry
the config hash and seed.  Exit codes: 0 all checks in scope passed, 1 a
check failed, 2 invalid configuration, 3 a run could not finish because a
step, depth or count budget ran out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from itertools import repeat
from pathlib import Path

import numpy as np

from . import chains, limitlaw, sieve, stats, walks
from .randkit import RngStream

SCHEMA_VERSION = 1
CHUNK = 4096


# ----------------------------------------------------------------------
# law descriptor parsing: each flag is parsed once, in the parent, and chunk
# workers take the law objects

def parse_wlaw(text: str) -> sieve.WLaw:
    name, _, rest = text.partition(":")
    args = [float(x) for x in rest.split(",") if x] if rest else []
    if name == "uniform" and not args:
        return sieve.UniformW()
    if name == "beta" and len(args) == 2:
        return sieve.BetaW(*args)
    if name == "const" and len(args) == 1:
        return sieve.ConstantW(args[0])
    if name == "mixture" and len(args) in (2, 3):
        return sieve.LogParetoMixtureW(*args)
    raise ValueError(
        f"unknown W law {text!r} (expected uniform, beta:a,b, const:w, mixture:a,b[,p])"
    )


def parse_marginal(text: str) -> walks.MarginalLaw:
    name, _, rest = text.partition(":")
    args = [float(x) for x in rest.split(",") if x] if rest else []
    if name == "pareto" and len(args) == 1:
        return walks.ParetoLaw(args[0])
    if name == "exp" and len(args) <= 1:
        return walks.ExponentialLaw(*args)
    if name == "const" and len(args) == 1:
        return walks.ConstantLaw(args[0])
    if name == "logdecay" and not args:
        return walks.LogDecayLaw()
    raise ValueError(
        f"unknown marginal law {text!r} (expected pareto:a, exp:mean, const:c, logdecay)"
    )


def _config_hash(args, params: dict) -> str:
    blob = json.dumps({"experiment": args.command, "seed": args.seed, **params},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# chunked replicate runner (order-stable, jobs-independent)

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


def _run_chunks(worker, seed: int, total: int, jobs: int, payload: tuple, stream: int = 0,
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


def _chunk_sample_z(rng, count, params: limitlaw.AlphaBeta, sampler, grid_step, eps):
    if sampler == "pathint":
        return limitlaw.sample_z_pathint(params, grid_step, rng, size=count)
    if sampler == "expfunc":
        return limitlaw.sample_z_expfunctional(params, eps, rng, size=count)
    if params.beta != 0.0:
        raise ValueError("the direct Mittag-Leffler sampler requires beta = 0")
    return limitlaw.sample_mittag_leffler(params.alpha, rng, size=count)


def _chunk_sieve(rng, count, wlaw: sieve.WLaw, balls):
    batch = sieve.sample_occupancy(wlaw, balls, count, rng)
    table = np.stack([batch.occupied, batch.last_occupied, batch.empty_in_range], axis=1)
    return table, batch.truncated


def _reduce_sieve(result):
    """A sieve chunk's empty-box value counts, occupied and empty sums and truncations."""
    table, truncated = result
    return np.bincount(table[:, 2]), int(table[:, 0].sum()), int(table[:, 2].sum()), truncated


def _reduce_z(draws):
    return stats.mc_accumulate(draws), stats.mc_accumulate(draws**2)


def _prw_scale(law: walks.PrwLaw, t: float, stat: str) -> float:
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


def _chunk_prw(rng, count, law: walks.PrwLaw, t_values, stats, q_exponent):
    """Normalised walk functionals of ``count`` walks: column ``i * len(t_values) + j``
    holds ``stats[i]`` at ``t_values[j]``, all from the same walks."""
    # the window weight Q(x) = (1+x)^(-q) must be finite and nonincreasing
    if not (math.isfinite(q_exponent) and q_exponent >= 0.0):
        raise ValueError(f"q exponent must be finite nonnegative, got {q_exponent}")
    q = lambda x: (1.0 + x) ** -q_exponent
    values = walks.walk_functionals(law, t_values, count, rng, stats, q=q)
    scales = [_prw_scale(law, t, stat) for stat in stats for t in t_values]
    return np.hstack([values[stat] for stat in stats]) * scales


def _reduce_prw(values):
    return stats.mc_accumulate(values[:, 0])


def _chunk_markov(rng, count, spec: chains.ChainSpec, n, sample):
    return sample(spec, n, count, rng)


# ----------------------------------------------------------------------
# output plumbing

_SCALAR = (str, int, float)


# Rows the parent formats at a time; a chunk worker formats its CHUNK rows
# at once.  Peak memory is set by these, not by the row count.
BLOCK = 4096


def _csv_cell(value) -> str:
    """One field as csv.writer's default dialect writes it, floats as repr."""
    text = repr(value) if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


_CELL = {"csv": _csv_cell, "json": json.dumps}


def _cells(column, fmt: str):
    """The text of each cell of one column slice.

    Integer and float arrays and ranges convert with one C-level ``map``;
    strings, bools, lists and non-finite JSON floats go cell by cell.
    """
    if isinstance(column, range):
        return map(str, column)
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind in "iu":
            return map(str, column.tolist())
        if kind == "f" and (fmt == "csv" or np.isfinite(column).all()):
            return map(float.__repr__, column.tolist())
        column = column.tolist()
    return map(_CELL[fmt], column)


class Layout:
    """The fixed text of a detail file: ``head``, the texts of ``rows``
    joined by ``sep``, then ``tail``, or ``empty`` for no rows.  Of
    ``columns`` only the scalars are read; other entries mark varying ones.

    CSV is byte for byte what ``csv.writer`` writes for the rows with floats
    as ``repr``: CRLF line ends, minimal quoting (a row that is one empty
    field, which csv.writer writes as ``""``, cannot occur: every table here
    has at least two columns).  JSON is byte for byte
    ``json.dumps(records, sort_keys=True, indent=2) + "\n"``.
    """

    def __init__(self, fmt: str, header, columns):
        cell = _CELL[fmt]
        if fmt == "json":
            order = sorted(range(len(header)), key=header.__getitem__)
            opens = [("," if k else "  {") + f"\n    {json.dumps(header[i])}: "
                     for k, i in enumerate(order)]
            close, self.sep = "\n  }", ",\n"
            self.head, self.tail, self.empty = "[\n", "\n]\n", "[]\n"
        else:
            order = range(len(header))
            opens = [""] + [","] * (len(header) - 1)
            close, self.sep, self.tail = "\r\n", "", ""
            self.head = self.empty = ",".join(map(_csv_cell, header)) + "\r\n"
        # A row is literal text between the varying columns; the scalar
        # columns are formatted once, into that text.
        varying = [i for i, c in enumerate(columns) if not isinstance(c, _SCALAR)]
        self.fmt, self.texts, self.order = fmt, [""], []
        for text, i in zip(opens, order):
            if isinstance(columns[i], _SCALAR):
                self.texts[-1] += text + cell(columns[i])
            else:
                self.texts[-1] += text
                self.texts.append("")
                self.order.append(varying.index(i))
        self.texts[-1] += close

    def rows(self, columns) -> str:
        """The text of the rows of ``columns``, the varying columns in order."""
        parts = [repeat(self.texts[0])]
        for k, text in zip(self.order, self.texts[1:]):
            parts += (_cells(columns[k], self.fmt), repeat(text))
        return self.sep.join(map("".join, zip(*parts)))


class Detail(AbstractContextManager):
    """A detail file fed the text of its rows in order; ``len()`` counts the
    rows.  It is opened when its ``with`` block starts, finished when the
    block ends and deleted if it raises."""

    def __init__(self, path: Path, fmt: str, header, columns):
        self.layout = Layout(fmt, header, columns)
        self.path, self.rows = path, 0

    def __enter__(self) -> Detail:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", newline="")
        return self

    def __len__(self) -> int:
        return self.rows

    def __exit__(self, exc_type, *exc) -> None:
        with self._fh:
            if exc_type is None:
                self._fh.write(self.layout.tail if self.rows else self.layout.empty)
        if exc_type is not None:
            self.path.unlink()

    def write(self, text: str, rows: int) -> None:
        self._fh.write(self.layout.sep if self.rows else self.layout.head)
        self._fh.write(text)
        self.rows += rows

    def write_columns(self, columns) -> None:
        """Write the rows of the varying ``columns``, in order, BLOCK rows at
        a time; the columns must share one length."""
        sizes = {len(c) for c in columns}
        if len(sizes) != 1:
            raise ValueError(f"columns must share one length, got {sorted(sizes)}")
        for start in range(0, sizes.pop(), BLOCK):
            block = [column[start:start + BLOCK] for column in columns]
            self.write(self.layout.rows(block), len(block[0]))


def _emit(summary: dict, *, rows: Detail) -> Path:
    """Write ``summary`` beside the detail file ``rows``, which is passed by
    keyword: perfbench's tracer counts the rows as its ``len()``."""
    summary_path = rows.path.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary_path


def _detail(args, params: dict, header) -> Detail:
    """The detail file of experiment ``args.command`` with ``params``; its
    columns are config_hash, seed, ``header``."""
    cfg = _config_hash(args, params)
    return Detail(args.out / f"{args.command}_{cfg}.{args.format}", args.format,
                  ["config_hash", "seed", *header], [cfg, args.seed, *[None] * len(header)])


def _report(args, params: dict, detail: Detail, fields: dict, passed: bool,
            message: str) -> int:
    """Write the summary of experiment ``args.command`` beside its finished
    ``detail`` file, print its line and return its exit code (0 if
    ``passed``, else 1).  ``fields`` are the summary entries beside the six
    common ones."""
    summary = {"schema_version": SCHEMA_VERSION, "experiment": args.command, "params": params,
               "seed": args.seed, "config_hash": _config_hash(args, params),
               "passed": bool(passed), **fields}
    _emit(summary, rows=detail)
    print(message)
    return 0 if passed else 1


# ----------------------------------------------------------------------
# experiments

def cmd_moments(args) -> int:
    from . import acceptance

    params = {"alpha": args.alpha, "beta": args.beta, "nmax": args.nmax}
    ab = limitlaw.AlphaBeta(args.alpha, args.beta)
    orders = range(1, args.nmax + 1)
    identity_err, factorial_err, ml_err = zip(
        *acceptance.moment_identity_errors(args.alpha, orders))
    worst = {"phi_product_identity": max(identity_err)}
    if args.beta == args.alpha:
        worst["z_equals_factorial"] = max(factorial_err)
    if args.beta == 0.0:
        worst["z_equals_mittag_leffler"] = max(ml_err)
    tol = acceptance.EXACT_TOL
    checks = {name: {"value": value, "tolerance": tol, "passed": value <= tol}
              for name, value in worst.items()}
    passed = all(c["passed"] for c in checks.values())
    with _detail(args, params, ["order", "z_moment", "ml_moment", "factorial",
                                "phi_product_rel_err"]) as detail:
        detail.write_columns(
            [orders, [float(limitlaw.z_moment(ab, n)) for n in orders],
             [float(limitlaw.mittag_leffler_moment(args.alpha, n)) for n in orders],
             [float(math.factorial(n)) for n in orders], identity_err])
    return _report(
        args, params, detail, {"checks": checks}, passed,
        f"moments: {'PASS' if passed else 'FAIL'} (max identity error {max(identity_err):.2e})")


def cmd_sample_z(args) -> int:
    # acceptance is imported where used, so a CLI start does not load the suite
    from . import acceptance

    params = {"alpha": args.alpha, "beta": args.beta, "n": args.n, "sampler": args.sampler,
              "grid_step": args.grid_step, "eps": args.eps}
    ab = limitlaw.AlphaBeta(args.alpha, args.beta)
    detail = _detail(args, params, ["replicate", "value"])
    parts = _run_chunks(_chunk_sample_z, args.seed, args.n, args.jobs,
                        (ab, args.sampler, args.grid_step, args.eps), detail=detail,
                        reduce=_reduce_z)
    est1, m1_t, tol1, ok1 = acceptance.moment_check(stats.mc_merge(p[0] for p in parts), ab, 1)
    est2, m2_t, tol2, ok2 = acceptance.moment_check(stats.mc_merge(p[1] for p in parts), ab, 2)
    ok = ok1 and ok2
    metrics = {
        "mean": est1.mean, "mean_stderr": est1.stderr, "target_mean": m1_t,
        "second_moment": est2.mean, "second_moment_stderr": est2.stderr,
        "target_second_moment": m2_t, "mean_tolerance": tol1, "second_moment_tolerance": tol2,
    }
    return _report(args, params, detail, {"metrics": metrics}, ok,
                   f"sample-z: {'PASS' if ok else 'FAIL'} mean {est1.mean:.5f} vs {m1_t:.5f}, "
                   f"m2 {est2.mean:.5f} vs {m2_t:.5f}")


def cmd_sieve(args) -> int:
    from . import acceptance

    params = {"wlaw": args.wlaw, "balls": args.balls, "reps": args.reps}
    wlaw = parse_wlaw(args.wlaw)
    detail = _detail(args, params, ["replicate", "occupied", "last_occupied", "empty_in_range"])
    parts = _run_chunks(_chunk_sieve, args.seed, args.reps, args.jobs, (wlaw, args.balls),
                        detail=detail, reduce=_reduce_sieve)
    counts, occupied, empty, truncated = zip(*parts)
    emp, truncated = chains.counts_pmf(counts), sum(truncated)
    # exact integer sums over reps: the bits of np.mean of the joined columns
    metrics = {
        "mean_occupied": sum(occupied) / args.reps,
        "mean_empty": sum(empty) / args.reps,
        "empty_pmf": [float(x) for x in emp.masses],
        "truncated": truncated,
    }
    passed = truncated == 0
    if wlaw.symmetric:
        tv, tv_ok = acceptance.geometric_half_check(emp)
        passed = passed and tv_ok
        metrics["tv_vs_geometric_half"] = tv
        metrics["tv_tolerance"] = acceptance.TV_TOL
    msg = f"sieve: {'PASS' if passed else 'FAIL'} mean empty {metrics['mean_empty']:.4f}"
    if truncated:
        msg += f", {truncated} replicates truncated"
    if wlaw.symmetric:
        msg += f", TV vs geometric(1/2) {tv:.5f}"
    return _report(args, params, detail, {"metrics": metrics}, passed, msg)


def cmd_prw(args) -> int:
    params = {"xi": args.xi, "eta": args.eta, "coupled_multiplier": args.coupled_multiplier,
              "t": args.t, "stat": args.stat, "reps": args.reps, "q_exponent": args.q_exponent}
    xi_law = parse_marginal(args.xi)
    if args.coupled_multiplier is None:
        law = walks.PrwLaw.independent(xi_law, parse_marginal(args.eta))
    else:
        law = walks.PrwLaw.coupled(xi_law, args.coupled_multiplier)
    detail = _detail(args, params, ["replicate", "value"])
    est = stats.mc_merge(_run_chunks(_chunk_prw, args.seed, args.reps, args.jobs,
                                     (law, (args.t,), (args.stat,), args.q_exponent),
                                     detail=detail, reduce=_reduce_prw))
    # prw estimates a functional's mean and checks nothing: "passed" is true
    # because no check failed, and "checks" is empty to say that none ran
    return _report(args, params, detail,
                   {"metrics": {"mean": est.mean, "stderr": est.stderr}, "checks": {}}, True,
                   f"prw[{args.stat}]: mean {est.mean:.5f} +- {est.stderr:.5f} "
                   "(no check in scope)")


def _build_chain(args) -> chains.ChainSpec:
    if args.spec_json:
        return chains.chain_from_json(Path(args.spec_json).read_text())
    name, _, rest = args.chain.partition(":")
    if name == "sieve":
        return chains.sieve_chain_spec(parse_wlaw(rest), args.n)
    if name == "barrier":
        kind, _, param = rest.partition(":")
        if rest == "dyadic":
            p = 2.0 ** -np.arange(1, args.n + 1, dtype=float)
        elif kind == "geom" and param:
            q = float(param)
            p = (1.0 - q) * q ** np.arange(args.n, dtype=float)
        else:
            raise ValueError(f"unknown barrier step law {rest!r} (expected dyadic or geom:q)")
        return chains.barrier_chain_spec(p, args.n)
    raise ValueError(f"unknown chain {args.chain!r}")


def cmd_markov(args) -> int:
    from . import acceptance

    spec = _build_chain(args)
    # the JSON text grows as n^2: only these two flags read it
    spec_json = chains.chain_to_json(spec) if args.export_spec or args.spec_json else None
    if args.export_spec:
        Path(args.export_spec).write_text(spec_json)
    # a loaded spec is named by its content, so the config hash and the
    # file names tell two spec files apart
    chain = args.chain
    if args.spec_json:
        chain = f"spec-json:{hashlib.sha256(spec_json.encode()).hexdigest()}"
    params = {"chain": chain, "n": args.n, "reps": args.reps}
    dp = chains.exact_zero_decrement_pmf(spec, args.n)
    sim, rep = (_run_chunks(_chunk_markov, args.seed, args.reps, args.jobs,
                            (spec, args.n, sample), stream=stream, reduce=np.bincount)
                for stream, sample in enumerate((chains.sample_zero_decrements,
                                                 chains.sample_geometric_rep)))
    sim_pmf, rep_pmf, tv_sim, tv_rep, passed = acceptance.chain_sampler_check(dp, sim, rep)
    width = sim_pmf.masses.size
    # an exact sampler's mean TV at these reps, as E|p_hat - p| ~ sqrt(2 p (1 - p) /
    # (pi reps)); the tolerance is fixed, so a correct sampler can fail at small reps
    p = dp.masses
    noise = float(0.5 * np.sqrt(2.0 * p * (1.0 - p) / (math.pi * args.reps)).sum())
    metrics = {"tv_sim_vs_dp": tv_sim, "tv_georep_vs_dp": tv_rep,
               "tv_tolerance": acceptance.TV_TOL, "dp_tail_deficit": dp.tail_deficit,
               "expected_sampling_tv": noise}
    with _detail(args, params, ["m", "dp_mass", "sim_freq", "georep_freq"]) as detail:
        detail.write_columns([range(width), np.pad(dp.masses, (0, width - dp.masses.size)),
                              sim_pmf.masses, rep_pmf.masses])
    return _report(args, params, detail, {"metrics": metrics}, passed,
                   f"markov: {'PASS' if passed else 'FAIL'} TV sim {tv_sim:.5f}, "
                   f"TV georep {tv_rep:.5f} (expected sampling TV {noise:.5f}, "
                   f"tolerance {acceptance.TV_TOL})")


def _peak_rss_mb():
    """This process's peak resident set so far, in MB, or None where the
    ``resource`` module is missing (Windows).  Linux reports ``ru_maxrss``
    in KiB, macOS in bytes."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _verify_line(res, seconds: float) -> str:
    """A criterion's report line with its wall time and the process's peak
    RSS so far; stdout only, never in ``--out``, so output files do not
    depend on timing or memory."""
    peak = _peak_rss_mb()
    cost = f"{seconds:.2f} s" + ("" if peak is None else f", peak {peak:.0f} MB")
    return f"{res.report_line()} [{cost}]"


def cmd_verify(args) -> int:
    from . import acceptance

    runs = []
    for num in acceptance.suite_criteria(args.suite):
        start = time.perf_counter()
        res = acceptance.run_criterion(num, seed=args.seed, jobs=args.jobs)
        print(_verify_line(res, time.perf_counter() - start))
        runs.append(res)
    passed = all(r.passed for r in runs)
    results = {str(r.number): {"name": r.name, "passed": r.passed, "details": r.details,
                               "metrics": r.metrics} for r in runs}
    params = {"suite": args.suite}
    with _detail(args, params, ["criterion", "name", "passed", "details"]) as detail:
        detail.write_columns([[r.number for r in runs], [r.name for r in runs],
                              [r.passed for r in runs], [r.details for r in runs]])
    return _report(args, params, detail, {"criteria": results}, passed,
                   f"verify[{args.suite}]: {'ALL PASS' if passed else 'FAILURES PRESENT'}")


# ----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(sub, reps_default=None):
    sub.add_argument("--seed", type=int, required=True, help="master seed (mandatory)")
    sub.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="per-replicate detail format (a JSON summary is always written)")
    sub.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                     help="parallel workers; results do not depend on this")
    if reps_default is not None:
        sub.add_argument("--reps", type=_positive_int, default=reps_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievesim",
        description="Bernoulli sieve / perturbed walk / limit-law experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("moments", help="analytic moment tables and identities")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nmax", type=_positive_int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("sample-z", help="draw from the limit law and check moments")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=_positive_int, default=100_000, help="number of draws")
    p.add_argument("--sampler", choices=("pathint", "expfunc", "mittag-leffler"),
                   default="pathint")
    p.add_argument("--grid-step", dest="grid_step", type=float, default=1e-4)
    p.add_argument("--eps", type=float, default=1e-4)
    _add_common(p)
    p.set_defaults(func=cmd_sample_z)

    p = subs.add_parser("sieve", help="occupancy statistics of the Bernoulli sieve")
    p.add_argument("--wlaw", required=True, help="uniform | beta:a,b | const:w | mixture:a,b[,p]")
    p.add_argument("--balls", type=int, required=True)
    _add_common(p, reps_default=100_000)
    p.set_defaults(func=cmd_sieve)

    p = subs.add_parser("prw", help="perturbed random walk functionals")
    p.add_argument("--xi", required=True, help="pareto:a | exp:mean | const:c | logdecay")
    p.add_argument("--eta", default="const:0", help="marginal of the perturbation")
    p.add_argument("--coupled-multiplier", dest="coupled_multiplier", type=float, default=None,
                   help="use eta = multiplier * xi instead of an independent eta")
    p.add_argument("--t", type=float, required=True,
                   help="time scale (log scale for the empty-box functional)")
    p.add_argument("--stat", choices=("empty", "busy", "renewals", "window"), default="empty")
    p.add_argument("--q-exponent", dest="q_exponent", type=float, default=0.25,
                   help="exponent of Q(x) = (1+x)^(-q) for the window statistic")
    _add_common(p, reps_default=10_000)
    p.set_defaults(func=cmd_prw)

    p = subs.add_parser("markov", help="zero-decrement law: DP vs samplers")
    p.add_argument("--chain", default="sieve:uniform",
                   help="sieve:<wlaw> | barrier:dyadic | barrier:geom:q")
    p.add_argument("--spec-json", dest="spec_json", default=None,
                   help="load a ChainSpec from a JSON file instead")
    p.add_argument("--n", type=_positive_int, default=30, help="start state")
    p.add_argument("--export-spec", dest="export_spec", default=None,
                   help="write the chain spec JSON to this path")
    _add_common(p, reps_default=100_000)
    p.set_defaults(func=cmd_markov)

    p = subs.add_parser("verify", help="run acceptance criteria")
    p.add_argument("--suite", default="all",
                   help="exact | sampler | chain | sieve | walk | trend | determinism | all")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
