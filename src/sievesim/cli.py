"""Command-line front end: named experiments plus the verification suite.

Replicates are partitioned into fixed-size chunks, one indexed RNG stream
per chunk, and chunk results are concatenated in index order, so output
files are byte-identical for a given config regardless of ``--jobs``.
Output files carry no timestamps; metric rows carry the config hash and
seed.  Exit codes: 0 all checks in scope passed, 1 a check failed,
2 invalid configuration, 3 a run could not finish because a step, depth
or count budget ran out.
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
from itertools import repeat
from pathlib import Path

import numpy as np

from . import chains, limitlaw, sieve, stats, walks
from .randkit import RngStream

SCHEMA_VERSION = 1
CHUNK = 4096


# ----------------------------------------------------------------------
# law descriptor parsing (shared by flags and worker processes)

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


def _config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# chunked replicate runner (order-stable, jobs-independent)

def _chunk_plan(total: int):
    return [(cid, min(CHUNK, total - cid * CHUNK)) for cid in range((total + CHUNK - 1) // CHUNK)]


def _call_chunk(task):
    worker, stream, count, payload = task
    return worker(stream.generator(), count, *payload)


def _run_chunks(worker, seed: int, total: int, jobs: int, payload: tuple, stream: int = 0):
    """``worker(rng, count, *payload)`` on each chunk of ``total`` replicates,
    results in chunk order.

    Chunk ``cid`` of the sample with stream id ``stream`` draws from
    ``RngStream(seed, (stream << 32) | cid)``: the address is (seed, sample,
    chunk), so results do not depend on ``jobs``.  The experiments use
    stream 0, so their chunk ``cid`` draws from ``RngStream(seed, cid)``.
    """
    tasks = [(worker, RngStream(seed, (stream << 32) | cid), count, payload)
             for cid, count in _chunk_plan(total)]
    if jobs <= 1 or len(tasks) == 1:
        return [_call_chunk(t) for t in tasks]
    # a fork pool starts every worker at the first submit, so ask for no
    # more workers than there are chunks
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_call_chunk, tasks))


def _run_counted(worker, seed: int, total: int, jobs: int, payload: tuple, stream: int = 0):
    """``_run_chunks`` for a worker that returns (array, count): the arrays
    joined in chunk order and the counts summed."""
    parts = _run_chunks(worker, seed, total, jobs, payload, stream)
    return np.concatenate([p[0] for p in parts]), sum(p[1] for p in parts)


def _chunk_sample_z(rng, count, alpha, beta, sampler, grid_step, eps):
    params = limitlaw.AlphaBeta(alpha, beta)
    if sampler == "pathint":
        return limitlaw.sample_z_pathint(params, grid_step, rng, size=count)
    if sampler == "expfunc":
        return limitlaw.sample_z_expfunctional(params, eps, rng, size=count)
    if sampler == "mittag-leffler":
        if beta != 0.0:
            raise ValueError("the direct Mittag-Leffler sampler requires beta = 0")
        return limitlaw.sample_mittag_leffler(alpha, rng, size=count)
    raise ValueError(f"unknown sampler {sampler!r}")


def _chunk_sieve(rng, count, wlaw_text, balls):
    batch = sieve.sample_occupancy(parse_wlaw(wlaw_text), balls, count, rng)
    table = np.stack([batch.occupied, batch.last_occupied, batch.empty_in_range], axis=1)
    return table, batch.truncated


def _prw_law(xi_text: str, eta_text: str, multiplier) -> walks.PrwLaw:
    xi_law = parse_marginal(xi_text)
    if multiplier is not None:
        return walks.PrwLaw.coupled(xi_law, multiplier)
    return walks.PrwLaw.independent(xi_law, parse_marginal(eta_text))


def _prw_scale(law: walks.PrwLaw, t: float, stat: str) -> float:
    """The factor that normalises ``prw --stat`` at ``t``.

    The empty-box and busy-server statistics are normalised by
    P{xi > t} / P{eta > t}, which must be defined; an unknown statistic, a
    t that is not finite nonnegative or an undefined normalisation raises
    ValueError before any path is drawn.
    """
    if stat not in walks.FUNCTIONALS:
        raise ValueError(f"unknown statistic {stat!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite nonnegative, got {t}")
    if stat in ("empty", "busy"):
        eta_tail = float(np.asarray(law.eta_tail(t)))
        if not eta_tail > 0.0:
            raise ValueError(
                f"--stat {stat} is normalised by P{{eta > t}}, which is 0 at t = {t}; "
                "choose an eta law with mass above t"
            )
        return float(np.asarray(law.xi_tail(t))) / eta_tail
    if stat == "renewals":
        return float(np.asarray(law.xi_tail(t)))
    return 1.0  # the window statistic carries its own normalisation


def _chunk_prw(rng, count, xi_text, eta_text, multiplier, t_values, stats, q_exponent):
    """Normalised walk functionals of ``count`` walks: column ``i * len(t_values) + j``
    holds ``stats[i]`` at ``t_values[j]``, all from the same walks."""
    law = _prw_law(xi_text, eta_text, multiplier)
    scales = [_prw_scale(law, t, stat) for stat in stats for t in t_values]
    q = lambda x: (1.0 + x) ** -q_exponent
    values = walks.walk_functionals(law, t_values, count, rng, stats, q=q)
    return np.hstack([values[stat] for stat in stats]) * scales


def _chunk_markov(rng, count, spec_json, n, method):
    spec = chains.chain_from_json(spec_json)
    if method == "direct":
        return chains.sample_zero_decrements(spec, n, count, rng)
    return chains.sample_geometric_rep(spec, n, count, rng)


# ----------------------------------------------------------------------
# output plumbing

_SCALAR = (str, int, float)


class Table:
    """A detail table held by column.

    A column is a scalar (the same value in every row: the config hash, the
    seed), a ``range``, a numpy array or a list; ``len()`` is the row count.
    """

    def __init__(self, *columns):
        sizes = {len(c) for c in columns if not isinstance(c, _SCALAR)}
        if len(sizes) != 1:
            raise ValueError(f"columns must share one length, got {sorted(sizes)}")
        self.columns = columns
        (self.rows,) = sizes

    def __len__(self) -> int:
        return self.rows


# Rows formatted and written at a time; peak memory is set by this, not by
# the row count.
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


def _write_detail(path: Path, fmt: str, header, table: Table) -> None:
    """Stream ``table`` to ``path``, BLOCK rows at a time.

    CSV is byte for byte what ``csv.writer`` writes for the rows with floats
    as ``repr``: CRLF line ends, minimal quoting (a row that is one empty
    field, which csv.writer writes as ``""``, cannot occur: every table here
    has at least two columns).  JSON is byte for byte
    ``json.dumps(records, sort_keys=True, indent=2) + "\n"``.
    """
    cell = _CELL[fmt]
    if fmt == "json":
        order = sorted(range(len(header)), key=header.__getitem__)
        opens = [("," if k else "  {") + f"\n    {json.dumps(header[i])}: "
                 for k, i in enumerate(order)]
        close, sep = "\n  }", ",\n"
        head, tail = ("[\n", "\n]\n") if len(table) else ("[]\n", "")
    else:
        order = range(len(header))
        opens = [""] + [","] * (len(header) - 1)
        close, sep = "\r\n", ""
        head, tail = ",".join(map(_csv_cell, header)) + "\r\n", ""
    # A row is literal text between the varying columns; the scalar
    # columns are formatted once, into that text.
    texts, varying = [""], []
    for text, i in zip(opens, order):
        column = table.columns[i]
        if isinstance(column, _SCALAR):
            texts[-1] += text + cell(column)
        else:
            texts[-1] += text
            texts.append("")
            varying.append(column)
    texts[-1] += close
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for start in range(0, len(table), BLOCK):
            parts = [repeat(texts[0])]
            for column, text in zip(varying, texts[1:]):
                parts += (_cells(column[start:start + BLOCK], fmt), repeat(text))
            if start:
                fh.write(sep)
            fh.write(sep.join(map("".join, zip(*parts))))
        fh.write(tail)


def _emit(outdir: Path, name: str, fmt: str, header, table: Table, summary: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_detail(outdir / f"{name}.{fmt}", fmt, header, table)
    summary_path = outdir / f"{name}.summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary_path


def _report(args, params: dict, header, columns, fields: dict, passed: bool,
            message: str) -> int:
    """Write an experiment's detail table and summary, print its line and
    return its exit code (0 if ``passed``, else 1).

    The experiment is ``args.command``.  ``header`` and ``columns`` are the
    detail columns after ``config_hash`` and ``seed``; ``fields`` are the
    summary entries beside the six common ones.
    """
    name = args.command
    cfg = _config_hash({"experiment": name, "seed": args.seed, **params})
    summary = {"schema_version": SCHEMA_VERSION, "experiment": name, "params": params,
               "seed": args.seed, "config_hash": cfg, "passed": bool(passed), **fields}
    _emit(args.out, f"{name}_{cfg}", args.format, ["config_hash", "seed", *header],
          Table(cfg, args.seed, *columns), summary)
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
    checks = {name: {"value": value, "tolerance": 1e-10, "passed": value <= 1e-10}
              for name, value in worst.items()}
    passed = all(c["passed"] for c in checks.values())
    return _report(
        args, params,
        ["order", "z_moment", "ml_moment", "factorial", "phi_product_rel_err"],
        [orders, [float(limitlaw.z_moment(ab, n)) for n in orders],
         [float(limitlaw.mittag_leffler_moment(args.alpha, n)) for n in orders],
         [float(math.factorial(n)) for n in orders], identity_err],
        {"checks": checks}, passed,
        f"moments: {'PASS' if passed else 'FAIL'} (max identity error {max(identity_err):.2e})")


def cmd_sample_z(args) -> int:
    # acceptance is imported where used, so a CLI start does not load the suite
    from . import acceptance

    params = {
        "alpha": args.alpha, "beta": args.beta, "n": args.n, "sampler": args.sampler,
        "grid_step": args.grid_step, "eps": args.eps,
    }
    payload = (args.alpha, args.beta, args.sampler, args.grid_step, args.eps)
    draws = np.concatenate(_run_chunks(_chunk_sample_z, args.seed, args.n, args.jobs, payload))
    ab = limitlaw.AlphaBeta(args.alpha, args.beta)
    est1, m1_t, tol1, ok1 = acceptance.moment_check(draws, ab, 1)
    est2, m2_t, tol2, ok2 = acceptance.moment_check(draws, ab, 2)
    ok = ok1 and ok2
    metrics = {
        "mean": est1.mean, "mean_stderr": est1.stderr, "target_mean": m1_t,
        "second_moment": est2.mean, "second_moment_stderr": est2.stderr,
        "target_second_moment": m2_t, "mean_tolerance": tol1, "second_moment_tolerance": tol2,
    }
    return _report(args, params, ["replicate", "value"], [range(draws.size), draws],
                   {"metrics": metrics}, ok,
                   f"sample-z: {'PASS' if ok else 'FAIL'} mean {est1.mean:.5f} vs {m1_t:.5f}, "
                   f"m2 {est2.mean:.5f} vs {m2_t:.5f}")


def cmd_sieve(args) -> int:
    from . import acceptance

    params = {"wlaw": args.wlaw, "balls": args.balls, "reps": args.reps}
    wlaw = parse_wlaw(args.wlaw)
    table, truncated = _run_counted(_chunk_sieve, args.seed, args.reps, args.jobs,
                                    (args.wlaw, args.balls))
    empty = table[:, 2]
    emp = chains.empirical_pmf(empty)
    metrics = {
        "mean_occupied": float(table[:, 0].mean()),
        "mean_empty": float(empty.mean()),
        "empty_pmf": [float(x) for x in emp.masses],
        "truncated": truncated,
    }
    passed = truncated == 0
    if wlaw.symmetric:
        tv, tv_ok = acceptance.geometric_half_check(emp)
        passed = passed and tv_ok
        metrics["tv_vs_geometric_half"] = tv
        metrics["tv_tolerance"] = acceptance.TV_TOL
    msg = f"sieve: {'PASS' if passed else 'FAIL'} mean empty {empty.mean():.4f}"
    if truncated:
        msg += f", {truncated} replicates truncated"
    if wlaw.symmetric:
        msg += f", TV vs geometric(1/2) {tv:.5f}"
    return _report(args, params,
                   ["replicate", "occupied", "last_occupied", "empty_in_range"],
                   [range(len(table)), *table.T], {"metrics": metrics}, passed, msg)


def cmd_prw(args) -> int:
    # the window weight Q(x) = (1+x)^(-q) must be finite and nonincreasing
    if not (math.isfinite(args.q_exponent) and args.q_exponent >= 0.0):
        raise ValueError(f"q exponent must be finite nonnegative, got {args.q_exponent}")
    params = {
        "xi": args.xi, "eta": args.eta, "coupled_multiplier": args.coupled_multiplier,
        "t": args.t, "stat": args.stat, "reps": args.reps, "q_exponent": args.q_exponent,
    }
    payload = (args.xi, args.eta, args.coupled_multiplier, (args.t,), (args.stat,),
               args.q_exponent)
    _prw_scale(_prw_law(args.xi, args.eta, args.coupled_multiplier), args.t, args.stat)
    values = np.concatenate(_run_chunks(_chunk_prw, args.seed, args.reps, args.jobs,
                                        payload))[:, 0]
    est = stats.mc_accumulate(values)
    # prw estimates a functional's mean and checks nothing: "passed" is true
    # because no check failed, and "checks" is empty to say that none ran
    return _report(args, params, ["replicate", "value"], [range(values.size), values],
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
        if kind == "dyadic":
            p = 2.0 ** -np.arange(1, args.n + 1, dtype=float)
        elif kind == "geom":
            q = float(param)
            p = (1.0 - q) * q ** np.arange(args.n, dtype=float)
        else:
            raise ValueError(f"unknown barrier step law {rest!r}")
        return chains.barrier_chain_spec(p, args.n)
    raise ValueError(f"unknown chain {args.chain!r}")


def cmd_markov(args) -> int:
    from . import acceptance

    spec = _build_chain(args)
    spec_json = chains.chain_to_json(spec)
    if args.export_spec:
        Path(args.export_spec).write_text(spec_json)
    # a loaded spec is named by its content, so the config hash and the
    # file names tell two spec files apart
    chain = args.chain
    if args.spec_json:
        chain = f"spec-json:{hashlib.sha256(spec_json.encode()).hexdigest()}"
    params = {"chain": chain, "n": args.n, "reps": args.reps}
    dp = chains.exact_zero_decrement_pmf(spec, args.n)
    sim = np.concatenate(_run_chunks(_chunk_markov, args.seed, args.reps, args.jobs,
                                     (spec_json, args.n, "direct")))
    rep = np.concatenate(_run_chunks(_chunk_markov, args.seed + 1, args.reps, args.jobs,
                                     (spec_json, args.n, "georep")))
    sim_pmf, rep_pmf, tv_sim, tv_rep, passed = acceptance.chain_sampler_check(dp, sim, rep)
    width = sim_pmf.masses.size
    metrics = {"tv_sim_vs_dp": tv_sim, "tv_georep_vs_dp": tv_rep,
               "tv_tolerance": acceptance.TV_TOL, "dp_tail_deficit": dp.tail_deficit}
    return _report(args, params, ["m", "dp_mass", "sim_freq", "georep_freq"],
                   [range(width), np.pad(dp.masses, (0, width - dp.masses.size)),
                    sim_pmf.masses, rep_pmf.masses],
                   {"metrics": metrics}, passed,
                   f"markov: {'PASS' if passed else 'FAIL'} TV sim {tv_sim:.5f}, "
                   f"TV georep {tv_rep:.5f}")


def _verify_line(res, seconds: float) -> str:
    """A criterion's report line with its wall time; stdout only, never
    in ``--out``, so output files do not depend on timing."""
    return f"{res.report_line()} [{seconds:.2f} s]"


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
    return _report(args, {"suite": args.suite}, ["criterion", "name", "passed", "details"],
                   [[r.number for r in runs], [r.name for r in runs],
                    [r.passed for r in runs], [r.details for r in runs]],
                   {"criteria": results}, passed,
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
