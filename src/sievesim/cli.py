"""Command-line front end: named experiments plus the verification suite.

Every chunked sample is drawn through ``runner.run_chunks``, so output files
are byte-identical for a given config regardless of ``--jobs``, and a bad
payload exits 2 before a file or a pool exists.  Every command writes its
detail file through one ``Detail``, deleted if the run fails: the process
that draws a chunk formats its rows and reduces its sample to what the
summary needs, and the parent writes the rows and folds the reductions in
chunk order as chunks arrive, so it never holds a whole sample; the small
tables go in blocks of rows.  Output files carry no timestamps; metric rows
carry the config hash and seed.  Exit codes: 0 all checks in scope passed,
1 a check failed, 2 invalid configuration, 3 a run could not finish because
a step, depth or count budget ran out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import AbstractContextManager
from itertools import repeat
from pathlib import Path

import numpy as np

from . import chains, limitlaw, sieve, stats, walks
from .checks import (EXACT_TOL, TV_TOL, chain_sampler_check, geometric_half_check, moment_check,
                     moment_identity_errors)
from .runner import (chunk_markov, chunk_prw, chunk_sample_z, chunk_sieve, reduce_prw,
                     reduce_sieve, reduce_z)
# bound under the name perfbench/tracing.py wraps to count cli.chunks
from .runner import run_chunks as _run_chunks

SCHEMA_VERSION = 1


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
# output plumbing

_SCALAR = (str, int, float)


# Rows the parent formats at a time; a chunk worker formats its
# runner.CHUNK rows at once.  Peak memory is set by these, not by the row count.
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
    params = {"alpha": args.alpha, "beta": args.beta, "nmax": args.nmax}
    ab = limitlaw.AlphaBeta(args.alpha, args.beta)
    orders = range(1, args.nmax + 1)
    identity_err, factorial_err, ml_err = zip(*moment_identity_errors(args.alpha, orders))
    worst = {"phi_product_identity": max(identity_err)}
    if args.beta == args.alpha:
        worst["z_equals_factorial"] = max(factorial_err)
    if args.beta == 0.0:
        worst["z_equals_mittag_leffler"] = max(ml_err)
    tol = EXACT_TOL
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
    params = {"alpha": args.alpha, "beta": args.beta, "n": args.n, "sampler": args.sampler,
              "grid_step": args.grid_step, "eps": args.eps}
    ab = limitlaw.AlphaBeta(args.alpha, args.beta)
    detail = _detail(args, params, ["replicate", "value"])
    parts = _run_chunks(chunk_sample_z, args.seed, args.n, args.jobs,
                        (ab, args.sampler, args.grid_step, args.eps), detail=detail,
                        reduce=reduce_z)
    est1, m1_t, tol1, ok1 = moment_check(stats.mc_merge(p[0] for p in parts), ab, 1)
    est2, m2_t, tol2, ok2 = moment_check(stats.mc_merge(p[1] for p in parts), ab, 2)
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
    params = {"wlaw": args.wlaw, "balls": args.balls, "reps": args.reps}
    wlaw = parse_wlaw(args.wlaw)
    detail = _detail(args, params, ["replicate", "occupied", "last_occupied", "empty_in_range"])
    parts = _run_chunks(chunk_sieve, args.seed, args.reps, args.jobs, (wlaw, args.balls),
                        detail=detail, reduce=reduce_sieve)
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
        tv, tv_ok = geometric_half_check(emp)
        passed = passed and tv_ok
        metrics["tv_vs_geometric_half"] = tv
        metrics["tv_tolerance"] = TV_TOL
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
    est = stats.mc_merge(_run_chunks(chunk_prw, args.seed, args.reps, args.jobs,
                                     (law, (args.t,), (args.stat,), args.q_exponent),
                                     detail=detail, reduce=reduce_prw))
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
    sim, rep = (_run_chunks(chunk_markov, args.seed, args.reps, args.jobs,
                            (spec, args.n, sample), stream=stream, reduce=np.bincount)
                for stream, sample in enumerate((chains.sample_zero_decrements,
                                                 chains.sample_geometric_rep)))
    sim_pmf, rep_pmf, tv_sim, tv_rep, passed = chain_sampler_check(dp, sim, rep)
    width = sim_pmf.masses.size
    # an exact sampler's mean TV at these reps, as E|p_hat - p| ~ sqrt(2 p (1 - p) /
    # (pi reps)); the tolerance is fixed, so a correct sampler can fail at small reps
    p = dp.masses
    noise = float(0.5 * np.sqrt(2.0 * p * (1.0 - p) / (math.pi * args.reps)).sum())
    metrics = {"tv_sim_vs_dp": tv_sim, "tv_georep_vs_dp": tv_rep,
               "tv_tolerance": TV_TOL, "dp_tail_deficit": dp.tail_deficit,
               "expected_sampling_tv": noise}
    with _detail(args, params, ["m", "dp_mass", "sim_freq", "georep_freq"]) as detail:
        detail.write_columns([range(width), np.pad(dp.masses, (0, width - dp.masses.size)),
                              sim_pmf.masses, rep_pmf.masses])
    return _report(args, params, detail, {"metrics": metrics}, passed,
                   f"markov: {'PASS' if passed else 'FAIL'} TV sim {tv_sim:.5f}, "
                   f"TV georep {tv_rep:.5f} (expected sampling TV {noise:.5f}, "
                   f"tolerance {TV_TOL})")


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
