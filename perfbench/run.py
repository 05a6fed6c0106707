#!/usr/bin/env python3
"""sievesim benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zlaw --seed 20260811 --seconds 30 --trace 0

Each workload is a closed loop: this one process is the only client and
runs its CLI operations back to back, in-process, through
``sievesim.cli.main`` with ``src`` on the import path (the package need
not be installed).  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats passes over the workload at ``--jobs 2`` for about
``--seconds`` and reports the end-to-end metrics, each time a sum of
per-operation medians.  ``--trace 1`` runs each operation once at
``--jobs 2`` and once untraced and once traced at ``--jobs 1``, and
reports the per-layer metrics of the traced runs (see ``tracing.py``).

Every file an operation writes into ``--out`` is hashed and must be
byte-identical across passes and across ``--jobs``.  ``--out`` and the
program's temporary files live in a fresh directory under ``.bench_out/``
that is removed at the end; timing and fingerprint data never go there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DEFAULT_SEED = 20260811
TIMED_JOBS = 2
SETUP_FIRST = 5
IMPORT = (sys.executable, "-c", "import sievesim.cli")
RECORD = b'"config_hash":'

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class OpResult:
    wall: float
    cpu: float
    digest: dict  # file name -> sha256 of what the operation wrote into --out
    detail_bytes: int
    verdict_failed: bool  # exit code 1 or "passed": false: the program's own check failed
    problems: list = field(default_factory=list)  # the benchmark's checks that failed

    @property
    def failed(self) -> bool:
        return self.verdict_failed or bool(self.problems)


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children
    (the CLI joins its pool workers before returning)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _reset_process_state():
    """Make each operation see what a fresh ``sievesim`` process sees.

    The verification module memoises limit-law draws per process; without
    this, every pass after the first would skip that work.  Collecting the
    previous operation's garbage keeps it out of this one's time and peak
    RSS.
    """
    acceptance = sys.modules.get("sievesim.acceptance")
    cache = getattr(acceptance, "_Z_CACHE", None)
    if cache is not None:
        cache.clear()
    gc.collect()


def _collect(out: Path, op: workloads.Op, problems: list):
    """Hash, check and delete every file the operation wrote into ``out``.

    Returns (digest, detail bytes, the summary's "passed" flag or None).
    """
    digest, detail_bytes, passed = {}, 0, None
    summaries = details = 0
    for path in sorted(out.iterdir()):
        sha = hashlib.sha256()
        newlines = records = 0
        carry = b""
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
                newlines += block.count(b"\n")
                records += (carry + block).count(RECORD)
                carry = block[1 - len(RECORD):]
        digest[path.name] = sha.hexdigest()
        if path.name.endswith(".summary.json"):
            summaries += 1
            passed = json.loads(path.read_text()).get("passed")
            if not isinstance(passed, bool):
                problems.append(f"{path.name} has no boolean 'passed'")
                passed = None
        else:
            details += 1
            detail_bytes += path.stat().st_size
            rows = records if path.suffix == ".json" else newlines - 1
            if op.rows is not None and rows != op.rows:
                problems.append(f"{path.name} holds {rows} rows, expected {op.rows}")
        path.unlink()
    if (summaries, details) != (1, 1):
        problems.append(f"wrote {summaries} summary and {details} detail files, expected 1 and 1")
    return digest, detail_bytes, passed


def run_op(cli, op: workloads.Op, seed: int, jobs: int, out: Path, reference=None) -> OpResult:
    """Run one operation; its outputs must hash to ``reference`` when given."""
    argv = [*op.argv, "--seed", str(seed), "--out", str(out), "--jobs", str(jobs)]
    _reset_process_state()
    printed = io.StringIO()
    problems = []
    code = None
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed operation, not the end of the run
        problems.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if code not in (0, 1, None):
        problems.append(f"exit code {code}")
    digest, detail_bytes, passed = _collect(out, op, problems)
    if code in (0, 1) and passed is not None and passed != (code == 0):
        problems.append(f"exit code {code} disagrees with summary passed={passed}")
    if reference is not None and digest != reference:
        problems.append("outputs differ from the reference pass")
    result = OpResult(wall, cpu, digest, detail_bytes, code == 1 or passed is False, problems)
    if result.failed:
        print(f"FAILED sievesim {' '.join(argv)}", file=sys.stderr)
        for line in [*problems, *printed.getvalue().splitlines()[-5:]]:
            print(f"  {line}", file=sys.stderr)
    return result


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_import(env: dict) -> float:
    """Wall time of one fresh interpreter importing the CLI."""
    # No timeout: with one, the wait polls at up to 50 ms intervals.
    t0 = time.perf_counter()
    subprocess.run(IMPORT, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(("git", "-C", str(ROOT), "rev-parse", "HEAD"),
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def _filesystem(path: Path):
    try:
        done = subprocess.run(("stat", "-f", "-c", "%T", str(path)),
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def fingerprint(seed: int, jobs, out: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "out_filesystem": _filesystem(out),
    }


def _outcome(results) -> dict:
    return {
        "correct": not any(r.problems for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
    }


def timed_run(cli, name: str, ops, seed: int, seconds: float, out: Path, tiny: bool):
    env = _import_env()
    time_import(env)  # compiles bytecode and fills the page cache; not counted
    # Set-up samples are spread over the run, one after each operation, so
    # that their median does not hang on a few seconds of contention.
    setup = [time_import(env) for _ in range(SETUP_FIRST)]
    if not tiny:
        for op in workloads.TINY[name]():  # warm-up, not counted
            run_op(cli, op, seed, TIMED_JOBS, out)
    passes = []
    started = time.perf_counter()
    while True:
        refs = [r.digest for r in passes[0]] if passes else [None] * len(ops)
        results = []
        for op, ref in zip(ops, refs):
            results.append(run_op(cli, op, seed, TIMED_JOBS, out, ref))
            setup.append(time_import(env))
        passes.append(results)
        elapsed = time.perf_counter() - started
        if tiny or elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # One operation's samples are its runs in successive passes.  Summing
    # per-operation medians keeps a burst of contention during one
    # operation out of the result.
    per_op = list(zip(*passes))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(r.wall for r in runs) for runs in per_op),
        "cpu_s": sum(statistics.median(r.cpu for r in runs) for runs in per_op),
        "peak_rss_mb": peak_rss_mb,
    }
    results = [r for p in passes for r in p]
    outcome = _outcome(results)
    lines = [
        f"workload {name}, seed {seed}, --jobs {TIMED_JOBS}: "
        f"{len(passes)} passes of {len(ops)} operations in {elapsed:.1f} s",
        *(f"  op {i}: wall " + " ".join(f"{r.wall:.3f}" for r in runs)
          + " s, cpu " + " ".join(f"{r.cpu:.3f}" for r in runs) + f" s  sievesim {' '.join(op.argv)}"
          for i, (op, runs) in enumerate(zip(ops, per_op))),
        f"setup_s     {values['setup_s']:.4f} s   median of {len(setup)} fresh imports of sievesim.cli",
        f"wall_s      {values['wall_s']:.4f} s   sum over operations of the median wall time",
        f"cpu_s       {values['cpu_s']:.4f} s   the same for CPU time, pool workers included",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB  peak RSS of the benchmark process",
        f"fail_ratio  {outcome['failed'] / outcome['attempted']:.4f} ratio "
        f"({outcome['failed']} of {outcome['attempted']} operations failed)",
    ]
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, outcome, lines


def traced_run(cli, name: str, ops, seed: int, out: Path, fp: dict):
    """Each operation runs three times back to back: at ``--jobs 2`` for the
    reference digests, then untraced and traced at ``--jobs 1``.  Running
    the untraced and traced copies side by side keeps drift in machine
    speed out of the overhead figure."""
    tracer = tracing.Tracer()
    base, plain, traced = [], [], []
    for op in ops:
        base.append(run_op(cli, op, seed, TIMED_JOBS, out))
        reference = base[-1].digest
        plain.append(run_op(cli, op, seed, 1, out, reference))
        tracer.install()
        try:
            traced.append(run_op(cli, op, seed, 1, out, reference))
        finally:
            tracer.uninstall()
    plain_wall = sum(r.wall for r in plain)
    traced_wall = sum(r.wall for r in traced)
    values = tracing.layer_metrics(
        tracer.spans,
        detail_bytes=sum(r.detail_bytes for r in traced),
        overhead_pct=100.0 * (traced_wall / plain_wall - 1.0),
    )
    outcome = _outcome(base + plain + traced)
    lines = [f"workload {name}, seed {seed}: traced --jobs 1 {traced_wall:.3f} s, "
             f"untraced --jobs 1 {plain_wall:.3f} s, --jobs 2 "
             f"{sum(r.wall for r in base):.3f} s; "
             f"{outcome['failed']} of {outcome['attempted']} operations failed"]
    if tracer.missing:
        lines.append(f"not in the package any more, so not traced: {', '.join(tracer.missing)}")
    for key, (unit, _, moves) in tracing.PER_LAYER.items():
        lines.append(f"{key:36s} {values[key]:14.6g} {unit:6s} -> {moves}")
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _, _) in tracing.PER_LAYER.items()}
    trace_file = WORK / f"trace-{name}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(trace_file, "w") as fh:
        json.dump({
            "workload": name,
            "fingerprint": fp,
            "metrics": {k: {"value": values[k], "unit": u, "moves": mv}
                        for k, (u, _, mv) in tracing.PER_LAYER.items()},
            "spans": [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in tracer.spans],
        }, fh, separators=(",", ":"))
    lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, outcome, lines


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result object, report lines)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from sievesim import cli

    ops = (workloads.TINY if tiny else workloads.WORKLOADS)[name]()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    out, tmp = work / "out", work / "tmp"
    out.mkdir()
    tmp.mkdir()
    saved = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = os.environ["TMPDIR"] = str(tmp)  # the CLI's own temporary files
    try:
        fp = fingerprint(seed, [TIMED_JOBS, 1] if trace else TIMED_JOBS, out)
        if trace:
            metrics, outcome, lines = traced_run(cli, name, ops, seed, out, fp)
        else:
            metrics, outcome, lines = timed_run(cli, name, ops, seed, seconds, out, tiny)
        lines.append("fingerprint " + json.dumps(fp))
    finally:
        tempfile.tempdir = saved[0]
        if saved[1] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved[1]
        shutil.rmtree(work, ignore_errors=True)
    return {**outcome, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole passes for about this long (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sievesim" / "cli.py").is_file():
        print(f"error: no sievesim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 1
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
