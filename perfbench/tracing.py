"""Per-layer tracing from outside the package.

A ``Tracer`` replaces chosen public functions of the ``sievesim`` modules
with wrappers that record one span each (name, start, end, parent span,
counts taken from the return value).  Spans stay in memory until the run
ends.  Only entry points are wrapped, never per-element helpers such as
``as_generator`` or ``gamma_fn``: their call counts would turn wrapper
overhead into most of the measured time.

Spans inside pool workers cannot be seen from here, so traced passes run
at ``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

LAYERS = ("randkit", "limitlaw", "walks", "sieve", "chains", "stats", "acceptance", "cli")
CRITERIA = (1, 2, 7, 8, 9, 10, 13, 14, 15)

_CLI = "wall_s, peak_rss_mb on detail"
_ZLAW = "wall_s, cpu_s on zlaw"
_CHECKS = "wall_s on checks"

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.self_s": ("s", "lower", _CLI),
    "cli.ns_per_row": ("ns", "lower", _CLI),
    "cli.rows": ("count", "higher", _CLI + " (repeats exactly)"),
    "cli.detail_bytes": ("bytes", "lower", _CLI + " (repeats exactly)"),
    "cli.chunks": ("count", "lower", _CLI + " (repeats exactly)"),
    "limitlaw.self_s": ("s", "lower", _ZLAW),
    "limitlaw.pathint_us_per_draw.a050": ("us", "lower", _ZLAW),
    "limitlaw.pathint_us_per_draw.a075": ("us", "lower", _ZLAW),
    "limitlaw.pathint_us_per_draw.a060": ("us", "lower", _CHECKS),
    "limitlaw.expfunc_us_per_draw": ("us", "lower", _ZLAW),
    "limitlaw.draws": ("count", "higher", _ZLAW + " (repeats exactly)"),
    "randkit.self_s": ("s", "lower", "wall_s on detail"),
    "randkit.stable_ns_per_draw": ("ns", "lower", "wall_s on detail"),
    "sieve.self_s": ("s", "lower", _CHECKS + ", a smaller share on detail"),
    "sieve.lockstep_ns_per_rep": ("ns", "lower", _CHECKS + ", a smaller share on detail"),
    "sieve.interval_us_per_rep": ("us", "lower", _CHECKS),
    "sieve.reps": ("count", "higher", _CHECKS + " (repeats exactly)"),
    "sieve.truncated": ("count", "lower", "guards fail_ratio; must stay 0"),
    "chains.self_s": ("s", "lower", _CHECKS),
    "chains.spec_s": ("s", "lower", _CHECKS),
    "chains.dp_s": ("s", "lower", _CHECKS),
    "chains.dp_columns": ("count", "lower", _CHECKS + " (repeats exactly)"),
    "chains.sampler_ns_per_rep": ("ns", "lower", _CHECKS),
    "chains.dp_tail_deficit_max": ("prob", "lower", "guard: stays at or below 1e-12"),
    "walks.self_s": ("s", "lower", _CHECKS),
    "walks.us_per_path": ("us", "lower", _CHECKS),
    "walks.functional_s": ("s", "lower", _CHECKS),
    "walks.paths": ("count", "higher", _CHECKS + " (repeats exactly)"),
    "stats.self_s": ("s", "lower", "guard: near 0 on every workload"),
    "acceptance.self_s": ("s", "lower", _CHECKS),
    **{f"acceptance.criterion_s.{n}": ("s", "lower", _CHECKS) for n in CRITERIA},
    **{f"{layer}.share_pct": ("%", "lower", "the workload's purpose (share of traced time)")
       for layer in LAYERS},
    "trace.overhead_pct": ("%", "lower", "none: traced against untraced --jobs 1 wall time"),
    "trace.spans": ("count", "lower", "none: spans recorded in the traced pass"),
}


def _size(result, args, kwargs):
    return {"n": int(getattr(result, "size", 1))}


def _pathint(result, args, kwargs):
    return {"n": int(getattr(result, "size", 1)), "alpha": float(args[0].alpha)}


def _occupancy(result, args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "multinomial")
    return {"n": int(result.occupied.size), "truncated": int(result.truncated),
            "method": method}


def _pmf(result, args, kwargs):
    return {"n": int(result.masses.size), "deficit": float(result.tail_deficit)}


def _criterion(result, args, kwargs):
    return {"criterion": int(result.number)}


def _chunks(result, args, kwargs):
    return {"n": len(result)}


def _emit(result, args, kwargs):
    # cli._emit(outdir, name, fmt, header, rows, summary)
    return {"n": len(args[4] if len(args) > 4 else kwargs["rows"])}


# (module, function, counts taken from the call)
TARGETS = (
    ("cli", "main", None),
    ("cli", "_run_chunks", _chunks),
    ("cli", "_emit", _emit),
    ("limitlaw", "sample_z_pathint", _pathint),
    ("limitlaw", "sample_z_expfunctional", _size),
    ("limitlaw", "sample_mittag_leffler", _size),
    ("limitlaw", "z_moment", None),
    ("limitlaw", "mittag_leffler_moment", None),
    ("limitlaw", "phi_alpha", None),
    ("randkit", "sample_stable", _size),
    ("sieve", "sample_occupancy", _occupancy),
    ("sieve", "limit_trend_experiment", None),
    ("sieve", "mean_empty_given_freqs", None),
    ("sieve", "var_empty_given_freqs", None),
    ("chains", "sieve_chain_spec", None),
    ("chains", "barrier_chain_spec", None),
    ("chains", "exact_zero_decrement_pmf", _pmf),
    ("chains", "sample_zero_decrements", _size),
    ("chains", "sample_geometric_rep", _size),
    ("chains", "chain_to_json", None),
    ("chains", "chain_from_json", None),
    ("chains", "empirical_pmf", None),
    ("chains", "geometric_pmf", None),
    ("chains", "mixed_poisson_diagnostic", None),
    ("walks", "generate_path", None),
    ("walks", "empty_box_functional", None),
    ("walks", "busy_server_count", None),
    ("walks", "weighted_window_statistic", None),
    ("walks", "renewal_count", None),
    ("stats", "mc_accumulate", None),
    ("stats", "ks_two_sample", None),
    ("stats", "ks_one_sample", None),
    ("stats", "tv_distance", None),
    ("acceptance", "run_criterion", _criterion),
)

_SPEC_BUILDERS = {"chains.sieve_chain_spec", "chains.barrier_chain_spec"}
_CHAIN_SAMPLERS = {"chains.sample_zero_decrements", "chains.sample_geometric_rep"}
_WALK_FUNCTIONALS = {"walks.empty_box_functional", "walks.busy_server_count",
                     "walks.weighted_window_statistic", "walks.renewal_count"}


class Tracer:
    """Records nested spans of wrapped functions, single-threaded."""

    def __init__(self):
        # (name, start, end, parent index or -1, counts or None)
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.missing: list = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if count is not None:
                spans[index] = (name, start, end, parent, count(result, args, kwargs))
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap each target in every ``sievesim`` module that binds it.

        Targets the package no longer has are listed in ``missing``; their
        metrics then read 0.
        """
        self.missing = []
        for module_name, func_name, count in targets:
            module = importlib.import_module(f"sievesim.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapped = self.wrap(f"{module_name}.{func_name}", original, count)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "sievesim" and not name.startswith("sievesim."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, detail_bytes: int, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced pass.  Self time is a span's
    duration minus the time its direct child spans cover."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = defaultdict(float)
    dur = defaultdict(float)
    n = defaultdict(int)
    calls = defaultdict(int)
    pathint = defaultdict(lambda: [0.0, 0])
    occupancy = defaultdict(lambda: [0.0, 0])
    criterion_s = defaultdict(float)
    truncated = 0
    deficit_max = 0.0
    total = 0.0
    for index, (name, start, end, parent, counts) in enumerate(spans):
        d = end - start
        self_s[name.split(".", 1)[0]] += d - children[index]
        dur[name] += d
        calls[name] += 1
        if parent < 0:
            total += d
        if not counts:
            continue
        n[name] += counts.get("n", 0)
        if "alpha" in counts:
            acc = pathint[f"a{round(counts['alpha'] * 100):03d}"]
            acc[0] += d
            acc[1] += counts["n"]
        if "method" in counts:
            acc = occupancy[counts["method"]]
            acc[0] += d
            acc[1] += counts["n"]
            truncated += counts["truncated"]
        if "deficit" in counts:
            deficit_max = max(deficit_max, counts["deficit"])
        if "criterion" in counts:
            criterion_s[counts["criterion"]] += d

    def total_of(table, names):
        return sum(table[k] for k in names)

    paths = calls["walks.generate_path"]
    rows = n["cli._emit"]
    m = {
        "cli.self_s": self_s["cli"],
        "cli.ns_per_row": _ratio(self_s["cli"], rows, 1e9),
        "cli.rows": rows,
        "cli.detail_bytes": detail_bytes,
        "cli.chunks": n["cli._run_chunks"],
        "limitlaw.self_s": self_s["limitlaw"],
        "limitlaw.expfunc_us_per_draw": _ratio(
            dur["limitlaw.sample_z_expfunctional"], n["limitlaw.sample_z_expfunctional"], 1e6),
        "limitlaw.draws": total_of(n, ("limitlaw.sample_z_pathint",
                                       "limitlaw.sample_z_expfunctional",
                                       "limitlaw.sample_mittag_leffler")),
        "randkit.self_s": self_s["randkit"],
        "randkit.stable_ns_per_draw": _ratio(
            dur["randkit.sample_stable"], n["randkit.sample_stable"], 1e9),
        "sieve.self_s": self_s["sieve"],
        "sieve.lockstep_ns_per_rep": _ratio(*occupancy["multinomial"], 1e9),
        "sieve.interval_us_per_rep": _ratio(*occupancy["uniform"], 1e6),
        "sieve.reps": n["sieve.sample_occupancy"],
        "sieve.truncated": truncated,
        "chains.self_s": self_s["chains"],
        "chains.spec_s": total_of(dur, _SPEC_BUILDERS),
        "chains.dp_s": dur["chains.exact_zero_decrement_pmf"],
        "chains.dp_columns": n["chains.exact_zero_decrement_pmf"],
        "chains.sampler_ns_per_rep": _ratio(total_of(dur, _CHAIN_SAMPLERS),
                                            total_of(n, _CHAIN_SAMPLERS), 1e9),
        "chains.dp_tail_deficit_max": deficit_max,
        "walks.self_s": self_s["walks"],
        "walks.us_per_path": _ratio(self_s["walks"], paths, 1e6),
        "walks.functional_s": total_of(dur, _WALK_FUNCTIONALS),
        "walks.paths": paths,
        "stats.self_s": self_s["stats"],
        "acceptance.self_s": self_s["acceptance"],
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(spans),
    }
    for key in ("a050", "a060", "a075"):
        m[f"limitlaw.pathint_us_per_draw.{key}"] = _ratio(*pathint[key], 1e6)
    for number in CRITERIA:
        m[f"acceptance.criterion_s.{number}"] = criterion_s[number]
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = _ratio(self_s[layer], total, 100.0)
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"metric table out of step: {sorted(set(m) ^ set(PER_LAYER))}")
    return {k: float(v) if math.isfinite(v) else 0.0 for k, v in m.items()}
