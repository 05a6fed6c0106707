import csv
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sievesim import cli, limitlaw, sieve, walks
from sievesim.cli import (BLOCK, CHUNK, Table, _chunk_plan, _chunk_prw, _emit, _write_detail,
                          main, parse_marginal, parse_wlaw)
from sievesim.randkit import RngStream
from sievesim.sieve import BetaW, LogParetoMixtureW, UniformW
from sievesim.walks import ExponentialLaw, ParetoLaw


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestParsing:
    def test_wlaw_descriptors(self):
        assert isinstance(parse_wlaw("uniform"), UniformW)
        beta = parse_wlaw("beta:2,3")
        assert isinstance(beta, BetaW) and (beta.a, beta.b) == (2.0, 3.0)
        mix = parse_wlaw("mixture:0.6,0.3,0.5")
        assert isinstance(mix, LogParetoMixtureW)
        with pytest.raises(ValueError):
            parse_wlaw("cauchy")

    def test_marginal_descriptors(self):
        assert isinstance(parse_marginal("pareto:0.5"), ParetoLaw)
        assert isinstance(parse_marginal("exp:2.0"), ExponentialLaw)
        with pytest.raises(ValueError):
            parse_marginal("pareto")


class TestExitCodes:
    def test_missing_seed_is_config_error(self, tmp_path):
        assert run_cli("sieve", "--wlaw", "uniform", "--balls", "10", "--out", tmp_path) == 2

    def test_bad_law_is_config_error(self, tmp_path):
        code = run_cli("sieve", "--wlaw", "nope", "--balls", "10", "--reps", "100",
                       "--seed", "1", "--out", tmp_path)
        assert code == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    @pytest.mark.parametrize("argv", [
        ("sieve", "--wlaw", "uniform", "--balls", "10", "--reps", "0"),
        ("markov", "--n", "5", "--reps", "-3"),
        ("sample-z", "--alpha", "0.5", "--beta", "0.5", "--n", "0"),
        ("markov", "--n", "0"),
        ("sieve", "--wlaw", "uniform", "--balls", "10", "--reps", "10", "--jobs", "0"),
        ("moments", "--alpha", "0.5", "--beta", "0.5", "--jobs", "-2"),
        ("moments", "--alpha", "0.5", "--beta", "0.5", "--nmax", "0"),
    ])
    def test_nonpositive_counts_rejected_when_parsed(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--seed", "1", "--out", tmp_path) == 2
        assert "must be a positive integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_exhausted_budget_exits_three(self, tmp_path, capsys):
        # stay probability 0.9999 needs far more DP columns than the count budget
        code = run_cli("markov", "--chain", "barrier:geom:0.9999", "--n", "2", "--reps", "10",
                       "--seed", "1", "--out", tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestChunkPlan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=20 * CHUNK))
    def test_covers_total_in_index_order(self, total):
        plan = _chunk_plan(total)
        assert [cid for cid, _ in plan] == list(range(len(plan)))
        assert sum(count for _, count in plan) == total
        assert all(count == CHUNK for _, count in plan[:-1])
        assert 1 <= plan[-1][1] <= CHUNK


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and maps in this process, so no worker is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


class TestJobs:
    def test_pool_is_capped_at_the_chunk_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        code = run_cli("sieve", "--wlaw", "uniform", "--balls", "20", "--reps", 2 * CHUNK,
                       "--jobs", "64", "--seed", "3", "--out", tmp_path)
        assert code == 0
        assert _RecordingPool.sizes == [2]

    def test_one_job_or_one_chunk_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        chunk_size = lambda rng, count: count
        assert cli._run_chunks(chunk_size, 1, 2 * CHUNK, 1, ()) == [CHUNK, CHUNK]
        assert cli._run_chunks(chunk_size, 1, CHUNK, 8, ()) == [CHUNK]
        assert _RecordingPool.sizes == []

    def test_experiment_chunks_draw_from_the_plain_chunk_streams(self):
        # stream 0, the experiments' default: chunk cid draws from RngStream(seed, cid)
        head = lambda rng, count: rng.random(4)
        got = cli._run_chunks(head, 7, 2 * CHUNK + 1, 1, ())
        assert all(np.array_equal(g, RngStream(7, cid).generator().random(4))
                   for cid, g in enumerate(got))


def _reference_detail(path: Path, fmt: str, header, rows):
    """The reference for the detail writer: one row tuple per replicate
    through csv.writer, or a list of records through json.dumps."""
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(records, sort_keys=True, indent=2) + "\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                   2.2250738585072014e-308, 1e300, -1.5, 0.1]
_TEXT = st.text(st.sampled_from(',"\r\n ;aZ%{}:\\\x00é☃'), max_size=6) | st.text(max_size=6)
_SCALARS = st.one_of(st.integers(-10**12, 10**12), st.sampled_from(_SPECIAL_FLOATS),
                     st.floats(), st.booleans(), _TEXT)
_COLUMNS = st.one_of(
    _SCALARS.map(lambda v: ("scalar", v)),
    st.just(("range", None)),
    st.lists(st.integers(-2**63, 2**63 - 1), min_size=1).map(lambda v: ("int64", v)),
    st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(), min_size=1)
    .map(lambda v: ("float64", v)),
    st.lists(st.booleans(), min_size=1).map(lambda v: ("bool", v)),
    st.lists(_SCALARS, min_size=1).map(lambda v: ("list", v)),
)


def _column(kind, values, rows):
    """A column of ``rows`` cells, cycling through ``values``."""
    if kind == "scalar":
        return values
    if kind == "range":
        return range(rows)
    cycled = [values[i % len(values)] for i in range(rows)]
    return cycled if kind == "list" else np.array(cycled, dtype=kind)


def _cell_values(column, rows):
    if isinstance(column, (str, int, float)):
        return [column] * rows
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


class TestDetailWriter:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fmt=st.sampled_from(["csv", "json"]),
           header=st.lists(_TEXT, min_size=2, max_size=6, unique=True),
           rows=st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1]),
           specs=st.lists(_COLUMNS, min_size=6, max_size=6))
    @example(fmt="json", header=["b", "a"], rows=0,
             specs=[("scalar", "x"), ("range", None)] + [("scalar", 1)] * 4)
    @example(fmt="csv", header=["seed", "value"], rows=BLOCK + 1,
             specs=[("scalar", 7), ("float64", _SPECIAL_FLOATS)] + [("scalar", 1)] * 4)
    @example(fmt="json", header=["seed", "value"], rows=BLOCK + 1,
             specs=[("scalar", 7), ("float64", _SPECIAL_FLOATS)] + [("scalar", 1)] * 4)
    def test_bytes_match_the_row_writer(self, tmp_path_factory, fmt, header, rows, specs):
        specs = specs[:len(header)]
        if all(kind == "scalar" for kind, _ in specs):
            specs[-1] = ("range", None)  # a table takes its row count from a column
        columns = [_column(kind, values, rows) for kind, values in specs]
        out = tmp_path_factory.mktemp("detail")
        _write_detail(out / "new", fmt, header, Table(*columns))
        _reference_detail(out / "old", fmt, header,
                          list(zip(*(_cell_values(c, rows) for c in columns))))
        assert (out / "new").read_bytes() == (out / "old").read_bytes()

    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError):
            Table("cfg", 1, range(3), np.zeros(4))
        with pytest.raises(ValueError):
            Table("cfg", 1)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_rows(self, fmt, tmp_path):
        # the rows of `sieve --wlaw uniform --balls 100`
        header = ["config_hash", "seed", "replicate", "occupied", "last_occupied",
                  "empty_in_range"]
        # one BLOCK and a partial one, then four and a partial one: enough
        # for a writer that holds every row to show its growth
        batch = sieve.sample_occupancy(UniformW(), 100, 20_000, np.random.default_rng(5))
        counts = (batch.occupied, batch.last_occupied, batch.empty_in_range)
        peaks = []
        for rows in (5_000, 20_000):
            table = Table("0123456789ab", 20260811, range(rows), *(c[:rows] for c in counts))
            tracemalloc.start()
            try:
                _emit(tmp_path, f"t{rows}", fmt, header, table, {"passed": True})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert max(peaks) < 16 * 2**20


class TestMomentsCommand:
    def test_identities_pass(self, tmp_path):
        code = run_cli("moments", "--alpha", "0.5", "--beta", "0.25",
                       "--seed", "3", "--out", tmp_path)
        assert code == 0
        summaries = list(Path(tmp_path).glob("moments_*.summary.json"))
        assert len(summaries) == 1
        payload = json.loads(summaries[0].read_text())
        assert payload["passed"] is True
        assert payload["checks"]["phi_product_identity"]["passed"] is True
        csv_files = list(Path(tmp_path).glob("moments_*.csv"))
        header = csv_files[0].read_text().splitlines()[0]
        assert header.split(",")[:3] == ["config_hash", "seed", "order"]


class TestSampleZCommand:
    def test_small_run_passes(self, tmp_path):
        code = run_cli("sample-z", "--alpha", "0.5", "--beta", "0.5", "--n", "4000",
                       "--sampler", "expfunc", "--seed", "11", "--out", tmp_path, "--jobs", "1")
        assert code == 0
        payload = json.loads(next(Path(tmp_path).glob("sample-z_*.summary.json")).read_text())
        assert payload["metrics"]["mean"] == pytest.approx(1.0, abs=0.1)

    def test_json_detail_format(self, tmp_path):
        code = run_cli("sample-z", "--alpha", "0.5", "--beta", "0.5", "--n", "500",
                       "--sampler", "expfunc", "--seed", "11", "--out", tmp_path,
                       "--format", "json")
        assert code == 0
        detail = json.loads(next(Path(tmp_path).glob("sample-z_*[!y].json")).read_text())
        assert len(detail) == 500
        assert {"config_hash", "seed", "replicate", "value"} <= set(detail[0])

    def test_exhausted_path_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        engine = limitlaw._pathint_block
        monkeypatch.setattr(limitlaw, "_pathint_block",
                            functools.partial(engine, max_steps=100))
        code = run_cli("sample-z", "--alpha", "0.6", "--beta", "0.3", "--n", "50",
                       "--grid-step", "1e-3", "--seed", "11", "--out", tmp_path, "--jobs", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: path-integral sampler exceeded the step budget of 100 (")
        assert err.endswith(" of 50 paths)\n") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("argv", [
        ("--sampler", "expfunc", "--eps", "20"),  # Levy mass -0.0: no path ever ends
        ("--sampler", "expfunc", "--eps", "inf"),  # mass 0.0: Y never jumps
        ("--sampler", "pathint", "--grid-step", "inf"),
    ], ids=["expfunc-eps-20", "expfunc-eps-inf", "pathint-grid-inf"])
    def test_degenerate_step_exits_two(self, argv, tmp_path):
        # a subprocess with a timeout, so a sampler that never ends fails
        # the test instead of hanging it
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
            "PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "sievesim.cli", "sample-z", "--alpha", "0.5", "--beta", "0.25",
             *argv, "--n", "10", "--seed", "1", "--jobs", "1", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestSieveCommand:
    def test_run_and_determinism(self, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ["sieve", "--wlaw", "uniform", "--balls", "40", "--reps", "9000", "--seed", "7"]
        assert run_cli(*base, "--out", out1, "--jobs", "1") == 0
        assert run_cli(*base, "--out", out2, "--jobs", "2") == 0
        assert run_cli(*base, "--out", out3, "--jobs", "1") == 0
        files1 = sorted(f.name for f in out1.iterdir())
        assert files1 == sorted(f.name for f in out2.iterdir())
        for name in files1:
            bytes1 = (out1 / name).read_bytes()
            assert bytes1 == (out2 / name).read_bytes()
            assert bytes1 == (out3 / name).read_bytes()

    def test_summary_carries_hash_and_seed(self, tmp_path):
        run_cli("sieve", "--wlaw", "beta:2,2", "--balls", "20", "--reps", "4000",
                "--seed", "9", "--out", tmp_path)
        payload = json.loads(next(Path(tmp_path).glob("sieve_*.summary.json")).read_text())
        assert payload["seed"] == 9
        assert payload["config_hash"] in next(Path(tmp_path).glob("sieve_*.csv")).name
        first_row = next(Path(tmp_path).glob("sieve_*.csv")).read_text().splitlines()[1]
        assert payload["config_hash"] in first_row
        assert payload["metrics"]["truncated"] == 0

    def test_truncation_is_reported_and_fails(self, tmp_path, monkeypatch):
        # a depth budget of two boxes forces most replicates to dump their balls
        monkeypatch.setattr(sieve, "_MAX_ALLOC_DEPTH", 2)
        code = run_cli("sieve", "--wlaw", "uniform", "--balls", "100", "--reps", "500",
                       "--seed", "9", "--out", tmp_path, "--jobs", "1")
        assert code == 1
        payload = json.loads(next(Path(tmp_path).glob("sieve_*.summary.json")).read_text())
        assert payload["metrics"]["truncated"] > 0
        assert payload["passed"] is False


class TestMarkovCommand:
    def test_run_with_export_and_reload(self, tmp_path):
        spec_path = tmp_path / "chain.json"
        code = run_cli("markov", "--chain", "sieve:uniform", "--n", "12", "--reps", "20000",
                       "--seed", "5", "--out", tmp_path / "a", "--export-spec", spec_path)
        assert code == 0
        assert spec_path.exists()
        code = run_cli("markov", "--spec-json", spec_path, "--n", "12", "--reps", "20000",
                       "--seed", "5", "--out", tmp_path / "b")
        assert code == 0
        pa = json.loads(next((tmp_path / "a").glob("markov_*.summary.json")).read_text())
        pb = json.loads(next((tmp_path / "b").glob("markov_*.summary.json")).read_text())
        assert pa["metrics"]["tv_sim_vs_dp"] <= 0.01
        # same chain reloaded from JSON gives the identical DP law
        assert pa["metrics"]["dp_tail_deficit"] == pb["metrics"]["dp_tail_deficit"]

    def test_loaded_specs_are_told_apart(self, tmp_path):
        specs = {}
        for chain in ("sieve:uniform", "barrier:dyadic"):
            specs[chain] = tmp_path / f"{chain.replace(':', '_')}.json"
            assert run_cli("markov", "--chain", chain, "--n", "6", "--reps", "20000", "--seed", "1",
                           "--jobs", "1", "--out", tmp_path / "export",
                           "--export-spec", specs[chain]) == 0
        runs = [("a", "sieve:uniform"), ("b", "barrier:dyadic"), ("c", "sieve:uniform")]
        names, chains = {}, {}
        for out, chain in runs:
            assert run_cli("markov", "--spec-json", specs[chain], "--n", "6", "--reps", "20000",
                           "--seed", "1", "--jobs", "1", "--out", tmp_path / out) == 0
            summary, = (tmp_path / out).glob("markov_*.summary.json")
            names[out] = summary.name
            chains[out] = json.loads(summary.read_text())["params"]["chain"]
        # two different specs give two names; the same spec gives the same name
        assert names["a"] != names["b"] and names["a"] == names["c"]
        assert chains["a"] != chains["b"] and chains["a"] == chains["c"]
        assert "sieve:uniform" not in chains.values()


class TestPrwCommand:
    def test_renewal_count_statistic(self, tmp_path):
        code = run_cli("prw", "--xi", "pareto:0.5", "--stat", "renewals", "--t", "1000",
                       "--reps", "2000", "--seed", "13", "--out", tmp_path)
        assert code == 0
        payload = json.loads(next(Path(tmp_path).glob("prw_*.summary.json")).read_text())
        # normalized renewal count has the Mittag-Leffler mean 2/pi in the limit
        assert payload["metrics"]["mean"] == pytest.approx(0.6366, abs=0.08)

    @pytest.mark.parametrize("stat", ["empty", "busy"])
    def test_zero_eta_tail_is_config_error(self, stat, tmp_path, capsys):
        # the default eta is const:0, so P{eta > t} = 0 and the statistic's
        # normalisation P{xi > t} / P{eta > t} is undefined
        code = run_cli("prw", "--xi", "pareto:0.5", "--t", "1e4", "--reps", "20",
                       "--stat", stat, "--seed", "1", "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_summary_says_no_check_ran(self, tmp_path, capsys):
        code = run_cli("prw", "--xi", "pareto:0.5", "--stat", "renewals", "--t", "100",
                       "--reps", "50", "--seed", "13", "--out", tmp_path)
        assert code == 0
        payload = json.loads(next(Path(tmp_path).glob("prw_*.summary.json")).read_text())
        assert payload["checks"] == {} and payload["passed"] is True
        assert "no check in scope" in capsys.readouterr().out

    def test_unknown_statistic_is_rejected_before_any_path(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(walks, "walk_functionals", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match="unknown statistic"):
            _chunk_prw(np.random.default_rng(1), 3, "pareto:0.5", "pareto:0.25", None, (100.0,),
                       ("bogus",), 0.25)
        assert drawn == []

    @pytest.mark.parametrize("t,q,name", [
        pytest.param("-1", "0.25", "t", id="-1"),
        pytest.param("nan", "0.25", "t", id="nan"),
        # Q(x) = (1+x)^(-q) must be finite and nonincreasing
        pytest.param("1e4", "nan", "q exponent", id="q-nan"),
        pytest.param("1e4", "inf", "q exponent", id="q-inf"),
        pytest.param("1e4", "-0.5", "q exponent", id="q-negative"),
    ])
    @pytest.mark.parametrize("stat", ["empty", "busy", "renewals", "window"])
    def test_invalid_t_exits_two_before_any_walk(self, stat, t, q, name, tmp_path, capsys,
                                                 monkeypatch):
        drawn = []
        monkeypatch.setattr(walks.PrwLaw, "sample_pairs", lambda *a, **k: drawn.append(a))
        code = run_cli("prw", "--xi", "pareto:0.5", "--eta", "pareto:0.25", "--t", t,
                       "--q-exponent", q, "--stat", stat, "--reps", "20", "--jobs", "1",
                       "--seed", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite nonnegative")
        assert drawn == [] and not any(tmp_path.iterdir())

    def test_walk_that_cannot_cross_exits_three_in_bounded_memory(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code = run_cli("prw", "--xi", "pareto:0.5", "--t", "1e300", "--reps", "1",
                           "--stat", "renewals", "--jobs", "1", "--seed", "1", "--out", tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert capsys.readouterr().err.startswith("error: walk failed to cross")
        assert peak < 100 * 2**20


class TestVerifyCommand:
    def test_exact_suite_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--suite", "exact", "--seed", "20260811", "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion  1" in out and "criterion  2" in out
        payload = json.loads(next(Path(tmp_path).glob("verify_*.summary.json")).read_text())
        assert payload["passed"] is True

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert run_cli("verify", "--suite", "bogus", "--seed", "1", "--out", tmp_path) == 2

    def test_timing_is_printed_and_never_written(self, tmp_path, capsys, monkeypatch):
        argv = ("verify", "--suite", "exact", "--seed", "20260811", "--jobs", "1")
        assert run_cli(*argv, "--out", tmp_path / "timed") == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith(" s]") for line in lines[:2])
        monkeypatch.setattr(cli, "_verify_line", lambda res, seconds: res.report_line())
        assert run_cli(*argv, "--out", tmp_path / "plain") == 0
        assert "s]" not in capsys.readouterr().out
        timed = {f.name: f.read_bytes() for f in (tmp_path / "timed").iterdir()}
        plain = {f.name: f.read_bytes() for f in (tmp_path / "plain").iterdir()}
        assert len(timed) == 2 and timed == plain


_SCHEMAS = json.loads((Path(cli.__file__).parent / "output_schemas.json").read_text())
_COMMON_FIELDS = set(_SCHEMAS["summary"]["common_fields"])

# each subcommand at a size that runs in well under a second
_TINY_RUNS = {
    "moments": ("--alpha", "0.5", "--beta", "0.25"),
    "sample-z": ("--alpha", "0.5", "--beta", "0.5", "--n", "200", "--sampler", "expfunc"),
    "sieve": ("--wlaw", "beta:2,3", "--balls", "10", "--reps", "200"),
    "prw": ("--xi", "pareto:0.5", "--stat", "renewals", "--t", "100", "--reps", "50"),
    "markov": ("--n", "5", "--reps", "200"),
    "verify": ("--suite", "exact"),
}


class TestReport:
    def test_every_subcommand_is_covered(self):
        subs = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
        assert set(_TINY_RUNS) == set(subs) == set(_SCHEMAS["csv"])

    @pytest.mark.parametrize("cmd", sorted(_TINY_RUNS))
    def test_files_follow_the_schema(self, cmd, tmp_path):
        code = run_cli(cmd, *_TINY_RUNS[cmd], "--seed", "3", "--jobs", "1", "--out", tmp_path)
        assert code in (0, 1)
        summary_path, = tmp_path.glob("*.summary.json")
        summary = json.loads(summary_path.read_text())
        assert _COMMON_FIELDS <= set(summary)
        assert summary["experiment"] == cmd and summary["seed"] == 3
        assert summary["passed"] is (code == 0)
        name = f"{cmd}_{summary['config_hash']}"
        assert sorted(f.name for f in tmp_path.iterdir()) == [f"{name}.csv",
                                                              f"{name}.summary.json"]
        header = (tmp_path / f"{name}.csv").read_text().splitlines()[0]
        assert header.split(",") == [entry.split()[0] for entry in _SCHEMAS["csv"][cmd]]
