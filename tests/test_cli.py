import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sievesim import acceptance, chains, checks, cli, limitlaw, runner, sieve, walks
from sievesim.cli import BLOCK, Detail, main, parse_marginal, parse_wlaw
from sievesim.runner import CHUNK, _chunk_plan, chunk_prw
from sievesim.randkit import RngStream
from sievesim.sieve import BetaW, LogParetoMixtureW, UniformW
from sievesim.walks import ConstantLaw, ExponentialLaw, ParetoLaw


def run_cli(*argv):
    return main([str(a) for a in argv])


def _run_python(*args):
    """A fresh interpreter with ``src`` on its path and a 60 s timeout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=60)


def _run_module(*argv):
    """``python -m sievesim.cli`` in a subprocess, for runs that would hang
    the test process if a loop never ended."""
    return _run_python("-m", "sievesim.cli", *argv)


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
        assert not any(tmp_path.iterdir())

    def test_moment_order_past_the_cap_exits_two(self, tmp_path, capsys):
        code = run_cli("moments", "--alpha", "0.5", "--beta", "0.25", "--nmax", "21",
                       "--seed", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())


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
    """Stands in for ProcessPoolExecutor: records the pool size asked for,
    calls the pool's initializer and maps in this process, so no worker is
    started."""

    sizes = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("this payload must not be pickled")


def _draw_with(rng, count, unpicklable, width):
    return rng.random((count, width))


class TestJobs:
    def test_pool_is_capped_at_the_chunk_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        code = run_cli("sieve", "--wlaw", "uniform", "--balls", "20", "--reps", 2 * CHUNK,
                       "--jobs", "64", "--seed", "3", "--out", tmp_path)
        assert code == 0
        assert _RecordingPool.sizes == [2]

    def test_one_job_or_one_chunk_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        chunk_size = lambda rng, count: count
        assert runner.run_chunks(chunk_size, 1, 2 * CHUNK, 1, ()) == [CHUNK, CHUNK]
        assert runner.run_chunks(chunk_size, 1, CHUNK, 8, ()) == [CHUNK]
        assert _RecordingPool.sizes == []

    def test_payload_reaches_each_worker_once_and_unpickled(self):
        # under fork the pool workers inherit the payload: a payload that
        # cannot be pickled is drawn from at --jobs 2 exactly as at --jobs 1
        payload = (_Unpicklable(), 3)
        want = runner.run_chunks(_draw_with, 4, 3 * CHUNK, 1, payload, reduce=np.sum)
        assert runner.run_chunks(_draw_with, 4, 3 * CHUNK, 2, payload, reduce=np.sum) == want
        assert len(want) == 3 and runner._run is None  # no run outlives its call

    def test_run_is_cleared_after_a_failed_chunk(self, monkeypatch):
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)

        def failing(rng, count):
            if count:
                raise RuntimeError("chunk failed")
            return np.zeros(0)

        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match="chunk failed"):
                runner.run_chunks(failing, 1, 2 * CHUNK, jobs, ())
            assert runner._run is None

    def test_each_flag_is_parsed_once(self, tmp_path, monkeypatch):
        # the parent parses each law flag and hands every chunk the object
        spec = tmp_path / "chain.json"
        spec.write_text(chains.chain_to_json(chains.sieve_chain_spec(UniformW(), 8)))
        calls = []

        def counted(name, parse):
            return lambda text: calls.append(name) or parse(text)

        for module, name in ((cli, "parse_wlaw"), (cli, "parse_marginal"),
                             (chains, "chain_from_json")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        runs = [(("sieve", "--wlaw", "beta:2,3", "--balls", "10"), "parse_wlaw", 1),
                (("prw", "--xi", "pareto:0.5", "--eta", "pareto:0.25", "--t", "100"),
                 "parse_marginal", 2),
                (("markov", "--spec-json", spec, "--n", "8"), "chain_from_json", 1)]
        for k, (argv, name, parses) in enumerate(runs):
            calls.clear()
            code = run_cli(*argv, "--reps", 2 * CHUNK + 1, "--seed", "5", "--jobs", "1",
                           "--out", tmp_path / str(k))
            assert code in (0, 1)
            assert calls == [name] * parses

    def test_experiment_chunks_draw_from_the_plain_chunk_streams(self):
        # stream 0, the experiments' default: chunk cid draws from RngStream(seed, cid)
        head = lambda rng, count: rng.random(4)
        got = runner.run_chunks(head, 7, 2 * CHUNK + 1, 1, ())
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


def _is_scalar(column) -> bool:
    return isinstance(column, (str, int, float))


def _cell_values(column, rows):
    if _is_scalar(column):
        return [column] * rows
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _write_columns(path: Path, fmt: str, header, columns):
    """Write ``columns`` (scalars and varying columns mixed) through Detail."""
    with Detail(path, fmt, header, columns) as detail:
        detail.write_columns([c for c in columns if not _is_scalar(c)])


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
        _write_columns(out / "new", fmt, header, columns)
        _reference_detail(out / "old", fmt, header,
                          list(zip(*(_cell_values(c, rows) for c in columns))))
        assert (out / "new").read_bytes() == (out / "old").read_bytes()

    def test_columns_must_share_one_length(self, tmp_path):
        for columns in (["cfg", 1, range(3), np.zeros(4)], ["cfg", 1]):
            path = tmp_path / "detail.csv"
            with pytest.raises(ValueError):
                _write_columns(path, "csv", [f"c{i}" for i in range(len(columns))], columns)
            assert not path.exists()

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
            columns = ["0123456789ab", 20260811, range(rows), *(c[:rows] for c in counts)]
            tracemalloc.start()
            try:
                _write_columns(tmp_path / f"t{rows}.{fmt}", fmt, header, columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert max(peaks) < 16 * 2**20


# The streamed commands: the detail header after config_hash and seed, the
# chunk worker with the payload the command passes it, and the command line
# up to its replicate count.
_STREAMED = {
    "sieve": (["replicate", "occupied", "last_occupied", "empty_in_range"], runner.chunk_sieve,
              (UniformW(), 10), ("--wlaw", "uniform", "--balls", "10", "--reps")),
    "sample-z": (["replicate", "value"], runner.chunk_sample_z,
                 (limitlaw.AlphaBeta(0.5, 0.0), "mittag-leffler", 1e-4, 1e-4),
                 ("--alpha", "0.5", "--beta", "0", "--sampler", "mittag-leffler", "--n")),
    "prw": (["replicate", "value"], runner.chunk_prw,
            (walks.PrwLaw.independent(ParetoLaw(0.5), ConstantLaw(0.0)), (100.0,),
             ("renewals",), 0.25),
            ("--xi", "pareto:0.5", "--stat", "renewals", "--t", "100", "--reps")),
}


# Every chunk worker with a payload it is run with: the rows of
# acceptance.SAMPLES, the streamed commands' and both of markov's.
_PAYLOADS = {
    **{f"SAMPLES-{'-'.join(map(str, name)) if isinstance(name, tuple) else name}":
       (worker, payload) for name, (_, _, worker, payload, _) in acceptance.SAMPLES.items()},
    **{cmd: (worker, payload) for cmd, (_, worker, payload, _) in _STREAMED.items()},
    "sample-z-expfunc": (runner.chunk_sample_z,
                         (limitlaw.AlphaBeta(0.5, 0.25), "expfunc", 1e-4, 1e-4)),
    **{f"markov-{name}": (runner.chunk_markov, (chains.sieve_chain_spec(UniformW(), 8), 8, sample))
       for name, sample in (("direct", chains.sample_zero_decrements),
                            ("georep", chains.sample_geometric_rep))},
}


class TestPayloadCheck:
    """run_chunks draws a sample of size 0 in the parent first, so a chunk
    worker's own checks refuse a bad payload before any file or pool."""

    @pytest.mark.parametrize("name", list(_PAYLOADS))
    def test_zero_size_draw_is_empty_and_takes_nothing(self, name):
        worker, payload = _PAYLOADS[name]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        result = worker(rng, 0, *payload)
        values = result[0] if isinstance(result, tuple) else result
        assert values.shape[0] == 0 and values.size == 0
        assert rng.bit_generator.state == state

    def test_refused_payload_opens_no_file_and_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        counts = []

        def refusing(rng, count):
            counts.append(count)
            if count == 0:
                raise ValueError("payload refused")
            return np.zeros(count)

        out = tmp_path / "out"
        detail = Detail(out / "detail.csv", "csv", ["replicate", "value"], [None, None])
        with pytest.raises(ValueError, match="payload refused"):
            runner.run_chunks(refusing, 1, 2 * CHUNK, 2, (), detail=detail)
        assert counts == [0] and _RecordingPool.sizes == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("sieve", "--wlaw", "uniform", "--balls", "-5"),
        ("sample-z", "--alpha", "0.5", "--beta", "0.25", "--grid-step", "-1"),
        ("prw", "--xi", "pareto:0.5", "--t", "-1"),
    ], ids=["sieve-balls", "sample-z-grid-step", "prw-t"])
    def test_refused_run_creates_no_out_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "1", "--jobs", "2", "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _detail_rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1


class TestStreamedDetail:
    @pytest.mark.parametrize("total", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("cmd", sorted(_STREAMED))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_the_joined_table(self, fmt, cmd, total, tmp_path):
        # rows formatted chunk by chunk, in or out of process, are the bytes
        # the writer makes of the whole table
        header, worker, payload, argv = _STREAMED[cmd]
        parts = runner.run_chunks(worker, 5, total, 1, payload)
        values = np.concatenate([p[0] if isinstance(p, tuple) else p for p in parts])
        columns = values.reshape(total, -1).T
        for jobs in (1, 2):
            out = tmp_path / str(jobs)
            code = run_cli(cmd, *argv, total, "--seed", "5", "--jobs", jobs, "--format", fmt,
                           "--out", out)
            assert code in (0, 1)
            summary, = out.glob("*.summary.json")
            cfg = json.loads(summary.read_text())["config_hash"]
            joined = tmp_path / f"joined{jobs}"
            _write_columns(joined, fmt, ["config_hash", "seed", *header],
                           [cfg, 5, range(total), *columns])
            assert (out / f"{cmd}_{cfg}.{fmt}").read_bytes() == joined.read_bytes()

    def test_parent_memory_is_flat_in_the_replicate_count(self, tmp_path, monkeypatch):
        from sievesim import acceptance  # noqa: F401  (so its import is not in a peak)

        # each chunk is reduced where it is drawn, so the parent holds one
        # chunk's rows and the chunk summaries, never the joined sample.  Here
        # a chunk's rows are one string of about their usual size: tracemalloc
        # slows the per-row formatting about 18-fold, and the formatter's own
        # memory is TestDetailWriter's test_peak_memory_does_not_grow_with_rows.
        monkeypatch.setattr(cli.Layout, "rows", lambda self, columns: "0," * 12 * len(columns[0]))
        runs = {**{cmd: argv for cmd, (_, _, _, argv) in _STREAMED.items()},
                "markov": ("--chain", "sieve:uniform", "--n", "5", "--reps")}
        for cmd, argv in runs.items():
            peaks = []
            for n in (20_000, 200_000):
                tracemalloc.start()
                try:
                    code = run_cli(cmd, *argv, n, "--seed", "5", "--jobs", "1",
                                   "--out", tmp_path / f"{cmd}{n}")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert code in (0, 1)
            assert peaks[1] - peaks[0] < 2**19, cmd

    @pytest.mark.parametrize("cmd", ["sample-z", "prw"])
    def test_pooled_summaries_do_not_depend_on_jobs(self, cmd, tmp_path):
        # the chunk moments are pooled in chunk order, whichever worker drew them
        _, _, _, argv = _STREAMED[cmd]
        files = []
        for jobs in (1, 2):
            out = tmp_path / str(jobs)
            assert run_cli(cmd, *argv, 3 * CHUNK + 5, "--seed", "5", "--jobs", jobs,
                           "--out", out) == 0
            files.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(files[0]) == 2 and files[0] == files[1]

    def test_tracer_counts_chunks_and_rows(self, tmp_path):
        # perfbench/tracing.py wraps cli._run_chunks and cli._emit and takes
        # len() of the chunk results and of _emit's fifth argument or rows=;
        # the benchmark's traced pass needs both to stay sized
        path = Path(cli.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
        tracing = types.ModuleType("perfbench_tracing")
        exec(compile(path.read_text(), str(path), "exec"), vars(tracing))
        # the streamed commands run two chunks; moments formats its six rows
        # in the parent, through no _run_chunks
        runs = [(("sieve", "--wlaw", "beta:2,3", "--balls", "10", "--reps", 2 * CHUNK),
                 [("cli._emit", 2 * CHUNK), ("cli._run_chunks", 2)]),
                (("sample-z", "--sampler", "mittag-leffler", "--alpha", "0.5", "--beta", "0",
                  "--n", CHUNK + 7), [("cli._emit", CHUNK + 7), ("cli._run_chunks", 2)]),
                (("moments", "--alpha", "0.5", "--beta", "0.25", "--nmax", "6"),
                 [("cli._emit", 6)])]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for k, (argv, expected) in enumerate(runs):
                first = len(tracer.spans)
                out = tmp_path / str(k)
                assert run_cli(*argv, "--seed", "5", "--jobs", "1", "--out", out) == 0
                counts = [(name, c["n"]) for name, _, _, _, c in tracer.spans[first:]
                          if name in ("cli._emit", "cli._run_chunks")]
                detail, = out.glob("*[!y].csv")
                assert sorted(counts) == expected
                assert expected[0][1] == _detail_rows(detail)
        finally:
            tracer.uninstall()


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

    @pytest.mark.parametrize("beta,check,column", [("0.5", "z_equals_factorial", 1),
                                                   ("0", "z_equals_mittag_leffler", 2)])
    def test_special_case_check_runs_at_its_beta(self, beta, check, column, tmp_path):
        # beta = alpha and beta = 0 each add the identity that holds there
        code = run_cli("moments", "--alpha", "0.5", "--beta", beta, "--seed", "3",
                       "--out", tmp_path)
        assert code == 0
        payload = json.loads(next(tmp_path.glob("moments_*.summary.json")).read_text())
        assert sorted(payload["checks"]) == sorted(["phi_product_identity", check])
        errors = checks.moment_identity_errors(0.5, range(1, 7))
        assert payload["checks"][check]["value"] == max(e[column] for e in errors)
        assert payload["checks"][check]["passed"] is True


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
        # a path takes 505 steps on average at alpha = 0.6 and grid 1e-3: the
        # sampler accepts a budget of 600, and about a third of paths run out
        monkeypatch.setattr(limitlaw, "_MAX_PATH_STEPS", 600)
        code = run_cli("sample-z", "--alpha", "0.6", "--beta", "0.3", "--n", "50",
                       "--grid-step", "1e-3", "--seed", "11", "--out", tmp_path, "--jobs", "1")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: path-integral sampler exceeded the step budget of 600 (")
        assert err.endswith(" of 50 paths)\n") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_exhausted_path_budget_exits_three_from_a_pool(self, tmp_path, capsys,
                                                           monkeypatch):
        # the pool's workers are forked, so they run the patched engine; the
        # detail file opened before sampling is deleted
        monkeypatch.setattr(limitlaw, "_MAX_PATH_STEPS", 600)
        code = run_cli("sample-z", "--alpha", "0.6", "--beta", "0.3", "--n", CHUNK + 50,
                       "--grid-step", "1e-3", "--seed", "11", "--out", tmp_path, "--jobs", "2")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: path-integral sampler exceeded the step budget of 600 (")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_while_sampling_leaves_no_file(self, jobs, tmp_path, capsys, monkeypatch):
        # an engine that rejects every nonempty chunk raises inside the chunk
        # worker, after the detail file is opened; a pool's forked workers
        # run the patched engine
        engine = limitlaw._pathint_block

        def rejecting(alpha, beta, grid_step, scale, rng, n):
            if n:
                raise ValueError("the engine rejected a chunk")
            return engine(alpha, beta, grid_step, scale, rng, n)

        monkeypatch.setattr(limitlaw, "_pathint_block", rejecting)
        code = run_cli("sample-z", "--alpha", "0.5", "--beta", "0.25", "--grid-step", "1e-3",
                       "--n", CHUNK + 1, "--seed", "1", "--out", tmp_path, "--jobs", jobs)
        assert code == 2
        assert capsys.readouterr().err == "error: the engine rejected a chunk\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (("--beta", "0.7"), "need 0 <= beta <= alpha < 1"),
        (("--sampler", "mittag-leffler"), "the direct Mittag-Leffler sampler requires beta = 0"),
        (("--grid-step", "-1"), "grid_step must be finite positive"),
        (("--sampler", "expfunc", "--eps", "-1"), "eps must be positive"),
        (("--sampler", "expfunc", "--eps", "20"), "the Levy mass above eps = 20.0 is -0.0"),
        (("--sampler", "expfunc", "--eps", "1e-30"), "the Levy mass above eps = 1e-30 is 7.07e+14"),
        (("--grid-step", "1e-300"),
         "the expected step count of a path at grid_step = 1e-300 is 6.37e+299"),
    ], ids=["beta-above-alpha", "mittag-leffler-beta", "grid-step-negative",
            "expfunc-eps-negative", "expfunc-eps-20", "expfunc-eps-1e-30", "grid-step-1e-300"])
    def test_bad_pair_exits_two_before_any_pool(self, argv, message, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        code = run_cli("sample-z", "--alpha", "0.5", "--beta", "0.25", *argv,
                       "--n", 3 * CHUNK, "--jobs", "2", "--seed", "1", "--out", tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert _RecordingPool.sizes == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("--sampler", "expfunc", "--eps", "20"),  # Levy mass -0.0: no path ever ends
        ("--sampler", "expfunc", "--eps", "inf"),  # mass 0.0: Y never jumps
        ("--sampler", "expfunc", "--eps", "1e-30"),  # mass 7.1e14: about that many jumps a path
        ("--sampler", "pathint", "--grid-step", "inf"),
        ("--sampler", "pathint", "--grid-step", "1e-300"),  # about 6e299 steps a path
    ], ids=["expfunc-eps-20", "expfunc-eps-inf", "expfunc-eps-1e-30", "pathint-grid-inf",
            "pathint-grid-1e-300"])
    def test_degenerate_step_exits_two(self, argv, tmp_path):
        # a subprocess with a timeout, so a sampler that never ends fails
        # the test instead of hanging it
        done = _run_module("sample-z", "--alpha", "0.5", "--beta", "0.25", *argv, "--n", "10",
                           "--seed", "1", "--jobs", "1", "--out", tmp_path)
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

    def test_negative_balls_exit_two_before_any_pool(self, tmp_path, capsys, monkeypatch):
        # 2**63 does not fit the int64 ball counts
        monkeypatch.setattr(runner, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        for balls in (-5, 2**63):
            code = run_cli("sieve", "--wlaw", "uniform", "--balls", balls, "--reps", 3 * CHUNK,
                           "--jobs", "2", "--seed", "1", "--out", tmp_path)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ball count must be") and err.count("\n") == 1
        assert _RecordingPool.sizes == [] and not any(tmp_path.iterdir())

    def test_degenerate_beta_law_exits_three(self, tmp_path):
        # numpy's Beta draws at these parameters are all 0.0 or 1.0, so the
        # redraws of endpoint values run out
        done = _run_module("sieve", "--wlaw", "beta:1e-300,1e-300", "--balls", "10",
                           "--reps", "10", "--seed", "1", "--jobs", "1", "--out", tmp_path)
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("wlaw", ["beta:inf,1", "beta:1,inf", "beta:nan,1"])
    def test_non_finite_beta_law_exits_two(self, wlaw, tmp_path, capsys):
        # an infinite parameter used to start the chunks and exit 3 once the
        # redraws of endpoint values ran out
        code = run_cli("sieve", "--wlaw", wlaw, "--balls", "10", "--reps", "10",
                       "--jobs", "1", "--seed", "1", "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beta parameters must be positive and finite")
        assert err.count("\n") == 1 and not any(tmp_path.iterdir())


class TestMarkovCommand:
    @pytest.mark.parametrize("spec", ['{"floor": 0, "rows": [1]}', "[1, 2]"],
                             ids=["rows-not-a-dict", "spec-not-a-dict"])
    def test_malformed_spec_exits_two(self, spec, tmp_path, capsys):
        spec_path, out = tmp_path / "chain.json", tmp_path / "out"
        spec_path.write_text(spec)
        out.mkdir()
        code = run_cli("markov", "--spec-json", spec_path, "--seed", "1", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed chain spec: ") and err.count("\n") == 1
        assert not any(out.iterdir())

    @pytest.mark.parametrize("rows,n", [({"1": ["0.5", "0.5"], "2": ["0.5", "nan", "0.5"]}, 2),
                                        ({"1": ["1e-17", "1.0"]}, 1)],
                             ids=["nan-entry", "stay-rounds-to-one"])
    def test_bad_row_exits_two(self, rows, n, tmp_path, capsys):
        # a NaN entry used to pass and run the DP to its count budget (exit 3)
        spec_path, out = tmp_path / "chain.json", tmp_path / "out"
        spec_path.write_text(json.dumps({"floor": 0, "rows": rows}))
        code = run_cli("markov", "--spec-json", spec_path, "--n", n, "--reps", "2000",
                       "--seed", "1", "--jobs", "1", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ("non-finite" in err) != ("never leaves" in err)
        assert not out.exists()

    @pytest.mark.parametrize("rows", [{"1": ["0.5", "0.5"], "3": ["0.25"] * 4}, {"1": ["1.0"]}],
                             ids=["gap", "short-row"])
    def test_rows_not_of_states_floor_to_n_max_exit_two(self, rows, tmp_path, capsys):
        # the gap spec used to run at an --n below the gap
        spec_path, out = tmp_path / "chain.json", tmp_path / "out"
        spec_path.write_text(json.dumps({"floor": 0, "rows": rows}))
        code = run_cli("markov", "--spec-json", spec_path, "--n", "1", "--reps", "2000",
                       "--seed", "1", "--jobs", "1", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: state ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("floor,n,message", [
        ("Infinity", "1", "error: floor must be a JSON integer, got inf"),
        ("2.7", "3", "error: floor must be a JSON integer, got 2.7"),
        ("10000000000000000000", "10000000000000000001",
         "error: n_max 10000000000000000001 exceeds 2^63 - 1"),
    ], ids=["infinite-floor", "fractional-floor", "n-max-past-int64"])
    def test_floor_not_an_int64_state_exits_two(self, floor, n, message, tmp_path, capsys):
        # the infinite floor and the n_max past int64 ended in an OverflowError
        # (exit 1); the fractional floor ran as floor 2
        spec_path, out = tmp_path / "chain.json", tmp_path / "out"
        spec_path.write_text(f'{{"floor": {floor}, "rows": {{"{n}": ["0.5", "0.5"]}}}}')
        code = run_cli("markov", "--spec-json", spec_path, "--n", n, "--reps", "2000",
                       "--seed", "1", "--jobs", "1", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("chain", ["barrier:dyadic:junk", "barrier:dyadic:7", "barrier:geom",
                                       "barrier:geom:"])
    def test_bad_barrier_descriptor_exits_two(self, chain, tmp_path, capsys):
        # a parameter after dyadic would change the config hash and not the
        # chain; geom without its ratio has no chain
        code = run_cli("markov", "--chain", chain, "--seed", "1", "--out", tmp_path)
        assert code == 2
        law = chain.partition(":")[2]
        assert capsys.readouterr().err == (f"error: unknown barrier step law {law!r} "
                                           "(expected dyadic or geom:q)\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("chain", ["sieve:uniform", "barrier:dyadic"])
    def test_oversized_chain_exits_two(self, chain, tmp_path):
        # a subprocess with a timeout: 10^5 states would take tens of GB
        done = _run_module("markov", "--chain", chain, "--n", "100000", "--seed", "1",
                           "--jobs", "2", "--out", tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("error: n_max must lie in [")
        assert done.stderr.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_plain_run_builds_no_spec_json(self, tmp_path, monkeypatch):
        # only --export-spec and --spec-json read the JSON text of the chain
        argv = ("markov", "--chain", "sieve:beta:2,3", "--n", "20", "--reps", "5000",
                "--seed", "3", "--jobs", "1")
        want = run_cli(*argv, "--out", tmp_path / "a")

        def refusing(spec):
            raise ValueError("the chain JSON was built")

        monkeypatch.setattr(chains, "chain_to_json", refusing)
        assert run_cli(*argv, "--out", tmp_path / "b") == want
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert names and names == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    def test_second_sample_draws_from_its_own_stream(self, tmp_path, monkeypatch):
        # the georep sample is stream 1 at the run's seed, so no chunk shares
        # its address with a run at the next seed
        keys = []

        def recording_stream(seed, stream_id):
            keys.append((seed, stream_id))
            return RngStream(seed, stream_id)

        monkeypatch.setattr(runner, "RngStream", recording_stream)
        run_cli("markov", "--chain", "sieve:uniform", "--n", "8", "--reps", 2 * CHUNK + 1,
                "--seed", "5", "--jobs", "1", "--out", tmp_path)
        assert {seed for seed, _ in keys} == {5}
        assert sorted(stream for _, stream in keys) == [0, 1, 2] + [1 << 32 | c for c in range(3)]

    def test_each_sample_is_its_sampler_on_its_stream(self, tmp_path):
        # one chunk each: the direct sample on stream 0, the georep one on stream 1
        assert run_cli("markov", "--chain", "sieve:uniform", "--n", "8", "--reps", "1000",
                       "--seed", "5", "--jobs", "1", "--out", tmp_path) in (0, 1)
        spec = chains.sieve_chain_spec(UniformW(), 8)
        draws = [sample(spec, 8, 1000, RngStream(5, stream << 32).generator())
                 for stream, sample in enumerate((chains.sample_zero_decrements,
                                                  chains.sample_geometric_rep))]
        sim, rep, *_ = checks.chain_sampler_check(
            chains.exact_zero_decrement_pmf(spec, 8), *([np.bincount(d)] for d in draws))
        with open(next(tmp_path.glob("markov_*.csv")), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["sim_freq"]) for r in rows] == sim.masses.tolist()
        assert [float(r["georep_freq"]) for r in rows] == rep.masses.tolist()

    def test_sampling_noise_is_reported_beside_the_tolerance(self, tmp_path, capsys):
        # at 5e3 reps the TV of an exact sampler is about 0.012 on average,
        # above the fixed tolerance 0.01, so this correct run fails
        code = run_cli("markov", "--chain", "sieve:uniform", "--n", "30", "--reps", "5000",
                       "--seed", "20260811", "--jobs", "1", "--out", tmp_path)
        assert code == 1
        metrics = json.loads(next(tmp_path.glob("markov_*.summary.json")).read_text())["metrics"]
        noise = metrics["expected_sampling_tv"]
        assert noise == pytest.approx(0.01188, abs=1e-5) and noise > metrics["tv_tolerance"]
        assert max(metrics["tv_sim_vs_dp"], metrics["tv_georep_vs_dp"]) > metrics["tv_tolerance"]
        assert f"expected sampling TV {noise:.5f}" in capsys.readouterr().out

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

    def test_coupled_multiplier(self, tmp_path):
        # eta = 2 xi; one chunk's summary mean is that of the chunk worker on
        # chunk 0's stream
        code = run_cli("prw", "--xi", "pareto:0.5", "--coupled-multiplier", "2", "--stat", "busy",
                       "--t", "100", "--reps", "500", "--seed", "13", "--jobs", "1",
                       "--out", tmp_path)
        assert code == 0
        payload = json.loads(next(tmp_path.glob("prw_*.summary.json")).read_text())
        law = walks.PrwLaw.coupled(ParetoLaw(0.5), 2.0)
        values = chunk_prw(RngStream(13, 0).generator(), 500, law, (100.0,), ("busy",), 0.25)
        assert payload["metrics"]["mean"] == float(values[:, 0].mean())
        assert payload["params"]["coupled_multiplier"] == 2.0

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
        monkeypatch.setattr(walks.PrwLaw, "sample_pairs", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match="unknown statistic"):
            chunk_prw(np.random.default_rng(1), 3,
                       walks.PrwLaw.independent(ParetoLaw(0.5), ParetoLaw(0.25)), (100.0,),
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
        assert not any(tmp_path.iterdir())


class TestVerifyCommand:
    def test_exact_suite_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--suite", "exact", "--seed", "20260811", "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion  1" in out and "criterion  2" in out
        payload = json.loads(next(Path(tmp_path).glob("verify_*.summary.json")).read_text())
        assert payload["passed"] is True

    def test_nested_runs_stay_off_stdout(self, tmp_path, capsys):
        # criterion 15 runs `sieve` twice; only its own line and the suite's print
        assert run_cli("verify", "--suite", "determinism", "--seed", "3", "--jobs", "1",
                       "--out", tmp_path) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert run_cli("verify", "--suite", "bogus", "--seed", "1", "--out", tmp_path) == 2

    def test_timing_is_printed_and_never_written(self, tmp_path, capsys, monkeypatch):
        argv = ("verify", "--suite", "exact", "--seed", "20260811", "--jobs", "1")
        assert run_cli(*argv, "--out", tmp_path / "timed") == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(re.search(r" \[\d+\.\d\d s, peak \d+ MB\]$", line) for line in lines[:2])
        monkeypatch.setattr(cli, "_verify_line", lambda res, seconds: res.report_line())
        assert run_cli(*argv, "--out", tmp_path / "plain") == 0
        plain_out = capsys.readouterr().out
        assert "s]" not in plain_out and "peak" not in plain_out
        timed = {f.name: f.read_bytes() for f in (tmp_path / "timed").iterdir()}
        plain = {f.name: f.read_bytes() for f in (tmp_path / "plain").iterdir()}
        assert len(timed) == 2 and timed == plain

    def test_peak_is_left_out_without_resource(self, monkeypatch):
        # Windows has no resource module: the line keeps its seconds only
        monkeypatch.setitem(sys.modules, "resource", None)
        res = acceptance.CriterionResult(2, "identities", True, "max error 0", {})
        assert cli._verify_line(res, 1.5) == f"{res.report_line()} [1.50 s]"

    def test_only_verify_loads_the_suite(self, tmp_path):
        # the experiments share their checks with the criteria through
        # sievesim.checks, so none of them imports sievesim.acceptance
        common = ["--seed", "1", "--jobs", "1", "--out", str(tmp_path)]
        runs = [["moments", "--alpha", "0.5", "--beta", "0.25", *common],
                ["sample-z", "--alpha", "0.5", "--beta", "0.25", "--n", "64", *common],
                ["sieve", "--wlaw", "uniform", "--balls", "10", "--reps", "64", *common],
                ["markov", "--reps", "64", *common]]
        done = _run_python("-c", "import json, sys\nfrom sievesim import cli\n"
                           f"codes = [cli.main(argv) for argv in {runs!r}]\n"
                           "print(json.dumps([codes, 'sievesim.acceptance' in sys.modules]))")
        assert done.returncode == 0, done.stderr
        codes, loaded = json.loads(done.stdout.splitlines()[-1])
        assert len(codes) == 4 and set(codes) <= {0, 1}
        assert not loaded


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
