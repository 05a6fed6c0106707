import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sievesim import sieve
from sievesim.cli import CHUNK, _chunk_plan, main, parse_marginal, parse_wlaw
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
