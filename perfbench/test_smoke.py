"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, at the default seed.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_driver():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()
    ]


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, trace):
    result, lines = run.run(name, run.DEFAULT_SEED, seconds=1, trace=trace, tiny=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # fail_ratio is 0 at the default seed
    assert any(line.startswith("fingerprint ") for line in lines)
    if not trace:
        assert any(line.startswith("fail_ratio ") for line in lines)


def test_self_time_excludes_child_spans():
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("limitlaw.sample_z_pathint", 1.0, 4.0, 0, {"n": 3000, "alpha": 0.5}),
        ("cli._emit", 5.0, 7.0, 0, {"n": 3000}),
    ]
    m = tracing.layer_metrics(spans, detail_bytes=0, overhead_pct=0.0)
    assert m["cli.self_s"] == pytest.approx(7.0)
    assert m["limitlaw.self_s"] == pytest.approx(3.0)
    assert m["limitlaw.pathint_us_per_draw.a050"] == pytest.approx(1000.0)
    assert m["limitlaw.share_pct"] == pytest.approx(30.0)
    assert m["cli.rows"] == 3000


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zlaw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
