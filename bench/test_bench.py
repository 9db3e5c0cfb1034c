"""Self-checks of the benchmark: its generator, its output checks and its counters.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# sha256 of the generated edge and attribute lines at the default seed.
PINNED_DIGESTS = {
    "planted-2k": "d68cfb740afb312886b3aad2d015158912f03da969ed50cce2040b12e6da2887",
    "planted-10k": "4143f0bc8ea7d71b8e5ffb948978abfb1d180059e8e21a90f028c6ed9933c224",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "name, params",
    [("planted-2k", {}), ("planted-10k", workloads.WORKLOADS["planted-10k"].generator)],
)
def test_generator_is_pinned(tmp_path, name, params):
    first = workloads.write_instance(tmp_path / "a", workloads.DEFAULT_SEED, params)
    again = workloads.write_instance(tmp_path / "b", workloads.DEFAULT_SEED, params)
    assert first["sha256"] == again["sha256"] == PINNED_DIGESTS[name]


def test_instance_seeds_start_with_the_run_seed():
    seeds = workloads.instance_seeds(7, 5)
    assert seeds[0] == 7
    assert seeds == workloads.instance_seeds(7, 5)
    assert len(set(seeds)) == 5


def test_checks_reject_a_wrong_output():
    blocks = workloads.planted_blocks({"blocks": 1})
    header = "# header\n"
    good = {
        "records": header + "planted0\t100\t0.120000\t1e-3\t120\t12\n",
        "patterns": header + "planted0\t12\t0.73\t" + ",".join(map(str, range(12))) + "\n",
        "overflow_sets": 0,
    }
    assert worker.check_outputs(good, blocks, None) == []
    assert worker.check_outputs(good, blocks, good) == []
    moved = dict(good, patterns=good["patterns"].replace("0,1,2", "1,2,3"))
    assert worker.check_outputs(moved, blocks, None)
    assert worker.check_outputs(dict(good, records=header), blocks, None)
    assert worker.check_outputs(dict(good, overflow_sets=1), blocks, None)
    assert worker.check_outputs(good, blocks, moved)


def test_missing_function_is_absent_not_zero(monkeypatch):
    import scpm.miner
    from scpm.graph import induced_view, load_graph
    from scpm.quasiclique import QuasiCliqueParams

    g = load_graph(["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"], [])
    original = scpm.miner.covered_vertices
    monkeypatch.delattr(scpm.miner, "intersect_sorted")
    tr = tracer.Tracer(workloads.SIGMA_MIN)
    with tr.installed():
        assert not hasattr(scpm.miner, "intersect_sorted")
        scpm.miner.covered_vertices(induced_view(g, range(4)), QuasiCliqueParams(1, 4))
    assert scpm.miner.covered_vertices is original
    assert tr.missing == {"index.intersect_sorted"}
    metrics, _ = tracer.summarize(tr.spans, tr.missing)
    assert metrics["quasiclique.covered_vertices.attr.calls"] == 1
    assert metrics["quasiclique.covered_vertices.attr.hit_ratio"] == 1.0
    assert metrics["quasiclique.vertex_prune.calls"] == 1
    assert not any(name.startswith("index.intersect_sorted") for name in metrics)
    # A layer that exists but did not run reads zero, not absent.
    assert metrics["graph.induced_view.sample.calls"] == 0
    assert metrics["quasiclique.covered_vertices.sample.hit_ratio"] == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    gated = {w["name"] for w in spec["workloads"]}
    assert gated <= set(workloads.WORKLOADS)
    assert {w["why"] for w in spec["workloads"]} == {workloads.WORKLOADS[n].why for n in gated}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_and_counters_add_up(workload):
    plain = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    # Scaled times keep their unscaled medians and the reference timings beside them.
    details = json.loads(plain.stdout.splitlines()[-2])
    assert set(details["raw"]) == {"wall_s", "setup_s", "mine_s", "reference_s"}
    assert len(details["reference_s"]) >= 2 and min(details["reference_s"]) > 0

    traced = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke")
    assert traced.returncode == 0, traced.stderr
    *_, details, last = traced.stdout.splitlines()
    result = json.loads(last)
    # Untraced and traced iterations alike passed every check, TSV bytes included.
    assert result["correct"] and result["failed"] == 0
    m = {name: v["value"] for name, v in result["metrics"].items()}
    # Every per-layer metric is reported on every workload.
    assert set(m) == set(tracer.PER_LAYER)
    assert all(v["unit"] == tracer.PER_LAYER[name] for name, v in result["metrics"].items())
    checks = json.loads(details)["self_checks"]
    assert checks and all(
        c["nullmodel.expected.distinct_supports"] == m["nullmodel.expected.misses"] for c in checks
    )
    if workload == "planted-2k-baseline":
        assert m["quasiclique.enumerate_maximal.calls"] == m["miner.sets_visited"]
        assert m["quasiclique.enumerate_maximal.expansions"] == m["miner.expansions"]
    if workload == "planted-2k-sim":
        assert m["graph.induced_view.sample.calls"] > 0
        assert m["nullmodel.sim_eps_exp.calls"] == m["nullmodel.expected.misses"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = _bench("--workload", "planted-10k", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert bare.returncode != 0
    assert bare.stdout == ""
