"""scpm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload planted-10k --seed 20260808 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The run generates the workload's instances from the seed
(the program receives only the generated files), starts one fresh worker
process that sets up, mines for ``--seconds`` and checks every output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
mine_s, peak_rss_mb), the times scaled to a nominal host speed (see
calibrate.py); with ``--trace 1`` they are the per-layer ones from a traced
pass. The line before it holds the raw samples, the instance digests
and the environment, and the same goes to ``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# A run must end within 180 s; the worker is stopped before that.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "mine_s": "s", "peak_rss_mb": "MB"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one small instance per run, for the benchmark's self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "scpm" / "__init__.py").is_file():
        print(f"bench: no scpm sources under {src}; run from a source checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    params = workloads.generator_params(workload, args.smoke)
    count = 1 if args.smoke else workload.instances
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT_DIR / "work" / f"{tag}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    try:
        instances = [
            workloads.write_instance(work / f"instance{i}", seed, params)
            for i, seed in enumerate(workloads.instance_seeds(args.seed, count))
        ]
        spec = {
            "src": str(src),
            "workload": args.workload,
            "smoke": args.smoke,
            "trace": args.trace,
            "seconds": args.seconds,
            "instances": instances,
            "work_dir": str(work),
            "spans_path": str(results_dir / f"{tag}.spans.jsonl.gz"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                stdout=subprocess.PIPE,
                timeout=WORKER_TIMEOUT_S,
                text=True,
            )
        except subprocess.TimeoutExpired:
            print(f"bench: worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        measured = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = measured["attempted"], measured["failed"]
    units = PER_LAYER if args.trace else END_TO_END_UNITS
    values = measured["per_layer" if args.trace else "end_to_end"]
    # A metric with no sample (every call of the run failed) is left out.
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if value is not None
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_s": time.perf_counter() - started,
        "failed_share": failed / attempted if attempted else None,
        "instances": [{"seed": i["seed"], "sha256": i["sha256"]} for i in instances],
        "environment": {**_environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        **{k: v for k, v in measured.items() if k not in ("per_layer", "end_to_end")},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps({**details, "metrics": metrics}, indent=1))
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
