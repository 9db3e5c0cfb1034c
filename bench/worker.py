"""One benchmark run in a fresh process: set-up, the timed pipeline loop, checks.

``run.py`` generates the instances and starts this process with a JSON spec;
the process prints one JSON object with the raw samples and the aggregated
metrics on standard output. Its peak resident memory is the workload's, not
the generator's.

The pipeline is the one the command-line tool runs, through public calls
only: ``load_graph`` -> ``build_index`` -> ``run_scpm`` or ``run_naive`` ->
``records_text`` + ``patterns_text`` -> TSV write. Load model: a closed loop
with one client in one process and no extra threads. Every output is
checked outside the timed region. Each timed call sits between two timings
of a fixed reference routine, which scale its seconds to a nominal host
speed (calibrate.py).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import calibrate
import tracer as tracing
import workloads

SETUP_REPS = 3  # load_graph + build_index repetitions per instance
MANIFEST_NAME = "records.tsv.manifest.json"


def _no_span(name):
    return nullcontext({})


class Pipeline:
    def __init__(self, workload: workloads.Workload, smoke: bool):
        from scpm.cli import patterns_text, records_text
        from scpm.graph import load_graph
        from scpm.index import build_index
        from scpm.miner import MinerConfig, run_naive, run_scpm
        from scpm.nullmodel import NullModelConfig
        from scpm.quasiclique import QuasiCliqueParams

        self.load_graph = load_graph
        self.build_index = build_index
        self.records_text = records_text
        self.patterns_text = patterns_text
        self.run_scpm = run_scpm
        self.mine = run_naive if workload.baseline else run_scpm
        samples = workloads.SMOKE_SIM_SAMPLES if smoke else workloads.SIM_SAMPLES
        self.cfg = MinerConfig(
            qc_params=QuasiCliqueParams(Fraction(*workloads.GAMMA_MIN), workloads.MIN_SIZE),
            sigma_min=workloads.SIGMA_MIN,
            eps_min=workloads.EPS_MIN,
            delta_min=workloads.DELTA_MIN,
            k=workloads.TOP_K,
            null_model=NullModelConfig(
                kind=workload.null_model, samples=samples, seed=workloads.SIM_SEED
            ),
        )

    def setup(self, inst: dict):
        with open(inst["edges"]) as edges, open(inst["attrs"]) as attrs:
            g = self.load_graph(edges, attrs)
        return g, self.build_index(g)

    def run(self, inst: dict, out_dir: Path, mine=None, trace=None) -> dict:
        """One timed pass from load to TSV written."""
        mine = mine or self.mine
        span = trace.span if trace else _no_span
        t0 = time.perf_counter()
        with span("graph.load_graph"):
            with open(inst["edges"]) as edges, open(inst["attrs"]) as attrs:
                g = self.load_graph(edges, attrs)
        with span("index.build_index"):
            index = self.build_index(g)
        t1 = time.perf_counter()
        with span("miner." + mine.__name__) as note:
            result = mine(g, index, self.cfg)
        t2 = time.perf_counter()
        with span("cli.format"):
            records = self.records_text([(None, result.records)], g, MANIFEST_NAME)
            patterns = self.patterns_text([(None, result.patterns)], g, MANIFEST_NAME)
        with span("cli.write") as write_note:
            (out_dir / "records.tsv").write_text(records)
            (out_dir / "patterns.tsv").write_text(patterns)
        t3 = time.perf_counter()
        stats = result.stats
        overflow = len(getattr(stats, "overflow_sets", ()))
        note.update(
            sets_visited=getattr(stats, "sets_visited", None),
            expansions=getattr(stats, "expansions", None),
            overflow_sets=overflow,
            records=len(result.records),
            patterns=len(result.patterns),
        )
        write_note["bytes"] = len(records.encode()) + len(patterns.encode())
        return {
            "wall_s": t3 - t0,
            "setup_s": t1 - t0,
            "mine_s": t2 - t1,
            "records": records,
            "patterns": patterns,
            "overflow_sets": overflow,
        }


def _body(text: str) -> list[str]:
    return sorted(line for line in text.splitlines() if line and not line.startswith("#"))


def check_outputs(run: dict, blocks, reference: dict | None) -> list[str]:
    """Why ``run``'s outputs are wrong; empty when they are right."""
    errors = []
    if run["overflow_sets"]:
        errors.append(f"{run['overflow_sets']} attribute set(s) overflowed the expansion budget")
    supports = {}
    for line in _body(run["records"]):
        fields = line.split("\t")
        supports[fields[0]] = fields[1]
    first_pattern = {}
    for line in run["patterns"].splitlines():
        if line and not line.startswith("#"):
            fields = line.split("\t")
            first_pattern.setdefault(fields[0], fields[3])
    for attr, support, vertices in blocks:
        if supports.get(attr) != str(support):
            errors.append(f"{attr}: expected a record with support {support}, got {supports.get(attr)}")
        expected = ",".join(map(str, vertices))
        if first_pattern.get(attr) != expected:
            errors.append(f"{attr}: first pattern {first_pattern.get(attr)}, expected {expected}")
    if reference is not None:
        for kind in ("records", "patterns"):
            if _body(run[kind]) != _body(reference[kind]):
                errors.append(f"{kind} differ from run_scpm on the same input")
    return errors


def _sha(run: dict) -> str:
    return hashlib.sha256((run["records"] + "\x00" + run["patterns"]).encode()).hexdigest()


def _median(samples: list[dict], key: str) -> float | None:
    """Median over the run's samples; None when no sample has ``key``.

    The host's speed drifts by a third within a minute, in bursts of a few
    seconds, so a median over every call of the run is steadier than a mean.
    """
    values = [s[key] for s in samples if s.get(key) is not None]
    return statistics.median(values) if values else None


def measure(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    smoke = spec["smoke"]
    trace = spec["trace"]
    instances = spec["instances"]
    out_dir = Path(spec["work_dir"])
    blocks = workloads.planted_blocks(workloads.generator_params(workload, smoke))
    pipe = Pipeline(workload, smoke)

    # Every timed call sits between two timings of the reference routine;
    # ``scale()`` turns the call's seconds into seconds at the nominal host
    # speed, using the mean of the two (see calibrate.py).
    references = [calibrate.reference_s()]

    def scale() -> float:
        references.append(calibrate.reference_s())
        return calibrate.NOMINAL_S / statistics.mean(references[-2:])

    setup_samples = []
    for i, inst in enumerate(instances):
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            pipe.setup(inst)
            raw = time.perf_counter() - t0
            setup_samples.append({"instance": i, "raw_setup_s": raw, "setup_s": raw * scale()})

    attempted = failed = 0
    failures: list[str] = []

    def record(i, run_or_exc, reference, expected_sha):
        nonlocal attempted, failed
        attempted += 1
        if isinstance(run_or_exc, BaseException):
            errors = ["".join(traceback.format_exception_only(run_or_exc)).strip()]
            run = None
        else:
            run = run_or_exc
            errors = check_outputs(run, blocks, reference)
            if expected_sha is not None and _sha(run) != expected_sha:
                errors.append("TSV bytes differ from the first run of this instance")
        if errors:
            failed += 1
            failures.extend(f"instance {i}: {e}" for e in errors)
        return run

    def attempt(inst, **kwargs):
        try:
            return pipe.run(inst, out_dir, **kwargs)
        except Exception as exc:  # counted as a failed run; the loop goes on
            traceback.print_exc(file=sys.stderr)
            return exc

    samples: list[dict] = []
    traced: list[dict] = []
    spans_out: list[dict] = []  # the first traced iteration of each instance
    shas: dict[int, str] = {}
    baseline_refs: dict[int, dict | None] = {}
    # An untraced run stops at the deadline, so it lasts about --seconds
    # whatever the host's speed; a traced run first finishes a full pass
    # over the instances, so its counts always cover the same inputs.
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while k < (len(instances) if trace else 1) or time.perf_counter() < deadline:
        i = k % len(instances)
        inst = instances[i]
        if workload.baseline and i not in baseline_refs:
            # The exhaustive miner must agree with the pruned one on the same
            # input. The reference run is a check, so it does not use up the
            # measuring time.
            started = time.perf_counter()
            baseline_refs[i] = record(i, attempt(inst, mine=pipe.run_scpm), None, None)
            references.append(calibrate.reference_s())
            deadline += time.perf_counter() - started
        run = record(i, attempt(inst), baseline_refs.get(i), shas.get(i))
        factor = scale()
        if run is not None:
            shas.setdefault(i, _sha(run))
            sample = {"instance": i}
            for m in ("wall_s", "setup_s", "mine_s"):
                sample["raw_" + m] = run[m]
                sample[m] = run[m] * factor
            samples.append(sample)
            setup_samples.append({"instance": i, "raw_setup_s": run["setup_s"], "setup_s": run["setup_s"] * factor})
        if trace:
            tr = tracing.Tracer(workloads.SIGMA_MIN)
            with tr.installed():
                run = attempt(inst, trace=tr)
            references.append(calibrate.reference_s())
            run = record(i, run, baseline_refs.get(i), shas.get(i))
            if run is not None:
                metrics, checks = tracing.summarize(tr.spans, tr.missing)
                untraced = samples[-1]["raw_mine_s"] if samples and samples[-1]["instance"] == i else None
                if untraced is not None:
                    metrics["trace.overhead_s"] = run["mine_s"] - untraced
                traced.append({"instance": i, **metrics, "checks": checks})
                if all(entry["instance"] != i for entry in spans_out):
                    spans_out.append({"instance": i, "spans": tr.spans})
        k += 1

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "setup_samples": setup_samples,
        "samples": samples,
        "reference_s": references,
        "passes": k / len(instances),
        # The same medians in seconds as measured, before scaling.
        "raw": {
            "wall_s": _median(samples, "raw_wall_s"),
            "setup_s": _median(setup_samples, "raw_setup_s"),
            "mine_s": _median(samples, "raw_mine_s"),
            "reference_s": statistics.median(references),
        },
    }
    if trace:
        result["per_layer"] = {
            name: value
            for name in tracing.PER_LAYER
            if (value := _median(traced, name)) is not None
        }
        result["self_checks"] = [t["checks"] for t in traced]
        spans_path = Path(spec["spans_path"])
        with gzip.open(spans_path, "wt") as fh:
            for entry in spans_out:
                fh.write(json.dumps(entry) + "\n")
    else:
        result["end_to_end"] = {
            "wall_s": _median(samples, "wall_s"),
            "setup_s": _median(setup_samples, "setup_s"),
            "mine_s": _median(samples, "mine_s"),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
