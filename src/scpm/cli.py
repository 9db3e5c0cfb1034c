"""Command-line front end: argument parsing, file IO, serialization, sweeps.

Outputs are two TSV files (correlation records and patterns), an optional
directory of DOT exports, and a JSON manifest capturing everything needed
to reproduce the run byte-for-byte. ``records_text`` and ``patterns_text``
own the TSV format; there is no reader: a TSV's rows are its tab-split data
lines after the ``#`` header lines.

Every flag is declared once, in ``build_parser``: the manifest records the
parsed namespace, ``manifest_to_argv`` rebuilds the argv from the parser's
actions, and a config error names the flag whose dest it starts with.

Exit codes: 0 success, 1 usage error, 2 input-format error, 3 expansion
ceiling exceeded in fail-fast mode, 4 an output that cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .graph import AttributedGraph, GraphFormatError, GraphView, induced_view, load_graph
from .index import AttributeIndex, build_index, vertex_set
from .miner import MinerConfig, MiningResult, PatternRecord, run_naive, run_scpm
from .nullmodel import ANALYTICAL, SIMULATION, NullModelConfig
from .quasiclique import QuasiCliqueParams, SearchBudgetExceeded

RECORDS_HEADER = "# attribute_set\tsupport\teps\teps_exp\tdelta\tcovered_count"
PATTERNS_HEADER = "# attribute_set\tsize\tdensity\tvertices"

# The dests --sweep can vary. PARAM names one with '-' or '_', or is "gamma".
_SWEEPABLE = ("gamma_min", "min_size", "sigma_min")


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class OutputError(Exception):
    """An output file or directory that cannot be written; maps to exit code 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="scpm",
        description="Mine attribute sets correlated with dense subgraphs in an attributed graph.",
    )
    p.add_argument("--graph", required=True, help="edge file: one 'u v' pair per line")
    p.add_argument("--attributes", required=True, help="attribute file: 'vertex tok tok ...' per line")
    p.add_argument("--sigma-min", type=int, required=True, help="minimum attribute-set support")
    p.add_argument("--gamma-min", required=True, help="quasi-clique density threshold, e.g. 0.6 or 3/5")
    p.add_argument("--min-size", type=int, required=True, help="minimum quasi-clique size")
    p.add_argument("--eps-min", type=float, default=MinerConfig.eps_min,
                   help="minimum structural correlation")
    p.add_argument("--delta-min", type=float, default=MinerConfig.delta_min,
                   help="minimum normalized correlation")
    p.add_argument("--top-k", default=str(MinerConfig.k),
                   help="patterns per attribute set: a count or 'all'")
    p.add_argument("--null-model", choices=[ANALYTICAL, SIMULATION], default=NullModelConfig.kind,
                   help="expected-correlation model")
    p.add_argument("--samples", type=int, default=NullModelConfig.samples,
                   help="simulation sample count")
    p.add_argument("--seed", type=int, default=NullModelConfig.seed, help="simulation seed")
    p.add_argument("--baseline", action="store_true", help="use the exhaustive baseline miner")
    p.add_argument("--max-set-size", type=int, default=None, help="cap on attribute-set size")
    p.add_argument("--sweep", default=None, metavar="PARAM=START:END:STEP",
                   help="run once per value of gamma/min-size/sigma-min")
    p.add_argument("--out-records", default="records.tsv", help="records TSV path")
    p.add_argument("--out-patterns", default="patterns.tsv", help="patterns TSV path")
    p.add_argument("--export-dot", default=None, metavar="DIR", help="write one DOT file per pattern")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort with exit code 3 when the expansion ceiling is hit")
    p.add_argument("--max-expansions", type=int, default=MinerConfig.expansion_budget,
                   help="candidate-expansion ceiling per induced graph")
    return p


def _parse_gamma(text: str) -> Fraction:
    try:
        gamma = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--gamma-min: not a number: {text!r}") from None
    if not 0 < gamma <= 1:
        raise UsageError(f"--gamma-min must be in (0, 1], got {text}")
    return gamma


def _parse_top_k(text: str) -> int | None:
    if text == "all":
        return None
    try:
        k = int(text)
    except ValueError:
        raise UsageError(f"--top-k: expected a count or 'all', got {text!r}") from None
    if k < 1:
        raise UsageError("--top-k must be at least 1")
    return k


def _parse_sweep(text: str):
    name, sep, rng = text.partition("=")
    param = name.strip().replace("-", "_")
    param = "gamma_min" if param == "gamma" else param
    if not sep or param not in _SWEEPABLE:
        raise UsageError(f"--sweep: expected PARAM=START:END:STEP with PARAM one of "
                         f"gamma, min-size, sigma-min; got {text!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise UsageError(f"--sweep: expected START:END:STEP, got {rng!r}")
    try:
        if param == "gamma_min":
            start, end, step = (Fraction(x) for x in parts)
        else:
            start, end, step = (int(x) for x in parts)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--sweep: bad numeric range {rng!r}") from None
    if step <= 0 or end < start:
        raise UsageError("--sweep: need START <= END and STEP > 0")
    values = []
    v = start
    while v <= end:
        values.append(v)
        v += step
    return param, values


def _config_from_args(args) -> MinerConfig:
    gamma = _parse_gamma(args.gamma_min)
    try:
        params = QuasiCliqueParams(gamma_min=gamma, min_size=args.min_size)
        null_cfg = NullModelConfig(kind=args.null_model, samples=args.samples, seed=args.seed)
        return MinerConfig(
            qc_params=params,
            sigma_min=args.sigma_min,
            eps_min=args.eps_min,
            delta_min=args.delta_min,
            k=_parse_top_k(args.top_k),
            null_model=null_cfg,
            max_set_size=args.max_set_size,
            expansion_budget=args.max_expansions,
            fail_fast=args.fail_fast,
        )
    except ValueError as exc:
        # The message starts with the config field; name its flag instead.
        field, _, rest = str(exc).partition(" ")
        dest = "max_expansions" if field == "expansion_budget" else field
        flags = {a.dest: a.option_strings[0] for a in build_parser()._actions}
        raise UsageError(f"{flags[dest]} {rest}" if dest in flags else str(exc)) from None


def _runs(args) -> list[tuple[str | None, MinerConfig]]:
    """The (block label, config) of every run: one unlabelled run, or one
    per --sweep value, each checked before any run is mined."""
    cfg = _config_from_args(args)
    if not args.sweep:
        return [(None, cfg)]
    param, values = _parse_sweep(args.sweep)
    runs = []
    for value in values:
        swept = argparse.Namespace(**{**vars(args), param: value})
        try:
            cfg = _config_from_args(swept)
        except UsageError as exc:
            raise UsageError(f"--sweep value {param}={value}: {exc}") from None
        shown = f"{float(value):g}" if param == "gamma_min" else value
        runs.append((f"{param}={shown}", cfg))
    return runs


def _manifest_path(args) -> Path:
    records = Path(args.out_records)
    return records.with_name(records.name + ".manifest.json")


def _check_output_paths(args):
    """Reject --out-patterns naming the records file or its manifest, since
    one write would replace the other, and any output naming an input, which
    the run would overwrite after reading it."""
    records, manifest = Path(args.out_records).resolve(), _manifest_path(args).resolve()
    patterns = Path(args.out_patterns).resolve()
    if patterns in (records, manifest):
        raise UsageError(
            f"--out-patterns {args.out_patterns} is the records file or its manifest"
        )
    inputs = (Path(args.graph).resolve(), Path(args.attributes).resolve())
    if records in inputs or manifest in inputs:
        raise UsageError(f"--out-records {args.out_records}: it or its manifest is an input file")
    if patterns in inputs:
        raise UsageError(f"--out-patterns {args.out_patterns} is an input file")


def _format_delta(delta: float) -> str:
    return "inf" if math.isinf(delta) else f"{delta:.6g}"


def _tsv_text(kind: str, header: str, row, blocks, manifest_name: str) -> str:
    """A TSV's header lines, then each block: its label line, if it has a
    label, and one ``row(item)`` per item."""
    lines = [f"# scpm {kind} v{__version__}", f"# manifest: {manifest_name}", header]
    for label, items in blocks:
        if label is not None:
            lines.append(f"# block {label}")
        lines.extend(map(row, items))
    return "\n".join(lines) + "\n"


def records_text(blocks, g: AttributedGraph, manifest_name: str) -> str:
    label = g.attribute_dictionary.label

    def row(rec):
        return (
            f"{label(rec.attribute_set)}\t{rec.support}\t{rec.eps:.6f}"
            f"\t{rec.eps_exp.value:.5e}\t{_format_delta(rec.delta)}\t{len(rec.covered)}"
        )

    return _tsv_text("records", RECORDS_HEADER, row, blocks, manifest_name)


def patterns_text(blocks, g: AttributedGraph, manifest_name: str) -> str:
    label = g.attribute_dictionary.label

    def row(pat):
        q = pat.quasi_clique
        vertices = ",".join(str(g.external_ids[v]) for v in q.vertices)
        return f"{label(pat.attribute_set)}\t{q.size}\t{float(q.density):.2f}\t{vertices}"

    return _tsv_text("patterns", PATTERNS_HEADER, row, blocks, manifest_name)


def _dot_quoted(value) -> str:
    """``value`` as text to go between the quotes of a DOT string."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def export_pattern_dot(
    pattern: PatternRecord,
    view: GraphView,
    labels: Sequence[object] | Mapping[int, object] | None = None,
    title: str | None = None,
) -> str:
    """DOT text with pattern members highlighted and the rest of the view
    dimmed. A node is named ``labels[v]`` when labels are given (such as
    the graph's ``external_ids``), else by its dense id."""

    def name(v):
        return _dot_quoted(labels[v] if labels is not None else v)

    member_set = set(pattern.quasi_clique.vertices)
    lines = ["graph pattern {"]
    if title:
        lines.append(f'  label="{_dot_quoted(title)}";')
    for v in view.members:
        if v in member_set:
            lines.append(f'  "{name(v)}" [style=filled, fillcolor=gold];')
        else:
            lines.append(f'  "{name(v)}" [color=gray, fontcolor=gray];')
    for v in view.members:
        for u in view.neighbors(v):
            if u <= v:
                continue
            if u in member_set and v in member_set:
                lines.append(f'  "{name(v)}" -- "{name(u)}" [penwidth=2];')
            else:
                lines.append(f'  "{name(v)}" -- "{name(u)}" [color=gray, style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_manifest(args, timings: dict, warnings: dict) -> dict:
    """All resolved configuration, input digests, and per-phase timings."""
    return {
        "tool": "scpm",
        "version": __version__,
        "mode": "naive" if args.baseline else "scpm",
        "config": vars(args),
        "inputs": {
            "graph": {"path": args.graph, "sha256": _sha256(args.graph)},
            "attributes": {"path": args.attributes, "sha256": _sha256(args.attributes)},
        },
        "seed": args.seed,
        "timings": timings,
        "warnings": warnings,
    }


def manifest_to_argv(manifest: dict) -> list[str]:
    """Reconstruct the argv of the run a manifest describes: every flag of
    ``build_parser`` with its recorded value. A switch is given when true and
    a flag whose value is None is left out; keys of removed flags are
    ignored."""
    cfg = manifest["config"]
    argv = []
    for action in build_parser()._actions:
        if action.dest == "help":
            continue
        flag, value = action.option_strings[0], cfg[action.dest]
        if isinstance(action, argparse._StoreTrueAction):
            argv += [flag] if value else []
        elif value is not None:
            argv += [flag, str(value)]
    return argv


def _write_dot_exports(
    out_dir: str, result: MiningResult, g: AttributedGraph, index: AttributeIndex
):
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    # An earlier export's files would pass for this run's patterns.
    for stale in directory.glob("pattern_*.dot"):
        stale.unlink()
    # A set's patterns are consecutive, so each set builds one view.
    numbered = enumerate(result.patterns)
    for attrs, group in groupby(numbered, key=lambda item: item[1].attribute_set):
        view = induced_view(g, vertex_set(index, attrs))
        title = g.attribute_dictionary.label(attrs)
        for i, pat in group:
            text = export_pattern_dot(pat, view, labels=g.external_ids, title=title)
            (directory / f"pattern_{i:04d}.dot").write_text(text)


def _decode_error(*paths: str) -> GraphFormatError:
    """The input error for the first line that is not UTF-8, searching the
    files in the order the loader reads them."""
    for path in paths:
        with open(path, "rb") as fh:
            for line_number, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    return GraphFormatError(f"not UTF-8 text: {exc.reason}", path, line_number)
    return GraphFormatError(f"{' or '.join(paths)} is not UTF-8 text")


def _stage(staged: list[tuple[Path, Path]], path: str | Path, text: str):
    """Write ``text`` to a temporary file beside ``path`` and note the pair."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f".{target.name}.{os.getpid()}.{len(staged)}.tmp")
    staged.append((temp, target))
    temp.write_text(text)


def _write_outputs(args, results, g: AttributedGraph, index: AttributeIndex, timings: dict):
    """Write the DOT exports, then the records, patterns and manifest.

    The last three are staged beside their targets and moved into place only
    once every write has succeeded, so an output error (raised as an
    OutputError) leaves the previous run's files as they were and no staged
    file behind."""
    t0 = time.perf_counter()
    manifest_path = _manifest_path(args)
    manifest_name = manifest_path.name
    staged: list[tuple[Path, Path]] = []
    try:
        if args.export_dot:
            # Under --sweep, the last block's patterns.
            _write_dot_exports(args.export_dot, results[-1][1], g, index)
        blocks = [(lb, r.records) for lb, r in results]
        _stage(staged, args.out_records, records_text(blocks, g, manifest_name))
        blocks = [(lb, r.patterns) for lb, r in results]
        _stage(staged, args.out_patterns, patterns_text(blocks, g, manifest_name))
        timings["write_s"] = time.perf_counter() - t0

        overflow = sum(len(r.stats.overflow_sets) for _, r in results)
        warnings = {"self_loops_dropped": g.dropped_self_loops, "overflow_sets": overflow}
        manifest = make_manifest(args, timings, warnings)
        _stage(staged, manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for temp, target in staged:
            os.replace(temp, target)
    except OSError as exc:
        raise OutputError(str(exc)) from None
    finally:
        for temp, _ in staged:
            temp.unlink(missing_ok=True)


def _run(args) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="scpm: %(message)s")
    runs = _runs(args)
    _check_output_paths(args)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    try:
        with (
            open(args.graph, encoding="utf-8-sig") as edge_fh,
            open(args.attributes, encoding="utf-8-sig") as attr_fh,
        ):
            g = load_graph(edge_fh, attr_fh)
    except OSError as exc:
        raise GraphFormatError(str(exc)) from None
    except UnicodeDecodeError:
        raise _decode_error(args.graph, args.attributes) from None
    timings["load_s"] = time.perf_counter() - t0
    if g.dropped_self_loops:
        print(f"scpm: dropped {g.dropped_self_loops} self-loop(s)", file=sys.stderr)

    index = build_index(g)
    mine = run_naive if args.baseline else run_scpm

    t0 = time.perf_counter()
    results = [(label, mine(g, index, cfg)) for label, cfg in runs]
    timings["mine_s"] = time.perf_counter() - t0

    _write_outputs(args, results, g, index, timings)

    n_records = sum(len(r.records) for _, r in results)
    n_patterns = sum(len(r.patterns) for _, r in results)
    expansions = sum(r.stats.expansions for _, r in results)
    print(
        f"scpm: {n_records} record(s), {n_patterns} pattern(s) "
        f"in {timings['mine_s']:.2f}s, expansions={expansions}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except GraphFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())
