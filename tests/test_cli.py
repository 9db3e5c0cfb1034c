import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from scpm import (
    MinerConfig,
    PatternRecord,
    QuasiClique,
    QuasiCliqueParams,
    build_index,
    induced_view,
    load_graph,
    run_scpm,
    vertex_set,
)
from scpm.cli import _config_from_args, build_parser, export_pattern_dot, main, manifest_to_argv

from oracles import random_attributed_graph


def rows(text):
    return [tuple(line.split("\t")) for line in text.splitlines() if not line.startswith("#")]


def run_cli(tmp_path, example_paths, *extra, records="records.tsv", patterns="patterns.tsv"):
    edges, attrs = example_paths
    argv = [
        "--graph", str(edges),
        "--attributes", str(attrs),
        "--sigma-min", "3",
        "--gamma-min", "0.6",
        "--min-size", "4",
        "--eps-min", "0.5",
        "--top-k", "all",
        "--out-records", str(tmp_path / records),
        "--out-patterns", str(tmp_path / patterns),
        *extra,
    ]
    return main(argv)


class TestExitCodes:
    def test_missing_graph_flag_is_usage_error(self, capsys):
        assert main(["--attributes", "x"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_bad_gamma_is_usage_error(self, tmp_path, example_paths):
        assert run_cli(tmp_path, example_paths, "--gamma-min", "2.5") == 1

    def test_removed_strategy_flag_is_usage_error(self, tmp_path, example_paths, capsys):
        assert run_cli(tmp_path, example_paths, "--strategy", "dfs") == 1
        assert "--strategy" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        code = main([
            "--graph", str(tmp_path / "nope.edges"),
            "--attributes", str(tmp_path / "nope.attrs"),
            "--sigma-min", "1", "--gamma-min", "0.5", "--min-size", "3",
        ])
        assert code == 2

    def test_malformed_edge_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 2 3\n")
        attrs = tmp_path / "a.attrs"
        attrs.write_text("1 t\n")
        code = main([
            "--graph", str(bad), "--attributes", str(attrs),
            "--sigma-min", "1", "--gamma-min", "0.5", "--min-size", "3",
            "--out-records", str(tmp_path / "r.tsv"),
            "--out-patterns", str(tmp_path / "p.tsv"),
        ])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-7"])
    def test_budget_below_one_is_usage_error(self, tmp_path, example_paths, capsys, budget):
        assert run_cli(tmp_path, example_paths, "--max-expansions", budget) == 1
        assert "--max-expansions must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "records.tsv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--sigma-min", "0"], "--sigma-min must be at least 1"),
        (["--max-expansions", "0"], "--max-expansions must be at least 1"),
        (["--min-size", "1"], "--min-size must be at least 2, got 1"),
        (["--eps-min", "2"], "--eps-min must be in [0, 1]"),
        (["--delta-min", "-1"], "--delta-min must be non-negative"),
        (["--delta-min", "nan"], "--delta-min must be non-negative"),
        (["--max-set-size", "0"], "--max-set-size must be at least 1"),
        (["--null-model", "simulation", "--samples", "0"],
         "--samples must be at least 1 for the simulation null model"),
    ], ids=["sigma-min", "max-expansions", "min-size", "eps-min", "delta-min", "delta-min-nan",
            "max-set-size", "samples"])
    def test_config_error_names_the_flag(self, tmp_path, example_paths, capsys, flags, message):
        assert run_cli(tmp_path, example_paths, *flags) == 1
        assert capsys.readouterr().err.splitlines()[0] == f"usage error: {message}"

    @pytest.mark.parametrize("which", ["graph", "attributes"])
    def test_non_utf8_input_is_input_error(self, tmp_path, example_paths, capsys, which):
        edges, attrs = (tmp_path / "g.edges", tmp_path / "g.attrs")
        edges.write_bytes(example_paths[0].read_bytes())
        attrs.write_bytes(example_paths[1].read_bytes())
        bad = edges if which == "graph" else attrs
        lines = bad.read_bytes().splitlines(keepends=True)
        lines.insert(2, b"\xff\xfe 3\n")
        bad.write_bytes(b"".join(lines))
        assert run_cli(tmp_path, (edges, attrs)) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {bad}, line 3: not UTF-8 text: invalid start byte\n"

    @pytest.mark.parametrize("which, line, message", [
        ("graph", b"x 3\n", "expected a vertex id, got 'x'"),
        ("attributes", b"-4 t\n", "vertex id must be non-negative, got -4"),
    ], ids=["graph", "attributes"])
    def test_format_error_names_the_file(self, tmp_path, example_paths, capsys, which, line,
                                         message):
        # A parse error names its file, as a non-UTF-8 line in it does.
        edges, attrs = (tmp_path / "bad.edges", tmp_path / "bad.attrs")
        edges.write_bytes(example_paths[0].read_bytes())
        attrs.write_bytes(example_paths[1].read_bytes())
        bad = edges if which == "graph" else attrs
        lines = bad.read_bytes().splitlines(keepends=True)
        lines.insert(1, line)
        bad.write_bytes(b"".join(lines))
        assert run_cli(tmp_path, (edges, attrs)) == 2
        assert capsys.readouterr().err == f"input error: {bad}, line 2: {message}\n"

    @pytest.mark.parametrize("which", ["graph", "attributes"])
    def test_byte_order_mark_is_skipped(self, tmp_path, example_paths, which):
        # The mark precedes a vertex id: the comment lines are dropped.
        edges, attrs = (tmp_path / "g.edges", tmp_path / "g.attrs")
        edges.write_bytes(example_paths[0].read_bytes())
        attrs.write_bytes(example_paths[1].read_bytes())
        marked = edges if which == "graph" else attrs
        lines = marked.read_bytes().splitlines(keepends=True)
        marked.write_bytes(b"\xef\xbb\xbf" + b"".join(ln for ln in lines if not ln.startswith(b"#")))
        assert run_cli(tmp_path, (edges, attrs), records="bom/records.tsv",
                       patterns="bom/patterns.tsv") == 0
        assert run_cli(tmp_path, example_paths) == 0
        for name in ("records.tsv", "patterns.tsv"):
            assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_overflow_fail_fast_is_exit_three(self, tmp_path):
        edges = tmp_path / "cycle.edges"
        edges.write_text("\n".join(f"{v} {(v + 1) % 16}" for v in range(16)) + "\n")
        attrs = tmp_path / "cycle.attrs"
        attrs.write_text("\n".join(f"{v} tag" for v in range(16)) + "\n")
        code = main([
            "--graph", str(edges), "--attributes", str(attrs),
            "--sigma-min", "1", "--gamma-min", "0.5", "--min-size", "3",
            "--max-expansions", "3", "--fail-fast",
            "--out-records", str(tmp_path / "r.tsv"),
            "--out-patterns", str(tmp_path / "p.tsv"),
        ])
        assert code == 3

    def test_records_under_a_regular_file_is_output_error(self, tmp_path, example_paths, capsys):
        (tmp_path / "file").write_text("")
        assert run_cli(tmp_path, example_paths, records="file/records.tsv") == 4
        assert capsys.readouterr().err.startswith("output error: ")

    def test_failed_write_keeps_the_previous_run(self, tmp_path, example_paths, capsys):
        # The second run's records would be written before its patterns
        # fail; nothing of it may reach the previous run's outputs.
        assert run_cli(tmp_path, example_paths, records="r.tsv", patterns="p.tsv") == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        (tmp_path / "file").write_text("")
        code = run_cli(
            tmp_path, example_paths, "--min-size", "3", records="r.tsv", patterns="file/p.tsv"
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("output error: ")
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "file"}
        assert after == before
        manifest = json.loads((tmp_path / "r.tsv.manifest.json").read_text())
        assert manifest["config"]["min_size"] == 4

    @pytest.mark.parametrize("records, patterns, flag", [
        ("g.edges", "patterns.tsv", "--out-records"),
        ("records.tsv", "sub/../g.attrs", "--out-patterns"),
        ("g", "patterns.tsv", "--out-records"),
    ], ids=["records-graph", "patterns-attributes", "manifest-attributes"])
    def test_output_over_an_input_is_usage_error(
        self, tmp_path, example_paths, monkeypatch, capsys, records, patterns, flag
    ):
        # An output written over an input would destroy it and leave a
        # manifest whose input sha256 matches no file. Refused before loading.
        import scpm.cli

        edges, attrs = tmp_path / "g.edges", tmp_path / "g.attrs"
        if records == "g":
            attrs = tmp_path / "g.manifest.json"
        edges.write_bytes(example_paths[0].read_bytes())
        attrs.write_bytes(example_paths[1].read_bytes())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(scpm.cli, "load_graph", None)
        code = run_cli(tmp_path, (edges, attrs), records=records, patterns=patterns)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag} ")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "patterns", ["records.tsv", "sub/../records.tsv", "records.tsv.manifest.json"]
    )
    def test_patterns_over_records_or_manifest_is_usage_error(
        self, tmp_path, example_paths, monkeypatch, capsys, patterns
    ):
        # Written to the records' path or their manifest's, the patterns
        # would replace the records or the manifest. Refused before loading.
        import scpm.cli

        monkeypatch.setattr(scpm.cli, "load_graph", None)
        assert run_cli(tmp_path, example_paths, patterns=patterns) == 1
        assert capsys.readouterr().err.startswith("usage error: --out-patterns ")
        assert list(tmp_path.iterdir()) == []

    def test_dot_dir_naming_a_file_is_output_error(self, tmp_path, example_paths, capsys):
        (tmp_path / "dots").write_text("")
        assert run_cli(tmp_path, example_paths, "--export-dot", str(tmp_path / "dots")) == 4
        assert capsys.readouterr().err.startswith("output error: ")


class TestExampleRun:
    def test_outputs_match_reference_rows(self, tmp_path, example_paths):
        assert run_cli(tmp_path, example_paths) == 0
        records = rows((tmp_path / "records.tsv").read_text())
        by_attrs = {r[0]: r for r in records}
        assert set(by_attrs) == {"A", "B", "A|B"}
        assert by_attrs["A"][1:3] == ("11", "0.818182")
        assert by_attrs["B"][2] == "1.000000"
        assert by_attrs["A|B"][2] == "1.000000"
        assert set(rows((tmp_path / "patterns.tsv").read_text())) == {
            ("A", "6", "0.60", "6,7,8,9,10,11"),
            ("A", "4", "1.00", "3,4,5,6"),
            ("A", "4", "0.67", "3,4,6,7"),
            ("A", "4", "0.67", "3,5,6,7"),
            ("A", "4", "0.67", "3,6,7,8"),
            ("B", "6", "0.60", "6,7,8,9,10,11"),
            ("A|B", "6", "0.60", "6,7,8,9,10,11"),
        }

    @pytest.mark.parametrize("case", ["example11", "infinite-delta"])
    def test_data_lines_match_column_formats(self, tmp_path, example_paths, case):
        # The writers own the format: each field re-formats to itself.
        paths, flags = example_paths, ["--sigma-min", "2", "--eps-min", "0"]
        if case == "infinite-delta":
            # A 4-clique and a path: the one simulated sample of each
            # support holds no 3-clique, so every eps_exp is 0.
            paths = (tmp_path / "g.edges", tmp_path / "g.attrs")
            paths[0].write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n4 5\n5 6\n6 7\n")
            paths[1].write_text("0 A B\n1 A B\n2 A B\n4 A B\n5 A\n6 B\n")
            flags = ["--sigma-min", "3", "--gamma-min", "1", "--min-size", "3", "--eps-min", "0",
                     "--null-model", "simulation", "--samples", "1", "--seed", "15"]
        assert run_cli(tmp_path, paths, *flags) == 0
        records = rows((tmp_path / "records.tsv").read_text())
        assert records
        assert any(r[4] == "inf" for r in records) == (case == "infinite-delta")
        for attrs, support, eps, eps_exp, delta, covered in records:
            assert attrs and all(attrs.split("|"))
            assert support == str(int(support)) and covered == str(int(covered))
            assert eps == f"{float(eps):.6f}" == f"{int(covered) / int(support):.6f}"
            assert eps_exp == f"{float(eps_exp):.5e}"
            assert delta == f"{float(delta):.6g}"  # also "inf"
        patterns = rows((tmp_path / "patterns.tsv").read_text())
        assert patterns
        for attrs, size, density, vertices in patterns:
            assert attrs in {r[0] for r in records}
            assert size == str(int(size)) == str(len(vertices.split(",")))
            assert density == f"{float(density):.2f}"
            assert vertices == ",".join(str(int(v)) for v in vertices.split(","))

    def test_baseline_flag_produces_same_rows(self, tmp_path, example_paths):
        assert run_cli(tmp_path, example_paths) == 0
        assert run_cli(tmp_path, example_paths, "--baseline",
                       records="base_r.tsv", patterns="base_p.tsv") == 0
        fast = rows((tmp_path / "patterns.tsv").read_text())
        slow = rows((tmp_path / "base_p.tsv").read_text())
        assert sorted(fast) == sorted(slow)


class TestRoundTrip:
    def test_infinite_delta_serialized_as_inf(self, tmp_path):
        # The reverse case: every sample of support 3 is this whole triangle,
        # so eps_exp is 1 and delta is finite, not "inf". The "inf" field is
        # checked in TestExampleRun::test_data_lines_match_column_formats.
        edges = tmp_path / "t.edges"
        edges.write_text("0 1\n0 2\n1 2\n")
        attrs = tmp_path / "t.attrs"
        attrs.write_text("0 q\n1 q\n2 q\n")
        code = main([
            "--graph", str(edges), "--attributes", str(attrs),
            "--sigma-min", "3", "--gamma-min", "1", "--min-size", "3",
            "--null-model", "simulation", "--samples", "5", "--seed", "1",
            "--out-records", str(tmp_path / "r.tsv"),
            "--out-patterns", str(tmp_path / "p.tsv"),
        ])
        assert code == 0
        records = rows((tmp_path / "r.tsv").read_text())
        assert records and records[0][4] != "inf"  # whole graph: eps_exp = 1


class TestManifest:
    def test_manifest_written_and_referenced(self, tmp_path, example_paths):
        run_cli(tmp_path, example_paths)
        manifest_path = tmp_path / "records.tsv.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"]
        assert manifest["config"]["gamma_min"] == "0.6"
        assert manifest["inputs"]["graph"]["sha256"]
        header = (tmp_path / "records.tsv").read_text().splitlines()[1]
        assert "records.tsv.manifest.json" in header

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, example_paths):
        run_cli(tmp_path, example_paths)
        manifest = json.loads((tmp_path / "records.tsv.manifest.json").read_text())
        first_records = (tmp_path / "records.tsv").read_bytes()
        first_patterns = (tmp_path / "patterns.tsv").read_bytes()
        (tmp_path / "records.tsv").unlink()
        (tmp_path / "patterns.tsv").unlink()
        assert main(manifest_to_argv(manifest)) == 0
        assert (tmp_path / "records.tsv").read_bytes() == first_records
        assert (tmp_path / "patterns.tsv").read_bytes() == first_patterns

    def test_manifest_with_removed_strategy_key_replays(self, tmp_path, example_paths):
        # Manifests written while --strategy existed carry its value; the
        # search order never changed the output, so replay ignores it.
        run_cli(tmp_path, example_paths)
        manifest = json.loads((tmp_path / "records.tsv.manifest.json").read_text())
        manifest["config"]["strategy"] = "bfs"
        first_records = (tmp_path / "records.tsv").read_bytes()
        first_patterns = (tmp_path / "patterns.tsv").read_bytes()
        (tmp_path / "records.tsv").unlink()
        (tmp_path / "patterns.tsv").unlink()
        assert main(manifest_to_argv(manifest)) == 0
        assert (tmp_path / "records.tsv").read_bytes() == first_records
        assert (tmp_path / "patterns.tsv").read_bytes() == first_patterns

    def test_every_flag_replays(self):
        # Each flag at a value other than its default, so a flag that
        # manifest_to_argv drops or mangles changes the parsed namespace.
        argv = []
        for action in build_parser()._actions:
            flag = action.option_strings[0]
            if action.dest == "help":
                continue
            if action.nargs == 0:
                argv.append(flag)
            elif action.choices:
                argv += [flag, next(c for c in action.choices if c != action.default)]
            elif action.type in (int, float):
                argv += [flag, str(action.type((action.default or 0) + 2))]
            else:
                argv += [flag, f"{action.dest} value"]
        args = build_parser().parse_args(argv)
        assert all(getattr(args, a.dest) != a.default for a in build_parser()._actions
                   if a.dest != "help")
        config = json.loads(json.dumps(vars(args)))
        assert build_parser().parse_args(manifest_to_argv({"config": config})) == args

    def test_flag_defaults_are_the_config_defaults(self):
        required = ["--graph", "g", "--attributes", "a", "--sigma-min", "1",
                    "--gamma-min", "1", "--min-size", "2"]
        cfg = _config_from_args(build_parser().parse_args(required))
        assert cfg == MinerConfig(qc_params=QuasiCliqueParams(Fraction(1), 2))


class TestSweep:
    def test_gamma_sweep_produces_blocks(self, tmp_path, example_paths):
        code = run_cli(tmp_path, example_paths, "--sweep", "gamma=0.3:0.9:0.1")
        assert code == 0
        text = (tmp_path / "records.tsv").read_text()
        blocks = [l for l in text.splitlines() if l.startswith("# block ")]
        assert blocks == [
            f"# block gamma_min={v}" for v in ("0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")
        ]

    def test_sweep_blocks_match_single_runs(self, tmp_path, example_paths):
        run_cli(tmp_path, example_paths, "--sweep", "min-size=3:5:1")
        sweep_text = (tmp_path / "records.tsv").read_text()
        for value in (3, 4, 5):
            run_cli(tmp_path, example_paths, "--min-size", str(value),
                    records=f"single_{value}.tsv", patterns=f"single_p{value}.tsv")
            single = rows((tmp_path / f"single_{value}.tsv").read_text())
            block_lines = []
            active = False
            for line in sweep_text.splitlines():
                if line.startswith("# block "):
                    active = line == f"# block min_size={value}"
                    continue
                if active:
                    block_lines.append(line)
            assert rows("\n".join(block_lines)) == single

    def test_sweep_reports_summed_expansions(self, tmp_path, example_paths, capsys):
        def expansions():
            line = capsys.readouterr().err.strip().splitlines()[-1]
            return int(line.rpartition("expansions=")[2])

        singles = []
        for value in (3, 4, 5):
            run_cli(tmp_path, example_paths, "--min-size", str(value))
            singles.append(expansions())
        run_cli(tmp_path, example_paths, "--sweep", "min-size=3:5:1")
        assert expansions() == sum(singles) > 0

    def test_every_value_is_checked_before_mining(self, tmp_path, example_paths, monkeypatch,
                                                  capsys):
        import scpm.cli

        calls = []

        def counting(*args):
            calls.append(args)
            return run_scpm(*args)

        monkeypatch.setattr(scpm.cli, "run_scpm", counting)
        assert run_cli(tmp_path, example_paths, "--sweep", "gamma=0.9:1.1:0.1") == 1
        assert calls == []
        assert not (tmp_path / "records.tsv").exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: --sweep value gamma_min=11/10: --gamma-min must be")

    def test_bad_sweep_is_usage_error(self, tmp_path, example_paths):
        assert run_cli(tmp_path, example_paths, "--sweep", "bogus=1:2:1") == 1
        assert run_cli(tmp_path, example_paths, "--sweep", "gamma=0.9:0.3:0.1") == 1


class TestDotExport:
    def test_singleton_view(self):
        g = load_graph(iter([]), iter(["7 x"]))
        view = induced_view(g, (0,))
        pattern = PatternRecord((0,), QuasiClique((0,), Fraction(1)))
        text = export_pattern_dot(pattern, view)
        assert text.count("--") == 0
        assert text.count("[style=filled") == 1

    def test_reference_clique_export(self, example_graph, example_index, example_ids):
        members = vertex_set(example_index, (example_ids.A,))
        view = induced_view(example_graph, members)
        dense = example_ids.dense_set((3, 4, 5, 6))
        pattern = PatternRecord((example_ids.A,), QuasiClique(dense, Fraction(1)))
        labels = {v: example_graph.external_ids[v] for v in range(example_graph.vertex_count)}
        text = export_pattern_dot(pattern, view, labels=labels)
        assert text.count("[style=filled") == 4
        assert text.count("[penwidth=2]") == 6
        assert text.count("style=dotted") == view.edge_count - 6

    def test_edge_count_matches_view(self):
        rng = random.Random(4242)
        g = random_attributed_graph(rng, 15, 0.3, 2)
        view = induced_view(g, tuple(range(g.vertex_count)))
        pattern = PatternRecord((0,), QuasiClique(tuple(view.members[:3]), Fraction(1, 2)))
        text = export_pattern_dot(pattern, view)
        assert text.count("--") == view.edge_count

    def test_backslash_and_quote_are_escaped(self):
        view = induced_view(load_graph(iter(["0 1"]), iter([])), (0, 1))
        pattern = PatternRecord((0,), QuasiClique((0, 1), Fraction(1)))
        labels = {0: "a\\", 1: 'a"b'}
        for title, quoted in [("a\\", "a\\\\"), ('a"b', 'a\\"b')]:
            lines = export_pattern_dot(pattern, view, labels=labels, title=title).splitlines()
            assert f'  label="{quoted}";' in lines
        assert '  "a\\\\" -- "a\\"b" [penwidth=2];' in lines

    def test_cli_export_escapes_attribute_tokens(self, tmp_path):
        edges, attrs = tmp_path / "g.edges", tmp_path / "g.attrs"
        edges.write_text("0 1\n1 2\n0 2\n")
        attrs.write_text("0 a\\\n1 a\\\n2 a\\\n")
        assert main([
            "--graph", str(edges), "--attributes", str(attrs),
            "--sigma-min", "3", "--gamma-min", "1", "--min-size", "3",
            "--out-records", str(tmp_path / "r.tsv"), "--out-patterns", str(tmp_path / "p.tsv"),
            "--export-dot", str(tmp_path / "dots"),
        ]) == 0
        text = (tmp_path / "dots" / "pattern_0000.dot").read_text()
        assert '  label="a\\\\";' in text.splitlines()

    def test_cli_export_dir(self, tmp_path, example_paths):
        run_cli(tmp_path, example_paths, "--export-dot", str(tmp_path / "dots"))
        dots = sorted((tmp_path / "dots").glob("*.dot"))
        assert len(dots) == 7
        assert dots[0].read_text().startswith("graph pattern {")
        # Nodes carry the file's ids (1-11), not the dense ids (0-10).
        text = "".join(d.read_text() for d in dots)
        assert '"11"' in text and '"0"' not in text

    def test_cli_export_replaces_earlier_pattern_files(self, tmp_path, example_paths):
        dots = tmp_path / "dots"
        run_cli(tmp_path, example_paths, "--export-dot", str(dots))
        (dots / "notes.txt").write_text("kept")
        (dots / "pattern_0000.gv").write_text("kept")
        run_cli(tmp_path, example_paths, "--export-dot", str(dots), "--top-k", "1")
        patterns = rows((tmp_path / "patterns.tsv").read_text())
        assert 0 < len(patterns) < 7
        written = sorted(p.name for p in dots.glob("pattern_*.dot"))
        assert written == [f"pattern_{i:04d}.dot" for i in range(len(patterns))]
        assert (dots / "notes.txt").read_text() == (dots / "pattern_0000.gv").read_text() == "kept"

    def test_cli_export_builds_index_once(self, tmp_path, example_paths, monkeypatch):
        import scpm.cli

        calls = []
        views = []

        def counting(g):
            calls.append(g)
            return build_index(g)

        def counting_view(g, members):
            views.append(members)
            return induced_view(g, members)

        monkeypatch.setattr(scpm.cli, "build_index", counting)
        monkeypatch.setattr(scpm.cli, "induced_view", counting_view)
        assert run_cli(tmp_path, example_paths, "--export-dot", str(tmp_path / "dots")) == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "dots").glob("*.dot"))) == 7
        # One view per attribute set (A, B and A|B), not one per pattern.
        assert len(views) == 3


def test_sweep_with_invalid_value_is_usage_error(tmp_path, example_paths):
    assert run_cli(tmp_path, example_paths, "--sweep", "min-size=1:2:1") == 1
    assert run_cli(tmp_path, example_paths, "--sweep", "gamma=0.0:0.5:0.1") == 1
