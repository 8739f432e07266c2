import json

import pytest

from compnum import (
    BudgetExceededError,
    all_labeled_graphs,
    competition_number,
    cycle_graph,
    edge_clique_cover_number,
    general_bound,
    parse_arc_list,
    parse_graph6,
    random_graphs,
    verify_realization,
    write_graph6,
)
from compnum import cli, covers
from compnum.cli import main
from compnum.graphs import MAX_ENUMERATION_VERTICES, Graph
from oracles import literal_all_labeled_graphs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_general_table(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--method", "general", "Cl")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "general = 2"
        assert [line.split()[1] for line in lines[1:]] == ["2", "2", "2", "1"]

    def test_opsut_e(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--method", "opsut-e", "Cl")
        assert code == 0 and out.strip() == "2"

    def test_opsut_v(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--method", "opsut-v", "Cl")
        assert code == 0 and out.strip() == "2"

    def test_single_term(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--method", "general", "--m", "1", "Cl")
        assert code == 0 and out.strip() == "2"

    def test_negative_bound_shows_clamp(self, capsys):
        # K_5 pushes the edge-cover formula to -2
        code, out, _ = run_cli(capsys, "bound", "--method", "opsut-e", "D~{")
        assert code == 0 and out.strip() == "-2 (clamped 0)"

    def test_json_carries_raw_and_clamped(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--method", "general", "--json", "D~{")
        assert code == 0
        payload = json.loads(out)
        assert payload["general_raw"] == 1 and payload["general"] == 1
        assert payload["opsut_e_raw"] == -2 and payload["opsut_e"] == 0
        assert payload["truncated_ms"] == []

    def test_m_requires_general(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--method", "opsut-e", "--m", "1", "Cl"])
        assert info.value.code == 2

    def test_stdin_lines(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nCl\n"))
        code, out, _ = run_cli(capsys, "bound", "--method", "opsut-e", "--stdin")
        assert code == 0
        # one clique covers K_3, so 1 - 3 + 2 = 0; the 4-cycle gives 2
        assert out.strip().splitlines() == ["0", "2"]

    def test_stdin_skips_bad_lines_and_exits_1(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n!!\n?\nCl\n"))
        code, out, err = run_cli(capsys, "bound", "--method", "opsut-e", "--stdin")
        assert code == 1
        # the lines after the malformed one and the 0-vertex one still run
        assert out.strip().splitlines() == ["0", "2"]
        assert "bound: skipped '!!': byte 0" in err
        assert "bound: skipped '?': bound is undefined" in err

    def test_stdin_m_skips_graphs_with_fewer_vertices(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nCl\n"))
        code, out, err = run_cli(capsys, "bound", "--method", "general", "--m", "4", "--stdin")
        assert code == 1
        # the triangle has no 4th term; the 4-cycle's is 1
        assert out.strip().splitlines() == ["1"]
        assert "bound: skipped 'Bw': m must be in 1..3" in err

    def test_single_graph_m_out_of_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--method", "general", "--m", "5", "Cl"])
        assert info.value.code == 2

    @pytest.mark.parametrize("stdin", ["", "!!\nBw\n"])
    def test_m_below_one_is_refused_before_any_line_is_read(self, capsys, monkeypatch, stdin):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        with pytest.raises(SystemExit) as info:
            main(["bound", "--method", "general", "--m", "0", "--stdin"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--m must be at least 1, got 0" in captured.err
        assert "skipped" not in captured.err

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--method", "opsut-e", "B" + chr(200))
        assert code == 1 and "byte 1" in err

    def test_zero_vertex_graph_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--method", "general", "?")
        assert code == 1 and "empty graph" in err

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_zero_vertex_graph_is_a_domain_error_for_one_term(self, capsys, m):
        code, out, err = run_cli(capsys, "bound", "--method", "general", "--m", m, "?")
        assert code == 1 and out == ""
        assert "bound is undefined for the empty graph" in err
        assert "--m must be in" not in err


class TestExact:
    def test_c4(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "Cl")
        assert code == 0 and out.strip() == "k = 2"

    def test_single_vertex(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "@")
        assert code == 0 and out.strip() == "k = 0"

    def test_witness_file_verifies(self, capsys, tmp_path):
        path = tmp_path / "w.d"
        code, out, _ = run_cli(capsys, "exact", "--witness", str(path), "Bw")
        assert code == 0 and out.strip() == "k = 1"
        d = parse_arc_list(path.read_text())
        assert verify_realization(parse_graph6("Bw"), 1, d)

    def test_witness_dot(self, capsys, tmp_path):
        path = tmp_path / "w.dot"
        code, _, _ = run_cli(capsys, "exact", "--witness", str(path), "Bw")
        assert code == 0
        assert path.read_text().startswith("digraph {")

    def test_budget_exhaustion_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--budget", "2", "--start-k", "2", "Cl")
        assert code == 3
        assert "k >= 2" in out and "unknown" in out

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("COMPNUM_BUDGET_NODES", "2")
        code, out, _ = run_cli(capsys, "exact", "--start-k", "2", "Cl")
        assert code == 3
        # an explicit flag overrides the environment
        code, out, _ = run_cli(capsys, "exact", "--budget", "100000", "Cl")
        assert code == 0 and out.strip() == "k = 2"

    @pytest.mark.parametrize("flag", ["--start-k", "--budget"])
    def test_negative_start_k_or_budget_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["exact", flag, "-1", "Cl"])
        assert info.value.code == 2
        assert f"{flag} must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-5", "many"])
    def test_bad_budget_env_var_is_an_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("COMPNUM_BUDGET_NODES", raw)
        code, out, err = run_cli(capsys, "exact", "Cl")
        assert code == 1 and out == ""
        assert "COMPNUM_BUDGET_NODES must be a nonnegative integer" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--json", "Cl")
        assert code == 0 and json.loads(out) == {"graph6": "Cl", "k": 2}

    def test_verify_subcommand_accepts_witness(self, capsys, tmp_path):
        path = tmp_path / "w.d"
        run_cli(capsys, "exact", "--witness", str(path), "Cl")
        code, out, _ = run_cli(capsys, "verify", "--graph", "Cl", "--k", "2", str(path))
        assert code == 0 and out.strip() == "OK"

    def test_verify_subcommand_rejects_wrong_graph(self, capsys, tmp_path):
        path = tmp_path / "w.d"
        run_cli(capsys, "exact", "--witness", str(path), "Cl")
        code, out, _ = run_cli(capsys, "verify", "--graph", "Bw", "--k", "3", str(path))
        assert code == 1 and out.startswith("FAIL:")

    def test_verify_negative_k_is_a_usage_error_before_the_witness_is_read(self, capsys, tmp_path):
        # the witness path does not exist: opening it would be an I/O error
        with pytest.raises(SystemExit) as info:
            main(["verify", "--graph", "Cl", "--k", "-1", str(tmp_path / "missing.d")])
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == "" and "--k must be nonnegative, got -1" in err

    def test_verify_one_arc_witness_under_a_huge_header(self, capsys, tmp_path):
        path = tmp_path / "w.d"
        path.write_text("digraph 1000001\n0 1\n")
        code, out, _ = run_cli(capsys, "verify", "--graph", "@", "--k", "1000000", str(path))
        assert code == 0 and out == "OK\n"


class TestCompetition:
    def test_shared_prey(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("digraph 3\n0 2\n1 2\n")
        code, out, _ = run_cli(capsys, "competition", str(path))
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.edges() == [(0, 1)]

    def test_empty_digraph(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("digraph 4\n")
        code, out, _ = run_cli(capsys, "competition", str(path))
        assert code == 0
        assert parse_graph6(out.strip()).edge_count == 0

    def test_directed_cycle_has_edgeless_competition(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("digraph 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(capsys, "competition", str(path))
        assert code == 0
        assert parse_graph6(out.strip()).edge_count == 0

    def test_parse_error_exits_1(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("digraph 2\n0 0\n")
        code, _, err = run_cli(capsys, "competition", str(path))
        assert code == 1 and "line 2" in err

    def test_a_bad_header_count_names_its_line(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("digraph ²\n"))
        code, out, err = run_cli(capsys, "competition", "-")
        assert code == 1 and out == ""
        assert err == "error: line 1: expected 'digraph <n>' header\n"

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "competition", str(tmp_path / "nope.txt"))
        assert code == 1


class TestGen:
    def test_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "cycle", "--params", "4")
        assert code == 0 and out.strip() == "Cl"

    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "complete", "--params", "3")
        assert code == 0 and out.strip() == "Bw"

    def test_random_is_stable_across_runs(self, capsys):
        args = ("gen", "--family", "random", "--params", "5,0.5", "--seed", "7", "--count", "2")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert len(first.strip().splitlines()) == 2

    def test_random_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "random", "--params", "5,0.5"])
        assert info.value.code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "moebius", "--params", "5"])
        assert info.value.code == 2

    def test_bad_family_parameters_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "cycle", "--params", "2"])
        assert info.value.code == 2

    def test_random_stream_is_the_library_stream(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "random", "--params", "5,0.5", "--seed", "7", "--count", "3")
        assert code == 0
        assert out.splitlines() == [write_graph6(g) for g in random_graphs(5, 0.5, 7, 3)]

    @pytest.mark.parametrize(
        "params",
        [
            ["cycle", "--params", "4,5"],
            ["cycle", "--params", ","],
            ["random", "--params", "5,1.5", "--seed", "1"],
            ["random", "--params", "70,0.5", "--seed", "1"],
            ["cycle", "--params", "3.5"],
        ],
    )
    def test_bad_parameters_exit_2_without_a_traceback(self, capsys, params):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", *params])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1].startswith("compnum: error: ")

    @pytest.mark.parametrize("family", [["cycle", "--params", "5"], ["random", "--params", "5,0.5", "--seed", "7"]])
    def test_negative_count_is_a_usage_error(self, capsys, family):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", *family, "--count", "-2"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--count must be nonnegative, got -2" in err


class TestSurvey:
    def test_all_labeled_4_with_exact(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            capsys, "survey", "--all-labeled", "4", "--with-exact", "-o", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "graph6,n,edges,theta_e,opsut_e,opsut_v,general,k_exact,millis"
        assert len(lines) == 65
        for line in lines[1:]:
            fields = line.split(",")
            general, k_exact = int(fields[6]), int(fields[7])
            assert general <= k_exact

    def test_one_oracle_per_class(self, capsys, monkeypatch):
        # a row's bound report and its solve look up one oracle, so each of
        # the 11 isomorphism classes on 4 vertices enumerates its cliques once
        enumerated = []
        maximal_cliques = covers.maximal_cliques
        monkeypatch.setattr(covers, "maximal_cliques", lambda g: enumerated.append(g) or maximal_cliques(g))
        covers._oracle.cache_clear()
        code, _, _ = run_cli(capsys, "survey", "--all-labeled", "4", "--with-exact")
        assert code == 0
        assert len(enumerated) == 11

    def test_a_known_class_builds_no_graph(self, capsys, monkeypatch):
        # --all-labeled writes each line from its bit pattern; each row
        # decodes its line to adjacency masks and keys it from them, so only
        # the first row of each of the 11 classes builds a graph, to solve it
        builds = []
        init = Graph.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counted)
        code, _, _ = run_cli(capsys, "survey", "--all-labeled", "4", "--with-exact")
        assert code == 0
        assert len(builds) == 11

    def test_single_graph(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Cl\n")
        code, out, _ = run_cli(capsys, "survey", "--input", str(src))
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "Cl" and row[6] == "2" and row[7] == ""

    def test_empty_input_gives_header_only(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("")
        code, out, _ = run_cli(capsys, "survey", "--input", str(src))
        assert code == 0
        assert out.strip() == "graph6,n,edges,theta_e,opsut_e,opsut_v,general,k_exact,millis"

    def test_malformed_line_is_reported_and_skipped(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Cl\n!!bad!!\nBw\n")
        code, out, err = run_cli(capsys, "survey", "--input", str(src))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("!!bad!!,")
        assert "1 malformed" in err

    def test_rows_stream_in_input_order(self, capsys, tmp_path, monkeypatch):
        # each row, and each skipped line's report, goes out before the next
        # input is solved: stop the survey at its third input and look
        src = tmp_path / "in.g6"
        src.write_text("Cl\n!!bad!!\nBw\n")
        solve = cli._survey_row

        def stop_at_bw(task):
            if task[0] == "Bw":
                raise RuntimeError("stopped")
            return solve(task)

        monkeypatch.setattr(cli, "_survey_row", stop_at_bw)
        with pytest.raises(RuntimeError):
            main(["survey", "--input", str(src)])
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("Cl,4,4,4,2,2,2,,")
        assert lines[2] == "!!bad!!,,,,,,,,"
        assert "survey: skipped '!!bad!!'" in err

    def test_negative_budget_env_var_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COMPNUM_BUDGET_NODES", "-1")
        code, out, err = run_cli(capsys, "survey", "--all-labeled", "2", "--with-exact")
        assert code == 1 and out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as info:
            main(["survey", "--all-labeled", "2", "--jobs", jobs])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--jobs must be positive, got {jobs}" in err

    @pytest.mark.parametrize("n", ["7", "-1"])
    def test_all_labeled_out_of_range_is_a_usage_error(self, capsys, n):
        with pytest.raises(SystemExit) as info:
            main(["survey", "--all-labeled", n])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--all-labeled supports 0..{MAX_ENUMERATION_VERTICES} vertices" in err

    def test_jsonl_mirrors_rows(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Cl\nBw\n")
        out_path = tmp_path / "out.jsonl"
        code, _, _ = run_cli(capsys, "survey", "--input", str(src), "-o", str(out_path))
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["graph6"] for r in rows] == ["Cl", "Bw"]
        assert rows[0]["general"] == 2

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        run_cli(capsys, "survey", "--all-labeled", "3", "--with-exact", "-o", str(one))
        run_cli(capsys, "survey", "--all-labeled", "3", "--with-exact", "--jobs", "2", "-o", str(two))

        def stable(path):
            # drop the timing column, the one field that may differ run to run
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        assert stable(one) == stable(two)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("output", ["x.csv", "x.jsonl", None])
    def test_all_labeled_is_the_survey_of_the_written_lines(self, capsys, tmp_path, jobs, output):
        # every column but millis, against the lines the per-pair enumeration
        # writes, read back through --input
        def survey(*argv):
            path = tmp_path / output if output else None
            code, out, _ = run_cli(capsys, "survey", *argv, "--with-exact", "--jobs", jobs,
                                   *(["-o", str(path)] if path else []))
            assert code == 0
            lines = (path.read_text() if path else out).splitlines()
            if output == "x.jsonl":
                return [{k: v for k, v in json.loads(line).items() if k != "millis"} for line in lines]
            return [line.rsplit(",", 1)[0] for line in lines]

        src = tmp_path / "in.g6"
        for n in range(6):
            src.write_text("".join(write_graph6(g) + "\n" for g in literal_all_labeled_graphs(n)))
            rows = survey("--all-labeled", str(n))
            assert len(rows) == 2 ** (n * (n - 1) // 2) + (output != "x.jsonl")
            assert rows == survey("--input", str(src))

    @staticmethod
    def jsonl_rows(capsys, tmp_path, *argv):
        out_path = tmp_path / "out.jsonl"
        code, _, _ = run_cli(capsys, "survey", *argv, "-o", str(out_path))
        assert code == 0
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        for row in rows:
            del row["millis"]
        return rows

    def test_rows_match_a_direct_computation(self, capsys, tmp_path):
        # isomorphic inputs share one computation; no row may tell
        rows = self.jsonl_rows(capsys, tmp_path, "--all-labeled", "4", "--with-exact")
        expected = []
        for g in all_labeled_graphs(4):
            report = general_bound(g)
            expected.append({
                "graph6": write_graph6(g),
                "n": 4,
                "edges": g.edge_count,
                "theta_e": edge_clique_cover_number(g),
                "opsut_e": max(0, report.opsut_edge),
                "opsut_v": max(0, report.opsut_vertex),
                "general": max(0, report.general),
                "k_exact": competition_number(g)[0],
            })
        assert rows == expected

    def test_budgeted_rows_are_solved_as_labeled(self, capsys, tmp_path, monkeypatch):
        # the forward search's node count depends on the labeling, so under
        # a budget isomorphic inputs may differ in whether k_exact is known
        monkeypatch.setenv("COMPNUM_BUDGET_NODES", "20")
        rows = self.jsonl_rows(capsys, tmp_path, "--all-labeled", "5", "--with-exact")
        graphs = list(all_labeled_graphs(5))
        assert len(rows) == len(graphs)
        for row, g in zip(rows, graphs):
            try:
                k = competition_number(g, budget=20)[0]
            except BudgetExceededError:
                k = "?"
            assert row["k_exact"] == k, row["graph6"]

    def test_unkeyed_graphs_are_solved_directly(self, capsys, tmp_path, monkeypatch):
        # C10 and Petersen are keyed; make every graph unkeyed, as one past
        # the key's leaf bound is, and each row must be solved as given
        monkeypatch.setattr(cli, "_rows_key", lambda rows: None)
        solved = []
        row_values = cli._row_values
        monkeypatch.setattr(cli, "_row_values", lambda g, *args: solved.append(g) or row_values(g, *args))
        c10 = write_graph6(cycle_graph(10))
        petersen = "IheA@GUAo"
        src = tmp_path / "in.g6"
        src.write_text(f"{c10}\n{petersen}\n{c10}\n")
        rows = self.jsonl_rows(capsys, tmp_path, "--input", str(src), "--with-exact")
        assert solved == [cycle_graph(10), parse_graph6(petersen), cycle_graph(10)]
        assert not cli._ROW_MEMO
        c10_row = {"graph6": c10, "n": 10, "edges": 10, "theta_e": 10, "opsut_e": 2,
                   "opsut_v": 2, "general": 2, "k_exact": 2}
        petersen_row = {"graph6": petersen, "n": 10, "edges": 15, "theta_e": 15, "opsut_e": 7,
                        "opsut_v": 3, "general": 7, "k_exact": 7}
        assert rows == [c10_row, petersen_row, c10_row]

    def test_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["survey"])
        assert info.value.code == 2


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert "bound" in out

    def test_verify_is_hidden_from_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert "{bound,exact,competition,survey,gen}" in out

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        import io

        def no_new_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_new_parser)
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["exact", "--budget", "-1", "Cl"])
            assert info.value.code == 2
            assert "--budget must be nonnegative, got -1" in capsys.readouterr().err
            monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nCl\n"))
            assert run_cli(capsys, "bound", "--method", "opsut-e", "--stdin") == (0, "0\n2\n", "")
            code, out, _ = run_cli(capsys, "bound", "--method", "general", "Cl")
            assert code == 0 and out.splitlines()[0] == "general = 2"
            assert run_cli(capsys, "exact", "Cl") == (0, "k = 2\n", "")
            code, out, _ = run_cli(capsys, "survey", "--all-labeled", "3")
            lines = out.splitlines()
            assert code == 0 and lines[0] == ",".join(cli.SURVEY_COLUMNS) and len(lines) == 9
            assert [line.split(",")[0] for line in lines[1:]] == [
                write_graph6(g) for g in all_labeled_graphs(3)
            ]
