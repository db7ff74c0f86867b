from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from polex.cli import main
from polex.rundir import RunDirectory, parse_policy_text
from polex.schema import load_schema

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def make_run(tmp_path: Path, corpus: str) -> Path:
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(CORPUS / corpus / "schema.txt", run / "schema.txt")
    shutil.copytree(CORPUS / corpus / "handlers", run / "handlers")
    assert main(["constraints-gen", str(run / "schema.txt"), "-o", str(run / "constraints.txt")]) == 0
    return run


def test_constraints_gen_to_stdout(tmp_path, capsys):
    schema = tmp_path / "s.txt"
    schema.write_text("table t { a int unique }\n")
    assert main(["constraints-gen", str(schema)]) == 0
    out = capsys.readouterr().out
    assert "unique t(a)" in out and "nonnull t.a" in out


def test_constraints_gen_malformed_schema_exits_2(tmp_path, capsys):
    schema = tmp_path / "s.txt"
    schema.write_text("table t { a sometype }\n")
    assert main(["constraints-gen", str(schema)]) == 2
    assert "error" in capsys.readouterr().err


def test_constraints_gen_empty_schema(tmp_path):
    schema = tmp_path / "s.txt"
    schema.write_text("")
    out = tmp_path / "c.txt"
    assert main(["constraints-gen", str(schema), "-o", str(out)]) == 0
    assert "editable" in out.read_text()


def test_explore_writes_transcripts_and_inputs(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    assert main(["explore", str(run), "view_grade_sheet"]) == 0
    err = capsys.readouterr().err
    assert "new query" in err
    transcripts = sorted(p.name for p in (run / "transcripts").glob("*.jsonl"))
    assert len(transcripts) == 4
    inputs = sorted(p.name for p in (run / "inputs").glob("*.json"))
    assert len(inputs) == 4


def test_explore_unknown_handler_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    assert main(["explore", str(run), "nosuch"]) == 2
    assert "unknown handler" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "RUN", "show_item", "--bound", "0"],
        ["explore", "RUN", "show_item", "--max-paths", "0"],
        ["explore", "RUN", "show_item", "--value-range", "5:3"],
        ["explore", "RUN", "show_item", "--value-range", "7"],
        ["explore", "RUN", "show_item", "--timeout", "-1"],
        ["explore", "RUN", "show_item", "--bound", "x"],
        ["explore", "RUN", "show_item", "--timeout", "x"],
        ["policy-gen", "RUN", "show_item", "--bound", "0"],
    ],
    ids=["bound", "max-paths", "value-range", "value-range-malformed", "timeout", "bound-malformed",
         "timeout-malformed", "policy-gen-bound"],
)
def test_out_of_range_numbers_exit_2(tmp_path, capsys, argv):
    run = make_run(tmp_path, "toys")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([str(run) if a == "RUN" else a for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # The message says what the argument takes, never which function parsed it.
    assert f"error: argument {argv[3]}: expected " in err and f"got {argv[4]!r}" in err
    assert "Traceback" not in err


HIGH_CATEGORY = """
handler high_category(ItemId: int) {
  let item = query("SELECT * FROM items WHERE id = ? AND category = 12", ItemId);
  render(item);
}
"""
NINE_CATEGORIES = "domain items.category in {" + ", ".join(f"'c{i}'" for i in range(9)) + "}"


@pytest.mark.parametrize("case, handler, where", [
    ("literal", "high_category", "value 12 in handler high_category"),
    ("fixed", "show_item", "value 9 in constraint 'fixed items.category = 9'"),
    ("interned", "show_item", "value 8 in constraint 'domain items.category in {0, 1, 2, 3, 4, 5, 6, 7, 8}'"),
], ids=["literal", "fixed", "interned"])
def test_a_constant_outside_the_value_range_exits_2_and_runs_at_0_15(tmp_path, capsys, case, handler, where):
    run = make_run(tmp_path, "toys")
    (run / "handlers" / "high_category.hdl").write_text(HIGH_CATEGORY)
    with (run / "constraints.txt").open("a") as f:
        f.write({"literal": "", "fixed": "fixed items.category = 9\n", "interned": NINE_CATEGORIES + "\n"}[case])
    (run / "policies").mkdir()
    (run / "policies" / "p.sql").write_text("SELECT * FROM users;\n")
    policy, r = str(run / "policies" / "p.sql"), str(run)
    commands = [["explore", r, handler], ["policy-gen", r, handler]]
    if case != "literal":
        commands += [["is-allowed", r, policy, "SELECT * FROM users"]]
    capsys.readouterr()
    for argv in commands:
        assert main(argv + ["--value-range", "0:7"]) == 2, argv
        assert capsys.readouterr().err == f"error: {where} lies outside the value range 0:7\n"
    assert main(["explore", r, handler, "--value-range", "0:15"]) == 0
    assert main(["policy-gen", r, handler, "--value-range", "0:15"]) == 0
    paths = capsys.readouterr().out.split("paths=")[1].split()[0]
    assert int(paths) == {"literal": 2, "fixed": 6, "interned": 6}[case]


def test_a_comment_after_the_semicolon_ends_the_view():
    schema = load_schema(CORPUS / "toys" / "schema.txt")
    text = "-- view 1  handler=h\nSELECT * FROM users; -- note\nSELECT id\nFROM items;  # and ';'\n"
    views = parse_policy_text(text, schema)
    assert views == parse_policy_text("-- view 1  handler=h\nSELECT * FROM users;\nSELECT id FROM items;\n", schema)
    assert [v.handler for v in views] == ["h", ""]


def test_explore_path_budget_exits_3(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    assert main(["explore", str(run), "view_grade_sheet", "--max-paths", "1"]) == 3
    assert len(list((run / "transcripts").glob("*.jsonl"))) == 1


def test_explore_again_replaces_only_the_handlers_transcripts_and_inputs(tmp_path, capsys):
    # A re-run under a smaller budget leaves its own paths alone, so
    # policy-gen reads that run; a handler whose name extends this one's
    # keeps its files.
    run = make_run(tmp_path, "grade_sheet")
    assert main(["explore", str(run), "view_grade_sheet"]) == 0
    other = "view_grade_sheet_v2-0003"
    shutil.copy(run / "transcripts" / "view_grade_sheet-0003.jsonl", run / "transcripts" / f"{other}.jsonl")
    shutil.copy(run / "inputs" / "view_grade_sheet-0003.json", run / "inputs" / f"{other}.json")
    assert main(["explore", str(run), "view_grade_sheet", "--max-paths", "1"]) == 3
    for kind, suffix in (("transcripts", ".jsonl"), ("inputs", ".json")):
        names = sorted(p.name for p in (run / kind).iterdir())
        assert names == [f"view_grade_sheet-0001{suffix}", f"{other}{suffix}"]
    capsys.readouterr()
    assert main(["policy-gen", str(run), "view_grade_sheet"]) == 0
    assert "paths=1 " in capsys.readouterr().out


def test_policy_gen_grade_sheet(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    assert main(["policy-gen", str(run), "view_grade_sheet"]) == 0
    out = capsys.readouterr().out
    assert "condqs 2 -> 2" in out and "views 2 -> 2" in out
    text = (run / "policies" / "view_grade_sheet.sql").read_text()
    assert "SELECT * FROM roles\nWHERE user_id = MyUserId;" in text
    assert "witness=" in text


def test_policy_witnesses_resolve_to_logged_inputs(tmp_path):
    from polex.rundir import RunDirectory, load_policy_file

    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    main(["policy-gen", str(run), "view_grade_sheet"])
    rd = RunDirectory(run)
    schema = rd.load_schema()
    for view in load_policy_file(run / "policies" / "view_grade_sheet.sql", schema):
        assert view.witness
        assert (run / "inputs" / f"{view.witness}.json").exists()
        # and the witness replays byte-identically
        assert main(["replay", str(run), view.witness]) == 0


def test_policy_gen_without_transcripts_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    assert main(["policy-gen", str(run), "view_grade_sheet"]) == 2


def test_transcript_ids_follow_each_handlers_input_numbers(tmp_path):
    # Ids are `<handler>-<seq:04d>`, so from 10,000 inputs on their text
    # order is not the order explore made them in; policy-gen reads them
    # in the latter.  A stray file name sorts by its text and belongs to
    # no handler.
    rd = RunDirectory(tmp_path)
    rd.transcripts_dir.mkdir()
    for name in ("h-1001", "notes", "h-10000", "g-0002", "h-0999", "h-x", "h-1000"):
        (rd.transcripts_dir / f"{name}.jsonl").write_text("")
    assert rd.transcript_ids("h") == ["h-0999", "h-1000", "h-1001", "h-10000"]
    assert rd.transcript_ids() == ["g-0002", "h-0999", "h-1000", "h-1001", "h-10000", "h-x", "notes"]


def test_remove_runs_keeps_stray_files_and_other_handlers_runs(tmp_path):
    rd = RunDirectory(tmp_path)
    for directory, suffix in ((rd.transcripts_dir, ".jsonl"), (rd.inputs_dir, ".json")):
        directory.mkdir()
        for name in ("h-0001", "h-10000", "h-notes", "hh-0001", "h"):
            (directory / f"{name}{suffix}").write_text("")
    rd.remove_runs("h")
    assert sorted(p.stem for p in rd.inputs_dir.iterdir()) == ["h", "h-notes", "hh-0001"]
    assert rd.transcript_ids() == ["h", "h-notes", "hh-0001"]


def test_policy_gen_refuses_raw_request_param_branch(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    (run / "handlers" / "flagged.hdl").write_text(
        """
handler flagged(Flag: bool) {
  let x = query("SELECT * FROM courses WHERE id = ?", MyUserId);
  abort_if_empty(x, 404);
  if (Flag) {
    let y = query("SELECT * FROM grades WHERE course_id = ?", x.id);
    render(y);
  }
  abort(204);
}
"""
    )
    assert main(["explore", str(run), "flagged"]) == 0
    assert main(["policy-gen", str(run), "flagged"]) == 4
    assert "refused" in capsys.readouterr().err


def test_policy_gen_refuses_count_over_keyless_table(tmp_path, capsys):
    run = make_run(tmp_path, "toys")
    (run / "handlers" / "detail_count.hdl").write_text(
        """
handler detail_count(B: int) {
  let n = query("SELECT COUNT(*) FROM details WHERE body = ?", B);
  render(n);
}
"""
    )
    assert main(["explore", str(run), "detail_count"]) == 0
    capsys.readouterr()
    assert main(["policy-gen", str(run), "detail_count"]) == 4
    err = capsys.readouterr().err
    assert "policy generation refused:" in err and "unique key column" in err
    assert "Traceback" not in err


def test_merge_prune_and_final_policy(tmp_path):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    main(["policy-gen", str(run), "view_grade_sheet"])
    assert main(["policy-merge-prune", str(run), "view_grade_sheet"]) == 0
    final = (run / "policies" / "final.sql").read_text()
    assert final.count("SELECT") == 2


def test_replay_byte_identical_and_verbose(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    capsys.readouterr()
    assert main(["replay", str(run), "view_grade_sheet-0002"]) == 0
    plain = capsys.readouterr().out
    assert "Query_1(" in plain and "@" not in plain
    assert main(["replay", str(run), "view_grade_sheet-0002", "--verbose"]) == 0
    verbose = capsys.readouterr().out
    assert "@view_grade_sheet.hdl:" in verbose


def test_replay_unknown_input_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    assert main(["replay", str(run), "view_grade_sheet-9999"]) == 2


def test_replay_of_edited_handler_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "toys")
    assert main(["explore", str(run), "detail_chain", "--bound", "2"]) == 0
    handler = run / "handlers" / "detail_chain.hdl"
    text = handler.read_text()
    assert "WHERE body = ?" in text
    handler.write_text(text.replace("WHERE body = ?", "WHERE nosuch = ?"))
    capsys.readouterr()
    assert main(["replay", str(run), "detail_chain-0002"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nosuch" in err


def test_replay_of_input_with_a_second_row_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    assert main(["explore", str(run), "view_grade_sheet"]) == 0
    # The one input whose `all_grades` matched a row; a copy of that row for
    # another user matches too.
    (path, data), = [(p, d) for p in sorted((run / "inputs").glob("*.json"))
                     if (d := json.loads(p.read_text()))["tables"]["grades"]]
    row = data["tables"]["grades"][0]
    data["tables"]["grades"].append(dict(row, user_id=row["user_id"] + 1))
    path.write_text(json.dumps(data))
    capsys.readouterr()
    # `all_grades` now matches two rows, which no stored transcript records.
    assert main(["replay", str(run), path.stem]) == 2
    assert capsys.readouterr().err == "error: replay diverged from the stored transcript\n"


def test_is_allowed_cli_with_counterexample_dump(tmp_path, capsys):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    main(["policy-gen", str(run), "view_grade_sheet"])
    policy = run / "policies" / "view_grade_sheet.sql"
    capsys.readouterr()
    assert main(["is-allowed", str(run), str(policy),
                 "SELECT * FROM roles WHERE user_id = MyUserId"]) == 0
    assert capsys.readouterr().out.strip() == "allowed"
    dump = tmp_path / "cex"
    assert main(["is-allowed", str(run), str(policy), "SELECT * FROM courses",
                 "--dump", str(dump), "--value-range", "0:2"]) == 0
    out = capsys.readouterr().out
    assert "not allowed" in out
    assert (dump / "counterexample-a.json").exists()
    assert (dump / "counterexample-b.json").exists()


def test_is_allowed_reads_foreign_keys_from_the_edited_constraints(tmp_path, capsys):
    run = make_run(tmp_path, "toys")
    policy = tmp_path / "policy.sql"
    policy.write_text("SELECT * FROM details, items WHERE items.id = details.item_id;\n")
    argv = ["is-allowed", str(run), str(policy), "SELECT * FROM details", "--dump", str(tmp_path / "cex")]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == "allowed\n"
    constraints = run / "constraints.txt"
    lines = constraints.read_text().splitlines(keepends=True)
    constraints.write_text("".join(l for l in lines if l != "fk details.item_id -> items.id\n"))
    assert len(constraints.read_text().splitlines()) == len(lines) - 1
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "not allowed"
    assert (tmp_path / "cex" / "counterexample-a.json").exists()
    assert (tmp_path / "cex" / "counterexample-b.json").exists()
    # A pair with one row per table exists, so the reported pair is one.
    for name in ("counterexample-a.json", "counterexample-b.json"):
        tables = json.loads((tmp_path / "cex" / name).read_text())["tables"]
        assert all(len(rows) <= 1 for rows in tables.values()), tables


def test_is_allowed_reports_a_determinacy_without_a_rewriting_as_bounded(tmp_path, capsys):
    # The ids determine the categories only while every category is 0.
    run = make_run(tmp_path, "toys")
    policy = tmp_path / "policy.sql"
    policy.write_text("SELECT id FROM items;\n")
    argv = ["is-allowed", str(run), str(policy), "SELECT category FROM items", "--bound", "1"]
    capsys.readouterr()
    assert main(argv + ["--value-range", "0:0"]) == 0
    assert capsys.readouterr().out == "determined at bound 1 within range 0:0, no rewriting\n"
    assert main(argv + ["--value-range", "0:1"]) == 0
    assert capsys.readouterr().out == "not allowed\n"


@pytest.mark.parametrize("command", ["policy-merge-prune", "broaden"])
def test_commands_that_never_search_reject_timeout(tmp_path, capsys, command):
    run = make_run(tmp_path, "toys")
    argv = {"policy-merge-prune": ["policy-merge-prune", str(run), "show_item"],
            "broaden": ["broaden", str(run), "p.sql", "q.sql"]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--timeout", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --timeout 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--bound", "3"), ("--value-range", "0:15")])
@pytest.mark.parametrize("command", ["policy-merge-prune", "broaden"])
def test_commands_that_never_search_reject_bound_and_value_range(tmp_path, capsys, command, flag, value):
    run = make_run(tmp_path, "toys")
    argv = {"policy-merge-prune": ["policy-merge-prune", str(run), "show_item"],
            "broaden": ["broaden", str(run), "p.sql", "q.sql"]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_broaden_cli(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(CORPUS / "broaden" / "schema.txt", run / "schema.txt")
    assert main(["constraints-gen", str(run / "schema.txt"), "-o", str(run / "constraints.txt")]) == 0
    policies = run / "policies"
    policies.mkdir()
    shutil.copy(CORPUS / "broaden" / "narrow.sql", policies / "narrow.sql")
    out_path = policies / "broadened.sql"
    assert main([
        "broaden", str(run), str(policies / "narrow.sql"), str(CORPUS / "broaden" / "broader.sql"),
        "-o", str(out_path),
    ]) == 0
    text = out_path.read_text()
    assert text.count("SELECT") == 3
    assert (run / "reports" / "broaden.txt").exists()


BAD_SQL = {
    "placeholder": "SELECT * FROM users WHERE id = ?",
    "request-param": "SELECT * FROM users WHERE id = Foo",
    "unknown-column": "SELECT nosuch FROM users",
}


@pytest.mark.parametrize("bad", sorted(BAD_SQL))
@pytest.mark.parametrize("command", ["is-allowed-view", "is-allowed-query", "broaden", "policy-merge-prune"])
def test_bad_policy_view_or_query_exits_2(tmp_path, capsys, command, bad):
    run = make_run(tmp_path, "toys")
    policies = run / "policies"
    policies.mkdir()
    (policies / "ok.sql").write_text("SELECT * FROM users;\n")
    (policies / "bad.sql").write_text(BAD_SQL[bad] + ";\n")
    ok, bad_file = str(policies / "ok.sql"), str(policies / "bad.sql")
    argv = {
        "is-allowed-view": ["is-allowed", str(run), bad_file, "SELECT * FROM users"],
        "is-allowed-query": ["is-allowed", str(run), ok, BAD_SQL[bad]],
        "broaden": ["broaden", str(run), ok, bad_file],
        "policy-merge-prune": ["policy-merge-prune", str(run), "ok", "bad"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_pipeline_is_deterministic(tmp_path):
    runs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        run = make_run(base, "grade_sheet")
        main(["explore", str(run), "view_grade_sheet"])
        main(["policy-gen", str(run), "view_grade_sheet"])
        main(["policy-merge-prune", str(run), "view_grade_sheet"])
        runs.append(run)
    a, b = runs
    assert (a / "policies" / "final.sql").read_bytes() == (b / "policies" / "final.sql").read_bytes()
    for t in sorted(p.name for p in (a / "transcripts").glob("*.jsonl")):
        assert (a / "transcripts" / t).read_bytes() == (b / "transcripts" / t).read_bytes()


@pytest.mark.parametrize(
    "handler",
    [
        'let x = query("SELECT * FROM details WHERE nosuch = ?", B);\n  render(x);',
        'let x = query("SELECT * FROM details WHERE body = ?", B);\n  abort_if_empty(x, 404);\n'
        '  let y = query("SELECT * FROM items WHERE id = ?", x.nosuch);\n  render(y);',
    ],
    ids=["sql-unknown-column", "field-of-missing-column"],
)
def test_explore_bad_handler_exits_2(tmp_path, capsys, handler):
    run = make_run(tmp_path, "toys")
    (run / "handlers" / "bad.hdl").write_text(f"handler bad(B: int) {{\n  {handler}\n}}\n")
    capsys.readouterr()
    assert main(["explore", str(run), "bad"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nosuch" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", ["", "{not json\n"], ids=["empty", "corrupt"])
@pytest.mark.parametrize("kind", ["transcripts", "inputs"])
def test_malformed_run_files_exit_2_naming_the_file(tmp_path, capsys, kind, content):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    (bad,) = (run / kind).glob("view_grade_sheet-0001.json*")
    bad.write_text(content)
    commands = [["replay", str(run), "view_grade_sheet-0001"]]
    if kind == "transcripts":
        commands.append(["policy-gen", str(run), "view_grade_sheet"])
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and bad.name in err, argv


@pytest.mark.parametrize("content", ["[1, 2", "[1, 2]"], ids=["corrupt", "not-an-object"])
def test_corrupt_intern_table_exits_2_naming_the_file(tmp_path, capsys, content):
    run = make_run(tmp_path, "grade_sheet")
    main(["explore", str(run), "view_grade_sheet"])
    (run / "intern.json").write_text(content)
    for argv in (
        ["explore", str(run), "view_grade_sheet"],
        ["policy-gen", str(run), "view_grade_sheet"],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and "intern.json" in err, argv


@pytest.mark.parametrize(
    "case",
    ["constraints-gen-o", "merge-prune-o", "broaden-o", "is-allowed-dump", "is-allowed-dir", "broaden-dir"],
)
def test_unwritable_output_or_unreadable_policy_exits_2(tmp_path, capsys, case):
    run = make_run(tmp_path, "toys")
    policies = run / "policies"
    policies.mkdir()
    ok = policies / "ok.sql"
    ok.write_text("SELECT * FROM users;\n")
    missing = tmp_path / "missing" / "out.sql"
    taken = tmp_path / "taken"
    taken.write_text("")
    argv, path = {
        "constraints-gen-o": (["constraints-gen", str(run / "schema.txt"), "-o", str(missing)], missing),
        "merge-prune-o": (["policy-merge-prune", str(run), "ok", "-o", str(missing)], missing),
        "broaden-o": (["broaden", str(run), str(ok), str(ok), "-o", str(missing)], missing),
        "is-allowed-dump": (["is-allowed", str(run), str(ok), "SELECT * FROM items", "--dump", str(taken)], taken),
        "is-allowed-dir": (["is-allowed", str(run), str(policies), "SELECT * FROM users"], policies),
        "broaden-dir": (["broaden", str(run), str(policies), str(ok)], policies),
    }[case]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


BAD_CONSTRAINTS = {
    "unknown-kind": "bogus items.id",
    "arity-mismatch": "contain SELECT id, owner_id FROM items in SELECT id FROM users",
    "fk-unknown-column": "fk items.nosuch -> users.id",
    "contain-unknown-column": "contain SELECT nosuch FROM items in SELECT id FROM users",
}


@pytest.mark.parametrize("bad", sorted(BAD_CONSTRAINTS))
@pytest.mark.parametrize("command", ["explore", "policy-gen", "policy-merge-prune", "broaden", "is-allowed"])
def test_malformed_constraints_file_exits_2_naming_the_file(tmp_path, capsys, command, bad):
    run = make_run(tmp_path, "toys")
    policies = run / "policies"
    policies.mkdir()
    ok = str(policies / "ok.sql")
    (policies / "ok.sql").write_text("SELECT * FROM users;\n")
    with (run / "constraints.txt").open("a") as f:
        f.write(BAD_CONSTRAINTS[bad] + "\n")
    argv = {
        "explore": ["explore", str(run), "show_item"],
        "policy-gen": ["policy-gen", str(run), "show_item"],
        "policy-merge-prune": ["policy-merge-prune", str(run), "ok"],
        "broaden": ["broaden", str(run), ok, ok],
        "is-allowed": ["is-allowed", str(run), ok, "SELECT * FROM users"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and "constraints.txt" in err
    assert BAD_CONSTRAINTS[bad] in err


def test_existence_join_policy_keeps_the_join(tmp_path, capsys):
    run = make_run(tmp_path, "toys")
    (run / "handlers" / "probe.hdl").write_text(
        """
handler probe(ItemId: int) {
  let e = query("SELECT 1 FROM items INNER JOIN details ON details.item_id = items.id WHERE items.id = ? LIMIT 1", ItemId);
  if (nonempty(e)) {
    render(e);
  }
}
"""
    )
    assert main(["explore", str(run), "probe"]) == 0
    assert main(["policy-gen", str(run), "probe"]) == 0
    text = (run / "policies" / "probe.sql").read_text()
    assert text.endswith("SELECT items.id FROM items, details\nWHERE details.item_id = items.id;\n")


def test_self_join_on_a_nullable_unique_column_is_kept(tmp_path, capsys):
    # `k` is unique but nullable: `t_2.k = t.k` also drops the rows whose k
    # is NULL, so collapsing the two copies would allow more than the
    # handler reveals.
    run = tmp_path / "run"
    (run / "handlers").mkdir(parents=True)
    (run / "schema.txt").write_text("table t {\n  id int unique\n  k int nullable unique\n  x int\n}\n")
    (run / "handlers" / "h.hdl").write_text(
        """
handler h(P: int) {
  let a = query("SELECT k FROM t WHERE id = ?", P);
  abort_if_empty(a, 404);
  let b = query("SELECT x FROM t WHERE k = ?", a.k);
  render(b);
}
"""
    )
    assert main(["constraints-gen", str(run / "schema.txt"), "-o", str(run / "constraints.txt")]) == 0
    assert main(["explore", str(run), "h"]) == 0
    assert main(["policy-gen", str(run), "h"]) == 0
    policy = run / "policies" / "h.sql"
    assert "SELECT t.k, t_2.x, t.id FROM t, t t_2\nWHERE t_2.k = t.k;" in policy.read_text()
    capsys.readouterr()
    assert main(["is-allowed", str(run), str(policy), "SELECT x FROM t WHERE k IS NULL"]) == 0
    assert capsys.readouterr().out == "not allowed\n"


def test_intern_table_is_written_only_when_a_string_is_interned(tmp_path, capsys):
    run = make_run(tmp_path, "toys")
    policy = tmp_path / "policy.sql"
    policy.write_text("SELECT * FROM users;\n")
    commands = (["explore", str(run), "show_item"], ["is-allowed", str(run), str(policy), "SELECT * FROM users"])
    for argv in commands:
        assert main(argv) == 0
    assert not (run / "intern.json").exists()
    with (run / "constraints.txt").open("a") as f:
        f.write("domain items.category in {'a', 'b'}\n")
    assert main(commands[1]) == 0
    written = (run / "intern.json").read_bytes()
    assert json.loads(written) == {"a": 0, "b": 1}
    assert main(commands[0]) == 0
    assert (run / "intern.json").read_bytes() == written
