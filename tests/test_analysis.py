"""repro.analysis: framework, the five rules, the CLI and the clean-tree gate.

Each rule has a known-bad fixture under ``tests/data/lint_fixtures/``
whose exact rule ids and line numbers are asserted here; the clean-tree
tests are the same gate CI runs (`python -m repro.analysis src/`).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import main as lint_main
from repro.analysis.framework import parse_suppressions
from repro.obs import vocabulary

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
FIXTURES = HERE / "data" / "lint_fixtures"
SRC = REPO_ROOT / "src"


def check_fixture(name: str, virtual_path: str | None = None):
    """Lint one fixture, optionally under a virtual (path-scoped) name."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    path = virtual_path or f"tests/data/lint_fixtures/{name}"
    return Analyzer().check_source(text, path)


class TestRuleFixtures:
    def test_rl001_lock_discipline(self):
        report = check_fixture("rl001_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [("RL001", 18), ("RL001", 21), ("RL001", 23), ("RL001", 30)]
        assert "_store" in report.findings[0].message
        assert "_methods.clear()" in report.findings[1].message
        assert "search" in report.findings[2].message
        # Async serving entry points obey the same discipline (PR 6's
        # batch dispatch path is an async front end over the RWLock).
        assert "search_async" in report.findings[3].message

    def test_rl002_metrics_vocabulary(self):
        report = check_fixture("rl002_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL002", 11),
            ("RL002", 12),
            ("RL002", 13),
            ("RL002", 16),
            ("RL002", 17),
        ]
        assert "'engine.nope'" in report.findings[0].message
        # The f-string interpolation renders as a wildcard marker.
        assert ".sacn" in report.findings[1].message
        # Known gauge name recorded through .counter() is kind drift.
        assert "'engine.generation'" in report.findings[2].message
        # The cache.* family is vocabulary-checked like any other.
        assert "'cache.nearhits'" in report.findings[3].message
        # cache.probe_ms is a histogram; counting it is kind drift.
        assert "'cache.probe_ms'" in report.findings[4].message

    def test_rl003_dtype_discipline(self):
        report = check_fixture("rl003_bad.py", "src/repro/linalg/rl003_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [("RL003", 10), ("RL003", 11), ("RL003", 12), ("RL003", 13)]

    def test_rl003_only_fires_inside_kernel_packages(self):
        # The same source outside repro.linalg/ann/vectordb/exhaustive
        # is out of scope — dtype discipline is a kernel contract.
        report = check_fixture("rl003_bad.py")
        assert report.findings == ()

    def test_rl004_concurrency_hygiene(self):
        report = check_fixture("rl004_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [("RL004", 12), ("RL004", 16), ("RL004", 21), ("RL004", 30)]
        # The query cache's read path is lock-free by design; a raw lock
        # creeping in beside the lifecycle RWLock is a regression.
        assert "BadResultCache" in report.findings[3].message

    def test_rl005_executor_construction(self):
        report = check_fixture("rl005_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [("RL005", 11), ("RL005", 16)]
        # Bare and module-qualified constructions are both caught.
        assert all("ThreadPoolExecutor" in f.message for f in report.findings)

    def test_rl005_home_package_is_exempt(self):
        # The same source under repro/exec/ is the one legitimate home.
        report = check_fixture("rl005_bad.py", "src/repro/exec/rl005_bad.py")
        assert report.findings == ()

    def test_rl006_raw_array_persistence(self):
        report = check_fixture("rl006_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL006", 10),
            ("RL006", 11),
            ("RL006", 15),
            ("RL006", 16),
        ]
        assert "np.save()" in report.findings[0].message
        assert "np.memmap()" in report.findings[3].message

    def test_rl006_home_package_is_exempt(self):
        # The same source under repro/storage/ is the one legitimate home.
        report = check_fixture("rl006_bad.py", "src/repro/storage/rl006_bad.py")
        assert report.findings == ()

    def test_rl007_interprocedural_lock_discipline(self):
        report = check_fixture("rl007_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL007", 25),
            ("RL007", 29),
            ("RL007", 32),
            ("RL007", 53),
        ]
        assert "no lock" in report.findings[0].message
        # Holding only the reader side is called out as such.
        assert "only the read side" in report.findings[1].message
        # The propagation suggestion names the annotate-the-caller fix.
        assert "@requires_lock" in report.findings[0].message
        # Bare module-local calls resolve too.
        assert "rebuild_index" in report.findings[3].message

    def test_rl008_event_loop_hygiene(self):
        report = check_fixture("rl008_bad.py", "src/repro/serving/rl008_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL008", 14),
            ("RL008", 15),
            ("RL008", 20),
            ("RL008", 34),
            ("RL008", 38),
        ]
        assert "cosine_similarity()" in report.findings[0].message
        assert "time.sleep()" in report.findings[1].message
        # Transitive paths anchor at the call site inside the root and
        # spell out the chain.
        assert "read_snapshot -> _slurp -> open()" in report.findings[2].message
        assert "rowwise_scores()" in report.findings[3].message
        assert "gemm_candidates()" in report.findings[4].message

    def test_rl008_only_roots_in_serving(self):
        # The same source outside repro/serving/ is out of scope.
        report = check_fixture("rl008_bad.py")
        assert report.findings == ()

    def test_rl009_resource_lifecycle(self):
        report = check_fixture("rl009_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL009", 12),
            ("RL009", 18),
            ("RL009", 25),
            ("RL009", 29),
        ]
        assert "may never be released" in report.findings[0].message
        # Releases on the happy path only: flagged for the except edge.
        assert "exception escapes" in report.findings[1].message
        assert "discarded immediately" in report.findings[2].message
        # SegmentWriter is exempt on exceptional paths but not on
        # normal fall-through.
        assert "writer handle" in report.findings[3].message

    def test_rl010_generation_monotonicity(self):
        report = check_fixture("rl010_bad.py")
        got = [(f.rule_id, f.line) for f in report.findings]
        assert got == [
            ("RL010", 18),
            ("RL010", 22),
            ("RL010", 26),
            ("RL010", 29),
            ("RL010", 29),
        ]
        assert "outside the writer lock" in report.findings[0].message
        assert "unrelated value" in report.findings[1].message
        # An unlocked overwrite earns both findings on one line.
        assert "outside the writer lock" in report.findings[3].message
        assert "unrelated value" in report.findings[4].message

    def test_syntax_error_is_a_finding_not_a_crash(self):
        report = Analyzer().check_source("def broken(:\n", "x.py")
        assert [f.rule_id for f in report.findings] == ["RL000"]


class TestSuppressions:
    def test_same_line_suppression(self):
        text = (FIXTURES / "rl004_bad.py").read_text(encoding="utf-8")
        text = text.replace(
            "cache = {}  # line 12: mutable class-level default",
            "cache = {}  # repro-lint: disable=RL004 -- fixture",
        )
        report = Analyzer().check_source(text, "rl004_bad.py")
        assert [f.line for f in report.findings] == [16, 21, 30]
        assert report.n_suppressed == 1

    def test_standalone_comment_covers_next_line(self):
        text = (
            "class C:\n"
            "    # repro-lint: disable=RL004 -- fixture\n"
            "    cache = {}\n"
        )
        report = Analyzer().check_source(text, "x.py")
        assert report.findings == ()
        assert report.n_suppressed == 1

    def test_disable_file(self):
        text = "# repro-lint: disable-file=RL004 -- fixture\n" + (
            FIXTURES / "rl004_bad.py"
        ).read_text(encoding="utf-8")
        report = Analyzer().check_source(text, "rl004_bad.py")
        assert report.findings == ()
        assert report.n_suppressed == 4

    def test_other_rules_stay_active(self):
        text = (FIXTURES / "rl004_bad.py").read_text(encoding="utf-8")
        report = Analyzer().check_source(
            "# repro-lint: disable-file=RL001 -- wrong rule\n" + text,
            "rl004_bad.py",
        )
        assert len(report.findings) == 4

    def test_directive_inside_string_is_not_a_directive(self):
        text = 'MSG = "# repro-lint: disable-file=RL004"\n\n\nclass C:\n    cache = {}\n'
        report = Analyzer().check_source(text, "x.py")
        assert [f.rule_id for f in report.findings] == ["RL004"]

    def test_parse_suppressions_reads_rule_lists(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RL001,RL003 -- why\n")
        assert sup.by_line[1] == {"RL001", "RL003"}
        assert sup.file_wide == set()


class TestVocabulary:
    def test_literal_names(self):
        assert vocabulary.matches("engine.queries", call_kind="counter")
        assert vocabulary.matches("vectordb.scan", call_kind="histogram")
        assert vocabulary.matches("cache.near_hits", call_kind="counter")
        assert vocabulary.matches("cache.probe_ms", call_kind="timer")
        assert vocabulary.matches("encoder_cache.hits", call_kind="counter")
        assert not vocabulary.matches("cache.bytes", call_kind="counter")

    def test_kind_mismatch_fails(self):
        assert not vocabulary.matches("engine.queries", call_kind="gauge")
        assert not vocabulary.matches("engine.generation", call_kind="counter")

    def test_timer_records_histograms(self):
        assert vocabulary.matches("exs.scan", call_kind="timer")

    def test_placeholders_accept_values_and_wildcards(self):
        assert vocabulary.matches("anns.encode", call_kind="histogram")
        assert vocabulary.matches(vocabulary.WILDCARD + ".encode", call_kind="histogram")
        assert not vocabulary.matches(vocabulary.WILDCARD + ".sacn", call_kind="histogram")

    def test_markdown_table_shape(self):
        table = vocabulary.markdown_table()
        lines = table.strip().splitlines()
        assert lines[0] == "| Metric | Kind | Meaning |"
        assert len(lines) == len(vocabulary.VOCABULARY) + 2
        assert any("`engine.queries`" in line for line in lines)


class TestCleanTree:
    """The merge gate: the linter reports nothing on the shipped tree."""

    def test_src_is_clean(self):
        report = Analyzer().check_paths([SRC])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"unsuppressed lint findings:\n{formatted}"
        assert report.n_files > 80

    def test_benchmarks_are_clean(self):
        report = Analyzer().check_paths([REPO_ROOT / "benchmarks"])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.ok, f"unsuppressed lint findings:\n{formatted}"
        assert report.n_files > 10

    def test_cli_exit_zero_on_src(self, capsys):
        assert lint_main([str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_no_suppression_is_unused(self, capsys):
        # Satellite of the audit: a directive that silences nothing is
        # dead weight and must be removed, not carried along.
        assert lint_main([str(SRC), str(REPO_ROOT / "benchmarks"), "--list-suppressions"]) == 0
        out = capsys.readouterr().out
        assert ", 0 unused" in out.strip().splitlines()[-1]
        assert "UNUSED" not in out


class TestCli:
    def test_findings_exit_one_text(self, capsys):
        code = lint_main([str(FIXTURES / "rl004_bad.py")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL004" in out
        assert "4 finding(s)" in out

    def test_json_format(self, capsys):
        code = lint_main([str(FIXTURES / "rl004_bad.py"), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["n_findings"] == 4
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == {"RL004"}
        assert all({"path", "line", "col", "message"} <= set(f) for f in payload["findings"])

    def test_sarif_format(self, capsys):
        code = lint_main([str(FIXTURES / "rl004_bad.py"), "--format=sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "RL004" in rule_ids
        assert len(run["results"]) == 4
        result = run["results"][0]
        assert result["ruleId"] == "RL004"
        assert rule_ids[result["ruleIndex"]] == "RL004"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 12
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_empty_report_still_describes_the_tool(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(clean), "--format=sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (run,) = doc["runs"]
        assert run["results"] == []
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RL001", "RL007", "RL008", "RL009", "RL010"} <= rule_ids

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL009",
            "RL010",
        ):
            assert rule_id in out

    def test_rules_flag_filters(self, capsys):
        # The RL004 fixture is clean under every other rule.
        code = lint_main([str(FIXTURES / "rl004_bad.py"), "--rules", "RL001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_unknown_rule_id_exits_two(self, capsys):
        assert lint_main(["--rules", "RL999", str(FIXTURES)]) == 2
        assert "RL999" in capsys.readouterr().err

    def test_stats_flag(self, capsys):
        lint_main([str(FIXTURES / "rl004_bad.py"), "--stats"])
        err = capsys.readouterr().err
        assert "1 file(s)" in err
        assert "call-graph" in err

    def test_list_suppressions_reports_usage(self, capsys, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "class C:\n"
            "    # repro-lint: disable=RL004 -- fixture default\n"
            "    cache = {}\n"
            "    # repro-lint: disable=RL001 -- nothing here violates RL001\n"
            "    x = 1\n",
            encoding="utf-8",
        )
        assert lint_main([str(target), "--list-suppressions"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert any("used" in line and "RL004" in line for line in lines)
        assert any("UNUSED" in line and "RL001" in line for line in lines)
        assert lines[-1] == "2 suppression(s), 1 unused"

    def test_cache_round_trip(self, capsys, tmp_path):
        cache_file = tmp_path / "lint-cache.json"
        fixture = str(FIXTURES / "rl004_bad.py")
        code = lint_main([fixture, "--cache", str(cache_file), "--stats"])
        cold = capsys.readouterr()
        assert code == 1
        assert cache_file.exists()
        assert "1 miss(es)" in cold.err
        code = lint_main([fixture, "--cache", str(cache_file), "--stats"])
        warm = capsys.readouterr()
        assert code == 1
        assert "1 hit(s)" in warm.err
        # Warm findings match cold findings exactly.
        assert warm.out == cold.out

    def test_cache_respects_live_suppressions(self, tmp_path, capsys):
        # Findings are cached pre-suppression and the directive filter
        # runs on the live text: adding a disable comment flips the
        # verdict even with a populated cache in play.
        cache_file = tmp_path / "lint-cache.json"
        target = tmp_path / "module.py"
        body = "class C:\n    cache = {}\n"
        target.write_text(body, encoding="utf-8")
        assert lint_main([str(target), "--cache", str(cache_file)]) == 1
        capsys.readouterr()
        target.write_text(
            "# repro-lint: disable-file=RL004 -- testing live suppressions\n" + body,
            encoding="utf-8",
        )
        assert lint_main([str(target), "--cache", str(cache_file)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_path_exits_two(self, capsys):
        assert lint_main(["no_such_thing.txt"]) == 2
        assert "repro-lint" in capsys.readouterr().err


class TestReadmeSync:
    def test_metrics_table_matches_vocabulary(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        begin, end = "<!-- metrics-table:begin -->", "<!-- metrics-table:end -->"
        assert begin in readme and end in readme, "README metrics-table markers missing"
        block = readme.split(begin, 1)[1].split(end, 1)[0].strip()
        assert block == vocabulary.markdown_table().strip(), (
            "README metrics table is out of sync with repro/obs/vocabulary.py — "
            "regenerate it with vocabulary.markdown_table()"
        )
