"""CLI, baseline, and suppression tests for repro.lint.

The CLI contract: exit 0 on a clean (or fully baselined/suppressed)
tree, 1 on new findings, 2 on usage/parse errors; ``--format json``
emits a machine-readable report (the CI artifact); baselines round-trip
through ``--write-baseline``.
"""

from __future__ import annotations

import functools
import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintError,
    all_checkers,
    iter_python_files,
    load_file,
    load_source,
    run_lint,
)
from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _full_tree_lint():
    """(result, seconds) of one full-tree run, all eight rules, against
    the shipped baseline."""
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    t0 = time.monotonic()
    result = run_lint([REPO_ROOT / "src" / "repro"], all_checkers(),
                      baseline=baseline, root=REPO_ROOT)
    return result, time.monotonic() - t0


DIRTY = textwrap.dedent("""
    import numpy as np

    def jitter(n):
        return np.random.rand(n)
""")

CLEAN = textwrap.dedent("""
    import numpy as np

    def jitter(n, seed):
        rng = np.random.default_rng(seed)
        return rng.random(n)
""")


@pytest.fixture
def dirty_tree(tmp_path):
    # A path containing a "repro/engine" segment so package-scoped
    # checkers apply, mirroring the real layout.
    pkg = tmp_path / "repro" / "engine"
    pkg.mkdir(parents=True)
    (pkg / "fixture.py").write_text(DIRTY)
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(CLEAN)
        code, out, _ = run_cli([tmp_path, "--no-baseline"], capsys)
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, dirty_tree, capsys):
        code, out, _ = run_cli([dirty_tree, "--no-baseline"], capsys)
        assert code == 1
        assert "RP003" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli([tmp_path / "nope.py"], capsys)
        assert code == 2
        assert "error" in err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        code, _, err = run_cli([bad], capsys)
        assert code == 2
        assert "syntax error" in err

    def test_unknown_select_exits_two(self, dirty_tree, capsys):
        code, _, err = run_cli([dirty_tree, "--select", "RP999"], capsys)
        assert code == 2

    def test_select_can_mask_the_finding(self, dirty_tree, capsys):
        code, _, _ = run_cli(
            [dirty_tree, "--no-baseline", "--select", "RP001"], capsys)
        assert code == 0

    def test_list_checkers(self, capsys):
        code, out, _ = run_cli(["--list-checkers"], capsys)
        assert code == 0
        for c in all_checkers():
            assert c.code in out


class TestJsonOutput:
    def test_json_report_shape(self, dirty_tree, capsys):
        code, out, _ = run_cli(
            [dirty_tree, "--no-baseline", "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["version"] == 1
        assert payload["counts"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RP003"
        assert finding["path"].endswith("fixture.py")
        assert finding["line"] > 0

    def test_output_file_holds_report(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            [dirty_tree, "--no-baseline", "--format", "json",
             "--output", report], capsys)
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["counts"]["findings"] == 1
        assert "report.json" in out  # summary still printed


class TestBaseline:
    def test_write_then_pass_round_trip(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code, out, _ = run_cli(
            [dirty_tree, "--baseline", baseline, "--write-baseline"], capsys)
        assert code == 0
        assert "wrote 1 finding(s)" in out

        data = json.loads(baseline.read_text())
        assert data["version"] == 1
        (entry,) = data["entries"]
        assert entry["code"] == "RP003"
        assert "justification" in entry

        # Same tree + the baseline just written -> clean run.
        code, out, _ = run_cli([dirty_tree, "--baseline", baseline], capsys)
        assert code == 0
        assert "1 baselined" in out

    def test_baseline_does_not_hide_new_findings(self, dirty_tree, tmp_path,
                                                 capsys):
        baseline = tmp_path / "baseline.json"
        run_cli([dirty_tree, "--baseline", baseline, "--write-baseline"],
                capsys)
        extra = dirty_tree / "repro" / "engine" / "fresh.py"
        extra.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        code, out, _ = run_cli([dirty_tree, "--baseline", baseline], capsys)
        assert code == 1
        assert "fresh.py" in out

    def test_malformed_baseline_rejected(self, dirty_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"entries": [{"code": "RP003"}]}')
        code, _, err = run_cli([dirty_tree, "--baseline", baseline], capsys)
        assert code == 2
        assert "justification" in err

    def test_baseline_api_round_trip(self, tmp_path):
        entries = [{"code": "RP002", "path": "x.py",
                    "message": "m", "justification": "because"}]
        Baseline(entries=entries).save(tmp_path / "b.json")
        loaded = Baseline.load(tmp_path / "b.json")
        assert loaded.entries == entries
        assert loaded.fingerprints() == {"RP002|x.py|m"}


class TestSuppression:
    def test_inline_disable_silences_one_code(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(textwrap.dedent("""
            import numpy as np

            def jitter(n):
                return np.random.rand(n)  # repro-lint: disable=RP003
        """))
        result = run_lint([tmp_path], all_checkers())
        assert result.ok
        assert len(result.suppressed) == 1

    def test_disable_wrong_code_does_not_silence(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(textwrap.dedent("""
            import numpy as np

            def jitter(n):
                return np.random.rand(n)  # repro-lint: disable=RP001
        """))
        result = run_lint([tmp_path], all_checkers())
        assert not result.ok

    def test_bare_disable_silences_everything(self):
        mod = load_source(
            "import numpy as np\n"
            "x = np.random.rand(3)  # repro-lint: disable\n",
            module="repro.engine.fixture")
        checker = all_checkers()[2]
        finding = next(iter(checker.check(mod)))
        assert mod.suppressed(finding)


class TestWalkerAndTree:
    def test_walker_finds_nested_files_sorted(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "m.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "skip.py").write_text("z = 3\n")
        files = iter_python_files([tmp_path])
        names = [f.name for f in files]
        assert names == ["a.py", "m.py"]

    def test_walker_rejects_non_python(self, tmp_path):
        (tmp_path / "data.txt").write_text("hi")
        with pytest.raises(LintError):
            iter_python_files([tmp_path / "data.txt"])

    def test_merged_tree_is_clean(self):
        """Acceptance criterion: the shipped tree lints clean with the
        shipped (empty-or-justified) baseline."""
        result, _ = _full_tree_lint()
        assert result.ok, "\n".join(f.format() for f in result.findings)
        assert result.files_checked > 90

    def test_modules_are_named_by_their_path_under_root(self, tmp_path):
        """Outside ``repro`` the dotted name is the path under ``root``,
        whatever directory the checkout sits in."""
        for rel, module in [
                ("examples/quickstart.py", "examples.quickstart"),
                ("benchmarks/e2e/workloads.py", "benchmarks.e2e.workloads"),
                ("src/repro/engine/costs.py", "repro.engine.costs"),
                ("src/repro/fleet/__init__.py", "repro.fleet")]:
            path = tmp_path / "checkout" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x = 1\n")
            assert load_file(path, root=tmp_path / "checkout").module == module


class TestOccurrenceFingerprints:
    """Two identical findings in one file must not collapse to a single
    baseline fingerprint (the pre-occurrence-index collision)."""

    TWIN = textwrap.dedent("""
        import numpy as np

        def jitter_a(n):
            return np.random.rand(n)

        def jitter_b(n):
            return np.random.rand(n)
    """)

    @pytest.fixture
    def twin_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(self.TWIN)
        return tmp_path

    def test_identical_findings_get_distinct_fingerprints(self, twin_tree):
        result = run_lint([twin_tree], all_checkers())
        same = [f for f in result.findings if f.code == "RP003"]
        assert len(same) == 2
        assert same[0].message == same[1].message
        fps = {f.fingerprint() for f in same}
        assert len(fps) == 2
        assert any(fp.endswith("|#2") for fp in fps)

    def test_baseline_round_trip_covers_both_twins(self, twin_tree, tmp_path,
                                                   capsys):
        baseline = tmp_path / "baseline.json"
        code, out, _ = run_cli(
            [twin_tree, "--baseline", baseline, "--write-baseline"], capsys)
        assert code == 0 and "wrote 2 finding(s)" in out
        code, out, _ = run_cli([twin_tree, "--baseline", baseline], capsys)
        assert code == 0
        assert "2 baselined" in out

    def test_third_twin_is_still_new(self, twin_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        run_cli([twin_tree, "--baseline", baseline, "--write-baseline"],
                capsys)
        fixture = twin_tree / "repro" / "engine" / "fixture.py"
        fixture.write_text(self.TWIN + textwrap.dedent("""
            def jitter_c(n):
                return np.random.rand(n)
        """))
        code, out, _ = run_cli([twin_tree, "--baseline", baseline], capsys)
        assert code == 1  # the two old twins stay baselined, #3 is new

    def test_legacy_baseline_without_occurrence_still_matches(self):
        entries = [
            {"code": "RP003", "path": "x.py", "message": "m",
             "justification": "first"},
            {"code": "RP003", "path": "x.py", "message": "m",
             "justification": "second"},
        ]
        fps = Baseline(entries=entries).fingerprints()
        assert fps == {"RP003|x.py|m", "RP003|x.py|m|#2"}


class TestMultilineSuppression:
    """A disable comment on the first *or* last physical line of a
    multi-line statement silences findings anywhere inside it."""

    def _tree(self, tmp_path, body):
        pkg = tmp_path / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "fixture.py").write_text(textwrap.dedent(body))
        return tmp_path

    def test_disable_on_closing_line_suppresses(self, tmp_path):
        tree = self._tree(tmp_path, """
            import numpy as np

            def jitter(n):
                return np.concatenate([
                    np.random.rand(n),
                    np.zeros(n),
                ])  # repro-lint: disable=RP003
        """)
        result = run_lint([tree], all_checkers())
        assert result.ok
        assert len(result.suppressed) == 1

    def test_disable_on_first_line_suppresses(self, tmp_path):
        tree = self._tree(tmp_path, """
            import numpy as np

            def jitter(n):
                return np.concatenate([  # repro-lint: disable=RP003
                    np.random.rand(n),
                    np.zeros(n),
                ])
        """)
        result = run_lint([tree], all_checkers())
        assert result.ok
        assert len(result.suppressed) == 1

    def test_compound_statement_trailer_does_not_swallow_body(self, tmp_path):
        # A disable on a function's *last* body line must not silence
        # unrelated findings earlier in the function.
        tree = self._tree(tmp_path, """
            import numpy as np

            def jitter(n):
                bad = np.random.rand(n)
                return bad  # repro-lint: disable=RP003
        """)
        result = run_lint([tree], all_checkers())
        assert not result.ok

    def test_wrong_code_on_multiline_statement_does_not_silence(self, tmp_path):
        tree = self._tree(tmp_path, """
            import numpy as np

            def jitter(n):
                return np.concatenate([
                    np.random.rand(n),
                ])  # repro-lint: disable=RP001
        """)
        result = run_lint([tree], all_checkers())
        assert not result.ok


class TestProjectPass:
    """run_lint's whole-program pass: cross-module findings appear, and
    --no-project switches them off."""

    CALLEE = textwrap.dedent("""
        def step_time_s(compute_s, comm_s=0.0):
            return compute_s + comm_s
    """)
    CALLER = textwrap.dedent("""
        from repro.hardware.latency import step_time_s

        def drive(weight_bytes):
            return step_time_s(weight_bytes)
    """)

    @pytest.fixture
    def cross_tree(self, tmp_path):
        hw = tmp_path / "repro" / "hardware"
        en = tmp_path / "repro" / "engine"
        hw.mkdir(parents=True)
        en.mkdir(parents=True)
        (hw / "latency.py").write_text(self.CALLEE)
        (en / "run.py").write_text(self.CALLER)
        return tmp_path

    def test_interprocedural_finding_emerges_from_two_files(self, cross_tree):
        result = run_lint([cross_tree], all_checkers())
        codes = [f.code for f in result.findings]
        assert "RP007" in codes
        (f,) = [f for f in result.findings if f.code == "RP007"]
        assert f.path.endswith("run.py")

    def test_no_project_flag_skips_the_pass(self, cross_tree, capsys):
        code, out, _ = run_cli(
            [cross_tree, "--no-baseline", "--no-project"], capsys)
        assert code == 0
        code, out, _ = run_cli([cross_tree, "--no-baseline"], capsys)
        assert code == 1
        assert "RP007" in out

    def test_project_kwarg_off_in_api(self, cross_tree):
        result = run_lint([cross_tree], all_checkers(), project=False)
        assert result.ok


class TestSarifOutput:
    def test_sarif_log_shape(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "lint.sarif"
        code, out, _ = run_cli(
            [dirty_tree, "--no-baseline", "--format", "sarif",
             "--output", report], capsys)
        assert code == 1
        log = json.loads(report.read_text())
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == [c.code for c in all_checkers()]
        (res,) = run["results"]
        assert res["ruleId"] == "RP003"
        assert res["baselineState"] == "new"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("fixture.py")
        assert loc["region"]["startLine"] > 0
        assert res["partialFingerprints"]["reproLint/v1"]

    def test_baselined_findings_marked_unchanged(self, dirty_tree, tmp_path,
                                                 capsys):
        baseline = tmp_path / "baseline.json"
        run_cli([dirty_tree, "--baseline", baseline, "--write-baseline"],
                capsys)
        report = tmp_path / "lint.sarif"
        code, _, _ = run_cli(
            [dirty_tree, "--baseline", baseline, "--format", "sarif",
             "--output", report], capsys)
        assert code == 0
        (run,) = json.loads(report.read_text())["runs"]
        states = [r["baselineState"] for r in run["results"]]
        assert states == ["unchanged"]


class TestWallClock:
    def test_full_tree_lint_fits_the_ci_budget(self):
        """The whole-program pass must not turn the lint gate into the
        slow job: full tree, all eight rules, well under CI patience."""
        result, elapsed = _full_tree_lint()
        assert result.files_checked > 90
        assert elapsed < 30.0, f"full-tree lint took {elapsed:.1f}s"
