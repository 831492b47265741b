"""Engine-level tests: suppression spans, CLI behavior, repo cleanliness."""

import json
import os
import textwrap

import pytest

from repro.lint import lint_paths, lint_source, package_rel_path
from repro.tools import rflint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


class TestPathNormalization:
    @pytest.mark.parametrize("path,rel", [
        ("src/repro/phy/dsss.py", "repro/phy/dsss.py"),
        ("/ckpt/x/src/repro/obs/tracing.py", "repro/obs/tracing.py"),
        ("repro/core/parallel.py", "repro/core/parallel.py"),
        ("elsewhere/module.py", "elsewhere/module.py"),
        # a checkout directory itself named "repro" must not win over
        # the package root: prefer the "repro" preceded by "src", else
        # the last occurrence
        ("/home/x/repro/src/repro/phy/a.py", "repro/phy/a.py"),
        ("/home/x/repro/repro/phy/a.py", "repro/phy/a.py"),
        ("/home/x/repro/tests/test_a.py", "repro/tests/test_a.py"),
    ])
    def test_package_rel_path(self, path, rel):
        assert package_rel_path(path) == rel


class TestRepoIsClean:
    def test_src_lints_clean(self):
        """The acceptance gate: rflint over src/ has no active findings."""
        active = lint_paths([SRC])
        assert active == [], "\n" + "\n".join(f.format() for f in active)


class TestCli:
    def _write_violation(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "phy" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nstamp = time.time()\n")
        return mod

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "phy" / "ok.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\nZERO = np.complex64(0)\n")
        assert rflint.main([str(tmp_path)]) == 0

    def test_violation_exits_nonzero_naming_rule_file_line(self, tmp_path, capsys):
        mod = self._write_violation(tmp_path)
        code = rflint.main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RFD101" in out
        assert f"{mod}:2:" in out

    def test_json_format(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        code = rflint.main([str(tmp_path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["counts"]["active"] == 1
        assert report["findings"][0]["rule"] == "RFD101"
        assert report["findings"][0]["rel"] == "repro/phy/mod.py"

    def test_json_out_writes_report_file(self, tmp_path, capsys):
        self._write_violation(tmp_path)
        out_file = tmp_path / "report.json"
        rflint.main([str(tmp_path), "--json-out", str(out_file)])
        report = json.loads(out_file.read_text())
        assert report["counts"]["active"] == 1

    def test_select_and_ignore(self, tmp_path):
        self._write_violation(tmp_path)
        assert rflint.main([str(tmp_path), "--select", "RFD501"]) == 0
        assert rflint.main([str(tmp_path), "--ignore", "RFD101"]) == 0

    def test_list_rules(self, capsys):
        assert rflint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        # pinned: a rule that comes or goes is a decision (DESIGN.md
        # "What each rule has found" keeps the tally), not a side effect
        assert [line.split()[0] for line in out.splitlines()] == [
            "RFD101", "RFD102", "RFD103", "RFD201", "RFD202", "RFD301",
            "RFD302", "RFD401", "RFD402", "RFD501", "RFD701", "RFD702",
            "RFD703", "RFD704", "RFD705", "RFD706"]

    def test_no_paths_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            rflint.main([])
        assert exc.value.code == 2


class TestNoqaSpans:
    def test_noqa_on_closing_line_covers_multiline_statement(self):
        findings = lint_source(textwrap.dedent(
            """
            import time
            stamp = time.time(
            )  # rfdump: noqa[RFD101]
            """
        ), path="src/repro/phy/mod.py")
        assert findings == []

    def test_noqa_on_first_line_covers_multiline_statement(self):
        findings = lint_source(textwrap.dedent(
            """
            import time
            stamp = time.time(  # rfdump: noqa[RFD101]
            )
            """
        ), path="src/repro/phy/mod.py")
        assert findings == []

    def test_noqa_on_def_line_does_not_silence_the_body(self):
        findings = lint_source(textwrap.dedent(
            """
            import time
            def f():  # rfdump: noqa[RFD101]
                return time.time()
            """
        ), path="src/repro/phy/mod.py")
        assert [f.rule for f in findings] == ["RFD101"]

    def test_noqa_for_another_rule_does_not_suppress(self):
        findings = lint_source(textwrap.dedent(
            """
            import time
            stamp = time.time(
            )  # rfdump: noqa[RFD501]
            """
        ), path="src/repro/phy/mod.py")
        assert [f.rule for f in findings] == ["RFD101"]


class TestFindingOrdering:
    def test_findings_sorted_by_location(self):
        findings = lint_source(
            textwrap.dedent(
                """
                import time
                def f(name: str = None):
                    return time.time()
                """
            ),
            path="src/repro/phy/mod.py",
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)
