"""Fixture-driven rule tests: every rule fires on its bad snippet and
stays silent on its good twin, plus the per-rule path scoping."""

from pathlib import Path

import pytest

from repro.devtools import LintConfig, LintEngine, rule_ids
from repro.devtools.engine import PARSE_ERROR_RULE

FIXTURES = Path(__file__).parent / "fixtures"

#: Path under which each rule's fixtures are linted (rules with path
#: scoping need an in-scope location), and the finding count the bad
#: fixture must produce.
RULE_CASES = {
    "REP001": ("src/repro/api/runner.py", 7),
    "REP002": ("src/repro/api/runner.py", 6),
    "REP003": ("src/repro/api/runner.py", 6),
    "REP004": ("src/repro/core/evt/gumbel.py", 2),
    "REP005": ("src/repro/platform/batch.py", 6),
    "REP006": ("src/repro/api/runner.py", 4),
    "REP007": ("src/repro/platform/soc.py", 5),
}


def _lint(source: str, path: str):
    live, suppressed = LintEngine(LintConfig()).check_source(source, path=path)
    return live, suppressed


def _fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestEveryRuleFires:
    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_bad_fixture_fires(self, rule_id):
        path, expected = RULE_CASES[rule_id]
        live, _ = _lint(_fixture(f"{rule_id.lower()}_bad.py"), path)
        matching = [f for f in live if f.rule == rule_id]
        assert len(matching) == expected, [f.render() for f in live]

    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_good_fixture_is_silent(self, rule_id):
        path, _ = RULE_CASES[rule_id]
        live, suppressed = _lint(_fixture(f"{rule_id.lower()}_good.py"), path)
        matching = [f for f in live if f.rule == rule_id]
        assert matching == [], [f.render() for f in matching]
        assert suppressed == []

    @pytest.mark.parametrize("rule_id", sorted(RULE_CASES))
    def test_findings_carry_location_and_sorted_order(self, rule_id):
        path, _ = RULE_CASES[rule_id]
        live, _ = _lint(_fixture(f"{rule_id.lower()}_bad.py"), path)
        assert all(f.line > 0 for f in live)
        assert [f.key() for f in live] == sorted(f.key() for f in live)


class TestPathScoping:
    def test_rep002_exempt_in_cli_and_benchmarks(self):
        source = _fixture("rep002_bad.py")
        for exempt_path in ("src/repro/cli.py", "benchmarks/test_bench_x.py"):
            live, _ = _lint(source, exempt_path)
            assert [f for f in live if f.rule == "REP002"] == []

    def test_rep004_only_in_numeric_hot_paths(self):
        source = _fixture("rep004_bad.py")
        live, _ = _lint(source, "src/repro/api/runner.py")
        assert [f for f in live if f.rule == "REP004"] == []
        live, _ = _lint(source, "src/repro/core/stats/iid.py")
        assert [f for f in live if f.rule == "REP004"]

    def test_rep005_exempt_in_registry_modules(self):
        source = _fixture("rep005_bad.py")
        live, _ = _lint(source, "src/repro/api/registry.py")
        assert [f for f in live if f.rule == "REP005"] == []

    def test_rep007_only_in_execution_layers(self):
        source = _fixture("rep007_bad.py")
        live, _ = _lint(source, "src/repro/core/pwcet.py")
        assert [f for f in live if f.rule == "REP007"] == []
        for scoped in ("src/repro/platform/soc.py", "src/repro/api/scenario.py"):
            live, _ = _lint(source, scoped)
            assert [f for f in live if f.rule == "REP007"]

    def test_select_and_ignore(self):
        source = _fixture("rep006_bad.py")
        config = LintConfig().with_selection(select=frozenset({"REP001"}))
        live, _ = LintEngine(config).check_source(source, path="x.py")
        assert live == []
        config = LintConfig().with_selection(ignore=frozenset({"REP006"}))
        live, _ = LintEngine(config).check_source(source, path="x.py")
        assert live == []


class TestEngineBasics:
    def test_syntax_error_is_a_parse_finding(self):
        live, suppressed = _lint("def broken(:\n", "x.py")
        assert len(live) == 1
        assert live[0].rule == PARSE_ERROR_RULE
        assert suppressed == []

    def test_rule_ids_match_fixture_coverage(self):
        assert rule_ids() == frozenset(RULE_CASES)

    def test_clean_source_is_clean(self):
        live, suppressed = _lint("x = 1\n", "src/repro/core/evt/x.py")
        assert live == [] and suppressed == []
