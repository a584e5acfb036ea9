"""Tests for repro.devtools: lint framework, every rule, baseline, lockcheck.

Each rule is exercised against a good/bad fixture pair under
``tests/devtools_fixtures/`` — the bad file must produce findings for
exactly its rule, the good file none.  The committed repository baseline
(``lint-baseline.json``) is asserted to match a fresh run over ``src/``
exactly, so lint debt can neither appear nor linger silently.
"""

from __future__ import annotations

import json
import os
import pathlib
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main as cli_main
from repro.devtools import (
    Baseline,
    LOCK_HIERARCHY,
    LockOrderMonitor,
    InstrumentedLock,
    all_rules,
    get_rule,
    instrument_serving,
    render_json,
    render_text,
    run_lint,
)
from repro.devtools.framework import Finding
from repro.devtools.lockcheck import STATIC_LOCK_MAP
from repro.exceptions import LintError, LockOrderError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).resolve().parent / "devtools_fixtures"
SRC = REPO_ROOT / "src"


def lint_one(path: pathlib.Path):
    return run_lint([path], root=REPO_ROOT)


# ---------------------------------------------------------------- rule pairs


RULE_FIXTURES = [
    ("REP001", "rep001_bad.py", "rep001_good.py", 2),
    ("REP002", "rep002_bad.py", "rep002_good.py", 2),
    ("REP003", "rep003_bad.py", "rep003_good.py", 2),
    ("REP004", "rep004_bad.py", "rep004_good.py", 2),
    ("REP005", "rep005_bad.py", "rep005_good.py", 3),
    ("REP006", "rep006_bad.py", "rep006_good_pkg/__init__.py", 2),
    ("REP007", "rep007_bad.py", "rep007_good.py", 1),
    ("REP008", "rep008_bad.py", "rep008_good.py", 1),
    ("REP009", "rep009_bad.py", "rep009_good.py", 5),
    ("REP010", "rep010_bad.py", "rep010_good.py", 3),
    ("REP011", "rep011_bad.py", "rep011_good.py", 2),
    ("REP012", "rep012_bad.py", "rep012_good.py", 1),
    ("REP013", "rep013_bad.py", "rep013_good.py", 1),
]


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "code,bad,good,expected", RULE_FIXTURES, ids=[r[0] for r in RULE_FIXTURES]
    )
    def test_bad_fixture_fires_only_its_rule(self, code, bad, good, expected):
        report = lint_one(FIXTURES / bad)
        codes = [finding.rule for finding in report.findings]
        assert codes == [code] * expected, report.findings

    @pytest.mark.parametrize(
        "code,bad,good,expected", RULE_FIXTURES, ids=[r[0] for r in RULE_FIXTURES]
    )
    def test_good_fixture_is_clean(self, code, bad, good, expected):
        report = lint_one(FIXTURES / good)
        assert report.findings == [], report.findings

    def test_package_init_without_all_fires_rep006(self):
        report = lint_one(FIXTURES / "rep006_bad_pkg" / "__init__.py")
        assert [finding.rule for finding in report.findings] == ["REP006"]
        assert "__all__" in report.findings[0].message

    def test_findings_carry_locations_and_fingerprints(self):
        report = lint_one(FIXTURES / "rep008_bad.py")
        (finding,) = report.findings
        assert finding.line == 5
        assert finding.path.endswith("rep008_bad.py")
        assert finding.fingerprint.startswith("REP008::")


class TestSuppression:
    def test_noqa_suppresses_named_rule_on_line(self):
        report = lint_one(FIXTURES / "suppressed.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_does_not_suppress_other_rules(self, tmp_path):
        source = 'import time\nx = time.time()  # repro: noqa[REP001]\n'
        path = tmp_path / "wrong_code.py"
        path.write_text(source)
        report = lint_one(path)
        assert [finding.rule for finding in report.findings] == ["REP002"]

    def test_malformed_noqa_is_an_error_not_a_silent_noop(self, tmp_path):
        path = tmp_path / "malformed.py"
        path.write_text("x = 1  # repro: noqa[banana]\n")
        with pytest.raises(LintError, match="malformed suppression"):
            lint_one(path)

    def test_noqa_inside_string_literal_is_inert(self, tmp_path):
        path = tmp_path / "stringy.py"
        path.write_text(
            'import time\nnote = "# repro: noqa[REP002]"\nx = time.time()\n'
        )
        report = lint_one(path)
        assert [finding.rule for finding in report.findings] == ["REP002"]


class TestFramework:
    def test_get_rule_unknown_code_raises(self):
        with pytest.raises(LintError, match="unknown rule"):
            get_rule("REP999")

    def test_all_rules_cover_the_documented_set(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [f"REP{i:03d}" for i in range(1, 14)]

    def test_rule_filtering(self):
        report = run_lint(
            [FIXTURES / "rep001_bad.py"],
            root=REPO_ROOT,
            rules=[get_rule("REP002")],
        )
        assert report.findings == []

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(LintError, match="does not exist"):
            run_lint([tmp_path / "nope"], root=REPO_ROOT)

    def test_unparsable_source_raises(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def (:\n")
        with pytest.raises(LintError, match="cannot parse"):
            lint_one(path)


class TestBaseline:
    def test_baseline_roundtrip_hides_known_debt(self, tmp_path):
        bad = FIXTURES / "rep004_bad.py"
        fresh = lint_one(bad)
        assert fresh.findings
        baseline = Baseline.from_findings(fresh.findings)
        report = run_lint([bad], root=REPO_ROOT, baseline=baseline)
        assert report.ok
        assert report.baselined == len(fresh.findings)

    def test_new_violation_still_fails_with_baseline(self, tmp_path):
        bad = FIXTURES / "rep004_bad.py"
        baseline = Baseline.from_findings(lint_one(bad).findings)
        extra = tmp_path / "extra.py"
        extra.write_text("import time\nx = time.time()\n")
        report = run_lint([bad, extra], root=REPO_ROOT, baseline=baseline)
        assert not report.ok
        assert [finding.rule for finding in report.findings] == ["REP002"]

    def test_fixed_violation_reports_stale_entry(self):
        good = FIXTURES / "rep004_good.py"
        phantom = Finding(
            path="tests/devtools_fixtures/rep004_good.py",
            line=1,
            column=1,
            rule="REP004",
            message="except Exception swallows the exception",
        )
        baseline = Baseline.from_findings([phantom])
        report = run_lint([good], root=REPO_ROOT, baseline=baseline)
        assert not report.ok
        assert report.stale_baseline == [phantom.fingerprint]

    def test_save_load_roundtrip(self, tmp_path):
        baseline = Baseline.from_findings(lint_one(FIXTURES / "rep001_bad.py").findings)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        assert Baseline.load(path).counts == baseline.counts

    def test_bad_baseline_files_raise(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(LintError, match="does not exist"):
            Baseline.load(missing)
        mangled = tmp_path / "mangled.json"
        mangled.write_text("{not json")
        with pytest.raises(LintError, match="not valid JSON"):
            Baseline.load(mangled)
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"version": 99}')
        with pytest.raises(LintError, match="unsupported format"):
            Baseline.load(foreign)


def test_committed_baseline_exactly_matches_fresh_run_on_src():
    """The committed baseline is empty AND a fresh run agrees exactly.

    Two-sided: no un-baselined debt may exist in src/, and no baseline
    entry may outlive the violation it recorded.
    """
    committed = Baseline.load(REPO_ROOT / "lint-baseline.json")
    fresh = run_lint([SRC], root=REPO_ROOT)
    assert Baseline.from_findings(fresh.findings).counts == committed.counts
    gated = run_lint([SRC], root=REPO_ROOT, baseline=committed)
    assert gated.ok, render_text(gated)
    # The acceptance bar for this repository: the baseline is EMPTY.
    assert committed.counts == {}


class TestReporters:
    def test_json_reporter_schema(self):
        report = lint_one(FIXTURES / "rep002_bad.py")
        payload = json.loads(render_json(report))
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"REP002": 2}
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "column", "rule", "message"}

    def test_text_reporter_mentions_location_and_summary(self):
        report = lint_one(FIXTURES / "rep002_bad.py")
        text = render_text(report)
        assert "rep002_bad.py:7" in text
        assert "REP002" in text
        assert "checked 1 file(s)" in text


class TestCli:
    def test_lint_command_fails_on_bad_file(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep003_bad.py")])
        assert code == 1
        assert "REP003" in capsys.readouterr().out

    def test_lint_command_passes_on_good_file(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep003_good.py")])
        assert code == 0

    def test_lint_json_output(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "rep008_bad.py"), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"REP008": 1}

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for expected in ("REP001", "rng-discipline", "REP008"):
            assert expected in out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        bad = str(FIXTURES / "rep001_bad.py")
        assert cli_main(
            ["lint", bad, "--baseline", str(baseline_path), "--update-baseline"]
        ) == 0
        assert cli_main(["lint", bad, "--baseline", str(baseline_path)]) == 0

    def test_rule_selection_flag(self, capsys):
        code = cli_main(
            ["lint", str(FIXTURES / "rep001_bad.py"), "--rules", "REP002"]
        )
        assert code == 0


# ---------------------------------------------------------------- lockcheck


def make_locks(monitor):
    """One instrumented lock per hierarchy level, in declared order."""
    return [
        InstrumentedLock(threading.RLock(), level, monitor)
        for level in LOCK_HIERARCHY
    ]


class TestLockOrderMonitor:
    def test_ordered_acquisitions_pass(self):
        monitor = LockOrderMonitor()
        service, index, breaker, plan, install = make_locks(monitor)
        with service:
            with index:
                with breaker:
                    pass
            with plan:
                with install:
                    pass
        monitor.check()
        assert monitor.acquisitions()["service"] == 1
        assert ("service", "index") in monitor.edges()

    def test_inverted_acquisition_is_a_violation(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        with index:
            with service:
                pass
        with pytest.raises(LockOrderError, match="holding 'index'"):
            monitor.check()

    def test_cycle_between_unranked_locks_is_detected(self):
        monitor = LockOrderMonitor()
        a = InstrumentedLock(threading.RLock(), "custom-a", monitor)
        b = InstrumentedLock(threading.RLock(), "custom-b", monitor)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        with pytest.raises(LockOrderError, match="cycle"):
            monitor.check()

    def test_reentrant_acquisition_records_no_edge(self):
        monitor = LockOrderMonitor()
        _, index, *_ = make_locks(monitor)
        with index:
            with index:
                pass
        assert monitor.edges() == {}
        monitor.check()

    def test_condition_wait_keeps_thread_stack_truthful(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        condition = threading.Condition(service)
        ready = threading.Event()
        woken = threading.Event()

        def waiter():
            with condition:
                ready.set()
                condition.wait(timeout=5.0)
            # After wait() returned and the with-block exited, this thread
            # holds nothing: taking the index lock must record the edge
            # from nothing (no service->index edge from this path alone).
            with index:
                pass
            woken.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert ready.wait(timeout=5.0)
        with condition:
            condition.notify_all()
        assert woken.wait(timeout=5.0)
        thread.join(timeout=5.0)
        monitor.check()

    def test_violations_are_aggregated_with_counts(self):
        monitor = LockOrderMonitor()
        service, index, *_ = make_locks(monitor)
        for _ in range(3):
            with index:
                with service:
                    pass
        (problem, *rest) = monitor.violations()
        assert "3x" in problem and not rest


class TestInstrumentedServing:
    def test_concurrent_service_traffic_respects_hierarchy(self):
        """A mini chaos run under instrumentation: no inversion recorded.

        The full 46-test chaos suite runs under the checker in CI via
        ``REPRO_LOCKCHECK=1`` (see conftest); this in-suite version drives
        the same build/select/evaluate paths at small scale.
        """
        from repro.graphs.generators import erdos_renyi_graph
        from repro.serving import InfluenceService
        from repro.serving.resilience import RetryPolicy

        compiled = erdos_renyi_graph(80, 0.06, seed=7).compile()
        monitor = LockOrderMonitor()
        with instrument_serving(monitor):
            service = InfluenceService(
                default_theta=300, retry_policy=RetryPolicy(base_delay=0.001)
            )
            index = service.get_index(compiled, "ic")
            seeds = [list(index.select(3).seeds), [0, 1], [2, 3], [4, 5]]

            def query(batch):
                return [service.evaluate(compiled, "ic", s) for s in batch]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(query, [seeds] * 4))
        assert all(len(r) == len(seeds) for r in results)
        monitor.check()
        acquisitions = monitor.acquisitions()
        assert acquisitions.get("service", 0) > 0
        assert acquisitions.get("index", 0) > 0

    def test_instrumentation_restores_module_state(self):
        import repro.serving.faults as faults
        import repro.serving.service as service_module

        before = service_module.threading
        install_before = faults._install_lock
        with instrument_serving(LockOrderMonitor()):
            assert service_module.threading is not before
            assert isinstance(faults._install_lock, InstrumentedLock)
        assert service_module.threading is before
        assert faults._install_lock is install_before


def test_static_lock_map_is_consistent_with_hierarchy():
    ranks = {name: rank for rank, name in enumerate(LOCK_HIERARCHY)}
    for (owner, attr), (rank, level) in STATIC_LOCK_MAP.items():
        assert ranks[level] == rank, (owner, attr)
    assert set(level for _, level in STATIC_LOCK_MAP.values()) == set(LOCK_HIERARCHY)


# ------------------------------------------------------- whole-program engine


def build_graph(tmp_path, files):
    """Write ``files`` (relpath -> source) and build Project + CallGraph."""
    from repro.devtools.callgraph import CallGraph, Project, parse_cached

    entries = []
    for rel, source in sorted(files.items()):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        entries.append((str(path), rel, parse_cached(path)))
    project = Project.build(entries)
    return project, CallGraph.build(project)


class TestCallGraph:
    def test_direct_and_typed_local_method_resolution(self, tmp_path):
        project, graph = build_graph(tmp_path, {
            "app.py": """
                class Thing:
                    def go(self) -> int:
                        return helper()

                def helper() -> int:
                    return 1

                def run() -> int:
                    thing = Thing()
                    return thing.go()
            """,
        })
        callees = {site.callee for site in graph.callees("app.run")}
        assert "app.Thing.go" in callees
        assert {site.callee for site in graph.callees("app.Thing.go")} == {
            "app.helper"
        }

    def test_inherited_method_resolves_through_project_mro(self, tmp_path):
        project, graph = build_graph(tmp_path, {
            "base.py": """
                class Base:
                    def shared(self) -> int:
                        return 1
            """,
            "child.py": """
                from base import Base

                class Child(Base):
                    def use(self) -> int:
                        return self.shared()
            """,
        })
        callees = {site.callee for site in graph.callees("child.Child.use")}
        assert "base.Base.shared" in callees

    def test_functools_partial_registers_an_edge(self, tmp_path):
        project, graph = build_graph(tmp_path, {
            "jobs.py": """
                import functools

                def worker(block: int) -> int:
                    return block

                def schedule():
                    return functools.partial(worker, 7)
            """,
        })
        sites = graph.callees("jobs.schedule")
        assert any(
            site.callee == "jobs.worker" and site.kind == "partial"
            for site in sites
        )

    def test_callback_reference_registers_an_edge(self, tmp_path):
        project, graph = build_graph(tmp_path, {
            "reg.py": """
                def callback() -> None:
                    pass

                def install(fn) -> None:
                    pass

                def wire() -> None:
                    install(callback)
            """,
        })
        callees = {site.callee for site in graph.callees("reg.wire")}
        assert {"reg.install", "reg.callback"} <= callees

    def test_recursive_cycle_is_safe_and_reachable_terminates(self, tmp_path):
        project, graph = build_graph(tmp_path, {
            "rec.py": """
                def even(n: int) -> bool:
                    return True if n == 0 else odd(n - 1)

                def odd(n: int) -> bool:
                    return False if n == 0 else even(n - 1)
            """,
        })
        reached = graph.reachable(["rec.even"])
        assert {"rec.even", "rec.odd"} <= reached

    def test_ast_cache_reuses_parsed_tree_until_mtime_changes(self, tmp_path):
        from repro.devtools.callgraph import parse_cached

        path = tmp_path / "cached.py"
        path.write_text("x = 1\n")
        first = parse_cached(path)
        assert parse_cached(path) is first
        path.write_text("x = 2\n")
        os.utime(path, ns=(1, 1))  # force a distinct mtime even on fast FS
        assert parse_cached(path) is not first


class TestInterproceduralPasses:
    def test_taint_chain_crosses_modules_and_names_the_source(self, tmp_path):
        report = run_lint_files(tmp_path, {
            "helpers.py": """
                import time

                def stamp() -> float:
                    return time.time()
            """,
            "zone/engine.py": """
                __repro_deterministic__ = True
                from helpers import stamp

                def run_block() -> float:
                    return stamp()
            """,
        }, rules=["REP011"])
        (finding,) = report.findings
        assert finding.rule == "REP011"
        assert finding.path == "zone/engine.py"
        assert "zone.engine.run_block -> helpers.stamp" in finding.message
        assert "time.time()" in finding.message

    def test_taint_does_not_cross_the_rng_boundary(self, tmp_path):
        report = run_lint_files(tmp_path, {
            "repro/utils/rng.py": """
                import numpy as np

                def ensure_rng(seed=None):
                    return np.random.default_rng(seed)
            """,
            "repro/sketches/sampler.py": """
                from repro.utils.rng import ensure_rng

                def draw(seed) -> float:
                    return ensure_rng(seed).random()
            """,
        }, rules=["REP011"])
        assert report.findings == []

    def test_lock_cycle_fixture_needs_no_execution(self):
        # The seeded cycle is caught by parsing alone: importing or running
        # tests/devtools_fixtures/rep012_bad.py would never deadlock unless
        # two threads hit the interleaving; lint flags it statically.
        report = run_lint([FIXTURES / "rep012_bad.py"], root=REPO_ROOT)
        (finding,) = report.findings
        assert finding.rule == "REP012"
        assert "cycle" in finding.message
        assert "Left._lock" in finding.message and "Right._lock" in finding.message

    def test_exception_contract_respects_call_site_handlers(self, tmp_path):
        report = run_lint_files(tmp_path, {
            "svc.py": """
                __repro_exception_contract__ = {"entry": ["RuntimeError"]}

                def _helper() -> int:
                    raise KeyError("deep")

                def entry() -> int:
                    try:
                        return _helper()
                    except LookupError:
                        raise RuntimeError("wrapped")
            """,
        }, rules=["REP013"])
        assert report.findings == []

    def test_timings_are_reported_per_phase(self):
        report = run_lint([FIXTURES / "rep011_bad.py"], root=REPO_ROOT)
        assert set(report.timings) == {"per_file", "project"}
        payload = json.loads(render_json(report))
        assert set(payload["timings"]) == {"per_file", "project"}


def run_lint_files(tmp_path, files, rules=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    active = [get_rule(code) for code in rules] if rules else None
    return run_lint([tmp_path], root=tmp_path, rules=active)


class TestBaselineJustifications:
    def test_load_justified_entry_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "findings": {
                "REP011::a.py::msg": {"count": 2, "justification": "analysis FP"},
                "REP002::b.py::msg": 1,
            },
        }))
        baseline = Baseline.load(path)
        assert baseline.counts == {
            "REP011::a.py::msg": 2, "REP002::b.py::msg": 1,
        }
        assert baseline.justifications == {"REP011::a.py::msg": "analysis FP"}
        baseline.save(path)
        assert Baseline.load(path).justifications == {
            "REP011::a.py::msg": "analysis FP"
        }

    def test_empty_justification_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "findings": {"REP011::a.py::msg": {"count": 1, "justification": " "}},
        }))
        with pytest.raises(LintError, match="justification"):
            Baseline.load(path)


class TestCliWholeProgram:
    def test_diff_baseline_exact_match_passes(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        bad = str(FIXTURES / "rep001_bad.py")
        assert cli_main(
            ["lint", bad, "--baseline", str(baseline_path), "--update-baseline"]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["lint", bad, "--baseline", str(baseline_path), "--diff-baseline"]
        ) == 0
        assert "baseline is exact" in capsys.readouterr().out

    def test_diff_baseline_fails_on_stale_entries_so_debt_only_shrinks(
        self, tmp_path, capsys
    ):
        source = tmp_path / "module.py"
        source.write_text("import time\nSTAMP = time.time()\n")
        baseline_path = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--update-baseline"]
        ) == 0
        source.write_text("STAMP = 0.0\n")
        capsys.readouterr()
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--diff-baseline"]
        ) == 1
        assert "stale" in capsys.readouterr().out

    def test_diff_baseline_fails_on_new_findings(self, tmp_path, capsys):
        source = tmp_path / "module.py"
        source.write_text("X = 1\n")
        baseline_path = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--update-baseline"]
        ) == 0
        source.write_text("import time\nSTAMP = time.time()\n")
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--diff-baseline"]
        ) == 1

    def test_update_baseline_preserves_surviving_justifications(
        self, tmp_path, capsys
    ):
        source = tmp_path / "module.py"
        source.write_text("import time\nSTAMP = time.time()\n")
        baseline_path = tmp_path / "baseline.json"
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--update-baseline"]
        ) == 0
        data = json.loads(baseline_path.read_text())
        (key,) = data["findings"]
        data["findings"][key] = {"count": 1, "justification": "known debt"}
        baseline_path.write_text(json.dumps(data))
        assert cli_main(
            ["lint", str(source), "--baseline", str(baseline_path),
             "--update-baseline"]
        ) == 0
        assert Baseline.load(baseline_path).justifications == {
            key: "known debt"
        }

    def test_scope_file_skips_whole_program_rules(self, capsys):
        assert cli_main(
            ["lint", str(FIXTURES / "rep011_bad.py"), "--scope", "file"]
        ) == 0

    def test_scope_project_skips_per_file_rules(self, capsys):
        assert cli_main(
            ["lint", str(FIXTURES / "rep002_bad.py"), "--scope", "project"]
        ) == 0
        assert cli_main(
            ["lint", str(FIXTURES / "rep011_bad.py"), "--scope", "project"]
        ) == 1

    def test_explain_prints_rule_documentation(self, capsys):
        assert cli_main(["lint", "--explain", "REP011"]) == 0
        out = capsys.readouterr().out
        assert "determinism-taint" in out
        assert "call graph" in out or "call chain" in out

    def test_callgraph_dump_is_valid_json_with_edges(self, capsys):
        assert cli_main(
            ["lint", str(FIXTURES / "rep012_bad.py"), "--callgraph"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert any("Left.ping" in qname for qname in payload["functions"])
        edges = payload["edges"]
        assert any(edges.values()), edges
