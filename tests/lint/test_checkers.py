"""Unit tests for the project linter (tools/lint).

Each project-specific checker gets at least one violating fixture and one
passing fixture, plus coverage of the suppression-comment escape hatch.
"""

import textwrap

from tools.lint.checkers import (
    CHECKERS,
    check_node_lock,
    check_swallowed_faults,
    check_temp_pairing,
    check_unused_imports,
    check_wallclock,
    lint_source,
)

SIM_PATH = "src/repro/hyracks/executor.py"
RETRY_PATH = "src/repro/resilience/retry.py"
PLAIN_PATH = "src/repro/adm/values.py"


def lint(source, path, checkers=CHECKERS):
    return lint_source(textwrap.dedent(source), path, checkers)


def rules(findings):
    return [f.rule for f in findings]


class TestWallclock:
    def test_flags_time_time_in_simulated_path(self):
        findings = lint(
            """
            import time

            def tick(node):
                node.last_seen = time.time()
            """,
            SIM_PATH,
        )
        assert "no-wallclock" in rules(findings)
        (finding,) = [f for f in findings if f.rule == "no-wallclock"]
        assert "time.time()" in finding.message
        assert finding.line == 5

    def test_flags_unseeded_random(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()
            """,
            SIM_PATH,
        )
        assert "no-wallclock" in rules(findings)
        (finding,) = [f for f in findings if f.rule == "no-wallclock"]
        assert "random.Random(seed)" in finding.message

    def test_seeded_random_instance_passes(self):
        findings = lint(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            SIM_PATH,
        )
        assert rules(findings) == []

    def test_perf_counter_allowed(self):
        # perf_counter measures real elapsed work for metrics; it never
        # feeds back into simulated behaviour, so it is sanctioned.
        findings = lint(
            """
            import time

            def profile():
                return time.perf_counter()
            """,
            SIM_PATH,
        )
        assert rules(findings) == []

    def test_not_applied_outside_simulated_paths(self):
        findings = lint(
            """
            import time

            def now():
                return time.time()
            """,
            PLAIN_PATH,
        )
        assert "no-wallclock" not in rules(findings)

    def test_suppression_comment(self):
        findings = lint(
            """
            import time

            def tick():
                return time.time()  # lint: allow-wallclock
            """,
            SIM_PATH,
        )
        assert rules(findings) == []


class TestNodeLock:
    def test_flags_unlocked_mutation(self):
        findings = lint(
            """
            def fail(node):
                node.state = "DEAD"
            """,
            SIM_PATH,
        )
        assert rules(findings) == ["node-lock"]
        assert "node.state" in findings[0].message

    def test_flags_unlocked_augassign_via_self(self):
        findings = lint(
            """
            class Worker:
                def bump(self):
                    self.node.jobs_run += 1
            """,
            SIM_PATH,
        )
        assert rules(findings) == ["node-lock"]

    def test_mutation_under_lock_passes(self):
        findings = lint(
            """
            def fail(node):
                with node.lock:
                    node.state = "DEAD"
                    node.jobs_run += 1
            """,
            SIM_PATH,
        )
        assert rules(findings) == []

    def test_assigning_the_lock_itself_passes(self):
        findings = lint(
            """
            import threading

            def init(node):
                node.lock = threading.RLock()
            """,
            SIM_PATH,
        )
        assert rules(findings) == []

    def test_lock_does_not_leak_past_with_block(self):
        findings = lint(
            """
            def fail(node):
                with node.lock:
                    node.state = "DEAD"
                node.epoch = 2
            """,
            SIM_PATH,
        )
        assert rules(findings) == ["node-lock"]
        assert findings[0].line == 5

    def test_suppression_comment(self):
        findings = lint(
            """
            def init(node):
                node.state = "NEW"  # lint: allow-node-lock
            """,
            SIM_PATH,
        )
        assert rules(findings) == []


class TestSwallowedFaults:
    def test_bare_except_flagged_everywhere(self):
        findings = lint(
            """
            def safe(fn):
                try:
                    fn()
                except:
                    pass
            """,
            PLAIN_PATH,
        )
        assert "swallowed-fault" in rules(findings)
        assert "bare `except:`" in findings[0].message

    def test_except_exception_flagged_everywhere(self):
        findings = lint(
            """
            def guard(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log.append(exc)
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == ["swallowed-fault"]
        assert "`except Exception`" in findings[0].message

    def test_except_exception_in_tuple_flagged(self):
        findings = lint(
            """
            def guard(fn):
                try:
                    return fn()
                except (ValueError, Exception):
                    raise
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == ["swallowed-fault"]

    def test_except_exception_suppression_comment(self):
        findings = lint(
            """
            def guard(fn, log):
                try:
                    return fn()
                except Exception as exc:  # lint: allow-swallow
                    log.append(exc)
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_narrow_handler_not_flagged(self):
        findings = lint(
            """
            def guard(fn, log):
                try:
                    return fn()
                except (ValueError, KeyError) as exc:
                    log.append(exc)
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_silent_handler_flagged_in_retry_path(self):
        findings = lint(
            """
            def retry(fn):
                for _ in range(3):
                    try:
                        return fn()
                    except ValueError:
                        continue
            """,
            RETRY_PATH,
        )
        assert rules(findings) == ["swallowed-fault"]
        assert "except ValueError" in findings[0].message

    def test_silent_handler_ok_outside_retry_path(self):
        findings = lint(
            """
            def probe(fn):
                try:
                    return fn()
                except ValueError:
                    pass
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_handler_that_records_passes(self):
        findings = lint(
            """
            def retry(fn, log):
                for _ in range(3):
                    try:
                        return fn()
                    except ValueError as exc:
                        log.append(exc)
            """,
            RETRY_PATH,
        )
        assert rules(findings) == []

    def test_handler_that_reraises_passes(self):
        findings = lint(
            """
            def retry(fn):
                try:
                    return fn()
                except ValueError:
                    raise
            """,
            RETRY_PATH,
        )
        assert rules(findings) == []

    def test_suppression_comment(self):
        findings = lint(
            """
            def retry(fn):
                try:
                    return fn()
                except ValueError:  # lint: allow-swallow
                    pass
            """,
            RETRY_PATH,
        )
        assert rules(findings) == []


class TestUnusedImports:
    def test_flags_unused_from_import(self):
        findings = lint(
            """
            from os.path import join, split

            def f(a, b):
                return join(a, b)
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == ["unused-import"]
        assert "`split`" in findings[0].message

    def test_used_imports_pass(self):
        findings = lint(
            """
            import os
            from os.path import join

            def f(a, b):
                return join(os.sep, a, b)
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_future_import_exempt(self):
        findings = lint(
            """
            from __future__ import annotations

            X = 1
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_init_py_exempt(self):
        findings = lint(
            """
            from os.path import join
            """,
            "src/repro/adm/__init__.py",
        )
        assert rules(findings) == []

    def test_attribute_root_counts_as_use(self):
        findings = lint(
            """
            import os

            SEP = os.path.sep
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []

    def test_noqa_suppresses(self):
        findings = lint(
            """
            import os  # noqa

            X = 1
            """,
            PLAIN_PATH,
        )
        assert rules(findings) == []


class TestTempPairing:
    OP_PATH = "src/repro/hyracks/operators/spiller.py"

    def test_flags_unpaired_make_temp_file(self):
        findings = lint(
            """
            def leaky(ctx):
                handle = ctx.make_temp_file("x")
                return handle
            """,
            self.OP_PATH,
        )
        assert rules(findings) == ["temp-pairing"]
        assert "release_temp_file" in findings[0].message

    def test_paired_release_passes(self):
        findings = lint(
            """
            def careful(ctx):
                handle = ctx.make_temp_file("x")
                try:
                    use(handle)
                finally:
                    ctx.release_temp_file(handle)
            """,
            self.OP_PATH,
        )
        assert rules(findings) == []

    def test_flags_writer_without_finish(self):
        findings = lint(
            """
            def leaky(ctx, data):
                writer = RunFileWriter(ctx, "run")
                for tup in data:
                    writer.write(tup)
            """,
            self.OP_PATH,
        )
        assert rules(findings) == ["temp-pairing"]
        assert "finish()" in findings[0].message

    def test_writer_reaching_finish_passes(self):
        findings = lint(
            """
            def careful(ctx, data):
                writer = RunFileWriter(ctx, "run")
                for tup in data:
                    writer.write(tup)
                return writer.finish()
            """,
            self.OP_PATH,
        )
        assert rules(findings) == []

    def test_release_in_nested_function_does_not_count(self):
        findings = lint(
            """
            def leaky(ctx):
                handle = ctx.make_temp_file("x")

                def later():
                    ctx.release_temp_file(handle)
                return later
            """,
            self.OP_PATH,
        )
        assert rules(findings) == ["temp-pairing"]

    def test_suppression_comment(self):
        findings = lint(
            """
            def transfer(ctx):
                return ctx.make_temp_file("x")  # lint: allow-temp-pairing
            """,
            self.OP_PATH,
        )
        assert rules(findings) == []

    def test_not_scoped_outside_runtime_paths(self):
        source = "def f(ctx):\n    return ctx.make_temp_file('x')\n"
        assert lint_source(source, "tools/chaos_runner.py") == []


class TestRegistry:
    def test_at_least_three_project_checkers(self):
        project = {check_wallclock, check_node_lock, check_swallowed_faults,
                   check_temp_pairing}
        registered = {checker for checker, _ in CHECKERS}
        assert project <= registered
        assert check_unused_imports in registered

    def test_path_scoping(self):
        # a wall-clock call outside every scoped prefix fires nothing
        source = "import time\nX = time.time()\n"
        assert lint_source(source, "tools/chaos_runner.py") == []

    def test_findings_are_sorted_and_serializable(self):
        findings = lint(
            """
            import time

            def f(node):
                node.a = time.time()
            """,
            SIM_PATH,
        )
        assert sorted(rules(findings)) == ["no-wallclock", "node-lock"]
        for f in findings:
            d = f.to_dict()
            assert set(d) == {"path", "line", "col", "rule", "message"}
            assert f.render().startswith(SIM_PATH)
