"""Tests for the AST codebase invariant checker."""

import textwrap

import pytest

from repro.analysis import (
    CODE_RULES,
    lint_package,
    lint_paths,
    lint_source,
)

ENGINE = "repro/engine/bad.py"
REPORT = "repro/bench/report.py"
ELSEWHERE = "repro/model/free.py"


def check(source, relpath):
    return lint_source(textwrap.dedent(source), relpath)


def fired(source, relpath):
    return {v.rule for v in check(source, relpath)}


# ---------------------------------------------------------------------------
# wall clock
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_perf_counter_in_engine(self):
        source = """
        import time

        def cost():
            return time.perf_counter()
        """
        violations = check(source, ENGINE)
        assert [v.rule for v in violations] == ["wall-clock-in-engine"]
        assert violations[0].severity == "error"
        assert violations[0].symbol == "time.perf_counter"
        assert violations[0].scope == "cost"

    def test_from_import_alias(self):
        source = """
        from time import perf_counter as clock

        def cost():
            return clock()
        """
        assert "wall-clock-in-engine" in fired(source, ENGINE)

    def test_datetime_now(self):
        source = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert "wall-clock-in-engine" in fired(source, ENGINE)

    def test_wall_clock_allowed_outside_engines(self):
        # Observability genuinely measures wall time.
        source = """
        import time

        def observe():
            return time.perf_counter()
        """
        assert fired(source, "repro/observe/trace.py") == set()
        assert fired(source, ELSEWHERE) == set()

    def test_simulated_clock_not_flagged(self):
        source = """
        def cost(clock):
            return clock.advance(10)
        """
        assert fired(source, ENGINE) == set()


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

class TestRandom:
    def test_module_global_random(self):
        source = """
        import random

        def jitter():
            return random.random()
        """
        violations = check(source, ENGINE)
        assert [v.rule for v in violations] == ["unseeded-random-in-engine"]
        assert violations[0].symbol == "random.random"

    def test_seeded_generator_is_fine(self):
        source = """
        import random

        def jitter(seed):
            return random.Random(seed).random()
        """
        assert fired(source, ENGINE) == set()

    def test_legacy_numpy_random(self):
        source = """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
        """
        violations = check(source, ENGINE)
        assert [v.rule for v in violations] == ["unseeded-random-in-engine"]
        assert violations[0].symbol == "numpy.random.rand"

    def test_default_rng_with_seed_is_fine(self):
        source = """
        import numpy as np

        def noise(n, seed):
            return np.random.default_rng(seed).random(n)
        """
        assert fired(source, ENGINE) == set()

    def test_unseeded_default_rng_is_flagged(self):
        source = """
        import numpy as np

        def noise(n):
            return np.random.default_rng().random(n)
        """
        assert "unseeded-random-in-engine" in fired(source, ENGINE)

    def test_random_allowed_in_data_generator(self):
        source = """
        import random

        def sample():
            return random.random()
        """
        assert fired(source, "repro/data/barton.py") == set()


# ---------------------------------------------------------------------------
# set iteration
# ---------------------------------------------------------------------------

class TestSetIteration:
    def test_for_over_set_literal(self):
        source = """
        def report():
            for name in {"a", "b"}:
                print(name)
        """
        violations = check(source, REPORT)
        assert [v.rule for v in violations] == ["set-iteration-in-report"]
        assert violations[0].severity == "warning"

    def test_comprehension_over_set_call(self):
        source = """
        def report(rows):
            return [r for r in set(rows)]
        """
        assert "set-iteration-in-report" in fired(source, REPORT)

    def test_sorted_set_is_fine(self):
        source = """
        def report(rows):
            for r in sorted(set(rows)):
                print(r)
        """
        assert fired(source, REPORT) == set()

    def test_outside_report_paths(self):
        source = """
        def anywhere():
            for name in {"a", "b"}:
                print(name)
        """
        assert fired(source, ELSEWHERE) == set()


# ---------------------------------------------------------------------------
# join sort hint
# ---------------------------------------------------------------------------

class TestJoinSortHint:
    def test_missing_hint(self):
        source = """
        def execute(left, right):
            return join_indices(left, right)
        """
        violations = check(source, "repro/colstore/executor.py")
        assert [v.rule for v in violations] == ["join-sort-hint"]

    def test_hint_present(self):
        source = """
        def execute(left, right, hint):
            return join_indices(left, right, assume_sorted=hint)
        """
        assert fired(source, "repro/colstore/executor.py") == set()

    def test_method_call_form(self):
        source = """
        def execute(kernels, left, right):
            return kernels.join_indices(left, right)
        """
        assert "join-sort-hint" in fired(source, ELSEWHERE)


# ---------------------------------------------------------------------------
# plan mutation
# ---------------------------------------------------------------------------

class TestPlanMutation:
    def test_field_assignment_outside_init(self):
        source = """
        def rewrite(node, new_child):
            node.child = new_child
            return node
        """
        violations = check(source, "repro/plan/rewrite.py")
        assert [v.rule for v in violations] == ["plan-mutation"]
        assert violations[0].symbol == "child"

    def test_self_assignment_in_init_is_fine(self):
        source = """
        class Join:
            def __init__(self, left, right, on):
                self.left = left
                self.right = right
                self.on = on
        """
        assert fired(source, "repro/plan/logical.py") == set()

    def test_augmented_assignment(self):
        source = """
        def grow(node, more):
            node.predicates += more
        """
        assert "plan-mutation" in fired(source, ELSEWHERE)

    def test_tuple_unpacking_target(self):
        source = """
        def swap(node, a, b):
            node.left, node.right = b, a
        """
        violations = check(source, ELSEWHERE)
        assert [v.rule for v in violations] == [
            "plan-mutation", "plan-mutation"
        ]

    def test_generic_attribute_names_are_not_flagged(self):
        source = """
        def tune(config):
            config.value = 3
            config.threshold = 9
        """
        assert fired(source, ELSEWHERE) == set()


# ---------------------------------------------------------------------------
# walking real trees
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_rule_catalog(self):
        assert set(CODE_RULES) == {
            "wall-clock-in-engine", "unseeded-random-in-engine",
            "set-iteration-in-report", "join-sort-hint", "plan-mutation",
        }

    def test_lint_paths_keys_relative_to_argument_parent(self, tmp_path):
        package = tmp_path / "repro" / "engine"
        package.mkdir(parents=True)
        (package / "clockish.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        violations = lint_paths([str(tmp_path / "repro")])
        assert [v.path for v in violations] == ["repro/engine/clockish.py"]

    def test_lint_paths_accepts_single_file(self, tmp_path):
        package = tmp_path / "repro" / "engine"
        package.mkdir(parents=True)
        target = package / "clockish.py"
        target.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        # Relpath is computed against the file's parent: the engine dir
        # name alone does not select the simulated-cost rules, so key the
        # file through lint_source for single-file precision instead.
        assert lint_source(target.read_text(), "repro/engine/clockish.py")

    def test_installed_package_is_clean(self):
        violations = lint_package()
        assert violations == []

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "repro/engine/x.py")
