"""The guarded-by static checker (repro.analysis.concurrency.guarded).

Fixture modules exercise each rule in and out of violation; the final
tests assert the shipped package tree is clean and that an injected
violation fails the ``repro lint`` CLI loudly.
"""

import textwrap

import pytest

from repro.analysis import CONCURRENCY_RULES, check_package
from repro.analysis.concurrency import check_paths, check_source
from repro.cli import main


def check(source, relpath="repro/engine/fixture.py"):
    return check_source(textwrap.dedent(source), relpath)


def rules(violations):
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# the convention, in and out of violation
# ---------------------------------------------------------------------------

class TestGuardedMutation:
    CLEAN = """\
        import threading

        _LOCK = threading.Lock()
        STATS = {"hits": 0}  # guarded-by: _LOCK

        def bump():
            with _LOCK:
                STATS["hits"] += 1
    """

    def test_guarded_mutation_is_clean(self):
        assert check(self.CLEAN) == []

    def test_unguarded_item_write_is_flagged(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def bump():
                STATS["hits"] += 1
        """)
        assert rules(violations) == ["unguarded-mutation"]
        v = violations[0]
        assert v.symbol == "STATS"
        assert v.severity == "error"
        assert "with _LOCK" in v.message

    def test_wrong_lock_held_is_flagged(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            _OTHER = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def bump():
                with _OTHER:
                    STATS["hits"] += 1
        """)
        assert rules(violations) == ["unguarded-mutation"]

    def test_mutating_method_outside_lock_is_flagged(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            ACTIVE = []  # guarded-by: _LOCK

            def register(item):
                ACTIVE.append(item)
        """)
        assert rules(violations) == ["unguarded-mutation"]
        assert ".append()" in violations[0].message

    def test_annotation_on_previous_line_works(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            # guarded-by: _LOCK
            STATS = {"hits": 0}

            def bump():
                with _LOCK:
                    STATS["hits"] += 1
        """) == []

    # The guard of _A trails its own statement; _B, on the next line, is
    # unannotated whether or not its mutation holds _A's lock.

    def test_locked_mutation_does_not_inherit_the_line_above(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            _A = {}  # guarded-by: _LOCK
            _B = {}

            def put(key):
                with _LOCK:
                    _B[key] = 1
        """)
        assert rules(violations) == ["unannotated-shared-state"]
        assert violations[0].symbol == "_B"

    def test_unlocked_mutation_does_not_inherit_the_line_above(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            _A = {}  # guarded-by: _LOCK
            _B = {}

            def put(key):
                _B[key] = 1
        """)
        assert rules(violations) == ["unannotated-shared-state"]
        assert violations[0].symbol == "_B"

    def test_module_level_writes_are_init_time(self):
        # Import-time setup needs no lock: the convention only covers
        # function scope, where concurrent threads can be.
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {}  # guarded-by: _LOCK
            STATS["hits"] = 0
            STATS.update(misses=0)
        """) == []

    def test_local_shadowing_is_not_flagged(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def snapshot():
                STATS = {}
                STATS["hits"] = 1
                return STATS
        """) == []

    def test_delete_outside_lock_is_flagged(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            CACHE = {}  # guarded-by: _LOCK

            def evict(key):
                del CACHE[key]
        """)
        assert rules(violations) == ["unguarded-mutation"]


class TestInstanceFields:
    FIXTURE = """\
        import threading

        class Scheduler:
            def __init__(self):
                self._lock = threading.Lock()
                self._in_flight = 0  # guarded-by: _lock
                self._counts = {"done": 0}  # guarded-by: _lock
                self._latency = Histogram()  # guarded-by: _lock
                self._counts["done"] = 0        # init-time: not shared yet
                self._plain = []

            def finish(self, ms):
                GUARD:
                    self._in_flight -= 1
                    self._counts["done"] += 1
                    self._latency.observe(ms)
                self._plain.append(ms)          # not annotated: not checked

        class Other:
            def bump(self):
                self._in_flight = 1             # another class's field
    """

    def test_fields_mutated_under_their_lock_are_clean(self):
        assert check(self.FIXTURE.replace("GUARD", "with self._lock")) == []

    def test_every_kind_of_field_mutation_is_flagged(self):
        violations = check(self.FIXTURE.replace("GUARD", "if True"))
        assert rules(violations) == ["unguarded-mutation"] * 3
        assert [v.symbol for v in violations] == [
            "Scheduler._in_flight", "Scheduler._counts", "Scheduler._latency",
        ]
        assert "field write" in violations[0].message
        assert ".observe()" in violations[2].message
        assert {v.scope for v in violations} == {"Scheduler.finish"}

    def test_field_annotation_must_name_a_lock_of_the_class(self):
        violations = check("""\
            class Scheduler:
                def __init__(self):
                    self._count = 0  # guarded-by: _missing_lock
        """)
        assert rules(violations) == ["unknown-guard-lock"]

    def test_shipped_scheduler_and_collector_fields_are_annotated(self):
        from repro.analysis.concurrency.guarded import (
            ModuleInventory, _comment_maps,
        )
        import ast
        import repro.server.replay
        import repro.server.scheduler

        annotated = {}
        for module in (repro.server.scheduler, repro.server.replay):
            source = open(module.__file__).read()
            inventory = ModuleInventory.collect(
                ast.parse(source), _comment_maps(source)[0]
            )
            annotated.update(
                {name: guard for name, (guard, _) in inventory.annotated.items()}
            )
        assert annotated == {
            "SessionScheduler._accepting": "_stats_lock",
            "SessionScheduler._in_flight": "_stats_lock",
            "SessionScheduler._waiting": "_stats_lock",
            "SessionScheduler._counts": "_stats_lock",
            "SessionScheduler._histograms": "_stats_lock",
            "_Collector.report": "lock",
            "_Collector.latency_ms": "lock",
            "_Collector.queue_wait_ms": "lock",
            "_Collector.costs": "lock",
        }


class TestConditionAndSemaphoreGuards:
    """Conditions and semaphores are locks: valid guarded-by targets."""

    MODULE_LEVEL = """\
        import threading

        _SIGNAL = threading.FACTORY
        PENDING = []  # guarded-by: _SIGNAL

        def push(item):
            GUARD:
                PENDING.append(item)
    """

    @staticmethod
    def verdicts(fixture, lock):
        """Rules for *fixture* with its ``GUARD:`` block taking *lock*,
        then with it taking nothing."""
        return tuple(
            rules(check(fixture.replace("GUARD:", block)))
            for block in (f"with {lock}:", "if True:")
        )

    def test_module_level_condition_guards_state(self):
        fixture = self.MODULE_LEVEL.replace("FACTORY", "Condition()")
        assert self.verdicts(fixture, "_SIGNAL") == (
            [], ["unguarded-mutation"]
        )

    def test_module_level_semaphores_guard_state(self):
        for factory in ("Semaphore(2)", "BoundedSemaphore()"):
            fixture = self.MODULE_LEVEL.replace("FACTORY", factory)
            assert self.verdicts(fixture, "_SIGNAL") == (
                [], ["unguarded-mutation"]
            )

    def test_instance_condition_guards_fields(self):
        fixture = """\
            import threading

            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._items = []  # guarded-by: _cond

                def push(self, item):
                    GUARD:
                        self._items.append(item)
                        self._cond.notify()
        """
        assert self.verdicts(fixture, "self._cond") == (
            [], ["unguarded-mutation"]
        )


class TestAllowlist:
    def test_unguarded_ok_on_the_line(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def bump():
                STATS["hits"] += 1  # unguarded-ok: single-threaded path
        """) == []

    def test_unguarded_ok_on_the_line_above(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def bump():
                # unguarded-ok: single-threaded path
                STATS["hits"] += 1
        """) == []

    def test_multiline_justification_covers_the_next_code_line(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            STATS = {"hits": 0}  # guarded-by: _LOCK

            def bump():
                # unguarded-ok: rebound by the parent before the pool
                # forks; never raced by query threads
                STATS["hits"] += 1
        """) == []


class TestUnannotatedSharedState:
    def test_mutated_bare_container_is_flagged(self):
        violations = check("""\
            CACHE = {}

            def put(key, value):
                CACHE[key] = value
        """)
        assert rules(violations) == ["unannotated-shared-state"]
        assert "guarded-by" in violations[0].message

    def test_read_only_container_is_fine(self):
        assert check("""\
            TABLE = {"a": 1}

            def get(key):
                return TABLE[key]
        """) == []

    def test_constructor_calls_count_as_containers(self):
        violations = check("""\
            from collections import OrderedDict

            CACHE = OrderedDict()

            def put(key, value):
                CACHE[key] = value
        """)
        assert rules(violations) == ["unannotated-shared-state"]


class TestUnknownGuardLock:
    def test_annotation_must_name_a_defined_lock(self):
        violations = check("""\
            STATS = {"hits": 0}  # guarded-by: _MISSING

            def bump():
                with _MISSING:
                    STATS["hits"] += 1
        """)
        assert "unknown-guard-lock" in rules(violations)


class TestGlobalRebind:
    def test_bare_rebind_is_flagged(self):
        violations = check("""\
            _SINGLETON = None

            def get():
                global _SINGLETON
                _SINGLETON = object()
                return _SINGLETON
        """)
        assert rules(violations) == ["unsynchronized-global-rebind"]

    def test_rebind_under_a_lock_is_fine(self):
        assert check("""\
            import threading

            _LOCK = threading.Lock()
            _SINGLETON = None

            def get():
                global _SINGLETON
                with _LOCK:
                    _SINGLETON = object()
                    return _SINGLETON
        """) == []

    def test_rebind_with_allowlist_is_fine(self):
        assert check("""\
            _SINGLETON = None

            def get():
                global _SINGLETON
                # unguarded-ok: set once before threads start
                _SINGLETON = object()
                return _SINGLETON
        """) == []

    def test_annotated_rebind_requires_its_guard(self):
        violations = check("""\
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}  # guarded-by: _LOCK

            def reset():
                global _CACHE
                _CACHE = {}
        """)
        assert rules(violations) == ["unguarded-mutation"]


# ---------------------------------------------------------------------------
# rule catalog / package tree / CLI fail-loud
# ---------------------------------------------------------------------------

def test_rule_catalog_covers_emitted_rules():
    assert set(CONCURRENCY_RULES) == {
        "unannotated-shared-state",
        "unguarded-mutation",
        "unknown-guard-lock",
        "unsynchronized-global-rebind",
        "lock-not-leaf",
    }


def test_shipped_package_tree_is_clean():
    # The acceptance gate: every shared structure in the codebase is
    # annotated and every mutation site guarded (or allowlisted).
    assert check_package() == []


def test_injected_violation_fails_lint_cli(tmp_path, capsys):
    package = tmp_path / "repro" / "engine"
    package.mkdir(parents=True)
    (package / "racy.py").write_text(textwrap.dedent("""\
        import threading

        _LOCK = threading.Lock()
        STATS = {"hits": 0}  # guarded-by: _LOCK

        def bump():
            STATS["hits"] += 1
    """))
    code = main(["lint", str(tmp_path / "repro")])
    assert code == 1
    out = capsys.readouterr().out
    assert "unguarded-mutation" in out
    assert "1 concurrency violation(s)" in out


def test_check_paths_keys_relative_to_argument_parent(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(
        "CACHE = {}\n\ndef put(k, v):\n    CACHE[k] = v\n"
    )
    violations = check_paths([str(package)])
    assert [v.path for v in violations] == ["repro/mod.py"]


def test_syntax_error_propagates():
    with pytest.raises(SyntaxError):
        check_source("def broken(:\n", "repro/engine/broken.py")
