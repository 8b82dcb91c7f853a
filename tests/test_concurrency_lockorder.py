"""The leaf-lock rule of the concurrency checker
(repro.analysis.concurrency.guarded, rule ``lock-not-leaf``).

Injected fixture modules prove that every nesting is reported at its
site — lexically nested ``with`` blocks, call-graph propagation,
cross-module imports, instance locks, conditions and semaphores, and
single-lock self-deadlock — and that every lock of the shipped package
is a leaf.
"""

import ast
import json
import os
import textwrap

from repro.analysis import CONCURRENCY_RULES, check_package, scan_paths
from repro.analysis.concurrency import check_paths, check_source
from repro.cli import main

FIXTURE = "repro.server.fixture"


def leaf(source, relpath="repro/server/fixture.py"):
    return check_source(textwrap.dedent(source), relpath)


def sites(violations):
    return [(v.rule, v.line, v.symbol) for v in violations]


# ---------------------------------------------------------------------------
# lexical nesting
# ---------------------------------------------------------------------------

class TestLexicalCycles:
    def test_opposite_nesting_orders_are_a_cycle(self):
        violations = leaf("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def forward():
                with A:
                    with B:
                        pass

            def backward():
                with B:
                    with A:
                        pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 8, f"{FIXTURE}.A -> {FIXTURE}.B"),
            ("lock-not-leaf", 13, f"{FIXTURE}.B -> {FIXTURE}.A"),
        ]
        assert violations[0].severity == "error"
        assert violations[0].path == "repro/server/fixture.py"
        assert violations[0].scope == "forward"
        assert "leaf" in violations[0].message

    def test_any_nesting_is_reported(self):
        # The policy: a consistent order is still a nesting.  The leaf
        # rule is strictly stronger than acyclicity over the same edges.
        violations = leaf("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def first():
                with A:
                    with B:
                        pass

            def second():
                with A, B:
                    pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 8, f"{FIXTURE}.A -> {FIXTURE}.B"),
            ("lock-not-leaf", 12, f"{FIXTURE}.A -> {FIXTURE}.B"),
        ]

    def test_nonreentrant_self_nesting_is_a_cycle(self):
        violations = leaf("""\
            import threading

            A = threading.Lock()

            def oops():
                with A:
                    with A:
                        pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 7, f"{FIXTURE}.A -> {FIXTURE}.A"),
        ]

    def test_rlock_self_nesting_is_exempt(self):
        assert leaf("""\
            import threading

            A = threading.RLock()

            def fine():
                with A:
                    with A:
                        pass
        """) == []

    def test_guard_lock_reentrant_kwarg_is_exempt(self):
        assert leaf("""\
            from repro.observe.race import guard_lock

            A = guard_lock("fixture.A", reentrant=True)

            def fine():
                with A:
                    with A:
                        pass
        """) == []


# ---------------------------------------------------------------------------
# nesting through the call graph
# ---------------------------------------------------------------------------

class TestCallGraphCycles:
    def test_lock_taken_inside_a_callee_closes_the_cycle(self):
        violations = leaf("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def helper():
                with B:
                    pass

            def forward():
                with A:
                    helper()

            def backward():
                with B:
                    with A:
                        pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 12, f"{FIXTURE}.A -> {FIXTURE}.B"),
            ("lock-not-leaf", 16, f"{FIXTURE}.B -> {FIXTURE}.A"),
        ]
        assert f"through {FIXTURE}.helper()" in violations[0].message

    def test_transitive_callee_locks_propagate(self):
        violations = leaf("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def inner():
                with B:
                    pass

            def middle():
                inner()

            def forward():
                with A:
                    middle()

            def backward():
                with B:
                    with A:
                        pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 15, f"{FIXTURE}.A -> {FIXTURE}.B"),
            ("lock-not-leaf", 19, f"{FIXTURE}.B -> {FIXTURE}.A"),
        ]

    def test_self_method_calls_resolve(self):
        violations = leaf("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            class Pool:
                def _locked_helper(self):
                    with B:
                        pass

                def forward(self):
                    with A:
                        self._locked_helper()

                def backward(self):
                    with B:
                        with A:
                            pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 13, f"{FIXTURE}.A -> {FIXTURE}.B"),
            ("lock-not-leaf", 17, f"{FIXTURE}.B -> {FIXTURE}.A"),
        ]
        assert violations[0].scope == "Pool.forward"


# ---------------------------------------------------------------------------
# cross-module resolution + instance locks
# ---------------------------------------------------------------------------

class TestCrossModule:
    def test_imported_lock_closes_a_cross_module_cycle(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "a.py").write_text(textwrap.dedent("""\
            import threading

            A_LOCK = threading.Lock()
            B_LOCK = threading.Lock()

            def forward():
                with A_LOCK:
                    with B_LOCK:
                        pass
        """))
        (package / "b.py").write_text(textwrap.dedent("""\
            from repro.a import A_LOCK, B_LOCK

            def backward():
                with B_LOCK:
                    with A_LOCK:
                        pass
        """))
        violations = check_paths([str(package)])
        assert [(v.path, v.line, v.symbol) for v in violations] == [
            ("repro/a.py", 8, "repro.a.A_LOCK -> repro.a.B_LOCK"),
            ("repro/b.py", 5, "repro.a.B_LOCK -> repro.a.A_LOCK"),
        ]
        assert {v.rule for v in violations} == {"lock-not-leaf"}

    def test_instance_locks_are_modeled_per_class_attribute(self):
        violations = leaf("""\
            import threading

            GLOBAL = threading.Lock()

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                def forward(self):
                    with self._lock:
                        with GLOBAL:
                            pass

                def backward(self):
                    with GLOBAL:
                        with self._lock:
                            pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 11,
             f"{FIXTURE}.Cache._lock -> {FIXTURE}.GLOBAL"),
            ("lock-not-leaf", 16,
             f"{FIXTURE}.GLOBAL -> {FIXTURE}.Cache._lock"),
        ]


# ---------------------------------------------------------------------------
# conditions and semaphores are locks too
# ---------------------------------------------------------------------------

class TestConditionsAndSemaphores:
    def test_lock_then_condition_nesting_is_an_edge(self, tmp_path):
        # The shape of the retired morsel pool's submit path.
        package = tmp_path / "repro"
        package.mkdir()
        (package / "pool.py").write_text(textwrap.dedent("""\
            import threading

            class Pool:
                def __init__(self):
                    self._submit_lock = threading.Lock()
                    self._cond = threading.Condition()

                def post(self):
                    with self._submit_lock:
                        with self._cond:
                            self._cond.notify_all()
        """))
        violations, locks = scan_paths([str(package)])
        assert locks == {
            "repro.pool.Pool._cond": {"reentrant": True},
            "repro.pool.Pool._submit_lock": {"reentrant": False},
        }
        assert [(v.path, v.line, v.symbol) for v in violations] == [(
            "repro/pool.py", 10,
            "repro.pool.Pool._submit_lock -> repro.pool.Pool._cond",
        )]

    def test_opposite_lock_and_condition_orders_are_a_cycle(self):
        violations = leaf("""\
            import threading

            SUBMIT = threading.Lock()
            READY = threading.Condition()

            def post():
                with SUBMIT:
                    with READY:
                        READY.notify_all()

            def drain():
                with READY:
                    with SUBMIT:
                        pass
        """)
        assert sites(violations) == [
            ("lock-not-leaf", 8, f"{FIXTURE}.SUBMIT -> {FIXTURE}.READY"),
            ("lock-not-leaf", 13, f"{FIXTURE}.READY -> {FIXTURE}.SUBMIT"),
        ]

    def test_condition_is_as_reentrant_as_the_lock_under_it(self):
        template = """\
            import threading

            C = {factory}

            def nested():
                with C:
                    with C:
                        pass
        """
        def rules(factory):
            return [v.rule for v in leaf(template.format(factory=factory))]

        assert rules("threading.Condition()") == []  # wraps an RLock
        assert rules("threading.Condition(threading.RLock())") == []
        assert rules("threading.Condition(threading.Lock())") == [
            "lock-not-leaf"
        ]
        assert rules("threading.Condition(lock=threading.Lock())") == [
            "lock-not-leaf"
        ]

    def test_semaphores_are_never_reentrant(self):
        for factory in ("Semaphore(2)", "BoundedSemaphore()"):
            violations = leaf(f"""\
                import threading

                S = threading.{factory}

                def nested():
                    with S:
                        with S:
                            pass
            """)
            assert sites(violations) == [
                ("lock-not-leaf", 7, f"{FIXTURE}.S -> {FIXTURE}.S"),
            ]


# ---------------------------------------------------------------------------
# the lock inventory, the catalog, the one pass + the shipped tree
# ---------------------------------------------------------------------------

def test_locks_map_and_nesting_site(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(textwrap.dedent("""\
        import threading

        OUTER = threading.Lock()
        INNER = threading.Lock()

        def nested():
            with OUTER:
                with INNER:
                    pass
    """))
    violations, locks = scan_paths([str(package)])
    assert locks == {
        "repro.mod.INNER": {"reentrant": False},
        "repro.mod.OUTER": {"reentrant": False},
    }
    assert [v.to_dict() for v in violations] == [{
        "rule": "lock-not-leaf",
        "severity": "error",
        "path": "repro/mod.py",
        "line": 8,
        "scope": "nested",
        "symbol": "repro.mod.OUTER -> repro.mod.INNER",
        "message": violations[0].message,
    }]


def test_every_fixture_rule_is_in_the_catalog():
    # Every multi-line string in this file and in the guarded-by tests
    # that parses as a module is a fixture; whatever rule any of them
    # emits must be a catalog key, and together they exercise them all.
    emitted = set()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("test_concurrency_lockorder.py",
                 "test_concurrency_guarded.py"):
        with open(os.path.join(here, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and "\n" in node.value):
                continue
            try:
                emitted.update(v.rule for v in leaf(node.value))
            except SyntaxError:
                continue  # prose, or a template with a placeholder
    assert emitted == set(CONCURRENCY_RULES)


def test_check_paths_parses_each_file_once(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    for relpath in ("__init__.py", "a.py", "sub/__init__.py", "sub/b.py"):
        (package / relpath).write_text(
            "import threading\n\nL = threading.Lock()\n\n"
            "def f():\n    with L:\n        g()\n\ndef g():\n    pass\n"
        )
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert check_paths([str(package)]) == []
    assert sorted(parsed) == [
        "repro/__init__.py", "repro/a.py",
        "repro/sub/__init__.py", "repro/sub/b.py",
    ]


def test_lint_json_carries_each_site(tmp_path, capsys):
    package = tmp_path / "repro" / "engine"
    package.mkdir(parents=True)
    (package / "mixed.py").write_text(textwrap.dedent("""\
        import threading
        import time

        _LOCK = threading.Lock()
        _OTHER = threading.Lock()
        STATS = {"hits": 0}  # guarded-by: _LOCK

        def bump():
            STATS["hits"] += 1
            return time.perf_counter()

        def nested():
            with _LOCK:
                with _OTHER:
                    pass
    """))
    assert main(["lint", str(tmp_path / "repro"), "--json"]) == 1
    document = json.loads(capsys.readouterr().out)
    found = [
        (v["rule"], v["path"], v["line"])
        for v in document["violations"]
        + document["concurrency"]["violations"]
    ]
    assert found == [
        ("wall-clock-in-engine", "repro/engine/mixed.py", 10),
        ("unguarded-mutation", "repro/engine/mixed.py", 9),
        ("lock-not-leaf", "repro/engine/mixed.py", 14),
    ]


def test_shipped_package_graph_is_acyclic():
    # Stronger than acyclic: no lock of the package nests another.
    assert [
        v for v in check_package() if v.rule == "lock-not-leaf"
    ] == []


def test_shipped_package_lock_inventory():
    violations, locks = scan_paths()
    assert violations == []
    assert locks == {
        "repro.api.Connection._exec_lock": {"reentrant": True},
        "repro.api.Connection._plan_lock": {"reentrant": False},
        "repro.bench.artifacts._DEFAULT_CACHE_LOCK": {"reentrant": False},
        "repro.exec.cancel.CancellationToken._lock": {"reentrant": False},
        "repro.exec.registry._REGISTRY_LOCK": {"reentrant": False},
        "repro.observe.counters._LOCK": {"reentrant": False},
        "repro.observe.race._STATE_LOCK": {"reentrant": False},
        "repro.observe.trace._ACTIVE_TRACERS_LOCK": {"reentrant": False},
        "repro.server.http.QueryServer._session_lock": {"reentrant": False},
        "repro.server.replay._Collector.lock": {"reentrant": False},
        "repro.server.scheduler.SessionScheduler._stats_lock": {
            "reentrant": False
        },
    }
