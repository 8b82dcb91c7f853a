"""The lock-order (deadlock) analyzer (repro.analysis.concurrency.lockorder).

Injected fixture modules prove cycles are detected — lexically nested
``with`` blocks, call-graph propagation, and single-lock self-deadlock —
and that the shipped package's lock-acquisition graph is acyclic.
"""

import textwrap

from repro.analysis import build_lock_graph, lock_graph_document
from repro.analysis.concurrency import (
    lockorder_package,
    lockorder_paths,
    lockorder_source,
)


def lockorder(source, relpath="repro/server/fixture.py"):
    return lockorder_source(textwrap.dedent(source), relpath)


# ---------------------------------------------------------------------------
# cycles via lexical nesting
# ---------------------------------------------------------------------------

class TestLexicalCycles:
    def test_opposite_nesting_orders_are_a_cycle(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]
        assert violations[0].severity == "error"
        assert "deadlock" in violations[0].message
        assert violations[0].symbol == (
            "repro.server.fixture.A -> repro.server.fixture.B"
        )

    def test_consistent_order_is_clean(self):
        assert lockorder("""\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def first():
                with A:
                    with B:
                        pass

            def second():
                with A:
                    with B:
                        pass
        """) == []

    def test_nonreentrant_self_nesting_is_a_cycle(self):
        violations = lockorder("""\
            import threading

            A = threading.Lock()

            def oops():
                with A:
                    with A:
                        pass
        """)
        assert [v.rule for v in violations] == ["lock-order-cycle"]
        assert violations[0].symbol == "repro.server.fixture.A"

    def test_rlock_self_nesting_is_exempt(self):
        assert lockorder("""\
            import threading

            A = threading.RLock()

            def fine():
                with A:
                    with A:
                        pass
        """) == []

    def test_guard_lock_reentrant_kwarg_is_exempt(self):
        assert lockorder("""\
            from repro.observe.race import guard_lock

            A = guard_lock("fixture.A", reentrant=True)

            def fine():
                with A:
                    with A:
                        pass
        """) == []


# ---------------------------------------------------------------------------
# cycles through the call graph
# ---------------------------------------------------------------------------

class TestCallGraphCycles:
    def test_lock_taken_inside_a_callee_closes_the_cycle(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]

    def test_transitive_callee_locks_propagate(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]

    def test_self_method_calls_resolve(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]


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
        violations = lockorder_paths([str(package)])
        assert [v.rule for v in violations] == ["lock-order-cycle"]
        assert violations[0].symbol == "repro.a.A_LOCK -> repro.a.B_LOCK"

    def test_instance_locks_are_modeled_per_class_attribute(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]


# ---------------------------------------------------------------------------
# conditions and semaphores are locks too
# ---------------------------------------------------------------------------

class TestConditionsAndSemaphores:
    def test_lock_then_condition_nesting_is_an_edge(self, tmp_path):
        # The shape of the retired morsel pool's submit path: the analyzer
        # used to see two unrelated ``with`` blocks and no edge.
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
        document = build_lock_graph([str(package)]).to_document()
        assert document["locks"] == {
            "repro.pool.Pool._cond": {"reentrant": True},
            "repro.pool.Pool._submit_lock": {"reentrant": False},
        }
        assert [(e["from"], e["to"]) for e in document["edges"]] == [
            ("repro.pool.Pool._submit_lock", "repro.pool.Pool._cond"),
        ]
        assert document["cycles"] == []

    def test_opposite_lock_and_condition_orders_are_a_cycle(self):
        violations = lockorder("""\
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
        assert [v.rule for v in violations] == ["lock-order-cycle"]
        assert violations[0].symbol == (
            "repro.server.fixture.READY -> repro.server.fixture.SUBMIT"
        )

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
            return [
                v.rule for v in lockorder(template.format(factory=factory))
            ]

        assert rules("threading.Condition()") == []  # wraps an RLock
        assert rules("threading.Condition(threading.RLock())") == []
        assert rules("threading.Condition(threading.Lock())") == [
            "lock-order-cycle"
        ]
        assert rules("threading.Condition(lock=threading.Lock())") == [
            "lock-order-cycle"
        ]

    def test_semaphores_are_never_reentrant(self):
        for factory in ("Semaphore(2)", "BoundedSemaphore()"):
            violations = lockorder(f"""\
                import threading

                S = threading.{factory}

                def nested():
                    with S:
                        with S:
                            pass
            """)
            assert [v.rule for v in violations] == ["lock-order-cycle"]


# ---------------------------------------------------------------------------
# the graph document + the shipped tree
# ---------------------------------------------------------------------------

def test_graph_document_records_edges_and_sites(tmp_path):
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
    graph = build_lock_graph([str(package)])
    document = graph.to_document()
    assert set(document["locks"]) == {"repro.mod.OUTER", "repro.mod.INNER"}
    assert document["edges"] == [{
        "from": "repro.mod.OUTER",
        "to": "repro.mod.INNER",
        "path": "repro/mod.py",
        "line": 8,
    }]
    assert document["cycles"] == []


def test_shipped_package_graph_is_acyclic():
    assert lockorder_package() == []


def test_shipped_package_graph_knows_the_annotated_locks():
    document = lock_graph_document()
    lock_names = set(document["locks"])
    assert "repro.observe.counters._LOCK" in lock_names
    assert document["cycles"] == []
