"""Plans deeper than the engines can lower and run are refused up front.

Both engines lower, lint and run a plan a few stack frames per level, so
a long enough chain of joins used to end in a ``RecursionError`` (and,
over HTTP, in the scheduler's catch-all: an ERROR log line).  A node now
knows its depth when it is built, and a plan deeper than
``MAX_PLAN_DEPTH`` raises :class:`~repro.errors.PlanError` there.
"""

import json
import logging
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.analysis import lint_plan
from repro.errors import PlanError
from repro.model.triple import Triple
from repro.plan import Join, Project, Scan, Select
from repro.plan.logical import MAX_PLAN_DEPTH
from repro.plan.predicates import Comparison
from repro.plan.render import render_physical_plan, render_plan
from repro.server import serve

#: A chain long enough that the lowering and run recursion once
#: overflowed, and one well inside the bound.
TOO_DEEP, DEEP = 1200, 400


def chain(n):
    """``?x0 <type> ?x1 . ?x1 <type> ?x2 . …`` — *n* patterns, a
    left-deep join about *n* levels deep."""
    patterns = " . ".join(f"?x{i} <type> ?x{i + 1}" for i in range(n))
    return "SELECT ?x0 WHERE { %s }" % patterns


@pytest.fixture(scope="module")
def triples():
    return [Triple(f"<e{i}>", "<type>", f"<e{i + 1}>") for i in range(420)]


@pytest.mark.parametrize("engine", ["column", "row"])
@pytest.mark.parametrize("scheme", ["vertical", "triple"])
def test_a_too_deep_chain_is_a_plan_error(triples, engine, scheme):
    session = api.connect(triples=triples, engine=engine,
                          scheme=scheme).session()
    with pytest.raises(PlanError, match="deep"):
        session.query(chain(TOO_DEEP))
    # A deep chain within the bound still answers: every x0 that starts
    # a path of DEEP edges.
    result = session.query(chain(DEEP), timeout=60)
    assert set(result.rows) == {
        (f"<e{i}>",) for i in range(len(triples) - DEEP + 1)
    }


@pytest.mark.parametrize("engine", ["column", "row"])
def test_a_plan_at_the_bound_lowers_lints_and_runs(engine):
    """The bound is one both engines can take: a join chain exactly
    ``MAX_PLAN_DEPTH`` deep runs (with a timeout's cancellation wrapper
    on every level), lints, renders and explains."""
    session = api.connect(
        triples=[Triple("<a>", "<p>", "<b>")], engine=engine,
        scheme="triple",
    ).session()
    store = session.connection.store
    table = store.catalog.triples_table
    plan = Scan(table, ["subj", "prop", "obj"], alias="T0")
    for i in range(1, MAX_PLAN_DEPTH - 1):
        plan = Join(plan, Scan(table, ["subj", "prop", "obj"], alias=f"T{i}"),
                    on=[(f"T{i - 1}.subj", f"T{i}.subj")])
    plan = Project(plan, [("s", "T0.subj")])
    assert plan._depth == MAX_PLAN_DEPTH
    with pytest.raises(PlanError, match="deep"):
        Select(plan, [Comparison("s", "=", 1)])
    relation, _, _ = session.connection._execute(plan, timeout=60)
    assert relation.n_rows == 1
    # Every scan's prop and obj go unread.
    assert {d.rule for d in lint_plan(plan)} == {"dead-column"}
    assert render_plan(plan).count("Join") == MAX_PLAN_DEPTH - 2
    assert render_physical_plan(session.connection._lower(plan))


def test_over_http_a_too_deep_chain_is_a_400_not_an_error_log(triples):
    records = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    server = serve(api.connect(triples=triples), port=0, workers=1,
                   background=True)
    try:
        request = urllib.request.Request(
            server.address.rstrip("/") + "/v1/query",
            data=json.dumps({"query": chain(TOO_DEEP)}).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=60)
        assert refused.value.code == 400
        document = json.loads(refused.value.read())
        assert document["error_type"] == "PlanError"
    finally:
        server.close()
        logger.removeHandler(handler)
    assert records == []
