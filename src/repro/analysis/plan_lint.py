"""Head 1: the plan linter.

A rule registry over :class:`~repro.analysis.provenance.PlanFacts`.  Each
rule is a generator of :class:`~repro.analysis.diagnostics.Diagnostic`
objects; :func:`lint_plan` runs the registry over one plan and returns the
findings most-severe first.

Severity policy
---------------
``error``    the plan is malformed and an engine will misbehave on it.
``warning``  the plan will run but is almost certainly not what was meant
             (cartesian product, unsatisfiable conjunction, mismatched
             dictionary domains, a selection left above a join).
``info``     true but harmless observations — e.g. a scan column nothing
             consumes.  The paper-shaped benchmark plans scan tables with
             their full physical schema (the SQL appendix's ``FROM triples
             AS A`` brings all columns into scope) and the executors prune
             unconsumed columns for free, so dead scan columns are notes,
             not warnings.

One lint point
--------------
Building a plan lints nothing.  :meth:`repro.api.Session.query` lints
each plan its connection caches at most once, under a mode:

* ``"off"``    — no linting (zero overhead),
* ``"warn"``   — log findings at warning+ once per plan (the default),
* ``"strict"`` — raise :class:`~repro.errors.PlanError` on warning+.

The process default comes from :func:`set_lint_mode`.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    ERROR,
    INFO,
    WARNING,
    sort_diagnostics,
    worst,
)
from repro.analysis.provenance import (
    COUNT,
    ENTITY_DOMAINS,
    PlanFacts,
    UNKNOWN,
)
from repro.errors import PlanError
from repro.observe.log import get_logger
from repro.plan import logical as L
from repro.plan.predicates import ColumnComparison, Comparison

log = get_logger("analysis")

#: rule id -> (function, one-line description).  Ordered: report order for
#: equal severities follows node paths, not registry order, so this is
#: purely the catalog.
PLAN_RULES = {}

#: Physical-plan rules: run over a lowered
#: :class:`~repro.exec.physical.PhysicalPlan` tree (with the logical
#: root's :class:`PlanFacts` available for paths and provenance).
PHYSICAL_RULES = {}


def plan_rule(rule_id, description):
    def register(fn):
        # unguarded-ok: decorator registration runs at import time, before
        # any query thread exists
        PLAN_RULES[rule_id] = (fn, description)
        return fn

    return register


def physical_rule(rule_id, description):
    def register(fn):
        # unguarded-ok: decorator registration runs at import time, before
        # any query thread exists
        PHYSICAL_RULES[rule_id] = (fn, description)
        return fn

    return register


def lint_plan(plan, rules=None):
    """Run the plan linter; returns diagnostics most-severe first.

    *rules* optionally restricts to an iterable of rule ids.
    """
    facts = PlanFacts(plan)
    selected = PLAN_RULES if rules is None else {
        rule_id: PLAN_RULES[rule_id] for rule_id in rules
    }
    findings = []
    seen = set()
    for fn, _description in selected.values():
        _collect(_logical_findings(fn, facts), findings, seen)
    return sort_diagnostics(findings)


def _logical_findings(fn, facts):
    """Rule *fn*'s findings.  It inspects each template union's template
    once; when it finds something there, every branch has the finding,
    and the rule runs again over the expanded tree so that each branch's
    copy names that branch's own path, node and columns."""
    found = list(fn(facts))
    inside = facts.template_paths() if found else ()
    if any(
        d.path == path or d.path.startswith(f"{path}.")
        for d in found for path in inside
    ):
        return list(fn(facts.expanded()))
    return found


def _collect(diagnostics, findings, seen):
    for diagnostic in diagnostics:
        key = (diagnostic.rule, diagnostic.path, diagnostic.message)
        if key not in seen:
            seen.add(key)
            findings.append(diagnostic)


def lint_physical_plan(physical, rules=None):
    """Lint a lowered physical tree; returns diagnostics most-severe first.

    Runs the logical rule registry over the bound logical root (the same
    :class:`PlanFacts` the logical linter uses — lowering never changes
    what the plan computes, so every logical finding still applies) plus
    the physical registry over the operator tree itself.  *rules*
    optionally restricts to an iterable of rule ids from either registry.
    """
    facts = PlanFacts(physical.logical)
    if rules is None:
        logical_rules, physical_rules = PLAN_RULES, PHYSICAL_RULES
    else:
        logical_rules = {
            rule_id: PLAN_RULES[rule_id]
            for rule_id in rules if rule_id in PLAN_RULES
        }
        physical_rules = {
            rule_id: PHYSICAL_RULES[rule_id]
            for rule_id in rules if rule_id in PHYSICAL_RULES
        }
    findings = []
    seen = set()
    for fn, _description in logical_rules.values():
        _collect(_logical_findings(fn, facts), findings, seen)
    for fn, _description in physical_rules.values():
        _collect(fn(physical, facts), findings, seen)
    return sort_diagnostics(findings)


# ---------------------------------------------------------------------------
# lint modes
# ---------------------------------------------------------------------------

LINT_MODES = ("off", "warn", "strict")

_lint_mode = "warn"


def validate_lint_mode(mode):
    """*mode* if it names a lint mode, else :class:`PlanError` — modes
    arrive from request bodies and session defaults as well as from code."""
    if mode not in LINT_MODES:
        raise PlanError(
            f"unknown lint mode {mode!r}; expected one of {LINT_MODES}"
        )
    return mode


def set_lint_mode(mode):
    """Set the process default lint mode ("off" | "warn" | "strict")."""
    global _lint_mode
    # unguarded-ok: process config knob, set during setup (CLI, tests)
    # before queries run; an atomic reference store either way
    _lint_mode = validate_lint_mode(mode)


def lint_mode():
    """The process default lint mode."""
    return _lint_mode


def enforce(diagnostics, where, mode):
    """Act on a plan's *diagnostics* at warning+ severity: under mode
    "strict" raise :class:`PlanError` if there are any, under "warn" log
    each one, under "off" nothing."""
    actionable = worst(diagnostics, at_least=WARNING) if mode != "off" else ()
    if actionable and mode == "strict":
        details = "; ".join(
            f"{d.rule} at {d.path}: {d.message}" for d in actionable
        )
        raise PlanError(f"{where}: plan fails lint ({details})")
    for d in actionable:
        log.warning("%s: %s at %s: %s", where, d.rule, d.path, d.message)


def check_plan(plan, where, mode=None):
    """Lint *plan* under *mode* (``None``: the process default) and
    :func:`enforce` it; returns the diagnostics (``()`` under "off")."""
    mode = lint_mode() if mode is None else validate_lint_mode(mode)
    diagnostics = lint_plan(plan) if mode != "off" else ()
    enforce(diagnostics, where, mode)
    return diagnostics


def assert_no_regression(before, after, where="optimizer"):
    """Raise if *after* lints worse than *before* (at warning+ severity).

    The join-order optimizer must never introduce a problem the input plan
    did not have.
    """
    count_before = len(worst(lint_plan(before), at_least=WARNING))
    count_after = len(worst(lint_plan(after), at_least=WARNING))
    if count_after > count_before:
        raise PlanError(
            f"{where}: rewrite introduced lint regressions "
            f"({count_before} -> {count_after} diagnostics at warning+)"
        )


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

@plan_rule(
    "cartesian-product",
    "a join whose every key pair is constant on both sides relates nothing",
)
def _rule_cartesian_product(facts):
    for node in facts.nodes_of(L.Join):
        left_constants = facts.constants_of(node.left)
        right_constants = facts.constants_of(node.right)
        linking = [
            (l, r)
            for l, r in node.on
            if l not in left_constants or r not in right_constants
        ]
        if linking:
            continue
        keys = ", ".join(f"{l} = {r}" for l, r in node.on)
        yield Diagnostic(
            rule="cartesian-product",
            severity=WARNING,
            path=facts.path(node),
            node=repr(node),
            message=(
                f"no join key relates the inputs: every pair ({keys}) "
                "compares constant columns, so the join degenerates to a "
                "cartesian product (or an empty result)"
            ),
            hint="join on a column that varies per row, or drop the join",
        )


def _fold_intervals(predicates):
    """Constant-fold a conjunction of Comparisons on one column.

    Returns a contradiction description string, or None when satisfiable.
    Values are dictionary oids (integers), so strict bounds tighten by 1.
    """
    lo = None  # greatest lower bound (inclusive)
    hi = None  # least upper bound (inclusive)
    pinned = None
    excluded = set()
    for p in predicates:
        v = p.value
        if v is None:
            continue  # missing-constant rule covers these
        if p.op == "=":
            if pinned is not None and pinned != v:
                return f"requires both = {pinned} and = {v}"
            pinned = v
        elif p.op == "!=":
            excluded.add(v)
        elif p.op == "<":
            hi = v - 1 if hi is None else min(hi, v - 1)
        elif p.op == "<=":
            hi = v if hi is None else min(hi, v)
        elif p.op == ">":
            lo = v + 1 if lo is None else max(lo, v + 1)
        elif p.op == ">=":
            lo = v if lo is None else max(lo, v)
    if pinned is not None:
        if pinned in excluded:
            return f"requires both = {pinned} and != {pinned}"
        if lo is not None and pinned < lo:
            return f"requires = {pinned} but also >= {lo}"
        if hi is not None and pinned > hi:
            return f"requires = {pinned} but also <= {hi}"
        return None
    if lo is not None and hi is not None:
        if lo > hi:
            return f"requires >= {lo} and <= {hi} simultaneously"
        if lo == hi and lo in excluded:
            return f"narrows to exactly {lo}, which is excluded by !="
    return None


def _conjunction_roots(facts):
    """Maximal Select chains: (top node, gathered predicates)."""
    for node in facts.nodes_of(L.Select):
        if isinstance(facts.parent(node), L.Select):
            continue  # covered by the chain's top Select
        predicates = []
        cursor = node
        while isinstance(cursor, L.Select):
            predicates.extend(cursor.predicates)
            cursor = cursor.child
        yield node, predicates


@plan_rule(
    "unsatisfiable-filter",
    "a predicate conjunction no row can satisfy (constant-folded ranges)",
)
def _rule_unsatisfiable_filter(facts):
    for node, predicates in _conjunction_roots(facts):
        by_column = {}
        for p in predicates:
            if isinstance(p, Comparison):
                by_column.setdefault(p.column, []).append(p)
            elif isinstance(p, ColumnComparison):
                if p.left == p.right and p.op in ("<", ">", "!="):
                    yield Diagnostic(
                        rule="unsatisfiable-filter",
                        severity=WARNING,
                        path=facts.path(node),
                        node=repr(node),
                        message=(
                            f"predicate {p.left} {p.op} {p.right} compares "
                            "a column against itself and can never hold"
                        ),
                        hint="remove the predicate or fix the column name",
                    )
        for column, comparisons in sorted(by_column.items()):
            contradiction = _fold_intervals(comparisons)
            if contradiction:
                yield Diagnostic(
                    rule="unsatisfiable-filter",
                    severity=WARNING,
                    path=facts.path(node),
                    node=repr(node),
                    message=(
                        f"conjunction on {column} is unsatisfiable: "
                        f"{contradiction}; the subtree always yields zero "
                        "rows"
                    ),
                    hint="fix the constants or split into a UNION of cases",
                )

    # Having predicates: a count(*) bound below 0 can never fail/hold.
    for node in facts.nodes_of(L.Having):
        p = node.predicate
        if p.value is not None and p.value < 0 and p.op in ("<", "<="):
            yield Diagnostic(
                rule="unsatisfiable-filter",
                severity=WARNING,
                path=facts.path(node),
                node=repr(node),
                message=(
                    f"HAVING {p.column} {p.op} {p.value} can never hold "
                    "(counts are non-negative)"
                ),
                hint="fix the HAVING bound",
            )


@plan_rule(
    "dead-column",
    "a scan or extend output no operator consumes (pushdown opportunity)",
)
def _rule_dead_column(facts):
    for node in facts.nodes_of(L.Scan):
        consumed = facts.consumed_of(node)
        for column in facts.columns_of(node):
            if column not in consumed:
                yield Diagnostic(
                    rule="dead-column",
                    severity=INFO,
                    path=facts.path(node),
                    node=repr(node),
                    message=(
                        f"scan column {column} is never consumed "
                        "downstream; engines prune it, but narrowing "
                        "the scan would make the plan self-documenting"
                    ),
                    hint=f"drop {column} from the Scan column list",
                )
    for node in facts.nodes_of(L.Extend):
        if node.column not in facts.consumed_of(node):
            yield Diagnostic(
                rule="dead-column",
                severity=INFO,
                path=facts.path(node),
                node=repr(node),
                message=(
                    f"extended column {node.column} is never consumed "
                    "downstream"
                ),
                hint="drop the Extend node",
            )


@plan_rule(
    "domain-mismatch",
    "join keys drawn from different dictionary domains",
)
def _rule_domain_mismatch(facts):
    known = ENTITY_DOMAINS | {COUNT, "property"}
    for node in facts.nodes_of(L.Join, L.Union):
        if isinstance(node, L.Join):
            for l, r in node.on:
                dl = facts.domain(node.left, l)
                dr = facts.domain(node.right, r)
                if dl == UNKNOWN or dr == UNKNOWN:
                    continue
                if dl == dr:
                    continue
                if {dl, dr} <= ENTITY_DOMAINS:
                    # subject/object share the entity value space (the
                    # paper's q8 object-object join; q5's object->subject
                    # hop).
                    continue
                if not {dl, dr} <= known:
                    continue
                yield Diagnostic(
                    rule="domain-mismatch",
                    severity=WARNING,
                    path=facts.path(node),
                    node=repr(node),
                    message=(
                        f"join key {l} is {dl}-coded but {r} is "
                        f"{dr}-coded; oids from different dictionary "
                        "domains only match by coincidence"
                    ),
                    hint="join columns of the same domain (subject/object "
                         "are interchangeable entity domains)",
                )
        else:
            for name, seen in zip(
                facts.columns_of(node), facts.input_domains_of(node)
            ):
                domains = set(seen)
                if len(domains) > 1 and not domains <= ENTITY_DOMAINS \
                        and domains <= known:
                    listed = ", ".join(
                        f"{d} (input {i})" for d, i in sorted(seen.items())
                    )
                    yield Diagnostic(
                        rule="domain-mismatch",
                        severity=WARNING,
                        path=facts.path(node),
                        node=repr(node),
                        message=(
                            f"Union column {name} mixes dictionary "
                            f"domains across inputs: {listed}"
                        ),
                        hint="align the branch projections",
                    )


@plan_rule(
    "duplicate-columns",
    "duplicate or shadowed qualified column names",
)
def _rule_duplicate_columns(facts):
    for node in facts.nodes_of(L.LogicalPlan):
        names = facts.columns_of(node)
        if len(set(names)) == len(names):
            continue
        duplicated = sorted(
            {name for name in names if names.count(name) > 1}
        )
        yield Diagnostic(
            rule="duplicate-columns",
            severity=ERROR,
            path=facts.path(node),
            node=repr(node),
            message=(
                f"output columns {duplicated} appear more than once; "
                "downstream references are ambiguous"
            ),
            hint="rename via Project or use distinct scan aliases",
        )
    for node in facts.nodes_of(L.Union):
        first, *rest = facts.input_columns_of(node)
        for i, branch_names in enumerate(rest, start=1):
            if branch_names != first:
                yield Diagnostic(
                    rule="duplicate-columns",
                    severity=INFO,
                    path=facts.path(node),
                    node=repr(node),
                    message=(
                        f"Union input {i} columns {branch_names} are "
                        f"shadowed by input 0's names {first} "
                        "(positional, SQL semantics)"
                    ),
                    hint="project branches onto one shared name set",
                )


@plan_rule(
    "pushdown-select",
    "a constant selection left above a join the optimizer should push down",
)
def _rule_pushdown_select(facts):
    for node in facts.nodes_of(L.Select):
        if not isinstance(node.child, L.Join):
            continue
        join = node.child
        left_cols = set(facts.columns_of(join.left))
        right_cols = set(facts.columns_of(join.right))
        for p in node.predicates:
            if not isinstance(p, Comparison):
                continue  # column-column leftovers of cyclic joins belong here
            side = (
                "left" if p.column in left_cols
                else "right" if p.column in right_cols
                else None
            )
            if side is None:
                continue
            yield Diagnostic(
                rule="pushdown-select",
                severity=WARNING,
                path=facts.path(node),
                node=repr(node),
                message=(
                    f"selection {p.column} {p.op} {p.value} sits above a "
                    f"join but only references the {side} input; pushing "
                    "it below the join shrinks the join input"
                ),
                hint=f"apply the selection to the join's {side} input",
            )


@physical_rule(
    "wrong-engine-operator",
    "a physical operator bound from another engine's registry",
)
def _rule_wrong_engine_operator(physical, facts):
    from repro.exec.physical import walk_physical

    root_engine = physical.engine
    for pnode in walk_physical(physical):
        bound_to = pnode.op.engine
        if bound_to != pnode.engine:
            yield Diagnostic(
                rule="wrong-engine-operator",
                severity=ERROR,
                path=facts.path(pnode.logical) or "$",
                node=repr(pnode),
                message=(
                    f"operator {pnode.name!r} is registered for engine "
                    f"{bound_to!r} but the node was lowered for "
                    f"{pnode.engine!r}; its cost charges follow the wrong "
                    "cost model"
                ),
                hint="register the operator in the executing engine's "
                     "EngineOperatorSet",
            )
        elif pnode.engine != root_engine:
            yield Diagnostic(
                rule="wrong-engine-operator",
                severity=ERROR,
                path=facts.path(pnode.logical) or "$",
                node=repr(pnode),
                message=(
                    f"physical tree mixes engines: node is lowered for "
                    f"{pnode.engine!r} inside a {root_engine!r} plan"
                ),
                hint="lower the whole plan through one engine's registry",
            )


@plan_rule(
    "missing-constant",
    "a query constant that did not resolve in the dictionary",
)
def _rule_missing_constant(facts):
    for node in facts.nodes_of(L.Select):
        for p in node.predicates:
            if isinstance(p, Comparison) and p.value is None:
                if p.op == "!=":
                    meaning = "always true (the predicate is redundant)"
                else:
                    meaning = (
                        "never satisfied (the subtree yields zero rows)"
                    )
                yield Diagnostic(
                    rule="missing-constant",
                    severity=INFO,
                    path=facts.path(node),
                    node=repr(node),
                    message=(
                        f"constant in {p.column} {p.op} ? is absent from "
                        f"the dictionary: {meaning}"
                    ),
                    hint="expected when a query constant does not occur "
                         "in the loaded data",
                )
