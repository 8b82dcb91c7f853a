"""Cross-implementation verification (the repeatability spirit of the paper).

The paper is an Experiments & Analysis contribution: its value rests on
*independent implementations agreeing*.  This module packages that check as
a library/CLI feature: run every benchmark query on every engine x scheme
combination and on the naive reference evaluator, and report whether all
answers agree.

::

    python -m repro verify --triples 20000
"""

from dataclasses import dataclass, field

from repro.analysis import lint_physical_plan
from repro.cstore import CSTORE_QUERIES, CStoreEngine
from repro.exec.parity import parity_cells
from repro.observe.log import get_logger
from repro.queries import ALL_QUERY_NAMES, build_query, reference_answer

log = get_logger("verify")


@dataclass
class VerificationResult:
    """Outcome of one verification sweep."""

    configurations: list
    queries: list
    mismatches: list = field(default_factory=list)  # (config, query, detail)
    checks: int = 0
    # static-analysis findings: (config, query, Diagnostic)
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    @property
    def lint_clean(self):
        """True when no plan in the sweep drew a warning+ diagnostic."""
        from repro.analysis import WARNING, worst

        return not worst(
            [d for _, _, d in self.diagnostics], at_least=WARNING
        )

    def render(self):
        lines = [
            f"verified {self.checks} (configuration, query) cells over "
            f"{len(self.configurations)} configurations x "
            f"{len(self.queries)} queries"
        ]
        if self.ok:
            lines.append("all implementations agree with the reference "
                         "evaluator")
        else:
            lines.append(f"{len(self.mismatches)} MISMATCHES:")
            for config, query, detail in self.mismatches:
                lines.append(f"  {config} {query}: {detail}")
        from repro.analysis import WARNING, worst

        flagged = worst(
            [d for _, _, d in self.diagnostics], at_least=WARNING
        )
        if flagged:
            lines.append(f"{len(flagged)} plans drew lint warnings:")
            for config, query, d in self.diagnostics:
                if d in flagged:
                    lines.append(
                        f"  {config} {query}: [{d.severity}] {d.rule} "
                        f"at {d.path}: {d.message}"
                    )
        else:
            lines.append(
                "all plans lint clean "
                f"({len(self.diagnostics)} informational notes)"
            )
        return "\n".join(lines)


def verify_dataset(dataset, queries=ALL_QUERY_NAMES, include_cstore=True):
    """Run the verification sweep; returns a :class:`VerificationResult`."""
    graph = dataset.graph()
    expected = {
        q: reference_answer(graph, q, dataset.interesting_properties)
        for q in queries
    }

    # The SQL-engine combinations: the engine x scheme grid the exec-parity
    # sweep covers, so the two harnesses can never check different cells.
    cells = parity_cells()
    result = VerificationResult(
        configurations=[label for label, _, _ in cells],
        queries=list(queries),
    )

    for label, engine_cls, builder in cells:
        log.debug("building %s", label)
        engine = engine_cls()
        catalog = builder(engine, dataset)
        for query in queries:
            log.debug("checking %s %s", label, query)
            plan = build_query(catalog, query)
            # Lint the lowered physical tree: the physical rules run on
            # top of every logical rule (same PlanFacts), so this also
            # covers what lint_plan reported before the unified layer.
            for diagnostic in lint_physical_plan(engine.lower(plan)):
                result.diagnostics.append((label, query, diagnostic))
            relation = engine.execute(plan)
            got = sorted(
                relation.decoded_tuples(
                    catalog.dictionary, order=plan.output_columns()
                )
            )
            result.checks += 1
            if got != expected[query]:
                log.debug("MISMATCH %s %s", label, query)
                result.mismatches.append(
                    (label, query,
                     f"{len(got)} rows vs reference {len(expected[query])}")
                )

    if include_cstore:
        result.configurations.append("c-store/vertical")
        engine = CStoreEngine().load_vertical(
            dataset.triples, dataset.interesting_properties
        )
        for query in queries:
            if query not in CSTORE_QUERIES:
                continue
            relation = engine.execute(query)
            got = sorted(relation.decoded_tuples(engine.dictionary))
            result.checks += 1
            if got != expected[query]:
                result.mismatches.append(
                    ("c-store/vertical", query,
                     f"{len(got)} rows vs reference {len(expected[query])}")
                )
    return result
