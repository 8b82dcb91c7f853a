"""Benchmark query metadata: descriptions and query-space coverage (Table 2).

The coverage entries reproduce the paper's Table 2: which of the simple
triple patterns p1-p8 and which join patterns (A: subject-subject,
B: object-object, C: object-subject) each query exercises.
"""

from dataclasses import dataclass

from repro.data.barton import (
    CONFERENCES,
    DLC,
    ENCODING,
    END,
    FRENCH,
    LANGUAGE,
    ORIGIN,
    POINT,
    RECORDS,
    TEXT,
    TYPE,
)

#: Query constants, named after the paper's appendix SQL.
CONSTANTS = {
    "type": TYPE,
    "Text": TEXT,
    "language": LANGUAGE,
    "french": FRENCH,
    "origin": ORIGIN,
    "DLC": DLC,
    "records": RECORDS,
    "Point": POINT,
    "end": END,
    "Encoding": ENCODING,
    "conferences": CONFERENCES,
}


@dataclass(frozen=True)
class QueryDefinition:
    """One benchmark query, as the paper's Table 2 characterizes it."""

    name: str
    description: str
    triple_patterns: tuple  # p1..p8 coverage
    join_patterns: tuple    # A/B/C coverage
    has_star_variant: bool  # restricted to the 28 properties by default?


QUERIES = {
    "q1": QueryDefinition(
        name="q1",
        description="Histogram of <type> objects: properties of all "
                    "resources, with counts.",
        triple_patterns=("p7",),
        join_patterns=(),
        has_star_variant=False,
    ),
    "q2": QueryDefinition(
        name="q2",
        description="For resources of type Text, count their other "
                    "properties (filtered to the 28 interesting ones).",
        triple_patterns=("p2", "p8"),
        join_patterns=("A",),
        has_star_variant=True,
    ),
    "q3": QueryDefinition(
        name="q3",
        description="Like q2 but grouped by (property, object), keeping "
                    "pairs occurring more than once.",
        triple_patterns=("p2", "p8"),
        join_patterns=("A",),
        has_star_variant=True,
    ),
    "q4": QueryDefinition(
        name="q4",
        description="q3 restricted to French-language Text resources.",
        triple_patterns=("p2", "p8"),
        join_patterns=("A",),
        has_star_variant=True,
    ),
    "q5": QueryDefinition(
        name="q5",
        description="Inference step: subjects originating from DLC whose "
                    "records point at non-Text resources.",
        triple_patterns=("p2", "p7"),
        join_patterns=("A", "C"),
        has_star_variant=False,
    ),
    "q6": QueryDefinition(
        name="q6",
        description="Property histogram over resources that are Text or "
                    "record a Text resource (union + joins).",
        triple_patterns=("p2", "p7", "p8"),
        join_patterns=("A", "C"),
        has_star_variant=True,
    ),
    "q7": QueryDefinition(
        name="q7",
        description="Triple-selection: end-points with their encodings and "
                    "types.",
        triple_patterns=("p2", "p7"),
        join_patterns=("A",),
        has_star_variant=False,
    ),
    "q8": QueryDefinition(
        name="q8",
        description="This paper's extension: subjects sharing any object "
                    "with <conferences> (object-object join, pattern B).",
        triple_patterns=("p6", "p8"),
        join_patterns=("B",),
        has_star_variant=False,
    ),
}

#: The 7 original queries plus q8, in benchmark order.
BASE_QUERY_NAMES = tuple(f"q{i}" for i in range(1, 9))

#: Benchmark order including the full-scale variants — the 12 queries of
#: Tables 6 and 7: q1 q2 q2* q3 q3* q4 q4* q5 q6 q6* q7 q8.
ALL_QUERY_NAMES = (
    "q1", "q2", "q2*", "q3", "q3*", "q4", "q4*", "q5", "q6", "q6*", "q7", "q8",
)


def parse_query_name(name):
    """Split a benchmark query name into (base, full_scale)."""
    if name.endswith("*"):
        base = name[:-1]
        if base not in QUERIES or not QUERIES[base].has_star_variant:
            raise KeyError(f"query {name!r} has no full-scale variant")
        return base, True
    if name not in QUERIES:
        raise KeyError(f"unknown query {name!r}")
    return name, False


def coverage_table():
    """The paper's Table 2: query -> (triple patterns, join patterns)."""
    return {
        name: (list(q.triple_patterns), list(q.join_patterns))
        for name, q in QUERIES.items()
    }
