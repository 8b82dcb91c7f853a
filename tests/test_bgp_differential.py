"""Differential testing of the BGP translator.

Hypothesis generates small random graphs and random tree-shaped basic graph
patterns; the engine answers (through bgp_plan, on both schemes) must equal
the naive RDFGraph.solve reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import RDFStore, Var
from repro.model import RDFGraph, Triple

SUBJECTS = [f"<s{i}>" for i in range(4)]
PROPERTIES = [f"<p{i}>" for i in range(3)]
OBJECTS = ["<s0>", "<s1>", "<o0>", "<o1>"]  # overlap with subjects

triples_strategy = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PROPERTIES),
        st.sampled_from(OBJECTS),
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def tree_bgps(draw):
    """A connected, tree-shaped BGP of 1-3 patterns."""
    n_patterns = draw(st.integers(1, 3))
    variables = ["a", "b", "c", "d"]
    patterns = []
    used_vars = []

    def term(position, must_include=None):
        if must_include is not None and draw(st.booleans()):
            return Var(must_include)
        choice = draw(st.integers(0, 2))
        if choice == 0:
            pool = {
                "s": SUBJECTS, "p": PROPERTIES, "o": OBJECTS,
            }[position]
            return draw(st.sampled_from(pool))
        name = draw(st.sampled_from(variables))
        used_vars.append(name)
        return Var(name)

    for i in range(n_patterns):
        connector = None
        if i > 0 and used_vars:
            connector = draw(st.sampled_from(sorted(set(used_vars))))
        # Ensure connectivity: put the connector somewhere in the pattern.
        s = term("s")
        p = term("p")
        o = term("o")
        if connector is not None:
            slot = draw(st.integers(0, 2))
            replacement = Var(connector)
            s, p, o = [
                replacement if j == slot else t
                for j, t in enumerate((s, p, o))
            ]
            used_vars.append(connector)
        for t in (s, p, o):
            if isinstance(t, Var):
                used_vars.append(t.name)
        patterns.append((s, p, o))
    return patterns


def _is_connected(patterns):
    if len(patterns) <= 1:
        return True
    sets = []
    for pattern in patterns:
        sets.append({t.name for t in pattern if isinstance(t, Var)})
    joined = sets[0].copy()
    remaining = sets[1:]
    while remaining:
        for s in list(remaining):
            if s & joined:
                joined |= s
                remaining.remove(s)
                break
        else:
            return False
    return True


@settings(deadline=None, max_examples=40)
@given(raw_triples=triples_strategy, bgp=tree_bgps(),
       scheme=st.sampled_from(["vertical", "triple"]))
def test_bgp_matches_reference(raw_triples, bgp, scheme):
    if bgp is None or not _is_connected(bgp):
        return
    triples = [Triple(*t) for t in raw_triples]
    graph = RDFGraph(triples)
    expected = graph.solve(bgp)

    store = RDFStore.from_triples(triples, scheme=scheme)
    variables = sorted(
        {t.name for pattern in bgp for t in pattern if isinstance(t, Var)}
    )
    got = store.connection().session().solve(bgp, projection=variables)

    def canon(bindings):
        return sorted(
            tuple(b.get(v) for v in variables) for b in bindings
        )

    assert canon(got) == canon(expected)
