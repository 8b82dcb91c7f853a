"""repro.exec — the unified physical-operator execution layer.

One logical plan, many engines: :func:`repro.exec.registry.lower_plan`
turns a :class:`~repro.plan.logical.LogicalPlan` into a
:class:`~repro.exec.physical.PhysicalPlan` by matching nodes against the
engine-keyed operator registry, and :class:`~repro.exec.runtime.Runtime`
drives the resulting tree through a single pull/vector pipeline.  Engines
contribute operator sets (``repro.colstore.operators``,
``repro.rowstore.operators``) instead of whole interpreters; adding a new
engine or storage scheme is one registry module, not a new executor.
The engines themselves subclass :mod:`repro.exec.host`, which owns the
simulated substrate and the one cold/hot protocol, ``engine.run(plan,
mode=)``.
"""

from repro.exec.physical import PhysicalPlan, count_physical_operators, walk_physical
from repro.exec.registry import (
    EngineOperatorSet,
    Lowered,
    OperatorDef,
    engine_ops,
    lower_plan,
    match_type,
    matches,
    registered_engines,
)
from repro.exec.runtime import Intermediate, Runtime, Stream

__all__ = [
    "PhysicalPlan",
    "walk_physical",
    "count_physical_operators",
    "EngineOperatorSet",
    "Lowered",
    "OperatorDef",
    "engine_ops",
    "lower_plan",
    "match_type",
    "matches",
    "registered_engines",
    "Intermediate",
    "Runtime",
    "Stream",
]
