"""The process-wide always-on counter table.

Benchmark cells deploy engines internally, so per-instance counters are
unreachable after a run; the run ledger (:mod:`repro.observe.history`),
the query server's ``/v1/stats`` and ``/metrics`` and ``repro perf`` read
this aggregate instead.  One table, one lock, four verbs:

* :func:`declare` — an owner module names a group and its counters at
  import (``name=zero``: ``0`` for a count, ``0.0`` for a float sum) and
  keeps the returned :class:`CounterGroup` handle,
* :meth:`CounterGroup.add` — one positional delta per declared counter,
  in declaration order, applied under one lock acquisition,
* :func:`snapshot` / :func:`reset` — every group, or one by name.

Locking: plain ``x += n`` is a read-modify-write that loses updates when
the query server's threads interleave, so every mutation takes ``_LOCK``
— a leaf: nothing is acquired while it is held.  Every mutation is also
lexically in this module, so the guarded-by checker and the
``REPRO_RACE_CHECK`` write barrier cover all of them.

A group's counters are one immutable row, replaced whole by each ``add``:
one hash lookup and one barrier-audited write per call however many
counters the group has (``BufferPool._account`` runs hundreds of times
per query), and a snapshot can never see half an update.
"""

from operator import add as _plus

from repro.observe.race import guard_lock, shared_state

_LOCK = guard_lock("observe.counters")
#: group name -> row of current values, in declaration order.
_TABLE = shared_state("observe.counters", {}, _LOCK)  # guarded-by: _LOCK
#: group name -> its handle (the counter names and the zero row).
_GROUPS = {}  # guarded-by: _LOCK


class CounterGroup:
    """Write handle for one declared group (see :func:`declare`)."""

    __slots__ = ("name", "names", "zero")

    def __init__(self, name, names, zero):
        self.name = name
        self.names = names
        self.zero = zero

    def add(self, *deltas):
        """Add one delta per declared counter, in declaration order."""
        name = self.name
        if len(deltas) != len(self.names):
            raise TypeError(
                f"counter group {name!r} takes {len(self.names)} deltas "
                f"{self.names}, got {len(deltas)}"
            )
        with _LOCK:
            _TABLE[name] = tuple(map(_plus, _TABLE[name], deltas))


def declare(group, **zeros):
    """Declare counter group *group* (``name=zero`` per counter, order
    kept) and return its :class:`CounterGroup` write handle."""
    handle = CounterGroup(group, tuple(zeros), tuple(zeros.values()))
    with _LOCK:
        if group in _GROUPS:
            raise ValueError(f"counter group {group!r} is already declared")
        _GROUPS[group] = handle
        _TABLE[group] = handle.zero
    return handle


def snapshot(group=None):
    """``{group: {counter: value}}`` over every declared group, or the
    ``{counter: value}`` dict of one *group* (fresh dicts either way)."""
    with _LOCK:
        if group is not None:
            return dict(zip(_GROUPS[group].names, _TABLE[group]))
        return {
            name: dict(zip(handle.names, _TABLE[name]))
            for name, handle in _GROUPS.items()
        }


def reset(group=None):
    """Zero every group (or just *group*) so a recorded run's counters
    cover exactly that run."""
    with _LOCK:
        for name in (_GROUPS if group is None else (group,)):
            _TABLE[name] = _GROUPS[name].zero
