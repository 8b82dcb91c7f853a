"""Experiment drivers: one function per table/figure of the paper.

Every driver returns an :class:`ExperimentResult` whose ``rows`` mirror the
layout of the corresponding paper table (or whose ``series`` mirror the
figure's curves), measured on the synthetic scale model.  Times are
reported in *scaled seconds* — simulated seconds divided by the dataset's
scale factor — which are directly comparable with the paper's numbers.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.bench.metrics import INITIAL_QUERIES, TimingCell, summarize
from repro.bench.reporting import format_series, format_table
from repro.bench.systems import SYSTEM_GRID, Deployment, deploy, deploy_grid
from repro.data import (
    compute_statistics,
    cumulative_distribution,
    split_properties,
)
from repro.data.barton import WELL_KNOWN_PROPERTIES
from repro.data.stats import frequency_table
from repro.engine import MACHINES, MACHINE_B
from repro.errors import BenchmarkError
from repro.observe import counters as process_counters
from repro.queries import ALL_QUERY_NAMES, coverage_table
from repro.queries.definitions import BASE_QUERY_NAMES

import numpy as np


@dataclass
class ExperimentResult:
    """A regenerated table or figure.

    ``meta`` carries measurement metadata (wall-clock milliseconds, worker
    count) that rides along in JSON twins but never appears in the rendered
    table/figure — parallel and serial runs render byte-identically.

    ``storage`` carries the physical-design metrics of the deployments the
    experiment measured — ``storage_bytes``, ``compression_ratio`` and
    per-query ``bytes_scanned`` — so the BENCH JSON twins document the
    footprint behind the timings (deterministic, hence part of the
    regression-gated simulated section, unlike ``meta``).

    ``measured`` (Tables 6 and 7 only) maps each system configuration to
    its ``(query -> TimingCell, summary)`` pair, the unrounded cells that
    :mod:`repro.bench.findings` reads; the JSON twin leaves it out.
    """

    name: str
    title: str
    headers: list
    rows: list
    notes: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    x_values: list = field(default_factory=list)
    x_label: str = ""
    meta: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)
    measured: dict = None

    def render(self, chart=True):
        if self.series:
            text = format_series(
                self.x_label, self.x_values, self.series, title=self.title
            )
            if chart and len(self.x_values) > 1:
                from repro.bench.ascii_chart import line_chart

                text += "\n" + line_chart(
                    self.x_values, self.series, x_label=self.x_label
                )
        else:
            text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text

    def to_dict(self):
        """JSON-safe form (cells coerced to plain scalars or strings)."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_json_value(v) for v in row] for row in self.rows],
            "notes": list(self.notes),
            "series": {
                label: [_json_value(v) for v in values]
                for label, values in self.series.items()
            },
            "x_values": [_json_value(v) for v in self.x_values],
            "x_label": self.x_label,
            "meta": dict(self.meta),
            "storage": self.storage,
        }


def _json_value(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return str(value)


def _deployment_storage(deployment):
    """Footprint metrics of one deployment for ``ExperimentResult.storage``."""
    engine = deployment.engine
    info = {
        "storage_bytes": int(engine.database_bytes()),
        "compression_mode": None,
        "compression_ratio": None,
    }
    report_fn = getattr(engine, "compression_report", None)
    report = report_fn() if report_fn is not None else None
    if report is not None:
        info["compression_mode"] = report["mode"]
        info["compression_ratio"] = round(report["compression_ratio"], 3)
    return info


# ---------------------------------------------------------------------------
# Table 1 / Figure 1 / Table 2 / Table 3
# ---------------------------------------------------------------------------

def experiment_table1(dataset):
    """Table 1: data set details."""
    stats = compute_statistics(dataset.triples)
    rows = [[label, value] for label, value in stats.rows()]
    return ExperimentResult(
        name="table1",
        title="Table 1: Data set details (synthetic scale model)",
        headers=["metric", "value"],
        rows=rows,
        notes=[
            f"scale model of the 50,255,599-triple Barton dump "
            f"({len(dataset.triples)} triples)"
        ],
    )


def experiment_figure1(dataset, sample_points=(1, 2, 5, 10, 13, 20, 40, 60, 80, 100)):
    """Figure 1: cumulative frequency distributions."""
    series = {}
    for component, label in (("p", "properties"), ("s", "subjects"), ("o", "objects")):
        x, y = cumulative_distribution(frequency_table(dataset.triples, component))
        values = []
        for point in sample_points:
            index = min(len(x) - 1, int(np.searchsorted(x, point)))
            values.append(round(float(y[index]), 1))
        series[label] = values
    return ExperimentResult(
        name="figure1",
        title="Figure 1: Cumulative frequency distribution "
              "(% of triples covered by top-x% of values)",
        headers=[],
        rows=[],
        series=series,
        x_values=list(sample_points),
        x_label="% of total *",
    )


def experiment_table2():
    """Table 2: coverage of the query space."""
    rows = []
    for name in BASE_QUERY_NAMES:
        triple_patterns, join_patterns = coverage_table()[name]
        rows.append(
            [name, ",".join(triple_patterns), ",".join(join_patterns) or "-"]
        )
    return ExperimentResult(
        name="table2",
        title="Table 2: Coverage of the query space",
        headers=["Query", "Triple patterns", "Join patterns"],
        rows=rows,
    )


def experiment_table3():
    """Table 3: machine configurations."""
    machine_rows = [m.table3_row() for m in MACHINES.values()]
    headers = ["field"] + [r["Machine"] for r in machine_rows]
    fields = [k for k in machine_rows[0] if k != "Machine"]
    rows = [[f] + [r[f] for r in machine_rows] for f in fields]
    return ExperimentResult(
        name="table3",
        title="Table 3: Machine configuration",
        headers=headers,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 4 / Table 5 / Figure 5 — the C-Store repetition
# ---------------------------------------------------------------------------

def _table4_cell(dataset, machine_name):
    """One Table 4 machine: every initial query, cold then hot."""
    deployment = deploy(
        dataset, "C-Store", "vert", machine=MACHINES[machine_name]
    )
    measured = {}
    for mode in ("cold", "hot"):
        cells = {}
        for query in INITIAL_QUERIES:
            _, timing = deployment.run(query, mode)
            cells[query] = TimingCell(
                deployment.scaled_seconds(timing.real_seconds),
                deployment.scaled_seconds(timing.user_seconds),
            )
        measured[mode] = cells
    return measured


def experiment_table4(dataset, machines=("A", "B"), jobs=None):
    """Table 4: repetition of the C-Store experiment on machines A and B."""
    from repro.bench.metrics import geometric_mean
    from repro.bench.scheduler import map_cells, scheduler_meta

    values, outcomes = map_cells(
        _table4_cell, [(m,) for m in machines], dataset=dataset, jobs=jobs,
        labels=[f"table4:{m}" for m in machines],
    )
    rows = []
    for machine_name, measured in zip(machines, values):
        for mode in ("cold", "hot"):
            cells = measured[mode]
            for clock in ("real", "user"):
                series = [getattr(cells[q], clock) for q in INITIAL_QUERIES]
                rows.append(
                    [f"{machine_name} {mode} {clock}"]
                    + [round(v, 2) for v in series]
                    + [round(geometric_mean(series), 1)]
                )
    return ExperimentResult(
        name="table4",
        title="Table 4: Repetition results (scaled seconds)",
        headers=["run"] + list(INITIAL_QUERIES) + ["G"],
        rows=rows,
        meta=scheduler_meta(outcomes, jobs),
    )


def experiment_table5(dataset, machine="A"):
    """Table 5: data read from disk and rows returned per query."""
    deployment = deploy(
        dataset, "C-Store", "vert", machine=MACHINES[machine]
    )
    rows = []
    for query in INITIAL_QUERIES:
        relation, timing = deployment.run(query, "cold")
        scaled_mb = timing.bytes_read / deployment.scale / (1024 * 1024)
        rows.append([query, round(scaled_mb, 1), relation.n_rows])
    return ExperimentResult(
        name="table5",
        title="Table 5: Data relevant to a query "
              "(scaled MB read from disk, rows returned)",
        headers=["query", "data read (MB, scaled)", "rows returned"],
        rows=rows,
        notes=["row counts are at synthetic scale and shrink with the "
               "dataset; MB are rescaled to paper scale"],
    )


def _figure5_cell(dataset, query, machine_name):
    """One Figure 5 curve: the scaled I/O read history of a cold run."""
    deployment = deploy(
        dataset, "C-Store", "vert", machine=MACHINES[machine_name]
    )
    deployment.run(query, "cold")
    return [
        (deployment.scaled_seconds(t), b / deployment.scale)
        for t, b in deployment.engine.io_history()
    ]


def experiment_figure5(dataset, queries=("q3", "q5"), machines=("A", "B"),
                       n_samples=12, jobs=None):
    """Figure 5: I/O read history (cumulative MB over time) per machine."""
    from repro.bench.scheduler import map_cells, scheduler_meta

    pairs = [(q, m) for q in queries for m in machines]
    values, outcomes = map_cells(
        _figure5_cell, pairs, dataset=dataset, jobs=jobs,
        labels=[f"figure5:{q}:{m}" for q, m in pairs],
    )
    histories = dict(zip(pairs, values))
    meta = scheduler_meta(outcomes, jobs)
    results = []
    for query in queries:
        series = {}
        max_time = max(histories[(query, m)][-1][0] for m in machines)
        x_values = [
            round(max_time * i / (n_samples - 1), 2) for i in range(n_samples)
        ]
        for machine_name in machines:
            history = histories[(query, machine_name)]
            times = [t for t, _ in history]
            sizes = [b for _, b in history]
            values = []
            for x in x_values:
                index = int(np.searchsorted(times, x, side="right")) - 1
                values.append(round(sizes[max(index, 0)] / (1024 * 1024), 1))
            series[machine_name] = values
        results.append(
            ExperimentResult(
                name=f"figure5_{query}",
                title=f"Figure 5: I/O read history for {query} "
                      "(scaled MB read vs scaled seconds)",
                headers=[],
                rows=[],
                series=series,
                x_values=x_values,
                x_label="time (s)",
                meta=meta,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Tables 6 and 7 — the full grid
# ---------------------------------------------------------------------------

def _table67_cell(dataset, config, mode, machine):
    """One Tables 6/7 system configuration: label + every query's cell."""
    deployment = deploy(dataset, *config, machine=machine)
    cells = {}
    for query in ALL_QUERY_NAMES:
        if not deployment.supports(query):
            continue
        _, timing = deployment.run(query, mode)
        cells[query] = TimingCell(
            deployment.scaled_seconds(timing.real_seconds),
            deployment.scaled_seconds(timing.user_seconds),
        )
    return deployment.label(), cells


def experiment_table67(dataset, mode, machine=MACHINE_B, grid=SYSTEM_GRID,
                       jobs=None):
    """Tables 6 (cold) / 7 (hot): every system x every query.

    One scheduler cell per system configuration — each deploys its own
    engine, so cells are independent and run in parallel with ``jobs``
    workers, merging into the same table a serial run produces.
    """
    from repro.bench.scheduler import map_cells, scheduler_meta

    if mode not in ("cold", "hot"):
        raise BenchmarkError(f"mode must be cold or hot, not {mode!r}")
    values, outcomes = map_cells(
        _table67_cell, [(config, mode, machine) for config in grid],
        dataset=dataset, jobs=jobs,
        labels=["-".join(config) for config in grid],
    )
    rows = []
    measured = {}
    for config, (label, cells) in zip(grid, values):
        summary = summarize(cells)
        measured[config] = (cells, summary)
        for clock in ("real", "user"):
            row = [label, clock]
            for query in ALL_QUERY_NAMES:
                cell = cells.get(query)
                row.append(
                    None if cell is None else round(getattr(cell, clock), 2)
                )
            g = summary[f"G_{clock}"]
            gstar = summary[f"Gstar_{clock}"]
            ratio = summary[f"ratio_{clock}"]
            row.extend(
                [
                    None if g is None else round(g, 2),
                    None if gstar is None else round(gstar, 2),
                    None if ratio is None else round(ratio, 2),
                ]
            )
            rows.append(row)
    table_number = 6 if mode == "cold" else 7
    return ExperimentResult(
        name=f"table{table_number}",
        title=f"Table {table_number}: Experimental results for {mode} runs "
              "(scaled seconds)",
        headers=["system", "time"] + list(ALL_QUERY_NAMES)
        + ["G", "G*", "G*/G"],
        rows=rows,
        meta=scheduler_meta(outcomes, jobs),
        measured=measured,
    )


def experiment_table6(dataset, machine=MACHINE_B, grid=SYSTEM_GRID,
                      jobs=None):
    return experiment_table67(
        dataset, "cold", machine=machine, grid=grid, jobs=jobs
    )


def experiment_table7(dataset, machine=MACHINE_B, grid=SYSTEM_GRID,
                      jobs=None):
    return experiment_table67(
        dataset, "hot", machine=machine, grid=grid, jobs=jobs
    )


# ---------------------------------------------------------------------------
# Figure 6 — time vs number of properties considered (28 .. 222)
# ---------------------------------------------------------------------------

def _figure6_aux_catalogs(triple, property_counts):
    """The auxiliary ``properties_<k>`` filter tables, created idempotently.

    Every sweep point's table is created up front, in sweep order, before
    any query runs — the simulated disk lays segments out back-to-back, so
    a fixed creation order keeps the layout (and with it the sequential-
    seek accounting) identical no matter which sweep point a cell measures.
    The ``has_table`` guard makes repeated calls on the same engine no-ops
    instead of leaking duplicate tables across runs.
    """
    catalogs = {}
    all_properties = triple.catalog.all_properties
    for k in property_counts:
        names = all_properties[:k]
        if k == len(all_properties):
            catalogs[k] = (triple.catalog, "all")
            continue
        table_name = f"properties_{k}"
        if not triple.engine.has_table(table_name):
            oids = np.asarray(
                [triple.catalog.dictionary.lookup(p) for p in names],
                dtype=np.int64,
            )
            triple.engine.create_table(
                table_name, {"prop": oids}, sort_by=["prop"]
            )
        catalogs[k] = (
            triple.catalog.with_properties(table_name, names),
            "interesting",
        )
    return catalogs


def _figure6_cell(dataset, k, queries, property_counts, machine, mode):
    """One Figure 6 sweep point: all queries at property scope *k*.

    The cell deploys its own pair of engines, so parallel sweep points
    never share mutable state — the fix for the aux-table leak the shared-
    engine version had.
    """
    triple = deploy(dataset, "MonetDB", "triple", "PSO", machine=machine)
    vert = deploy(dataset, "MonetDB", "vert", machine=machine)
    catalogs = _figure6_aux_catalogs(triple, property_counts)
    names = triple.catalog.all_properties[:k]
    catalog_k, scope = catalogs[k]
    from repro.queries import build_query

    out = {}
    for query in queries:
        plan = build_query(catalog_k, query, scope=scope)
        _, timing = triple.engine.run(plan, mode=mode)
        triple_s = round(triple.scaled_seconds(timing.real_seconds), 2)
        triple_bytes = int(timing.bytes_read)
        _, timing = vert.run(query, mode, scope=names)
        vert_s = round(vert.scaled_seconds(timing.real_seconds), 2)
        vert_bytes = int(timing.bytes_read)
        out[query] = (triple_s, vert_s, triple_bytes, vert_bytes)
    storage = {
        "triple": _deployment_storage(triple),
        "vert": _deployment_storage(vert),
    }
    return out, storage


def experiment_figure6(dataset, queries=("q2", "q3", "q4", "q6"),
                       property_counts=(28, 56, 84, 112, 140, 168, 196, 222),
                       machine=MACHINE_B, mode="cold", jobs=None):
    """Figure 6: MonetDB, triple-PSO vs vertical, growing property scope."""
    from repro.bench.scheduler import map_cells, scheduler_meta

    property_counts = [
        k for k in property_counts if k <= len(dataset.properties)
    ]
    values, outcomes = map_cells(
        _figure6_cell,
        [
            (k, tuple(queries), tuple(property_counts), machine, mode)
            for k in property_counts
        ],
        dataset=dataset, jobs=jobs,
        labels=[f"figure6:k={k}" for k in property_counts],
    )
    per_point = dict(zip(property_counts, [v[0] for v in values]))
    # Every sweep point deploys the same full dataset (only the property
    # filter changes), so any point's footprint describes the whole figure.
    point_storage = values[0][1] if values else {}
    meta = scheduler_meta(outcomes, jobs)
    results = []
    for query in queries:
        series = {
            "triple": [per_point[k][query][0] for k in property_counts],
            "vert": [per_point[k][query][1] for k in property_counts],
        }
        storage = {
            label: dict(
                point_storage.get(label, {}),
                bytes_scanned=[
                    per_point[k][query][2 + offset] for k in property_counts
                ],
            )
            for offset, label in enumerate(("triple", "vert"))
        }
        results.append(
            ExperimentResult(
                name=f"figure6_{query}",
                title=f"Figure 6: {query} execution time vs number of "
                      "properties (MonetDB, scaled seconds)",
                headers=[],
                rows=[],
                series=series,
                x_values=list(property_counts),
                x_label="#properties",
                meta=meta,
                storage=storage,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Figure 7 — scale-up by property splitting (222 .. 1000)
# ---------------------------------------------------------------------------

#: Figure 7 splits only down to sub-properties that still carry triples;
#: the frequent head properties can absorb many splits while the long tail
#: saturates quickly (a 5-triple property cannot produce 10 non-empty
#: sub-properties).
_FIGURE7_MAX_SUBPROPERTIES = 50


def _figure7_split(dataset, target, base_count, seed):
    """The dataset one Figure 7 sweep point deploys: *dataset* itself at
    its own property count, otherwise its properties split to *target*
    (same triple count, so the same scale factor) with as many interesting
    properties as *dataset*, its own most frequent ones."""
    if target == base_count:
        return dataset
    triples, _ = split_properties(
        dataset.triples, target, seed=seed, protected=WELL_KNOWN_PROPERTIES,
        max_subproperties=_FIGURE7_MAX_SUBPROPERTIES,
    )
    counts = frequency_table(triples, "p")
    ranked = sorted(counts, key=lambda prop: (-counts[prop], prop))
    return SimpleNamespace(
        triples=triples,
        interesting_properties=ranked[:len(dataset.interesting_properties)],
    )


def _figure7_cell(dataset, target, base_count, queries, machine, mode, seed):
    """One Figure 7 sweep point: both schemes, all starred queries."""
    split = _figure7_split(dataset, target, base_count, seed)
    triple = deploy(split, "MonetDB", "triple", "PSO", machine=machine)
    vert = deploy(split, "MonetDB", "vert", machine=machine)
    out = {}
    scanned = {}
    for query in queries:
        for deployment, label in ((vert, "vert"), (triple, "triple")):
            _, timing = deployment.run(query, mode)
            out[f"{query} {label}"] = round(
                deployment.scaled_seconds(timing.real_seconds), 2
            )
            scanned[f"{query} {label}"] = int(timing.bytes_read)
    storage = {
        "triple": _deployment_storage(triple),
        "vert": _deployment_storage(vert),
        "bytes_scanned": scanned,
    }
    return out, storage


def experiment_figure7(dataset, queries=("q2*", "q3*", "q4*", "q6*"),
                       property_counts=(222, 400, 600, 800, 1000),
                       machine=MACHINE_B, mode="cold", seed=0, jobs=None):
    """Figure 7: splitting properties, triple vs vertical on MonetDB."""
    from repro.bench.scheduler import map_cells, scheduler_meta

    base_count = len({t.p for t in dataset.triples})
    x_values = [t for t in property_counts if t >= base_count]
    values, outcomes = map_cells(
        _figure7_cell,
        [
            (target, base_count, tuple(queries), machine, mode, seed)
            for target in x_values
        ],
        dataset=dataset, jobs=jobs,
        labels=[f"figure7:p={target}" for target in x_values],
    )
    timings = [v[0] for v in values]
    per_point_storage = [v[1] for v in values]
    series = {}
    for query in queries:
        for label in ("vert", "triple"):
            series[f"{query} {label}"] = [
                point[f"{query} {label}"] for point in timings
            ]
    # Splitting changes the physical design per sweep point, so footprint
    # and bytes-scanned are series parallel to x_values.
    storage = {
        label: {
            "storage_bytes": [
                p[label]["storage_bytes"] for p in per_point_storage
            ],
            "compression_mode": (
                per_point_storage[0][label]["compression_mode"]
                if per_point_storage else None
            ),
            "compression_ratio": [
                p[label]["compression_ratio"] for p in per_point_storage
            ],
        }
        for label in ("triple", "vert")
    }
    storage["bytes_scanned"] = {
        key: [p["bytes_scanned"][key] for p in per_point_storage]
        for key in (per_point_storage[0]["bytes_scanned"]
                    if per_point_storage else ())
    }
    return ExperimentResult(
        name="figure7",
        title="Figure 7: Scalability experiment — splitting properties "
              "(MonetDB, scaled seconds)",
        headers=[],
        rows=[],
        series=series,
        x_values=x_values,
        x_label="#properties",
        meta=scheduler_meta(outcomes, jobs),
        storage=storage,
    )


# ---------------------------------------------------------------------------
# Compression sweep — footprint and scan speed, raw vs compressed
# ---------------------------------------------------------------------------

def experiment_compression(dataset, machine=MACHINE_B):
    """Compression sweep: storage footprint and scan-heavy query cost of the
    MonetDB-like engine, raw vs physically compressed.

    Not a paper figure — the paper's compression discussion (Section 4.2)
    reports footprints only.  This sweep adds the operate-on-compressed
    execution angle: a run-length-friendly scan query per scheme (a
    property-count aggregation over the PSO triples table, which lowers to
    the ``compressed-group`` kernel, and the q1 scan+select over the
    vertical scheme, which run-skips its property selects).
    """
    from repro.queries import build_query
    from repro.sql.planner import plan_sql

    rows = []
    storage = {}
    for scheme, config in (
        ("triple", ("MonetDB", "triple", "PSO")),
        ("vert", ("MonetDB", "vert", "SO")),
    ):
        for label, compression in (("raw", False), ("compressed", "physical")):
            deployment = deploy(
                dataset, *config, machine=machine, compression=compression
            )
            catalog = deployment.catalog
            if scheme == "triple":
                query_name = "prop-count"
                plan = plan_sql(
                    f"SELECT prop, COUNT(*) AS n FROM "
                    f"{catalog.triples_table} GROUP BY prop",
                    catalog,
                )
            else:
                query_name = "q1"
                plan = build_query(catalog, query_name)
            _, timing = deployment.engine.run(plan, mode="cold")
            info = _deployment_storage(deployment)
            bytes_scanned = int(timing.bytes_read)
            rows.append([
                scheme,
                label,
                info["storage_bytes"],
                info["compression_ratio"],
                query_name,
                round(deployment.scaled_seconds(timing.real_seconds), 4),
                round(bytes_scanned / (1024 * 1024), 3),
            ])
            storage[f"{scheme}/{label}"] = dict(
                info, bytes_scanned=bytes_scanned
            )
    return ExperimentResult(
        name="compression",
        title="Compression sweep: footprint and scan cost, raw vs "
              "compressed (MonetDB, scaled seconds)",
        headers=["scheme", "config", "storage bytes", "ratio", "query",
                 "cold real (s)", "MB read"],
        rows=rows,
        storage=storage,
    )


# ---------------------------------------------------------------------------
# Scaling sweep — morsel-driven parallelism, wall-clock vs workers
# ---------------------------------------------------------------------------

def experiment_scaling(dataset, queries=("q2", "q3", "q4", "q6"),
                       worker_counts=(1, 2, 4), machine=MACHINE_B,
                       mode="cold"):
    """Scaling sweep: wall-clock effect of morsel-driven parallelism.

    Not a paper figure — the paper's engines are single-threaded.  The
    sweep runs the starred scan-heavy queries on the MonetDB-like engine
    at increasing intra-query degrees of parallelism.  Simulated timings
    are the *same number* at every worker count (the parallel runtime is
    deterministic by construction), so the rendered table carries one
    simulated column per query and the sweep's actual payload — wall-clock
    milliseconds per degree of parallelism plus the morsel counters —
    rides in ``meta``.  A worker count whose simulated timing deviates
    from the serial baseline fails the experiment outright.
    """
    import time

    worker_counts = sorted({int(w) for w in worker_counts})
    if not worker_counts:
        raise BenchmarkError("scaling sweep needs at least one worker count")
    baseline = {}
    rows = []
    wall_ms = {}
    counters = {}
    for workers in worker_counts:
        process_counters.reset("parallel")
        vert = deploy(
            dataset, "MonetDB", "vert", machine=machine, workers=workers
        )
        triple = deploy(
            dataset, "MonetDB", "triple", "PSO", machine=machine,
            workers=workers,
        )
        wall = {}
        for query in queries:
            for deployment, label in ((vert, "vert"), (triple, "triple")):
                started = time.perf_counter()
                _, timing = deployment.run(query, mode)
                wall[f"{query} {label}"] = round(
                    (time.perf_counter() - started) * 1000.0, 3
                )
                simulated = round(
                    deployment.scaled_seconds(timing.real_seconds), 4
                )
                key = f"{query} {label}"
                if workers == worker_counts[0]:
                    baseline[key] = simulated
                    rows.append([label, query, simulated])
                elif simulated != baseline[key]:
                    raise BenchmarkError(
                        f"parallel run diverged from the serial baseline: "
                        f"{key} at workers={workers} simulated {simulated}s "
                        f"vs {baseline[key]}s"
                    )
        wall_ms[str(workers)] = wall
        counters[str(workers)] = process_counters.snapshot("parallel")
    return ExperimentResult(
        name="scaling",
        title="Scaling sweep: morsel-driven parallelism (MonetDB, "
              "simulated scaled seconds — identical at every worker count)",
        headers=["scheme", "query", f"{mode} real (s)"],
        rows=rows,
        notes=[
            "simulated timings are invariant across worker counts by "
            "construction; wall-clock per degree of parallelism rides in "
            "the JSON twin's meta"
        ],
        meta={
            "worker_counts": worker_counts,
            "wall_clock_ms": wall_ms,
            "parallel_counters": counters,
        },
    )
