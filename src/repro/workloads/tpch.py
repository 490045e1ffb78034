"""TPC-H queries on bulk-bitwise PIM (Table IV, following PIMDB [25]).

Each evaluated query runs only its *PIM section*: either filtering the
involved relations (filter-only) or the whole query (full-query, when a
single relation is involved), after which the host reads the results.
Table IV gives each query's scope count; the per-query PIM-section shape
(ops per scope, op length, result volume) is synthesized from the paper's
Section VII description:

* q2, q12, q19 have "more and longer PIM ops per scope relative to other
  filter-only queries";
* q1, q6 (full-queries) have a substantially longer PIM section and fewer
  results to read;
* q14, q15, q20 have "a few PIM ops per scope and a relatively short PIM
  execution time per scope".

Queries 9, 13 and 18 have no PIM section and are not evaluated.

Each query is run ten times consecutively (Section VI-B).  Scope counts
can be scaled down (``scale``) for pure-Python sweeps; the per-thread
ratios that drive the models' relative behaviour are preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.api.registry import register_workload
from repro.pim.latency import scan_op_latency
from repro.pim.schema import FieldSpec, RecordSchema
from repro.system.builder import System
from repro.workloads.base import (
    DatabaseLayout,
    ProgramEmitter,
    Workload,
    partition_scopes,
    scaled_pim_latency,
)


@dataclass(frozen=True)
class TpchQuerySpec:
    """One query's PIM section."""

    name: str
    #: Table IV scope count.
    scopes: int
    #: "Filter only" / "Full-query" / "Full sub-query" per Table IV.
    section: str
    #: PIM ops issued per scope per run.
    pim_ops_per_scope: int
    #: Multiplier on the base PIM op latency ("longer PIM ops").
    op_latency_factor: float
    #: Fraction of each scope's result bitmap the host reads (full
    #: queries aggregate in-memory and leave little to read).
    result_read_fraction: float


def _filter(name: str, scopes: int, ops: int = 2, latency: float = 1.0,
            reads: float = 1.0) -> TpchQuerySpec:
    return TpchQuerySpec(name, scopes, "Filter only", ops, latency, reads)


def _full(name: str, scopes: int, section: str = "Full-query") -> TpchQuerySpec:
    return TpchQuerySpec(name, scopes, section, pim_ops_per_scope=12,
                         op_latency_factor=1.5, result_read_fraction=0.1)


#: Table IV: scope counts and PIM-section types of the evaluated queries.
TPCH_QUERIES: Dict[str, TpchQuerySpec] = {
    spec.name: spec
    for spec in [
        _full("q1", 1832),
        _filter("q2", 66, ops=6, latency=2.0),
        _filter("q3", 2336),
        _filter("q4", 2290),
        _filter("q5", 508),
        _full("q6", 1832),
        _filter("q7", 1882),
        _filter("q8", 566),
        _filter("q10", 2290),
        _filter("q11", 4),
        _filter("q12", 1832, ops=5, latency=2.0),
        _filter("q14", 1832, ops=1, latency=0.5),
        _filter("q15", 1832, ops=1, latency=0.5),
        _filter("q16", 62),
        _filter("q17", 62),
        _filter("q19", 1894, ops=6, latency=2.0),
        _filter("q20", 2294, ops=1, latency=0.5),
        _filter("q21", 1832),
        _full("q22", 46, section="Full sub-query"),
    ]
}


def tpch_schema() -> RecordSchema:
    """A lineitem-like schema: 32-bit key plus four 32-bit attributes."""
    fields = [FieldSpec(name, 32) for name in
              ("quantity", "price", "discount", "shipdate")]
    return RecordSchema(key_bits=32, fields=fields)


@register_workload
class TpchWorkload(Workload):
    """Compiles one TPC-H query's PIM section (x10 runs)."""

    name = "tpch"

    def __init__(self, query: str, scale: float = 1.0, runs: int = 10,
                 threads: int = 4) -> None:
        if query not in TPCH_QUERIES:
            raise KeyError(f"query {query!r} is not evaluated (Table IV)")
        self.spec = TPCH_QUERIES[query]
        self.scale = scale
        self.runs = runs
        self.threads = threads

    @property
    def params(self) -> Dict[str, object]:
        return {"query": self.spec.name, "scale": self.scale,
                "runs": self.runs, "threads": self.threads}

    def scaled_scopes(self) -> int:
        """The scope count after scaling (at least one per thread)."""
        return max(self.threads, math.ceil(self.spec.scopes * self.scale))

    def compile(self, system: System):
        spec = self.spec
        num_scopes = system.config.num_scopes
        if num_scopes < self.scaled_scopes():
            raise ValueError(
                f"{spec.name} needs {self.scaled_scopes()} scopes, "
                f"system has {num_scopes}"
            )
        schema = tpch_schema()
        layout = DatabaseLayout(
            system.scope_map, schema, system.config.records_per_scope
        )
        layout.register_result_lines(system)
        base_latency = scaled_pim_latency(scan_op_latency(schema), system)
        system.pim_op_latency_override = max(
            1, round(base_latency * spec.op_latency_factor)
        )

        counts: Dict[int, int] = {}
        scope_sets = partition_scopes(self.scaled_scopes(), self.threads)
        emitters = [
            ProgramEmitter(system, f"{spec.name}.t{t}", counts)
            for t in range(self.threads)
        ]
        for _ in range(self.runs):
            for t, em in enumerate(emitters):
                for sid in scope_sets[t]:
                    em.pim_group(sid, spec.pim_ops_per_scope,
                                 sw_flush_lines=layout.bitmap_lines(sid))
            for t, em in enumerate(emitters):
                for sid in scope_sets[t]:
                    self._read_results(em, layout, sid, spec)
        for em in emitters:
            em.barrier()  # join: run time is the slowest thread's finish
        return [em.program for em in emitters]

    def _read_results(self, em: ProgramEmitter, layout: DatabaseLayout,
                      scope_id: int, spec: TpchQuerySpec) -> None:
        lines = layout.bitmap_lines(scope_id)
        keep = max(1, round(len(lines) * spec.result_read_fraction))
        expect = em.pim_issue_counts.get(scope_id, 0)
        for line in lines[:keep]:
            em.load(line, expect_version=expect)
