"""The YCSB short-range-scan workload (Table III).

1000 operations, 95% scans / 5% record insertions, in a random (seeded)
order.  A scan selects records whose key falls in a short range -- base
record Zipfian-distributed, result count uniform in [1, 100] -- and
extracts one 10-byte field from each found record.  Scans run on the PIM:

1. the database's scopes are divided evenly among the worker threads,
2. each thread issues PIM ops performing the scan on each of its scopes,
3. each thread reads the scan result bitmap and the matching records'
   fields from its scopes with ordinary loads.

Insertions are standard stores (Section VI-B).  Keys are assigned
sequentially at insertion and records are placed round-robin across
scopes, so any key range's matches spread evenly over the scopes -- the
paper's "records are randomly distributed" property.

The compiled programs carry stale-read expectations on every result-bitmap
load, so a run doubles as a correctness check of the consistency model.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.api.registry import register_workload
from repro.pim.latency import PimLatencyModel, scan_op_latency
from repro.pim.schema import RecordSchema
from repro.system.builder import System
from repro.workloads.base import (
    DatabaseLayout,
    ProgramEmitter,
    Workload,
    partition_scopes,
    scaled_pim_latency,
)
from repro.workloads.zipf import ZipfianGenerator


@dataclass(frozen=True)
class YcsbParams:
    """Table III parameters (paper values as defaults)."""

    num_records: int
    num_ops: int = 1000
    scan_fraction: float = 0.95
    num_fields: int = 5
    field_bytes: int = 10
    max_scan_records: int = 100
    threads: int = 4
    #: PIM ops per scope per scan.  The fine-grained ISA needs several ops
    #: for a range filter (>=, <, AND, plus result housekeeping); their
    #: temporal locality is what the scope buffer exploits (Section IV-A).
    pim_ops_per_scan: int = 4
    #: Zipfian skew (YCSB's theta) of the scan base-record distribution;
    #: sweep it to move between near-uniform (0.0+) and heavily skewed
    #: (towards 1.0) access patterns.
    zipf_theta: float = ZipfianGenerator.ZIPFIAN_CONSTANT
    seed: int = 7
    #: Inter-operation client think time, host cycles.
    think_cycles: int = 20
    #: Synchronize all threads after every operation.  The paper's threads
    #: work through their scope shares asynchronously (each thread issues
    #: PIM ops and reads results for its own scopes, Section VI-B), which
    #: is what lets operations pipeline through the PIM module; per-op
    #: barriers are only useful for debugging.
    sync_per_op: bool = False


@register_workload
class YcsbWorkload(Workload):
    """Compiles the YCSB operation stream for a given system/model."""

    name = "ycsb"

    def __init__(self, params: YcsbParams) -> None:
        self.spec = params
        self.schema = RecordSchema.ycsb(params.num_fields, params.field_bytes)
        self._operations: Optional[List[Tuple]] = None

    @property
    def params(self) -> Dict[str, object]:
        return asdict(self.spec)

    @classmethod
    def from_params(cls, **params) -> "YcsbWorkload":
        return cls(YcsbParams(**params))

    # ------------------------------------------------------------------ #
    # deterministic operation stream (shared by every model's compile)
    # ------------------------------------------------------------------ #

    def operations(self) -> List[Tuple]:
        """The seeded operation trace: ('scan', lo, hi) | ('insert', row)."""
        if self._operations is not None:
            return self._operations
        p = self.spec
        rng = random.Random(p.seed)
        zipf = ZipfianGenerator(p.num_records, theta=p.zipf_theta,
                                seed=p.seed + 1)
        ops: List[Tuple] = []
        record_count = p.num_records
        for _ in range(p.num_ops):
            if rng.random() < p.scan_fraction:
                base = zipf.next()
                length = rng.randint(1, p.max_scan_records)
                ops.append(("scan", base, min(base + length, record_count)))
            else:
                ops.append(("insert", record_count))
                record_count += 1
        self._operations = ops
        return ops

    def required_scopes(self, records_per_scope: int) -> int:
        """Scopes needed to hold the initial records plus inserts."""
        p = self.spec
        inserts = sum(1 for op in self.operations() if op[0] == "insert")
        return -(-(p.num_records + inserts) // records_per_scope)

    # ------------------------------------------------------------------ #
    # compilation
    # ------------------------------------------------------------------ #

    def pim_op_latency(self, latency_model: Optional[PimLatencyModel] = None) -> int:
        """Host-cycle latency of one scan PIM op, from real microcode.

        The scan predicate compiles (once) against this schema's layout;
        its MAGIC cycle count drives the timing model, keeping the
        functional and timing layers consistent.
        """
        return scan_op_latency(self.schema, latency_model)

    def compile(self, system: System):
        p = self.spec
        layout = DatabaseLayout(
            system.scope_map, self.schema, system.config.records_per_scope
        )
        if layout.capacity < p.num_records:
            raise ValueError(
                f"{p.num_records} records need "
                f"{self.required_scopes(system.config.records_per_scope)} scopes; "
                f"system has {layout.num_scopes}"
            )
        layout.register_result_lines(system)
        system.pim_op_latency_override = scaled_pim_latency(
            self.pim_op_latency(), system
        )

        rng = random.Random(p.seed + 2)
        counts: Dict[int, int] = {}
        scope_sets = partition_scopes(layout.num_scopes, p.threads)
        emitters = [
            ProgramEmitter(system, f"ycsb.t{t}", counts) for t in range(p.threads)
        ]
        # Software-known cached lines per scope that must be clflushed
        # before the next PIM op under SW-Flush: the result bitmap (the
        # PIM op rewrites it) and any lines inserts dirtied.
        pending_insert_lines: Dict[int, List[int]] = {}
        field_names = [f.name for f in self.schema.fields]

        # Open loop: every workload operation becomes one request per
        # thread (shard-level admission -- a client op fans out to all
        # shards, so request indices stay aligned with the shared
        # arrival stream; an insert is an empty request on non-owner
        # shards).  The client think time is replaced by the arrival
        # gate; the closed-loop emission below is byte-identical to the
        # pre-traffic compiler.
        open_loop = emitters[0].open_loop if emitters else False

        for op in self.operations():
            if op[0] == "scan":
                _, lo, hi = op
                matches = range(lo, hi)
                for t, em in enumerate(emitters):
                    if open_loop:
                        em.begin_request()
                    else:
                        em.compute(p.think_cycles)
                    for sid in scope_sets[t]:
                        flush_lines = layout.bitmap_lines(sid)
                        flush_lines += pending_insert_lines.pop(sid, [])
                        em.pim_group(sid, p.pim_ops_per_scan, flush_lines)
                field = rng.choice(field_names)
                for t, em in enumerate(emitters):
                    my_scopes = set(scope_sets[t])
                    for sid in scope_sets[t]:
                        em.read_result_bitmap(layout, sid)
                    for row in matches:
                        if layout.shard_of(row) in my_scopes:
                            em.read_record_field(layout, row, field)
                    if open_loop:
                        em.end_request()
                    if p.sync_per_op:
                        em.barrier()
            else:
                _, row = op
                sid = layout.shard_of(row)
                owner = next(
                    t for t, scopes in enumerate(scope_sets) if sid in scopes
                )
                for t, em in enumerate(emitters):
                    if open_loop:
                        em.begin_request()
                    if t == owner:
                        if not open_loop:
                            em.compute(p.think_cycles)
                        lines = em.insert_record(layout, row)
                        pending_insert_lines.setdefault(sid, []).extend(lines)
                    if open_loop:
                        em.end_request()
                    if p.sync_per_op:
                        em.barrier()
        for em in emitters:
            em.barrier()  # join: run time is the slowest thread's finish
        return [em.program for em in emitters]
