"""PIMDB-style database layout on bulk-bitwise PIM scopes.

Records live one per crossbar row; fields are bit-sliced across columns
(so a filter is a column-parallel comparison over all records at once,
writing a one-bit-per-record *result bitmap* into a result column).  A
database spans multiple scopes -- each scope holds up to
``records_per_scope`` records (Table II: 32 K) and PIM ops to different
scopes are independent, so the same filter instruction is issued once per
scope (Section III).

Byte-address layout of a scope (what host loads/stores see):

* ``[0, records * record_stride)`` -- record data, row-major, so reading a
  record's field is a couple of loads with ordinary spatial locality.
* the top of the scope holds the result bitmaps, one compact region per
  result slot.  This mirrors the paper's observation (Section IV-B) that
  PIM results occupy a *regular, non-contiguous* (across scopes) address
  range that clusters in a small subset of cache sets -- all scopes place
  their bitmaps at the same scope-relative offsets, and scope size is a
  multiple of the LLC's set stride.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scope import Scope
from repro.pim.crossbar import Crossbar
from repro.pim.isa import PimInstruction, ScopeLayout
from repro.pim.logic import MicroProgram
from repro.pim.schema import FieldSpec, RecordSchema  # noqa: F401


class ScopeDatabase:
    """The records of one scope, stored on its crossbar group.

    Functionally, the whole scope is modelled as a single logical crossbar
    (the physical scope is many arrays operating in lock-step under shared
    control logic -- Section II-A -- so one array image with one cycle
    count is faithful).
    """

    def __init__(self, scope: Scope, schema: RecordSchema, capacity: int,
                 result_slots: int = 4) -> None:
        self.scope = scope
        self.schema = schema
        self.capacity = capacity
        self.layout = ScopeLayout(schema, result_slots=result_slots)
        self.xbar = Crossbar(rows=capacity, cols=self.layout.total_cols)
        self.count = 0
        self._program_cache: Dict[PimInstruction, MicroProgram] = {}

    # ---------------------------------------------------------------- #
    # record access (host loads/stores)
    # ---------------------------------------------------------------- #

    def insert(self, key: int, values: Dict[str, int]) -> int:
        """Insert a record; returns its row index."""
        if self.count >= self.capacity:
            raise RuntimeError(f"scope {self.scope.scope_id} is full")
        row = self.count
        self.write_record(row, key, values)
        self.count = row + 1
        return row

    def write_record(self, row: int, key: int, values: Dict[str, int]) -> None:
        self.xbar.write_row_bits(row, self.layout.field_cols(RecordSchema.KEY), key)
        for spec in self.schema.fields:
            value = values.get(spec.name, 0)
            self.xbar.write_row_bits(row, self.layout.field_cols(spec.name), value)
        self.xbar.write_bit(row, self.layout.valid_col, True)

    def read_field(self, row: int, name: str) -> int:
        return self.xbar.read_row_bits(row, self.layout.field_cols(name))

    def is_valid(self, row: int) -> bool:
        return self.xbar.read_bit(row, self.layout.valid_col)

    # ---------------------------------------------------------------- #
    # PIM execution
    # ---------------------------------------------------------------- #

    def execute(self, instr: PimInstruction) -> Tuple[np.ndarray, int]:
        """Run one PIM op on this scope.

        Returns ``(result_bitmap, array_cycles)``.  Compiled microcode is
        cached per instruction -- the shared control logic stores the
        sequence once and replays it (Section II-A).
        """
        program = self._program_cache.get(instr)
        if program is None:
            program = instr.compile(self.layout)
            self._program_cache[instr] = program
        bitmap = program.run(self.xbar)
        return bitmap, program.cycles

    def result_bitmap(self, slot: int) -> np.ndarray:
        return self.xbar.read_column(self.layout.result_col(slot))

    # ---------------------------------------------------------------- #
    # byte-address layout (used by the timing workloads)
    # ---------------------------------------------------------------- #

    def record_address(self, row: int, field: Optional[str] = None) -> int:
        """Host byte address of a record (or one of its fields)."""
        addr = self.scope.base + row * self.schema.record_stride()
        if field is not None:
            addr += self.schema.field_byte_offset(field)
        return addr

    def bitmap_region(self, slot: int) -> Tuple[int, int]:
        """``(base, size_bytes)`` of a result slot's bitmap in the scope."""
        bitmap_bytes = (self.capacity + 7) // 8
        region = self.scope.limit - (slot + 1) * _round_up(bitmap_bytes, 64)
        if region < self.scope.base:
            raise ValueError("scope too small for result bitmaps")
        return region, bitmap_bytes

    def bitmap_line_addresses(self, slot: int, line_bytes: int = 64) -> List[int]:
        """Cache-line addresses covering a result bitmap (the host's reads)."""
        base, size = self.bitmap_region(slot)
        return [base + off for off in range(0, _round_up(size, line_bytes), line_bytes)]


def _round_up(value: int, quantum: int) -> int:
    return (value + quantum - 1) // quantum * quantum


class PimDatabase:
    """A relation spread over many scopes (records round-robin by row).

    Round-robin placement means any key range's matches spread evenly
    across scopes, matching the paper's "records are randomly distributed
    in the database, making the scan result evenly distributed across the
    scopes" (Section VI-B).
    """

    def __init__(self, scopes: Sequence[Scope], schema: RecordSchema,
                 records_per_scope: int) -> None:
        if not scopes:
            raise ValueError("need at least one scope")
        self.schema = schema
        self.records_per_scope = records_per_scope
        self.shards: List[ScopeDatabase] = [
            ScopeDatabase(s, schema, records_per_scope) for s in scopes
        ]

    @property
    def num_scopes(self) -> int:
        return len(self.shards)

    @property
    def capacity(self) -> int:
        return self.num_scopes * self.records_per_scope

    @property
    def count(self) -> int:
        return sum(s.count for s in self.shards)

    def shard_of(self, global_row: int) -> Tuple[ScopeDatabase, int]:
        """Map a global row id to ``(shard, local_row)`` (round-robin)."""
        return self.shards[global_row % self.num_scopes], global_row // self.num_scopes

    def insert(self, key: int, values: Dict[str, int]) -> int:
        """Insert at the next global row; returns the global row id."""
        row = self.count
        shard, local = self.shard_of(row)
        if local != shard.count:
            raise RuntimeError("round-robin insert order violated")
        shard.insert(key, values)
        return row

    def scan(self, instr: PimInstruction) -> Tuple[List[np.ndarray], int]:
        """Issue the same PIM op to every scope (Section III).

        Returns per-scope bitmaps and the *per-scope* array cycle count
        (scopes execute in parallel in the timing model; functionally we
        run them in sequence).
        """
        bitmaps = []
        cycles = 0
        for shard in self.shards:
            bitmap, cycles = shard.execute(instr)
            bitmaps.append(bitmap)
        return bitmaps, cycles

    def matching_rows(self, bitmaps: Sequence[np.ndarray]) -> List[int]:
        """Global row ids set in the per-scope bitmaps."""
        rows = []
        for sid, bitmap in enumerate(bitmaps):
            for local in np.flatnonzero(bitmap):
                rows.append(int(local) * self.num_scopes + sid)
        return sorted(rows)
