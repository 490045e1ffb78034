"""The PIM instruction set.

Bulk-bitwise PIM exposes a fine-grained instruction set (Section IV-A of
the paper: "usually bulk-bitwise PIM has fine-grained instruction sets
(e.g., AND, OR, NOT, ADD, MUL), requiring multiple PIM ops to perform a
full computation").  Each :class:`PimInstruction` targets a single scope
and compiles -- against that scope's column layout -- into a
:class:`~repro.pim.logic.MicroProgram` of MAGIC INIT/NOR steps.

The database workloads use the ``SCAN_*`` filter instructions plus the
``COMBINE_*`` bitmap ops; ``ADD_FIELDS`` exists to demonstrate arithmetic
(and to give the latency model a long-op example).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.pim.logic import ColumnAllocator, LogicBuilder, MicroProgram
from repro.pim.schema import RecordSchema


class PimOpcode(enum.Enum):
    """Opcodes; each executes within one scope."""

    SCAN_EQ = "scan_eq"  # result[slot] = (field == value)
    SCAN_LT = "scan_lt"  # result[slot] = (field < value)
    SCAN_GE = "scan_ge"  # result[slot] = (field >= value)
    SCAN_RANGE = "scan_range"  # result[slot] = (lo <= field < hi)
    COMBINE_AND = "combine_and"  # result[dst] = result[a] AND result[b]
    COMBINE_OR = "combine_or"  # result[dst] = result[a] OR result[b]
    RESULT_NOT = "result_not"  # result[dst] = NOT result[a]
    ADD_FIELDS = "add_fields"  # result region <- field_a + field_b (vector add)


@dataclass(frozen=True)
class PimInstruction:
    """One PIM op: an opcode plus compile-time operands.

    Attributes:
        opcode: what to compute.
        field_name: primary input field (scan/add ops).
        field_b: second input field (``ADD_FIELDS``).
        lo, hi: constant operands (``SCAN_RANGE`` uses both; ``SCAN_EQ``,
            ``SCAN_LT`` and ``SCAN_GE`` use ``lo``).
        slot: result-bitmap slot written.
        src_slots: input result slots (``COMBINE_*`` / ``RESULT_NOT``).
    """

    opcode: PimOpcode
    field_name: Optional[str] = None
    field_b: Optional[str] = None
    lo: int = 0
    hi: int = 0
    slot: int = 0
    src_slots: Tuple[int, ...] = field(default=())

    def compile(self, layout: "ScopeLayout") -> MicroProgram:
        """Lower to MAGIC microcode for a scope with the given layout."""
        alloc = ColumnAllocator(layout.scratch_first, layout.scratch_limit)
        b = LogicBuilder(alloc)
        result_col = layout.result_col(self.slot)
        op = self.opcode
        if op in (PimOpcode.SCAN_EQ, PimOpcode.SCAN_LT, PimOpcode.SCAN_GE,
                  PimOpcode.SCAN_RANGE):
            bits = layout.field_cols(self.field_name)
            if op is PimOpcode.SCAN_EQ:
                pred = b.eq_const(bits, self.lo)
            elif op is PimOpcode.SCAN_LT:
                pred = b.lt_const(bits, self.lo)
            elif op is PimOpcode.SCAN_GE:
                pred = b.ge_const(bits, self.lo)
            else:
                pred = b.range_const(bits, self.lo, self.hi)
            # Only valid (occupied) rows may match.
            matched = b.and_([pred, layout.valid_col])
            b.copy_to(matched, result_col)
        elif op in (PimOpcode.COMBINE_AND, PimOpcode.COMBINE_OR):
            a, c = (layout.result_col(s) for s in self.src_slots)
            combined = b.and_([a, c]) if op is PimOpcode.COMBINE_AND else b.or_([a, c])
            b.copy_to(combined, result_col)
        elif op is PimOpcode.RESULT_NOT:
            (a,) = (layout.result_col(s) for s in self.src_slots)
            b.copy_to(b.not_(a), result_col)
        elif op is PimOpcode.ADD_FIELDS:
            a_bits = layout.field_cols(self.field_name)
            b_bits = layout.field_cols(self.field_b)
            sum_bits = b.add(a_bits, b_bits)
            # The sum lands in the scratch region (reported via aux_cols);
            # the carry-out goes to the result slot so callers can detect
            # per-row overflow.
            b.copy_to(sum_bits[-1], result_col)
            return b.program(result_col, aux_cols=sum_bits[:-1])
        else:  # pragma: no cover - exhaustive over enum
            raise ValueError(f"unknown opcode {op}")
        return b.program(result_col)

    @staticmethod
    def scan_range(field_name: str, lo: int, hi: int, slot: int = 0) -> "PimInstruction":
        """The YCSB short-range-scan predicate: ``lo <= field < hi``."""
        return PimInstruction(PimOpcode.SCAN_RANGE, field_name=field_name,
                              lo=lo, hi=hi, slot=slot)

    @staticmethod
    def scan_eq(field_name: str, value: int, slot: int = 0) -> "PimInstruction":
        return PimInstruction(PimOpcode.SCAN_EQ, field_name=field_name, lo=value,
                              slot=slot)

    @staticmethod
    def scan_lt(field_name: str, value: int, slot: int = 0) -> "PimInstruction":
        return PimInstruction(PimOpcode.SCAN_LT, field_name=field_name, lo=value,
                              slot=slot)

    @staticmethod
    def scan_ge(field_name: str, value: int, slot: int = 0) -> "PimInstruction":
        return PimInstruction(PimOpcode.SCAN_GE, field_name=field_name, lo=value,
                              slot=slot)

    @staticmethod
    def combine_and(a: int, b: int, dst: int) -> "PimInstruction":
        return PimInstruction(PimOpcode.COMBINE_AND, slot=dst, src_slots=(a, b))

    @staticmethod
    def combine_or(a: int, b: int, dst: int) -> "PimInstruction":
        return PimInstruction(PimOpcode.COMBINE_OR, slot=dst, src_slots=(a, b))


class ScopeLayout:
    """Column layout of one scope's crossbar group.

    Columns, left to right: key field, data fields, valid bit, result
    slots, scratch region.  :class:`PimInstruction.compile` resolves field
    names to column ranges through this object.
    """

    def __init__(self, schema: RecordSchema, result_slots: int = 4,
                 scratch_cols: int = 0) -> None:
        if not isinstance(schema, RecordSchema):  # pragma: no cover
            raise TypeError("schema must be a RecordSchema")
        self.schema = schema
        self.result_slots = result_slots
        self._field_cols: Dict[str, range] = {}
        col = 0
        for spec in schema.all_fields():
            self._field_cols[spec.name] = range(col, col + spec.bits)
            col += spec.bits
        self.valid_col = col
        col += 1
        self._result_first = col
        col += result_slots
        self.scratch_first = col
        if scratch_cols <= 0:
            # Generous default: comparator synthesis allocates one scratch
            # column per intermediate without recycling (a real controller
            # would recycle with extra INIT steps; column count is not the
            # bottleneck we study).
            scratch_cols = 16 * schema.max_field_bits() + 64
        self.scratch_limit = col + scratch_cols

    @property
    def total_cols(self) -> int:
        return self.scratch_limit

    def field_cols(self, name: Optional[str]) -> list:
        if name is None:
            raise ValueError("instruction needs a field name")
        try:
            return list(self._field_cols[name])
        except KeyError:
            raise KeyError(f"no field {name!r} in schema") from None

    def result_col(self, slot: int) -> int:
        if not 0 <= slot < self.result_slots:
            raise ValueError(f"result slot {slot} out of range")
        return self._result_first + slot
