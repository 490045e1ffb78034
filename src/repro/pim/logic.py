"""Microcode synthesis: complex logic from MAGIC INIT/NOR primitives.

Complex PIM operations (equality, range comparison, addition) are sequences
of basic array operations generated by control logic next to the arrays
(Section II-A).  This module is that control logic's "compiler": it builds
:class:`MicroProgram` objects -- lists of INIT/NOR micro-ops over scratch
columns -- from boolean-algebra building blocks, with constants folded at
compile time (comparing against a constant needs no constant columns:
``XNOR(a, 1) = a`` and ``XNOR(a, 0) = NOT a``).

The micro-program length is the PIM op's execution time in array cycles;
the timing layer (:mod:`repro.pim.latency`) uses exactly these lengths, so
the performance model and the functional model cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.pim.crossbar import Crossbar

INIT = "init"
NOR = "nor"


@dataclass(frozen=True)
class MicroOp:
    """One array-level operation: ``init`` or ``nor``.

    ``args`` is ``(col, value)`` for INIT and ``(inputs_tuple, out)`` for
    NOR.
    """

    op: str
    args: Tuple

    def run(self, xbar: Crossbar) -> None:
        if self.op == INIT:
            col, value = self.args
            xbar.init_column(col, value)
        elif self.op == NOR:
            inputs, out = self.args
            xbar.nor_columns(inputs, out)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown micro-op {self.op!r}")


class MicroProgram:
    """An executable sequence of micro-ops with its result column.

    ``aux_cols`` names additional output columns for multi-column results
    (e.g. the sum vector of ``ADD_FIELDS``).
    """

    def __init__(self, ops: List[MicroOp], result_col: int,
                 aux_cols: Tuple[int, ...] = ()) -> None:
        self.ops = ops
        self.result_col = result_col
        self.aux_cols = aux_cols

    @property
    def cycles(self) -> int:
        """Array cycles to execute (one per micro-op)."""
        return len(self.ops)

    def run(self, xbar: Crossbar):
        """Execute on a crossbar; returns the result column's bits."""
        for op in self.ops:
            op.run(xbar)
        return xbar.read_column(self.result_col)

    def touched_columns(self) -> set:
        """All columns this program writes (the op's implicit footprint).

        The paper stresses that complex PIM ops "may implicitly change
        more cells than just the designated output cells"; this is that
        set, used by tests to verify ops stay inside their scope.
        """
        cols = set()
        for op in self.ops:
            if op.op == INIT:
                cols.add(op.args[0])
            else:
                cols.add(op.args[1])
        return cols


class ColumnAllocator:
    """Allocates scratch columns for intermediate values.

    MAGIC intermediates live in real cells; the allocator hands out
    columns from the scratch region and supports bulk release so one
    compiled operation can recycle another's scratch space.
    """

    def __init__(self, first: int, limit: int) -> None:
        if limit <= first:
            raise ValueError("empty scratch region")
        self.first = first
        self.limit = limit
        self._next = first

    def alloc(self) -> int:
        if self._next >= self.limit:
            raise RuntimeError(
                f"out of scratch columns (region [{self.first}, {self.limit}))"
            )
        col = self._next
        self._next += 1
        return col

    def mark(self) -> int:
        """Checkpoint for :meth:`release_to`."""
        return self._next

    def release_to(self, mark: int) -> None:
        self._next = mark

    @property
    def in_use(self) -> int:
        return self._next - self.first


class LogicBuilder:
    """Accumulates micro-ops while synthesizing boolean expressions.

    Every helper returns the column holding its result.  Terms follow the
    convention: a *term* is ``(col, negated)`` -- a column index plus
    whether the consumer wants its complement; ``resolve`` materializes
    the complement only when actually needed.
    """

    def __init__(self, alloc: ColumnAllocator) -> None:
        self.alloc = alloc
        self.ops: List[MicroOp] = []

    # -- primitive emission ------------------------------------------- #

    def emit_init(self, col: int, value: bool = True) -> None:
        self.ops.append(MicroOp(INIT, (col, value)))

    def emit_nor(self, inputs: Sequence[int], out: int) -> None:
        self.ops.append(MicroOp(NOR, (tuple(inputs), out)))

    def fresh(self) -> int:
        """A scratch column initialized for use as a NOR output."""
        col = self.alloc.alloc()
        self.emit_init(col, True)
        return col

    # -- gates ---------------------------------------------------------- #

    def nor(self, inputs: Sequence[int]) -> int:
        out = self.fresh()
        self.emit_nor(inputs, out)
        return out

    def not_(self, a: int) -> int:
        return self.nor([a])

    def or_(self, inputs: Sequence[int]) -> int:
        return self.not_(self.nor(inputs))

    def and_(self, inputs: Sequence[int]) -> int:
        inverted = [self.not_(a) for a in inputs]
        return self.nor(inverted)

    def xor(self, a: int, b: int) -> int:
        # XOR(a,b) = NOR(NOR(a,b), AND(a,b)); AND via NOR of complements.
        nor_ab = self.nor([a, b])
        and_ab = self.nor([self.not_(a), self.not_(b)])
        return self.nor([nor_ab, and_ab])

    def xnor(self, a: int, b: int) -> int:
        return self.not_(self.xor(a, b))

    def const(self, value: bool) -> int:
        """A column holding a compile-time constant in every row."""
        col = self.alloc.alloc()
        self.emit_init(col, value)
        return col

    # -- multi-bit comparators against compile-time constants ----------- #

    def eq_const(self, bits: Sequence[int], constant: int) -> int:
        """1 iff the little-endian columns ``bits`` equal ``constant``."""
        terms = []
        for i, col in enumerate(bits):
            if (constant >> i) & 1:
                terms.append(col)  # XNOR(a,1) = a
            else:
                terms.append(self.not_(col))  # XNOR(a,0) = NOT a
        return self.and_(terms)

    def lt_const(self, bits: Sequence[int], constant: int) -> int:
        """1 iff the unsigned value in ``bits`` is < ``constant``.

        MSB-first expansion: a < c iff for some bit i with c_i = 1 and
        a_i = 0, all higher bits are equal.
        """
        n = len(bits)
        if constant <= 0:
            return self.const(False)
        if constant >= (1 << n):
            return self.const(True)
        disjuncts: List[int] = []
        prefix_eq: Optional[int] = None  # AND of eq over bits above i
        for i in range(n - 1, -1, -1):
            col = bits[i]
            c_bit = (constant >> i) & 1
            if c_bit:
                lt_here = self.not_(col)
                if prefix_eq is None:
                    disjuncts.append(lt_here)
                else:
                    disjuncts.append(self.and_([lt_here, prefix_eq]))
            # extend the prefix-equality chain with this bit
            eq_here = col if c_bit else self.not_(col)
            if prefix_eq is None:
                prefix_eq = eq_here
            else:
                prefix_eq = self.and_([prefix_eq, eq_here])
        if not disjuncts:  # pragma: no cover - constant==0 handled above
            return self.const(False)
        if len(disjuncts) == 1:
            return disjuncts[0]
        return self.or_(disjuncts)

    def ge_const(self, bits: Sequence[int], constant: int) -> int:
        """1 iff the unsigned value in ``bits`` is >= ``constant``."""
        return self.not_(self.lt_const(bits, constant))

    def range_const(self, bits: Sequence[int], lo: int, hi: int) -> int:
        """1 iff ``lo <= value < hi`` (the short-range-scan predicate)."""
        if hi <= lo:
            return self.const(False)
        return self.and_([self.ge_const(bits, lo), self.lt_const(bits, hi)])

    # -- arithmetic ------------------------------------------------------ #

    def full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Returns ``(sum, carry)`` columns."""
        axb = self.xor(a, b)
        s = self.xor(axb, cin)
        carry = self.or_(
            [
                self.nor([self.not_(a), self.not_(b)]),  # a AND b
                self.nor([self.not_(axb), self.not_(cin)]),  # (a^b) AND cin
            ]
        )
        return s, carry

    def add(self, a_bits: Sequence[int], b_bits: Sequence[int]) -> List[int]:
        """Ripple-carry addition of two little-endian column vectors."""
        if len(a_bits) != len(b_bits):
            raise ValueError("operand widths differ")
        carry = self.const(False)
        out: List[int] = []
        for a, b in zip(a_bits, b_bits):
            s, carry = self.full_adder(a, b, carry)
            out.append(s)
        out.append(carry)
        return out

    def copy_to(self, src: int, dest: int) -> None:
        """``dest := src`` (two NOT gates through a scratch column)."""
        inv = self.not_(src)
        self.emit_init(dest, True)
        self.emit_nor((inv,), dest)

    def program(self, result_col: int, aux_cols: Sequence[int] = ()) -> MicroProgram:
        return MicroProgram(list(self.ops), result_col, tuple(aux_cols))
