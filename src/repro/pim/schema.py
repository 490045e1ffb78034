"""Record schemas: the field layout shared by the timing and functional layers.

A :class:`RecordSchema` names a key field and the data fields of one
record, each with a bit width.  Workloads size their address images from
it, and the functional crossbar database lays its bit columns out by it.
It needs only the standard library, so the timing path can use it
without loading the numpy-backed functional model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FieldSpec:
    """One record field: a name and a bit width."""

    name: str
    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise ValueError("field width must be positive")


class RecordSchema:
    """Key field plus data fields (YCSB: 5 fields x 10 B, Table III)."""

    KEY = "key"

    def __init__(self, key_bits: int = 32, fields: Optional[Sequence[FieldSpec]] = None) -> None:
        self.key = FieldSpec(self.KEY, key_bits)
        self.fields: Tuple[FieldSpec, ...] = tuple(fields or ())
        names = [self.KEY] + [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names")

    @classmethod
    def ycsb(cls, num_fields: int = 5, field_bytes: int = 10, key_bits: int = 32) -> "RecordSchema":
        """The Table III YCSB schema: 5 fields of 10 bytes each."""
        fields = [FieldSpec(f"field{i}", field_bytes * 8) for i in range(num_fields)]
        return cls(key_bits=key_bits, fields=fields)

    def all_fields(self) -> Iterable[FieldSpec]:
        yield self.key
        yield from self.fields

    def field(self, name: str) -> FieldSpec:
        for spec in self.all_fields():
            if spec.name == name:
                return spec
        raise KeyError(f"no field {name!r}")

    @property
    def record_bits(self) -> int:
        return sum(f.bits for f in self.all_fields())

    @property
    def record_bytes(self) -> int:
        return (self.record_bits + 7) // 8

    def record_stride(self) -> int:
        """Byte stride between records (padded to 8-byte alignment)."""
        return (self.record_bytes + 7) & ~7

    def field_byte_offset(self, name: str) -> int:
        """Byte offset of a field within the record's address image."""
        off_bits = 0
        for spec in self.all_fields():
            if spec.name == name:
                return off_bits // 8
            off_bits += spec.bits
        raise KeyError(f"no field {name!r}")

    def max_field_bits(self) -> int:
        return max(f.bits for f in self.all_fields())
