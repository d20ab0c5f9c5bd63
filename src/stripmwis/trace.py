"""Recursion traces shared by both solvers."""

from __future__ import annotations

from typing import NamedTuple


class TraceRecord(NamedTuple):
    depth: int
    n: int
    terminals: int
    u_kind: str
    x_size: int
    particle_count: int
    leaf: bool

    def line(self) -> str:
        return (f"call depth={self.depth} n={self.n} |T|={self.terminals} "
                f"U={self.u_kind} |X|={self.x_size} particles={self.particle_count} "
                f"leaf={1 if self.leaf else 0}")


class BranchRecord(NamedTuple):
    j_mask: int
    dirty: int
    touched: int
    y_size: int
    z_size: int

    def line(self) -> str:
        return (f"branch J={self.j_mask:b} dirty={self.dirty} touched={self.touched} "
                f"|Y|={self.y_size} |Z|={self.z_size}")


class RecursionTrace:
    def __init__(self, records=None):
        self.records = [] if records is None else records

    def add(self, record):
        self.records.append(record)

    @property
    def max_depth(self) -> int:
        return max((r.depth for r in self.records if isinstance(r, TraceRecord)), default=0)

    @property
    def call_count(self) -> int:
        return sum(1 for r in self.records if isinstance(r, TraceRecord))

    @property
    def leaf_count(self) -> int:
        return sum(1 for r in self.records if isinstance(r, TraceRecord) and r.leaf)

    def lines(self):
        return [r.line() for r in self.records]

    def dump(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.records else "")
