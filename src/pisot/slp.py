"""Straight-line programs over the constant 1.

A program is a list of instructions; instruction 0 is ONE and every later
instruction is ADD/SUB/MUL of two earlier results. The program length
(ONE excluded) upper-bounds the tau-complexity of the value it computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .algebraic import IntPoly, MinPolyInfo
from .powtrace import nearest_power, power_sum

ONE = ("one",)
_BINARY_OPS = ("add", "sub", "mul")


@dataclass(frozen=True)
class SLP:
    instructions: tuple[tuple, ...]
    result_index: int

    def validate(self):
        if not self.instructions or self.instructions[0] != ONE:
            raise errors.MalformedProgram("instruction 0 must be ONE")
        for i, ins in enumerate(self.instructions[1:], start=1):
            if len(ins) != 3 or ins[0] not in _BINARY_OPS:
                raise errors.MalformedProgram(f"bad instruction at index {i}: {ins!r}")
            _, a, b = ins
            if not (0 <= a < i and 0 <= b < i):
                raise errors.MalformedProgram(
                    f"instruction {i} references a non-earlier index"
                )
        if not 0 <= self.result_index < len(self.instructions):
            raise errors.MalformedProgram("result index out of range")


def slp_length(p: SLP) -> int:
    """Number of ring operations, i.e. instructions excluding the initial ONE."""
    return len(p.instructions) - 1


class _Builder:
    """Appends instructions, caching integer constants built from 1."""

    def __init__(self):
        self.instructions = [ONE]
        self._consts = {1: 0}

    def emit(self, op, a, b) -> int:
        self.instructions.append((op, a, b))
        return len(self.instructions) - 1

    def const(self, c: int) -> int:
        c = int(c)
        if c in self._consts:
            return self._consts[c]
        if c == 0:
            idx = self.emit("sub", 0, 0)
        elif c > 0:
            # left-to-right binary: double, then add one on set bits
            idx = 0
            for bit in bin(c)[3:]:
                idx = self.emit("add", idx, idx)
                if bit == "1":
                    idx = self.emit("add", idx, 0)
        else:
            zero = self.const(0)
            idx = self.emit("sub", zero, self.const(-c))
        self._consts[c] = idx
        return idx

    def finish(self, result_index: int) -> SLP:
        p = SLP(tuple(self.instructions), result_index)
        p.validate()
        return p


def slp_for_constant(c: int) -> SLP:
    """Program of length at most 2*floor(log2 max(|c|, 2)) + 2 computing c."""
    b = _Builder()
    return b.finish(b.const(c))


class _Ref:
    """An instruction of a _Builder. Its ring operators emit instructions, so
    `power_sum` builds a program when its coefficients are _Refs."""

    __slots__ = ("builder", "index")

    def __init__(self, builder: _Builder, index: int):
        self.builder = builder
        self.index = index

    def _op(self, op, other):
        b = self.builder
        j = other.index if isinstance(other, _Ref) else b.const(other)
        return _Ref(b, b.emit(op, self.index, j))

    def __add__(self, other):
        return self._op("add", other)

    def __sub__(self, other):
        return self._op("sub", other)

    def __mul__(self, other):
        return self._op("mul", other)


def emit_power_slp(f: IntPoly, n: int, info: MinPolyInfo) -> SLP:
    """O(log n)-length program for [alpha^n]. At or above the threshold it is
    the power-sum engine run on instructions: about 3d^2/2 products per bit
    of n, for x^floor(n/2) mod f, plus the constants c_i and p_k it uses.
    Below the threshold it is the constant [alpha^n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    info.check_poly(f)
    if n < info.threshold_n0 or n == 0:
        return slp_for_constant(nearest_power(f, n, info))
    b = _Builder()
    result = power_sum(f, n, lift=lambda v: _Ref(b, b.const(v)))
    return b.finish(result.index)


def slp_eval(p: SLP, modulus: int | None = None, lift=int):
    """Exact value of the program, or its canonical representative mod m.
    The exact value is computed on whatever `lift` turns the constant 1
    into (an int by default); a ring with +, - and *, such as
    `decimal.Decimal` in an exact context, will do."""
    if modulus is not None and modulus < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {modulus}")
    p.validate()
    values = []
    for ins in p.instructions:
        if ins == ONE:
            v = 1 % modulus if modulus is not None else lift(1)
        else:
            op, a, b = ins
            x, y = values[a], values[b]
            if op == "add":
                v = x + y
            elif op == "sub":
                v = x - y
            else:
                v = x * y
            if modulus is not None:
                v %= modulus
        values.append(v)
    return values[p.result_index]


def format_slp(p: SLP) -> str:
    """Canonical text form: line-oriented, LF newlines, ASCII."""
    p.validate()
    lines = ["slp v1"]
    for i, ins in enumerate(p.instructions):
        if ins == ONE:
            lines.append(f"v{i} = one")
        else:
            op, a, b = ins
            lines.append(f"v{i} = {op} v{a} v{b}")
    lines.append(f"result v{p.result_index}")
    return "\n".join(lines) + "\n"


def _parse_ref(token: str, line_no: int) -> int:
    if not token.startswith("v") or not token[1:].isdigit():
        raise errors.MalformedProgram(f"bad operand {token!r}", line=line_no)
    return int(token[1:])


def parse_slp(text: str) -> SLP:
    """Parse the text format; rejects forward references, duplicate
    definitions, and unknown opcodes with line-numbered errors."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "slp v1":
        raise errors.MalformedProgram("missing 'slp v1' header", line=1)
    instructions = []
    result_index = None
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise errors.MalformedProgram("empty line", line=line_no)
        if parts[0] == "result":
            if len(parts) != 2 or result_index is not None:
                raise errors.MalformedProgram("malformed result line", line=line_no)
            result_index = _parse_ref(parts[1], line_no)
            if line_no != len(lines):
                raise errors.MalformedProgram(
                    "result must be the last line", line=line_no
                )
            continue
        idx = len(instructions)
        if len(parts) < 3 or parts[1] != "=":
            raise errors.MalformedProgram("expected 'v<i> = <op> ...'", line=line_no)
        if _parse_ref(parts[0], line_no) != idx:
            raise errors.MalformedProgram(
                f"expected definition of v{idx}, got {parts[0]!r} "
                "(duplicate or out-of-order definition)",
                line=line_no,
            )
        if parts[2] == "one":
            if len(parts) != 3:
                raise errors.MalformedProgram("'one' takes no operands", line=line_no)
            if idx != 0:
                raise errors.MalformedProgram(
                    "'one' is only allowed as instruction 0", line=line_no
                )
            instructions.append(ONE)
            continue
        if parts[2] not in _BINARY_OPS:
            raise errors.MalformedProgram(f"unknown opcode {parts[2]!r}", line=line_no)
        if len(parts) != 5:
            raise errors.MalformedProgram(
                f"{parts[2]} takes exactly two operands", line=line_no
            )
        a = _parse_ref(parts[3], line_no)
        b = _parse_ref(parts[4], line_no)
        if a >= idx or b >= idx:
            raise errors.MalformedProgram("forward reference", line=line_no)
        instructions.append((parts[2], a, b))
    if result_index is None:
        raise errors.MalformedProgram("missing result line", line=len(lines))
    p = SLP(tuple(instructions), result_index)
    p.validate()
    return p
