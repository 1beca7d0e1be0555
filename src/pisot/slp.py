"""Straight-line programs over the constant 1.

A program is a list of instructions; instruction 0 is ONE and every later
instruction is ADD/SUB/MUL of two earlier results. The program length
(ONE excluded) upper-bounds the tau-complexity of the value it computes.
An `SLP` is checked once, when it is built, so every program is valid.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from . import errors
from .algebraic import MinPolyInfo
from .powtrace import nearest_power, power_sum

ONE = ("one",)
_OPCODES = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_BINARY_OPS = tuple(_OPCODES)


@dataclass(frozen=True)
class SLP:
    """A program and its result's index; construction raises
    MalformedProgram unless `validate` passes."""

    instructions: tuple[tuple, ...]
    result_index: int

    def __post_init__(self):
        self.validate()

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
        return SLP(tuple(self.instructions), result_index)


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


def emit_power_slp(info: MinPolyInfo, n: int) -> SLP:
    """O(log n)-length program for [alpha^n], where alpha is the Pisot root
    of f = info.poly. At or above the threshold it is the power-sum engine
    run on instructions: d^2 + d - 2 + d(z + u) instructions per bit of n for
    x^floor(n/2) mod f, where z counts the nonzero c_i and u their distinct
    magnitudes above 1 (at most 3d^2 + d), plus the read-off of p_n and the
    constants it uses. Below the threshold it is the constant [alpha^n].
    `power_sum` checks n, before any other work."""
    if n < info.threshold_n0:
        return slp_for_constant(nearest_power(info, n))
    b = _Builder()
    result = power_sum(info.poly, n, lift=lambda v: _Ref(b, b.const(v)))
    return b.finish(result.index)


def slp_eval(p: SLP, modulus: int | None = None, lift=int):
    """Exact value of the program, or its canonical representative mod m.
    The exact value is computed on whatever `lift` turns the constant 1
    into (an int by default); a ring with +, - and *, such as
    `decimal.Decimal` in an exact context, will do. Exact values are dropped
    after their last use, so only the live ones are held at once. p is
    valid, as every `SLP` is from construction."""
    if modulus is not None and modulus < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {modulus}")
    ops = _OPCODES
    if modulus is None:
        instructions = p.instructions
        # dead[i]: the values that instruction i uses last, and i itself if
        # nothing uses it, from one backward pass over the operands.
        used = [False] * len(instructions)
        used[p.result_index] = True
        dead = [()] * len(instructions)
        for i in range(len(instructions) - 1, 0, -1):
            _, a, b = instructions[i]
            last = [] if used[i] else [i]
            for v in (a, b):
                if not used[v]:
                    used[v] = True
                    last.append(v)
            dead[i] = last
        values = [lift(1)] + [None] * (len(instructions) - 1)
        for i in range(1, len(instructions)):
            op, a, b = instructions[i]
            values[i] = ops[op](values[a], values[b])
            for v in dead[i]:
                values[v] = None
    else:
        values = [1 % modulus]
        for op, a, b in p.instructions[1:]:
            values.append(ops[op](values[a], values[b]) % modulus)
    return values[p.result_index]


def format_slp(p: SLP) -> str:
    """Canonical text form: line-oriented, LF newlines, ASCII. p is valid,
    as every `SLP` is from construction."""
    lines = ["slp v1\nv0 = one\n"]
    lines += [f"v{i} = {op} v{a} v{b}\n" for i, (op, a, b) in enumerate(p.instructions[1:], 1)]
    lines.append(f"result v{p.result_index}\n")
    return "".join(lines)


# The result line, and below, an instruction line; the tokens may be
# separated by any whitespace that `str.split` splits on, as `\s` matches
# exactly those characters. Indices are ASCII digits only.
_RESULT = re.compile(r"\s*result\s+v0*([0-9]+)\s*")
_REF = re.compile(r"v[0-9]+")


def _instruction_pattern(width: int) -> re.Pattern:
    """The instruction line, with at most `width` significant digits per
    index: those of the file's line count, which every valid index has at
    most, so that int() never reads a long one."""
    v = rf"v0*([0-9]{{1,{width}}})"
    return re.compile(rf"\s*{v}\s+=\s+(?:(add|sub|mul)\s+{v}\s+{v}|one)\s*")


def _line_error(line: str, line_no: int, idx: int) -> errors.MalformedProgram:
    """The error for a line that `parse_slp` refused as instruction `idx`:
    the first check it fails, taken in the order of the text format. Only
    refused lines come here, so where a single check is left, it fails."""

    def bad(message):
        return errors.MalformedProgram(message, line=line_no)

    def bad_ref(tokens):
        for t in tokens:
            if not _REF.fullmatch(t):
                return bad(f"bad operand {t!r:.60}")
        return None

    parts = line.split()
    if not parts:
        return bad("empty line")
    if parts[0] == "result":
        if len(parts) != 2:
            return bad("malformed result line")
        return bad_ref(parts[1:]) or bad("result must be the last line")
    if len(parts) < 3 or parts[1] != "=":
        return bad("expected 'v<i> = <op> ...'")
    error = bad_ref(parts[:1])
    if error:
        return error
    if (parts[0][1:].lstrip("0") or "0") != str(idx):
        return bad(
            f"expected definition of v{idx}, got {parts[0]!r:.60} "
            "(duplicate or out-of-order definition)"
        )
    op = parts[2]
    if op == "one":
        if len(parts) != 3:
            return bad("'one' takes no operands")
        return bad("'one' is only allowed as instruction 0")
    if op not in _BINARY_OPS:
        return bad(f"unknown opcode {op!r:.60}")
    if len(parts) != 5:
        return bad(f"{op} takes exactly two operands")
    return bad_ref(parts[3:]) or bad("forward reference")


def parse_slp(text: str) -> SLP:
    """Parse the text format; rejects forward references, duplicate
    definitions, and unknown opcodes with line-numbered errors. Each line is
    matched against one pattern and its indices checked; the message for a
    refused line is worked out only then, by `_line_error`."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "slp v1":
        raise errors.MalformedProgram("missing 'slp v1' header", line=1)
    instructions = []
    append = instructions.append
    width = len(str(len(lines)))
    match = _instruction_pattern(width).fullmatch
    for idx, line in enumerate(lines[1:]):
        m = match(line)
        if m is not None:
            d, op, a, b = m.groups()
            if op is None:
                if idx == 0 and int(d) == 0:
                    append(ONE)
                    continue
            else:
                a, b = int(a), int(b)
                if a < idx and b < idx and int(d) == idx:
                    append((op, a, b))
                    continue
        if idx + 2 == len(lines):
            m = _RESULT.fullmatch(line)
            if m is not None:
                # Construction checks what the lines above leave open. An
                # index longer than the line count is out of range, unread.
                index = int(m[1]) if len(m[1]) <= width else len(lines)
                return SLP(tuple(instructions), index)
        raise _line_error(line, idx + 2, idx)
    raise errors.MalformedProgram("missing result line", line=len(lines))
