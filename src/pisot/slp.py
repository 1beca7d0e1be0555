"""Straight-line programs over the constant 1.

A program is a list of instructions; instruction 0 is ONE and every later
instruction is ADD/SUB/MUL of two earlier results. The program length
(ONE excluded) upper-bounds the tau-complexity of the value it computes.
An `SLP` is three flat columns, one opcode byte and two `array('q')`
operand indices an instruction: 17 bytes, where a tuple of three took
about 130. The builder, the parser, the formatter and the evaluator read
and write the columns directly. `SLP(opcodes, left, right, result_index)`
is the only constructor and the only check, made once by C-level scans
over the columns, so every program is valid. `SLP.instructions` gives the
tuples back, built when read.
"""

from __future__ import annotations

import operator
import re
from array import array
from itertools import chain, islice

from . import errors
from .algebraic import MinPolyInfo
from .powtrace import _exact_decimal, nearest_power, power_sum

ONE = ("one",)
# The opcode byte of an instruction indexes these. ONE's operands are 0 and 0.
_NAMES = ("one", "add", "sub", "mul")
_FUNCS = (None, operator.add, operator.sub, operator.mul)
_ADD, _SUB, _MUL = 1, 2, 3
_CODES = {"add": _ADD, "sub": _SUB, "mul": _MUL}
_BINARY_CODES = bytes((_ADD, _SUB, _MUL))


def _unsigned(column: array) -> memoryview:
    """The column read as uint64, where a negative operand is above every
    index."""
    return memoryview(column).cast("B").cast("Q")


def _operand_fault(left: array, right: array, stop: int) -> int | None:
    """The first instruction i in [1, stop) with an operand outside [0, i),
    or None: one C-level pass over each column decides, and a loop only
    locates a fault."""
    with _unsigned(left) as a, _unsigned(right) as b:
        indices = range(1, stop)
        if all(map(operator.lt, a[1:stop], indices)) and all(map(operator.lt, b[1:stop], indices)):
            return None
        return next(i for i in indices if not (a[i] < i and b[i] < i))


class SLP:
    """A program and its result's index, held as three columns of one
    length: `opcodes` (bytes; 0 for ONE, then 1, 2, 3 for add, sub, mul),
    and `left` and `right` (`array('q')`), the operand indices. The
    constructor is the one check. It raises MalformedProgram for the first
    of these rules that the program breaks: the columns are bytes and two
    `array('q')` of one length; instruction 0 is ONE, with operands 0 and
    0; every later opcode is add, sub or mul; every operand indexes an
    earlier instruction; the result index names an instruction."""

    __slots__ = ("opcodes", "left", "right", "result_index")

    def __init__(self, opcodes: bytes, left: array, right: array, result_index: int):
        if ((type(opcodes), type(left), type(right)) != (bytes, array, array) or left.typecode != "q"
                or right.typecode != "q" or not len(opcodes) == len(left) == len(right)):
            raise errors.MalformedProgram("the columns must be bytes and two array('q') of one length")
        n = len(opcodes)
        if not n or opcodes[0] or left[0] or right[0]:
            raise errors.MalformedProgram("instruction 0 must be ONE")
        if opcodes.translate(None, _BINARY_CODES) != b"\0":
            i = next(i for i in range(1, n) if opcodes[i] not in _BINARY_CODES)
            raise errors.MalformedProgram(f"bad instruction at index {i}: opcode {opcodes[i]}")
        i = _operand_fault(left, right, n)
        if i is not None:
            raise errors.MalformedProgram(f"instruction {i} references a non-earlier index")
        if not 0 <= result_index < n:
            raise errors.MalformedProgram("result index out of range")
        self.opcodes, self.left, self.right, self.result_index = opcodes, left, right, result_index

    @property
    def instructions(self) -> tuple:
        """The instructions as tuples, ONE and then (op, a, b), built from
        the columns when read."""
        return tuple(ONE if not code else (_NAMES[code], a, b)
                     for code, a, b in zip(self.opcodes, self.left, self.right))

    def __eq__(self, other):
        if not isinstance(other, SLP):
            return NotImplemented
        return (self.result_index, self.opcodes, self.left, self.right) == (
            other.result_index, other.opcodes, other.left, other.right
        )

    def __hash__(self):
        return hash((self.result_index, self.opcodes))

    def __repr__(self):
        return f"SLP(<{len(self.opcodes)} instructions>, result_index={self.result_index!r})"


def slp_length(p: SLP) -> int:
    """Number of ring operations, i.e. instructions excluding the initial ONE."""
    return len(p.opcodes) - 1


class _Builder:
    """Appends instructions to the columns, caching integer constants built
    from 1."""

    def __init__(self):
        self.opcodes = bytearray(1)  # ONE
        self.left = array("q", [0])
        self.right = array("q", [0])
        self._consts = {1: 0}

    def emit(self, code: int, a: int, b: int) -> int:
        self.opcodes.append(code)
        self.left.append(a)
        self.right.append(b)
        return len(self.opcodes) - 1

    def const(self, c: int) -> int:
        c = int(c)
        if c in self._consts:
            return self._consts[c]
        if c == 0:
            idx = self.emit(_SUB, 0, 0)
        elif c > 0:
            # left-to-right binary: double, then add one on set bits
            idx = 0
            for bit in bin(c)[3:]:
                idx = self.emit(_ADD, idx, idx)
                if bit == "1":
                    idx = self.emit(_ADD, idx, 0)
        else:
            zero = self.const(0)
            idx = self.emit(_SUB, zero, self.const(-c))
        self._consts[c] = idx
        return idx

    def finish(self, result_index: int) -> SLP:
        return SLP(bytes(self.opcodes), self.left, self.right, result_index)


def slp_for_constant(c: int) -> SLP:
    """Program of length at most 2*floor(log2 max(|c|, 2)) + 2 computing c."""
    b = _Builder()
    return b.finish(b.const(c))


def _ring_op(code: int):
    """The operator of a _Ref that emits `code` on it and another _Ref, or an
    integer constant."""

    def op(self, other):
        b = self.builder
        j = other.index if isinstance(other, _Ref) else b.const(other)
        # `_Builder.emit`, inlined: this runs once an instruction.
        b.opcodes.append(code)
        b.left.append(self.index)
        b.right.append(j)
        return _Ref(b, len(b.opcodes) - 1)

    return op


class _Ref:
    """An instruction of a _Builder. Its ring operators emit instructions, so
    `power_sum` builds a program when its coefficients are _Refs."""

    __slots__ = ("builder", "index")

    def __init__(self, builder: _Builder, index: int):
        self.builder = builder
        self.index = index

    __add__ = _ring_op(_ADD)
    __sub__ = _ring_op(_SUB)
    __mul__ = _ring_op(_MUL)


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
    into (an int by default); a ring with +, - and * will do. It runs in
    `powtrace._exact_decimal`'s context, so `decimal.Decimal` is exact
    whatever the caller's context. Exact values are dropped
    after their last use, so only the live ones are held at once. p is
    valid, as every `SLP` is from construction."""
    if modulus is not None and modulus < 2:
        raise errors.BadModulus(f"modulus must be >= 2, got {modulus}")
    funcs, n = _FUNCS, len(p.opcodes)
    steps = zip(islice(p.opcodes, 1, None), islice(p.left, 1, None), islice(p.right, 1, None))
    if modulus is not None:
        values = [1 % modulus]
        append = values.append
        for code, a, b in steps:
            append(funcs[code](values[a], values[b]) % modulus)
        return values[p.result_index]
    # last[v]: the instruction that uses v last, from one pass over the
    # operands; v itself if none does, and n for the result, which stays.
    last = array("q", range(n))
    for i, a, b in zip(range(1, n), islice(p.left, 1, None), islice(p.right, 1, None)):
        last[a] = last[b] = i
    last[p.result_index] = n
    with _exact_decimal():
        values = [lift(1)] + [None] * (n - 1)
        for i, (code, a, b) in enumerate(steps, 1):
            values[i] = funcs[code](values[a], values[b])
            if last[a] == i:
                values[a] = None
            if last[b] == i:
                values[b] = None
            if last[i] == i:
                values[i] = None
    return values[p.result_index]


# Instructions per piece of `format_slp`'s text, and each opcode's line with
# its three indices left to fill.
_FORMAT_PIECE = 1024
_LINES = {code: f"v%d = {_NAMES[code]} v%d v%d\n" for code in _BINARY_CODES}


def format_slp(p: SLP) -> str:
    """Canonical text form: line-oriented, LF newlines, ASCII. Each piece of
    the text is one %-format of its lines' templates, filled from the
    columns, so no more than one piece is held in parts. p is valid, as
    every `SLP` is from construction."""
    opcodes, left, right = p.opcodes, p.left, p.right
    pieces = ["slp v1\nv0 = one\n"]
    for s in range(1, len(opcodes), _FORMAT_PIECE):
        e = min(s + _FORMAT_PIECE, len(opcodes))
        indices = chain.from_iterable(zip(range(s, e), left[s:e], right[s:e]))
        pieces.append("".join(map(_LINES.get, opcodes[s:e])) % tuple(indices))
    pieces.append(f"result v{p.result_index}\n")
    return "".join(pieces)


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
    if op not in _CODES:
        return bad(f"unknown opcode {op!r:.60}")
    if len(parts) != 5:
        return bad(f"{op} takes exactly two operands")
    return bad_ref(parts[3:]) or bad("forward reference")


def _canonical_run(width: int) -> re.Pattern:
    """Lines as `format_slp` writes them, with no leading zeros and at most
    `width` digits per index: the fast path of `parse_slp`."""
    v = rf"v(?:0|[1-9][0-9]{{0,{width - 1}}})"
    return re.compile(rf"(?:{v} = (?:add|sub|mul) {v} {v}\n)*")


# Characters of text per run of canonical lines that `parse_slp` reads at once.
_PARSE_PIECE = 1 << 13


def parse_slp(text: str) -> SLP:
    """Parse the text format; rejects forward references, duplicate
    definitions, and unknown opcodes with line-numbered errors. The text is
    read in place, into the columns: runs of canonical lines a piece at a
    time by `_take_run`, and any other line by one pattern. The message for
    a refused line is worked out only then, by `_line_error`. Operands are
    checked once, when the program is built; a forward reference found
    there, or above a refused line, is reported at its own line."""
    end = len(text) - text.endswith("\n")  # the final LF ends the last line
    line_count = text.count("\n", 0, end) + 1 if end else 0
    header_end = text.find("\n", 0, end)
    if header_end < 0:
        header_end = end
    if not line_count or text[:header_end] != "slp v1":
        raise errors.MalformedProgram("missing 'slp v1' header", line=1)
    if line_count == 1:
        raise errors.MalformedProgram("missing result line", line=1)
    width = len(str(line_count))
    match = _instruction_pattern(width).fullmatch
    run = _canonical_run(width).match
    opcodes, left, right = bytearray(), array("q"), array("q")

    def take(line: str) -> bool:
        """Append the line as instruction `len(opcodes)` if it is one."""
        m = match(line)
        if m is None:
            return False
        d, op, a, b = m.groups()
        idx = len(opcodes)
        if int(d) != idx or (op is None) != (idx == 0):
            return False
        opcodes.append(_CODES[op] if op else 0)
        left.append(int(a) if op else 0)
        right.append(int(b) if op else 0)
        return True

    def first(error: errors.MalformedProgram) -> errors.MalformedProgram:
        """`error`, unless a forward reference in the lines read comes first."""
        i = _operand_fault(left, right, len(opcodes))
        return error if i is None else errors.MalformedProgram("forward reference", line=i + 2)

    last = text.rfind("\n", 0, end) + 1  # the start of the last line
    pos = header_end + 1
    while pos < last:
        if opcodes:
            stop = run(text, pos, text.find("\n", min(pos + _PARSE_PIECE, last) - 1) + 1).end()
            if stop > pos:
                stop = _take_run(text, pos, stop, opcodes, left, right)
            if stop > pos:
                pos = stop
                continue
        stop = text.find("\n", pos)
        if not take(text[pos:stop]):
            raise first(_line_error(text[pos:stop], len(opcodes) + 2, len(opcodes)))
        pos = stop + 1
    line = text[last:end]
    m = _RESULT.fullmatch(line)
    if m is None:
        if not take(line):
            raise first(_line_error(line, line_count, len(opcodes)))
        raise first(errors.MalformedProgram("missing result line", line=line_count))
    # An index longer than the line count is out of range, unread.
    index = int(m[1]) if len(m[1]) <= width else line_count
    try:
        return SLP(bytes(opcodes), left, right, index)
    except errors.MalformedProgram as exc:
        raise first(exc) from None


def _take_run(text: str, pos: int, stop: int, opcodes: bytearray, left: array, right: array) -> int:
    """Append the canonical lines of text[pos:stop] that define the next
    instructions in order, and return where the first one that does not
    begins."""
    tokens = text[pos:stop].replace("v", " ").split()  # d = op a b, per line
    idx = len(opcodes)
    defined = list(map(int, tokens[0::5]))
    count = len(defined)
    if defined != list(range(idx, idx + count)):
        count = next(j for j, d in enumerate(defined) if d != idx + j)
        stop = pos
        for _ in range(count):
            stop = text.index("\n", stop) + 1
    end = 5 * count
    opcodes += bytes(map(_CODES.__getitem__, tokens[2:end:5]))
    left.extend(map(int, tokens[3:end:5]))
    right.extend(map(int, tokens[4:end:5]))
    return stop
