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
tuples back, built when read. The formatter and the parser also take the
text a piece at a time (`format_slp_pieces`, `parse_slp_pieces`), so a
program file is written and read without holding its whole text.
"""

from __future__ import annotations

import operator
import re
from array import array
from collections.abc import Callable, Iterable, Iterator
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
        # A residue below 2^64 takes 8 bytes in an array('Q'), where an int
        # and its pointer in a list take about 40.
        values = array("Q", [1 % modulus]) if modulus <= 1 << 64 else [1 % modulus]
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


def format_slp_pieces(p: SLP) -> Iterator[str]:
    """The canonical text of p, a piece at a time: the header, then one
    %-format of each `_FORMAT_PIECE` instructions' line templates, filled
    from the columns, then the result line. p is valid, as every `SLP` is
    from construction."""
    opcodes, left, right = p.opcodes, p.left, p.right
    yield "slp v1\nv0 = one\n"
    for s in range(1, len(opcodes), _FORMAT_PIECE):
        e = min(s + _FORMAT_PIECE, len(opcodes))
        indices = chain.from_iterable(zip(range(s, e), left[s:e], right[s:e]))
        yield "".join(map(_LINES.get, opcodes[s:e])) % tuple(indices)
    yield f"result v{p.result_index}\n"


def format_slp(p: SLP) -> str:
    """Canonical text form: line-oriented, LF newlines, ASCII; the pieces
    of `format_slp_pieces` joined."""
    return "".join(format_slp_pieces(p))


def _canonical_run(width: int) -> re.Pattern:
    """Lines as `format_slp` writes them, with no leading zeros and at most
    `width` digits per index: the fast path of `parse_slp_pieces`."""
    v = rf"v(?:0|[1-9][0-9]{{0,{width - 1}}})"
    return re.compile(rf"(?:{v} = (?:add|sub|mul) {v} {v}\n)*")


# Characters of text per run of canonical lines that the parser reads at once.
_PARSE_PIECE = 1 << 13


def parse_slp(text: str) -> SLP:
    """Parse the text format: `parse_slp_pieces` of text as one piece."""
    return parse_slp_pieces(lambda: (text,))


def _measure(pieces: Iterable[str]) -> tuple[str, int, int, int]:
    """The first 7 characters of the text that the pieces make, as many as
    the header line has ("slp v1" and its LF), its line count, and where its
    last line begins and ends (the final LF excluded), from one pass over
    the pieces."""
    head, size, lfs = "", 0, 0
    last = before = -1  # the offsets of the last LF and of the one before it
    for piece in pieces:
        if len(head) < 7:
            head += piece[:7 - len(head)]
        count = piece.count("\n")
        if count:
            j = piece.rfind("\n")
            before = size + piece.rfind("\n", 0, j) if count > 1 else last
            last = size + j
        lfs += count
        size += len(piece)
    final = size > 0 and last == size - 1  # the final LF ends the last line
    end = size - final
    line_count = lfs - final + 1 if end else 0
    return head, line_count, (before if final else last) + 1, end


def _line_runs(pieces: Iterable[str]) -> Iterator[tuple[str, int]]:
    """(text, cut) for each piece that holds a LF: text is what followed the
    last cut, this piece included, and text[:cut] ends at the piece's last
    LF. Then (rest, len(rest)) for the text after the last LF. A line that
    spans pieces is joined once."""
    held = []
    for piece in pieces:
        j = piece.rfind("\n") + 1
        if not j:
            held.append(piece)
            continue
        text = "".join((*held, piece)) if held else piece
        cut = len(text) - len(piece) + j
        yield text, cut
        held = [text[cut:]] if cut < len(text) else []
    rest = "".join(held)
    yield rest, len(rest)


def parse_slp_pieces(pieces: Callable[[], Iterable[str]]) -> SLP:
    """Parse the text that the pieces of `pieces()` make; rejects forward
    references, duplicate definitions, and unknown opcodes with
    line-numbered errors. `pieces` is called twice: once to count the lines,
    whose count bounds an index's digits, and once to read them. So no more
    than one piece, and the line that spans pieces, is held at a time. The
    text is read in place, into the columns: runs of canonical lines a
    piece at a time by `_take_run`, and any other line by `read`, which also
    names the first check that refuses it. Operands of canonical lines are
    checked once, when the program is built; a forward reference found
    there, or above a refused line, is reported at its own line."""
    head, line_count, last, end = _measure(pieces())
    if not line_count or head.partition("\n")[0] != "slp v1":
        raise errors.MalformedProgram("missing 'slp v1' header", line=1)
    if line_count == 1:
        raise errors.MalformedProgram("missing result line", line=1)
    width = len(str(line_count))
    run = _canonical_run(width).match
    opcodes, left, right = bytearray(), array("q"), array("q")

    def bad(message: str, line_no: int | None = None) -> errors.MalformedProgram:
        """The error at line_no, unless a forward reference in the lines
        read comes first."""
        i = _operand_fault(left, right, len(opcodes))
        if i is not None:
            message, line_no = "forward reference", i + 2
        return errors.MalformedProgram(message, line=line_no)

    def ref(token: str, line_no: int) -> int:
        """The index that a token v<ASCII digits> names. One of more than
        `width` significant digits, those of the line count, reads as the
        line count, out of range, so that int() never reads a long one."""
        digits = token[1:]
        if token[:1] != "v" or not (digits.isascii() and digits.isdigit()):
            raise bad(f"bad operand {token!r:.60}", line_no)
        digits = digits.lstrip("0") or "0"
        return int(digits) if len(digits) <= width else line_count

    def read(line: str, line_no: int) -> tuple | int:
        """The line split on whitespace and read as instruction
        `len(opcodes)`: its (opcode, left, right), or a result line's index.
        Each check is made in the order of the text format, and the first
        that fails raises its error."""
        idx = len(opcodes)
        parts = line.split()
        if not parts:
            raise bad("empty line", line_no)
        if parts[0] == "result":
            if len(parts) != 2:
                raise bad("malformed result line", line_no)
            return ref(parts[1], line_no)
        if len(parts) < 3 or parts[1] != "=":
            raise bad("expected 'v<i> = <op> ...'", line_no)
        if ref(parts[0], line_no) != idx:
            raise bad(f"expected definition of v{idx}, got {parts[0]!r:.60} "
                      "(duplicate or out-of-order definition)", line_no)
        op = parts[2]
        if op == "one":
            if len(parts) != 3:
                raise bad("'one' takes no operands", line_no)
            if idx:
                raise bad("'one' is only allowed as instruction 0", line_no)
            return 0, 0, 0
        if op not in _CODES:
            raise bad(f"unknown opcode {op!r:.60}", line_no)
        if len(parts) != 5:
            raise bad(f"{op} takes exactly two operands", line_no)
        a, b = ref(parts[3], line_no), ref(parts[4], line_no)
        if a >= idx or b >= idx:
            raise bad("forward reference", line_no)
        return _CODES[op], a, b

    base, pos = 0, 7  # past the header, "slp v1\n"
    for text, cut in _line_runs(pieces()):
        # text[:cut] is whole lines; the last line is read on its own.
        limit = min(last - base, cut)
        while pos < limit:
            if opcodes:
                stop = run(text, pos, text.find("\n", min(pos + _PARSE_PIECE, limit) - 1) + 1).end()
                if stop > pos:
                    stop = _take_run(text, pos, stop, opcodes, left, right)
                if stop > pos:
                    pos = stop
                    continue
            stop = text.find("\n", pos)
            line_no = len(opcodes) + 2
            instruction = read(text[pos:stop], line_no)
            if isinstance(instruction, int):
                raise bad("result must be the last line", line_no)
            opcodes.append(instruction[0])
            left.append(instruction[1])
            right.append(instruction[2])
            pos = stop + 1
        if last < base + cut:  # the last line begins in this text
            index = read(text[last - base:end - base], line_count)
            break
        base, pos = base + cut, pos - cut
    else:  # the text ended before the line that the first pass found last
        raise bad("missing result line", line_count)
    if not isinstance(index, int):
        raise bad("missing result line", line_count)
    try:
        return SLP(bytes(opcodes), left, right, index)
    except errors.MalformedProgram as exc:
        raise bad(str(exc)) from None


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
