"""Straight-line programs: emission, evaluation, length bounds, text format."""

import gc
import math
import random
import re
import tracemalloc
from array import array

import pytest

from pisot import errors
from pisot.algebraic import IntPoly, analyze_minpoly
from pisot.powtrace import nearest_power, nearest_power_mod
from pisot.slp import (
    SLP,
    emit_power_slp,
    format_slp,
    parse_slp,
    slp_eval,
    slp_for_constant,
    slp_length,
)
from conftest import pisot_shaped
from oracles import parse_slp_oracle, program

MALFORMED = [
    "",
    "slp v2\nv0 = one\nresult v0\n",
    "v0 = one\nresult v0\n",
    "slp v1\nv0 = add v0 v0\nresult v0\n",  # 'one' missing
    "slp v1\nv0 = one\nv1 = add v1 v0\nresult v1\n",  # forward ref
    "slp v1\nv0 = one\nv2 = add v0 v0\nresult v2\n",  # skipped index
    "slp v1\nv0 = one\nv1 = div v0 v0\nresult v1\n",  # unknown op
    "slp v1\nv0 = one\nv1 = add v0\nresult v1\n",  # arity
    "slp v1\nv0 = one\nresult v0\nv1 = add v0 v0\n",  # result not last
    "slp v1\nv0 = one\n",  # missing result
    "slp v1\nv0 = one\nv1 = one\nresult v1\n",  # second 'one'
    "slp v1\nresult v0\n",  # no instructions
    # Indices are ASCII digits: str.isdigit accepts these, int() refuses '²'.
    "slp v1\nv0 = one\nresult v\u00b2\n",
    "slp v1\nv\u00b2 = one\nresult v0\n",
    "slp v1\nv0 = one\nv1 = add v0 v\u00b9\nresult v1\n",
    "slp v1\nv0 = one\nv1 = add v0 v\u0660\nresult v1\n",  # Arabic-Indic zero
]
# The cases that the oracle parser ends in a ValueError, or accepts.
NON_ASCII_DIGITS = MALFORMED[-4:]

# The degree-12 program of the benchmark's modular workload, at its largest n.
BENCH_DEGREE_12 = IntPoly((2, 2, 2, -2, -2, 0, 2, 2, -1, -2, 2, -21, 1))
BENCH_N = 8_386_254_639_759_710_208

GOLDEN = IntPoly((-1, -1, 1))
PLASTIC = IntPoly((-1, -1, 0, 1))


@pytest.fixture(scope="module")
def golden_info():
    return analyze_minpoly(GOLDEN)


@pytest.fixture(scope="module")
def plastic_info():
    return analyze_minpoly(PLASTIC)


def constant_length_bound(c: int) -> int:
    return 2 * math.floor(math.log2(max(abs(c), 2))) + 2


def program_length_bound(f: IntPoly, n: int) -> int:
    d = f.degree
    k_f = sum(constant_length_bound(c) for c in f.coefficients[:-1]) + 2 * d
    return k_f + 8 * d**3 * math.ceil(math.log2(max(n, 2)))


class TestConstants:
    @pytest.mark.parametrize("c", [0, 1, 2, 3, 7, 10, 100, 12345, -1, -64, -9999])
    def test_value_and_length(self, c):
        p = slp_for_constant(c)
        assert slp_eval(p) == c
        if c not in (0, 1) and c > 0:
            assert slp_length(p) <= constant_length_bound(c)

    def test_one_is_free(self):
        assert slp_length(slp_for_constant(1)) == 0


class TestEmitPowerSLP:
    def test_lucas_small(self, golden_info):
        for n in range(0, 30):
            p = emit_power_slp(golden_info, n)
            assert slp_eval(p) == nearest_power(golden_info, n)

    def test_random_exponents(self, golden_info, plastic_info):
        rng = random.Random(99)
        for f, info in ((GOLDEN, golden_info), (PLASTIC, plastic_info)):
            for _ in range(25):
                n = rng.randint(0, 10**4)
                p = emit_power_slp(info, n)
                assert slp_eval(p, 10**9 + 7) == nearest_power_mod(
                    info, n, 10**9 + 7
                )

    def test_length_bound(self, golden_info, plastic_info):
        rng = random.Random(5)
        for f, info in ((GOLDEN, golden_info), (PLASTIC, plastic_info)):
            for _ in range(20):
                n = rng.randint(0, 10**4)
                p = emit_power_slp(info, n)
                assert slp_length(p) <= program_length_bound(f, n)

    def test_below_threshold_is_constant_program(self, plastic_info):
        # n < n0 = 10: emitted as a plain constant
        p = emit_power_slp(plastic_info, 5)
        assert slp_eval(p) == nearest_power(plastic_info, 5)
        assert slp_length(p) <= constant_length_bound(5)

    def test_negative_n(self, golden_info):
        # `power_sum` checks n, below the threshold as above it.
        with pytest.raises(ValueError, match="exponent must be nonnegative"):
            emit_power_slp(golden_info, -3)

    @pytest.mark.parametrize(
        "f",
        [IntPoly((-1,) * k + (1,)) for k in (2, 4, 12)]
        + [pisot_shaped(d, random.Random(d)) for d in (3, 5, 8, 12)],
        ids=str,
    )
    def test_huge_exponents_match_modular_path(self, f):
        info = analyze_minpoly(f)
        rng = random.Random(str(f))
        for n in (10**19, rng.randint(0, 10**19), 2 * f.degree - 1, 2 * f.degree):
            n = max(n, info.threshold_n0)
            p = emit_power_slp(info, n)
            m = rng.randint(2, 1 << 64)
            assert slp_eval(p, m) == nearest_power_mod(info, n, m), f"n={n}"

    @pytest.mark.parametrize(
        "coeffs", [(1, 21, -229, -4899, 1), (-1, -1, -1, -1, 1)], ids=["quartic", "4-nacci"]
    )
    def test_degree4_length_at_1e19(self, coeffs):
        # at most 3d^2 + d instructions per bit of n; d^3 per bit would
        # exceed 9,000
        f = IntPoly(coeffs)
        p = emit_power_slp(analyze_minpoly(f), 10**19)
        assert slp_length(p) <= 4500


class TestEval:
    def test_bad_modulus(self):
        with pytest.raises(errors.BadModulus):
            slp_eval(slp_for_constant(5), 1)

    def test_validates(self):
        # A program is checked when it is built, so none that is invalid
        # reaches the evaluator.
        with pytest.raises(errors.MalformedProgram, match="instruction 0 must be ONE"):
            program((("add", 0, 0),), 0)

    def test_forward_reference_rejected(self):
        with pytest.raises(errors.MalformedProgram, match="non-earlier index"):
            program((("one",), ("add", 1, 0)), 1)

    @pytest.mark.parametrize("code", [4, 255])
    def test_a_malformed_instruction_is_rejected(self, code):
        with pytest.raises(errors.MalformedProgram) as exc:
            SLP(bytes((0, code)), array("q", [0, 0]), array("q", [0, 0]), 1)
        assert str(exc.value) == f"bad instruction at index 1: opcode {code}"

    @pytest.mark.parametrize(
        "columns",
        [
            (b"\0\1", array("q", [0]), array("q", [0]), 1),  # accepted before, unformattable
            (b"\0", array("q", [0, 0]), array("q", [0]), 0),
            (b"\0", array("q", [0]), array("q"), 0),
            (bytearray(1), array("q", [0]), array("q", [0]), 0),
            (b"\0", array("l", [0]), array("q", [0]), 0),
            (b"\0", array("q", [0]), [0], 0),
        ],
        ids=["opcodes-longer", "left-longer", "right-shorter", "bytearray", "array-l", "list"],
    )
    def test_columns_of_unequal_lengths_or_wrong_types_are_rejected(self, columns):
        with pytest.raises(errors.MalformedProgram) as exc:
            SLP(*columns)
        assert str(exc.value) == "the columns must be bytes and two array('q') of one length"

    @pytest.mark.parametrize(
        "ins, result, message",
        [
            ((("one",), ("add", -1, 0)), 1, "instruction 1 references a non-earlier index"),
            ((("one",), ("add", 0, -1)), 1, "instruction 1 references a non-earlier index"),
            ((("one",), ("add", 0, 0)), -1, "result index out of range"),
        ],
        ids=["negative-left", "negative-right", "negative-result"],
    )
    def test_operands_below_zero_or_beyond_int64_are_rejected(self, ins, result, message):
        # The columns are array('q'): they hold negative operands, and an
        # operand beyond int64 never reaches them.
        with pytest.raises(errors.MalformedProgram) as exc:
            program(ins, result)
        assert str(exc.value) == message

    def test_instructions_read_back_as_tuples(self):
        ins = (("one",), ("add", 0, 0), ("mul", 1, 1), ("sub", 2, 0))
        p = program(ins, 3)
        assert len(p.instructions) == 4
        assert tuple(p.instructions) == ins
        assert [p.instructions[i] for i in range(-4, 4)] == list(ins + ins)
        assert p.instructions[1:] == ins[1:]
        assert p == program(ins, 3) == parse_slp(format_slp(p))
        assert p != program(ins, 2) and p != program(ins[:3], 2)
        assert hash(p) == hash(program(ins, 3))

    def test_exact_values_are_dropped_after_their_last_use(self):
        f = IntPoly((1, 21, -229, -4899, 1))
        info = analyze_minpoly(f)
        n = 3000
        p = emit_power_slp(info, n)
        Counted.alive = Counted.peak = 0
        value = slp_eval(p, lift=Counted)
        assert value.v == nearest_power(info, n)
        # The engine keeps O(d^2) values live at once; the program has
        # hundreds of instructions.
        assert len(p.instructions) > 500
        assert Counted.peak <= len(p.instructions) // 10
        del value
        assert Counted.alive == 0

    def test_unused_and_repeated_operands(self):
        # v2 is never used; v3 uses v1 twice; the result is read mid-program.
        p = program((("one",), ("add", 0, 0), ("mul", 1, 1), ("mul", 1, 1), ("add", 3, 0)), 3)
        assert slp_eval(p) == 4
        Counted.alive = Counted.peak = 0
        assert slp_eval(p, lift=Counted).v == 4
        assert Counted.peak <= 3


class Counted:
    """An int that counts its live instances, to see what `slp_eval` holds."""

    alive = peak = 0
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v
        Counted.alive += 1
        Counted.peak = max(Counted.peak, Counted.alive)

    def __del__(self):
        Counted.alive -= 1

    def __add__(self, other):
        return Counted(self.v + other.v)

    def __sub__(self, other):
        return Counted(self.v - other.v)

    def __mul__(self, other):
        return Counted(self.v * other.v)


class TestTextFormat:
    def test_round_trip_byte_identical(self, golden_info):
        for n in (0, 1, 2, 17, 1000):
            p = emit_power_slp(golden_info, n)
            text = format_slp(p)
            assert parse_slp(text) == p
            assert format_slp(parse_slp(text)) == text

    def test_canonical_layout(self):
        text = format_slp(slp_for_constant(3))
        lines = text.split("\n")
        assert lines[0] == "slp v1"
        assert lines[1] == "v0 = one"
        assert lines[-2].startswith("result v")
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize("bad_text", MALFORMED)
    def test_malformed_rejected(self, bad_text):
        with pytest.raises(errors.MalformedProgram):
            parse_slp(bad_text)

    def test_error_carries_line_number(self):
        try:
            parse_slp("slp v1\nv0 = one\nv1 = div v0 v0\nresult v1\n")
        except errors.MalformedProgram as exc:
            assert exc.line == 3
        else:  # pragma: no cover
            pytest.fail("expected MalformedProgram")


@pytest.fixture(scope="module")
def bench_degree_12_text():
    return format_slp(emit_power_slp(analyze_minpoly(BENCH_DEGREE_12), BENCH_N))


class TestBenchmarkProgram:
    def test_length(self, bench_degree_12_text):
        # 25,193 instructions when every c_i had a product of its own.
        assert len(parse_slp(bench_degree_12_text).instructions) <= 20_000

    def test_text_round_trip(self, bench_degree_12_text):
        assert format_slp(parse_slp(bench_degree_12_text)) == bench_degree_12_text


def traced_peak(fn, *args):
    """fn(*args), and the most memory that it held at once beyond what was
    live when it started, in bytes, as tracemalloc counts it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemoryPerInstruction:
    """Each SLP layer's peak on the benchmark's degree-12 program (19,819
    instructions), per instruction. The columns take 17 bytes an
    instruction, and the text 25. Tuples took about 130, and the parser's
    list of lines 150 more: emit peaked at 121, parse at 284 and format at
    107."""

    def test_emit(self):
        info = analyze_minpoly(BENCH_DEGREE_12)
        p, peak = traced_peak(emit_power_slp, info, BENCH_N)
        assert peak <= 40 * len(p.instructions)

    def test_parse_beyond_the_text(self, bench_degree_12_text):
        p, peak = traced_peak(parse_slp, bench_degree_12_text)
        assert peak <= 40 * len(p.instructions)

    def test_format(self, bench_degree_12_text):
        p = parse_slp(bench_degree_12_text)
        text, peak = traced_peak(format_slp, p)
        assert text == bench_degree_12_text
        assert peak <= 64 * len(p.instructions)


def parsed(parse, text):
    """The program, or the message and line of the MalformedProgram."""
    try:
        return parse(text)
    except errors.MalformedProgram as exc:
        return str(exc), exc.line


SMALL = "slp v1\nv0 = one\nv1 = add v0 v0\nv2 = mul v1 v1\nv3 = sub v2 v0\nresult v3\n"
# Every character that str.split takes for whitespace in ASCII.
ASCII_BLANKS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]


def blank_variants(text):
    head, body = text.split("\n", 1)
    yield text.replace("\n", "\r\n")  # CRLF on the header too
    yield head + "\n" + body.replace("\n", "\r\n")
    for blank in ASCII_BLANKS:
        yield head + "\n" + body.replace(" ", blank)
        yield head + "\n" + body.replace(" ", blank * 3)
        yield head + "\n" + body.replace("\n", blank + "\n")
        yield head + "\n" + "".join(blank + line + "\n" for line in body.splitlines())
        yield blank + text
    yield text.replace("v1 v1", "v01 v001").replace("v2 =", "v02 =")  # leading zeros
    yield text.replace("result v3", "result v03")


def token_mutants(text, rng, count):
    """Copies of the text with one token, blank or line changed."""
    tokens = ["one", "add", "sub", "mul", "div", "=", "result", "slp", "v0", "v1",
              "v2", "v3", "v4", "v9", "v-1", "v", "x1", "", "v1 v1", "\n", " "]
    for _ in range(count):
        pieces = [p for p in re.split(r"( |\n)", text) if p != ""]
        i = rng.randrange(len(pieces))
        kind = rng.randrange(3)
        if kind == 0:
            pieces[i] = rng.choice(tokens)
        elif kind == 1:
            pieces.insert(i, rng.choice(tokens))
        else:
            del pieces[i]
        yield "".join(pieces)


def bench_shaped(d, rng):
    """x^d - a x^(d-1) + low terms in [-2, 2], as the benchmark draws them:
    a = sum |c_i| + 2..4 meets Perron's condition, so the polynomial is a
    Pisot number's minimal polynomial."""
    low = [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(d - 2)]
    return IntPoly(tuple(low) + (-(sum(map(abs, low)) + rng.randint(2, 4)), 1))


class TestParserAgreesWithOracle:
    """`parse_slp` returns what the reference parser returns, or raises the
    same message at the same line; indices of non-ASCII digits, which the
    reference crashes on or reads as numbers, are its only bad operands."""

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_cases(self, text):
        if text in NON_ASCII_DIGITS:
            assert isinstance(parsed(parse_slp, text), tuple)
            return
        assert parsed(parse_slp, text) == parsed(parse_slp_oracle, text)

    def test_non_ascii_digit_is_a_bad_operand(self):
        with pytest.raises(errors.MalformedProgram, match=r"line 3: bad operand 'v²'"):
            parse_slp("slp v1\nv0 = one\nresult v²\n")
        with pytest.raises(ValueError):
            parse_slp_oracle("slp v1\nv0 = one\nresult v²\n")

    @pytest.mark.parametrize("text", list(blank_variants(SMALL)), ids=repr)
    def test_blanks_and_leading_zeros(self, text):
        assert parsed(parse_slp, text) == parsed(parse_slp_oracle, text)

    def test_mutants(self):
        rng = random.Random(17)
        programs = [SMALL, format_slp(slp_for_constant(-5)), "slp v1\nv0 = one\nresult v0\n"]
        for text in programs:
            for mutant in token_mutants(text, rng, 1500):
                assert parsed(parse_slp, mutant) == parsed(parse_slp_oracle, mutant), repr(mutant)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_benchmark_shaped_programs(self, d, bench_degree_12_text):
        if d == 12:
            text = bench_degree_12_text
        else:
            f = bench_shaped(d, random.Random(f"shaped-{d}"))
            n = random.Random(d).randint(10**18, 10**19)
            text = format_slp(emit_power_slp(analyze_minpoly(f), n))
        p = parse_slp(text)
        assert p == parse_slp_oracle(text)
        assert format_slp(p) == text


class TestFaultsDeepInALongProgram:
    """The parser reads runs of canonical lines a piece at a time and checks
    operands when the program is built; a fault thousands of lines into the
    benchmark's program must still be the reference parser's, at its line,
    and non-canonical lines there must read as the reference reads them."""

    @pytest.mark.parametrize(
        "edit",
        ["forward", "duplicate", "opcode", "blank", "zero", "forward-then-opcode", "missing-result"],
    )
    def test_agrees_with_oracle(self, edit, bench_degree_12_text):
        lines = bench_degree_12_text.split("\n")
        i, j = 15_003, 18_007
        if edit in ("forward", "forward-then-opcode"):
            lines[i] = lines[i].rsplit(" ", 1)[0] + f" v{i}"
        if edit == "duplicate":
            lines[i] = lines[i - 1]
        if edit in ("opcode", "forward-then-opcode"):
            lines[j] = lines[j].replace(" = ", " = div ", 1)
        if edit == "blank":
            lines[i] = lines[i].replace(" ", "\t")
        if edit == "zero":
            lines[i] = lines[i].replace(" v", " v0")
        if edit == "missing-result":
            del lines[-2]
        text = "\n".join(lines)
        assert parsed(parse_slp, text) == parsed(parse_slp_oracle, text)
