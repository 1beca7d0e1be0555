"""CLI: parsing, subcommands, exit codes, JSON output."""

import decimal
import json
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import mpmath
import pytest

from pisot import cli, errors, limits, powtrace
from pisot.algebraic import IntPoly, analyze_minpoly
from pisot.cli import main, parse_poly, run
from pisot.lattice import IntLattice
from pisot.limits import MAX_SEARCH_DEGREE
from pisot.powtrace import nearest_power
from conftest import MALFORMED_PROGRAMS, pisot_shaped
from oracles import parse_poly_oracle


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePoly:
    def test_basic(self):
        assert parse_poly("x^2-x-1") == IntPoly((-1, -1, 1))
        assert parse_poly("x^3 - x - 1") == IntPoly((-1, -1, 0, 1))
        assert parse_poly("  -x + x^2 - 1") == IntPoly((-1, -1, 1))
        assert parse_poly("2x^2 + 3") == IntPoly((3, 0, 2))

    def test_combines_like_terms(self):
        assert parse_poly("x^2 + x - x - 1") == IntPoly((-1, 0, 1))

    @pytest.mark.parametrize("bad", ["", "x^", "x +", "^2", "x^2 + + 1", "y^2", "5"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(errors.PolySyntaxError):
            parse_poly(bad)

    def test_offset_reported(self):
        with pytest.raises(errors.PolySyntaxError) as exc:
            parse_poly("x^2 -")
        assert exc.value.offset == 5

    def test_agrees_with_oracle(self):
        """The polynomial, or the message and offset, of the reference
        scanner, on seeded strings of the grammar's characters: half drawn
        character by character, half as signed terms with one edit."""

        def parsed(parse, text):
            try:
                return parse(text)
            except errors.PolySyntaxError as exc:
                return str(exc), exc.offset

        rng = random.Random(36)
        pieces = ["x", "^", "0", "1", "2", "9", "12", "+", "-", "*", " ", "\t"]
        for _ in range(20_000):
            if rng.random() < 0.5:
                text = "".join(rng.choices(pieces, k=rng.randrange(13)))
            else:
                text = "".join(rng.choice(["", "+", "-", " - ", "+ "]) + rng.choice(["", "2", "012"])
                               + rng.choice(["", "x", "x^2", "x^09", "x^12"])
                               for _ in range(rng.randrange(1, 5)))
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice(pieces + [""]) + text[i + rng.randrange(2):]
            assert parsed(parse_poly, text) == parsed(parse_poly_oracle, text), repr(text)


class TestPow:
    def test_lucas(self, capsys):
        code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "10")
        assert code == 0 and out.strip() == "123"

    def test_modular_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "pow", "--minpoly", "x^2-x-1",
            "-n", "1000000000000000000",
            "-m", "2305843009213693951",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["result"] == "1682287737405264361"

    def test_huge_n_without_modulus_is_usage_error(self, capsys, monkeypatch):
        # Refused before the work, as every input past a cap of pisot.limits.
        def no_isolation(f):
            raise AssertionError("analyze_minpoly ran")

        monkeypatch.setattr(cli, "analyze_minpoly", no_isolation)
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", str(limits.MAX_EXACT_N + 1))
        assert code == 2 and "needs -m" in err

    def test_non_pisot_fails_cleanly(self, capsys):
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2+2", "-n", "5")
        assert code == 1 and "NotPisot" in err

    def test_non_monic_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "pow", "--minpoly", "2x^2-x-1", "-n", "5")
        assert code == 2 and "NotMonic" in err

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2 -", "-n", "5")
        assert code == 2 and "PolySyntaxError" in err

    def test_negative_n_rejected(self, capsys):
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "-3")
        assert code == 2


# x^2-3x+1 has roots phi^2 and phi^-2, so [alpha^n] = a_n with a_0 = 2,
# a_1 = 3 and a_{n+2} = 3a_{n+1} - a_n; at n = 11000 it has about 4600
# digits, more than Python's default int->str limit of 4300.
LONG_N = 11000
PRIME = 2**61 - 1


def check_long_power(text: str):
    a, b = 2, 3
    for _ in range(LONG_N):
        a, b = b, (3 * b - a) % PRIME
    assert int(text) % PRIME == a
    with mpmath.workdps(40):
        digits = int(mpmath.floor(LONG_N * mpmath.log10((3 + mpmath.sqrt(5)) / 2))) + 1
    assert len(text) == digits


class TestLongResults:
    def test_pow_json(self, capsys):
        code, out, _ = invoke(
            capsys, "pow", "--minpoly", "x^2-3x+1", "-n", str(LONG_N), "--json"
        )
        assert code == 0
        check_long_power(json.loads(out)["result"])

    def test_pow_plain(self, capsys):
        code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-3x+1", "-n", str(LONG_N))
        assert code == 0
        check_long_power(out.strip())

    def test_slp_eval_exact(self, capsys, tmp_path):
        path = tmp_path / "long.slp"
        code, _, _ = invoke(
            capsys, "slp", "emit", "--minpoly", "x^2-3x+1", "-n", str(LONG_N),
            "-o", str(path),
        )
        assert code == 0
        code, out, _ = invoke(capsys, "slp", "eval", str(path))
        assert code == 0
        check_long_power(out.strip())
        code, out, _ = invoke(capsys, "slp", "eval", str(path), "--json")
        assert code == 0
        check_long_power(json.loads(out)["result"])

    def test_21_character_n_is_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "pow", "--minpoly", "x^2-x-1", "-n", "1" * 21, "-m", "7"
        )
        assert code == 2 and "ParseError" in err
        code, _, err = invoke(
            capsys, "pow", "--minpoly", "x^2-x-1", "-n", "5", "-m", "0" * 21
        )
        assert code == 2 and "ParseError" in err


EXACT_POLYS = {f"{k}-nacci": IntPoly((-1,) * k + (1,)) for k in range(2, 13)}
EXACT_POLYS.update(
    {f"shaped-{d}": pisot_shaped(d, random.Random(1000 + d)) for d in range(2, 13)}
)


class TestExactDecimal:
    """Exact results are computed and printed in `decimal`; they must carry
    the int engine's digits, and leave the caller's context alone."""

    @pytest.mark.parametrize("f", EXACT_POLYS.values(), ids=EXACT_POLYS)
    def test_same_digits_as_the_int_engine(self, capsys, f):
        info = analyze_minpoly(f)
        n0 = info.threshold_n0
        rng = random.Random(str(f))
        with powtrace._exact_decimal():
            for n in range(601):
                exact = nearest_power(info, n, lift=decimal.Decimal)
                assert str(exact) == str(nearest_power(info, n)), f"n={n}"
        # Through the CLI's printer around n0, also as JSON, and up to 10^5.
        for n in sorted({max(n0 - 1, 0), n0, n0 + 1}):
            code, out, _ = invoke(capsys, "pow", "--minpoly", str(f), "-n", str(n), "--json")
            assert code == 0 and int(json.loads(out)["result"]) == nearest_power(info, n)
        sampled = {rng.randint(601, 10**4), rng.randint(10**4, 10**5)}
        for n in sorted({max(n0 - 1, 0), n0, n0 + 1} | sampled):
            code, out, _ = invoke(capsys, "pow", "--minpoly", str(f), "-n", str(n))
            assert code == 0 and out == f"{nearest_power(info, n)}\n", f"n={n}"

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 500])
    def test_slp_eval_equals_pow(self, capsys, tmp_path, n):
        # The plastic number has n0 = 10: below it the program is a constant.
        path = tmp_path / "prog.slp"
        code, _, _ = invoke(
            capsys, "slp", "emit", "--minpoly", "x^3-x-1", "-n", str(n), "-o", str(path)
        )
        assert code == 0
        for flags in ([], ["--json"]):
            _, powered, _ = invoke(capsys, "pow", "--minpoly", "x^3-x-1", "-n", str(n), *flags)
            code, evaluated, _ = invoke(capsys, "slp", "eval", str(path), *flags)
            assert code == 0
            if flags:
                assert json.loads(evaluated)["result"] == json.loads(powered)["result"]
            else:
                assert evaluated == powered

    def test_json_number_below_1e15_and_string_above(self, capsys, monkeypatch):
        # L_71 < 10^15 < L_72 (Lucas numbers, x^2-x-1).
        dumps = json.dumps

        def checked(obj):
            assert not any(isinstance(v, decimal.Decimal) for v in obj.values())
            return dumps(obj)

        monkeypatch.setattr(cli.json, "dumps", checked)
        code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "71", "--json")
        assert code == 0 and json.loads(out)["result"] == 688846502588399
        code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "72", "--json")
        assert code == 0 and json.loads(out)["result"] == "1114577054219522"
        assert cli._json_int(decimal.Decimal(10**15 - 1)) == 10**15 - 1
        assert cli._json_int(decimal.Decimal(-(10**15))) == str(-(10**15))

    def test_negative_zero_prints_as_zero(self, capsys, tmp_path):
        # 0 * -1 is Decimal("-0"); the int engine gives 0.
        path = tmp_path / "zero.slp"
        path.write_text(
            "slp v1\nv0 = one\nv1 = sub v0 v0\nv2 = sub v1 v0\nv3 = mul v1 v2\nresult v3\n"
        )
        code, out, _ = invoke(capsys, "slp", "eval", str(path))
        assert code == 0 and out == "0\n"
        code, out, _ = invoke(capsys, "slp", "eval", str(path), "--json")
        assert code == 0 and out == '{"length": 3, "result": 0}\n'

    def test_callers_context_is_unchanged(self, capsys, tmp_path):
        ctx = decimal.getcontext()
        before = (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags))
        path = tmp_path / "prog.slp"
        for argv in (
            ("pow", "--minpoly", "x^2-x-1", "-n", "5000"),
            ("pow", "--minpoly", "x^3-x-1", "-n", "3", "--json"),
            ("pow", "--minpoly", "x^2+2", "-n", "5"),
            ("slp", "emit", "--minpoly", "x^2-x-1", "-n", "300", "-o", str(path)),
            ("slp", "eval", str(path)),
        ):
            main(list(argv))
        capsys.readouterr()
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)) == before

    def test_any_rounding_raises(self):
        with powtrace._exact_decimal() as ctx:
            with pytest.raises(decimal.Inexact):
                decimal.Decimal("0.5").to_integral_exact()
            with pytest.raises(decimal.Inexact):
                decimal.Decimal(f"1E{ctx.Etiny()}") * decimal.Decimal("0.1")
            # At MAX_PREC a quotient with no end is sized by the precision,
            # so libmpdec refuses it before it could round.
            with pytest.raises((decimal.Inexact, MemoryError)):
                decimal.Decimal(1) / 3
            assert decimal.Decimal(10**40) * 10**40 == 10**80

    def test_each_entry_starts_from_the_exact_context(self):
        # Each entry copies the one module-level context: what one entry
        # sets, by hand or by an operation, neither reaches the next nor
        # changes that context.
        exact = powtrace._EXACT
        before = (exact.prec, dict(exact.traps), dict(exact.flags))
        with powtrace._exact_decimal() as ctx:
            assert ctx is not exact
            ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = False
            ctx.traps[decimal.FloatOperation] = True
            decimal.Decimal("0.5").to_integral_exact()  # now only flags Inexact
            assert ctx.flags[decimal.Inexact]
            ctx.flags[decimal.Clamped] = True
            ctx.prec = 5
        with powtrace._exact_decimal() as ctx:
            assert ctx.prec == decimal.MAX_PREC and not any(ctx.flags.values())
            assert dict(ctx.traps) == before[1]
            assert ctx.traps[decimal.Inexact] and ctx.traps[decimal.Rounded]
            with pytest.raises(decimal.Inexact):
                decimal.Decimal("0.5").to_integral_exact()
        assert (exact.prec, dict(exact.traps), dict(exact.flags)) == before
        assert not any(exact.flags.values())


def test_parser_is_built_once_and_keeps_the_exit_codes(capsys):
    assert cli._parser() is cli._parser()
    for _ in range(2):
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2-x-1")
        assert code == 2 and "the following arguments are required: -n" in err
        code, _, err = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "5", "--precision", "0")
        assert code == 2 and "--precision" in err
        assert main(["frobnicate"]) == 2
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and out.startswith("usage: pisot")
        code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "10")
        assert code == 0 and out == "123\n"
        with pytest.raises(SystemExit) as exc:
            run(["pow"])
        assert exc.value.code == 2
    capsys.readouterr()


class TestThresholdAndBound:
    def test_threshold(self, capsys):
        code, out, _ = invoke(capsys, "threshold", "--minpoly", "x^3-x-1")
        assert code == 0 and out.strip() == "10"

    def test_threshold_json(self, capsys):
        code, out, _ = invoke(
            capsys, "threshold", "--minpoly", "x^2-x-1", "--json"
        )
        obj = json.loads(out)
        assert obj["threshold_n0"] == 2

    def test_threshold_not_squarefree(self, capsys):
        # (x^2-x-1)^2: rejected exactly, not after exhausting precision
        code, _, err = invoke(capsys, "threshold", "--minpoly", "x^4-2x^3-x^2+2x+1")
        assert code == 1 and "NotSquarefree" in err

    def test_threshold_zero_constant_term(self, capsys):
        # x(x^2-x-1) is reducible, so it is no Pisot minimal polynomial
        code, _, err = invoke(capsys, "threshold", "--minpoly", "x^3-x^2-x")
        assert code == 1 and "NotPisot" in err

    def test_bound(self, capsys):
        code, out, _ = invoke(
            capsys, "bound", "--degree", "4", "--disc", "1125", "--delta", "1/2"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(268.328157, abs=1e-4)


class TestSLPCommands:
    def test_emit_eval_round_trip(self, capsys, tmp_path):
        path = tmp_path / "prog.slp"
        code, _, _ = invoke(
            capsys, "slp", "emit", "--minpoly", "x^2-x-1", "-n", "10", "-o", str(path)
        )
        assert code == 0
        code, out, _ = invoke(capsys, "slp", "eval", str(path))
        assert code == 0 and out.strip() == "123"
        code, out, _ = invoke(capsys, "slp", "eval", str(path), "-m", "100", "--json")
        assert code == 0 and json.loads(out)["result"] == 23

    def test_emit_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "slp", "emit", "--minpoly", "x^2-x-1", "-n", "3")
        assert code == 0 and out.startswith("slp v1\nv0 = one\n")

    def test_eval_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.slp"
        path.write_text("slp v1\nv0 = one\nv1 = frob v0 v0\nresult v1\n")
        code, _, err = invoke(capsys, "slp", "eval", str(path))
        assert code == 2 and "MalformedProgram" in err

    def test_eval_non_ascii_file(self, capsys, tmp_path):
        # Once an untyped UnicodeDecodeError with a traceback (exit 1).
        path = tmp_path / "bad.slp"
        path.write_bytes("slp v1\r\nv0 = one\rv1 = add v0 v0\nresult v²\n".encode())
        code, out, err = invoke(capsys, "slp", "eval", str(path), "-m", "7")
        assert code == 2 and out == ""
        assert err == "MalformedProgram: line 4: non-ASCII byte 0xc2\n"

    def test_eval_reads_crlf_and_cr_line_ends(self, capsys, tmp_path):
        path = tmp_path / "crlf.slp"
        path.write_bytes(b"slp v1\r\nv0 = one\rv1 = add v0 v0\r\nresult v1\r\n")
        code, out, _ = invoke(capsys, "slp", "eval", str(path))
        assert code == 0 and out == "2\n"

    def test_eval_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "slp", "eval", str(tmp_path / "nope.slp"))
        assert code == 1


class TestFindAndVerify:
    def test_verify_fixture_json(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "--conductor", "15",
            "--coeffs", "2105,1215,1440,139",
            "--epsilon", "0.5",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["minpoly"] == ["1", "21", "-229", "-4899", "1"]

    def test_verify_epsilon_violation(self, capsys):
        code, _, err = invoke(
            capsys,
            "verify", "--conductor", "15",
            "--coeffs", "2105,1215,1440,139",
            "--epsilon", "0.01",
        )
        assert code == 1 and "NotPisot" in err

    def test_verify_bad_coeffs(self, capsys):
        code, _, err = invoke(
            capsys, "verify", "--conductor", "15", "--coeffs", "1,2,three,4"
        )
        assert code == 2

    def test_verify_accepts_find_answer(self, capsys):
        # The answer has 128-bit coefficients; verify sizes its precision
        # from them.
        code, out, _ = invoke(
            capsys, "find", "--conductor", "31", "--epsilon", "1/4", "--json"
        )
        assert code == 0
        found = json.loads(out)
        code, out, err = invoke(
            capsys,
            "verify", "--conductor", "31",
            "--coeffs=" + ",".join(found["coefficients"]),
            "--epsilon", "1/4",
            "--json",
        )
        assert code == 0, err
        verified = json.loads(out)
        assert verified["coefficients"] == found["coefficients"]
        assert verified["minpoly"] == found["minpoly"]

    def test_find_requires_field(self, capsys):
        code, _, err = invoke(capsys, "find")
        assert code == 2

    def test_find_explicit_file(self, capsys, tmp_path):
        import mpmath
        from mpmath import mp

        with mp.workprec(220):
            s = mpmath.nstr(mpmath.sqrt(2), 60)
        spec = {
            "kind": "explicit",
            "basis_labels": ["1", "sqrt2"],
            "embedding_rows": [["1", s], ["1", "-" + s]],
            "precision_bits": 190,
            "discriminant": "8",
        }
        path = tmp_path / "field.json"
        path.write_text(json.dumps(spec))
        # 190 stated bits, below the 256-bit floor: the floor drops to them.
        code, out, _ = invoke(capsys, "find", "--field", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["minpoly"] == ["-1", "-2", "1"]
        code, out, _ = invoke(
            capsys, "verify", "--field", str(path), "--coeffs=1,1", "--json"
        )
        assert code == 0 and json.loads(out)["minpoly"] == ["-1", "-2", "1"]

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("pow", "--minpoly", "x^2-x-1", "-n", "5"),
        ("threshold", "--minpoly", "x^3-x-1"),
        ("slp", "emit", "--minpoly", "x^2-x-1", "-n", "5"),
        ("find", "--conductor", "15"),
        ("verify", "--conductor", "15", "--coeffs", "2105,1215,1440,139"),
    ],
    ids=["pow", "threshold", "slp-emit", "find", "verify"],
)
def test_precision_below_one_is_usage_error(capsys, argv):
    # Every precision derives from the input: --precision is an unrecognized
    # argument at any value, below one or well formed.
    for bits in ("0", "300000"):
        code, _, err = invoke(capsys, *argv, "--precision", bits)
        assert code == 2 and f"unrecognized arguments: --precision {bits}" in err


@pytest.mark.parametrize(
    "coeffs", ["1,2", "1,2,3,4,5", "0,0,0,0"], ids=["short", "long", "zero"]
)
def test_verify_bad_coefficient_vector_is_usage_error(capsys, coeffs):
    code, _, err = invoke(capsys, "verify", "--conductor", "15", "--coeffs", coeffs)
    assert code == 2 and "ParseError" in err and "--coeffs" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("find", "--conductor", "15", "--epsilon", "2"), "--epsilon"),
        (("find", "--conductor", "15", "--epsilon", "0"), "--epsilon"),
        (("verify", "--conductor", "15", "--coeffs", "2105,1215,1440,139",
          "--epsilon", "-1"), "--epsilon"),
        (("verify", "--conductor", "15", "--coeffs", "2105,1215,1440,139",
          "--epsilon", "3/2"), "--epsilon"),
        (("bound", "--degree", "4", "--disc", "1125", "--delta", "2"), "--delta"),
        (("bound", "--degree", "4", "--disc", "1125", "--delta", "0"), "--delta"),
    ],
    ids=["find-2", "find-0", "verify-neg", "verify-3/2", "bound-2", "bound-0"],
)
def test_out_of_range_rational_is_usage_error(capsys, argv, flag):
    code, _, err = invoke(capsys, *argv)
    assert code == 2 and "ParseError" in err and flag in err


@pytest.mark.parametrize("command", ["find", "verify"])
def test_conductor_and_field_together_is_usage_error(capsys, tmp_path, command):
    argv = [command, "--conductor", "15", "--field", str(tmp_path / "field.json")]
    if command == "verify":
        argv += ["--coeffs", "2105,1215,1440,139"]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("bound", "--degree", "0", "--disc", "5", "--delta", "1/2"), "--degree"),
        (("bound", "--degree", "-3", "--disc", "5", "--delta", "1/2"), "--degree"),
        (("bound", "--degree", "4", "--disc", "0", "--delta", "1/2"), "--disc"),
        (("find", "--conductor", "0"), "--conductor"),
        (("find", "--conductor", "-7"), "--conductor"),
        (("verify", "--conductor", "0", "--coeffs", "1,2"), "--conductor"),
        (("verify", "--conductor", "-7", "--coeffs", "1,2"), "--conductor"),
    ],
    ids=["degree-0", "degree-neg", "disc-0", "find-0", "find-neg", "verify-0", "verify-neg"],
)
def test_out_of_range_integer_is_usage_error(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("ParseError:") and flag in err


def _least_conductor_above_cap():
    """The least conductor whose field has degree above MAX_SEARCH_DEGREE."""
    n = 3
    while n % 4 == 2 or sum(gcd(a, n) == 1 for a in range(1, n // 2 + 1)) <= MAX_SEARCH_DEGREE:
        n += 1
    return n


ABOVE_CAP = str(_least_conductor_above_cap())


@pytest.mark.parametrize(
    "argv",
    [
        ("find", "--conductor", ABOVE_CAP),
        ("verify", "--conductor", ABOVE_CAP, "--coeffs", "1,2"),
        ("bound", "--degree", str(MAX_SEARCH_DEGREE + 1), "--disc", "5", "--delta", "1/2"),
        ("find", "--conductor", "10007"),
        ("verify", "--conductor", str(10**40 + 1), "--coeffs", "1,2"),
        ("bound", "--degree", "3000000", "--disc", "5", "--delta", "1/3"),
    ],
    ids=["find", "verify", "bound", "find-10007", "verify-10^40+1", "bound-3000000"],
)
def test_degree_above_cap_is_usage_error(capsys, argv):
    # Decided before any embedding, so each ends at once.
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("ParseError:") and "MAX_SEARCH_DEGREE" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("command", ["find", "verify"])
def test_field_file_above_cap_is_usage_error(capsys, tmp_path, command):
    k = MAX_SEARCH_DEGREE + 1
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "kind": "explicit",
        "embedding_rows": [["1"] * k] * k,
        "precision_bits": 256,
    }))
    argv = [command, "--field", str(path)] + (["--coeffs", "1,2"] if command == "verify" else [])
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("ParseError:") and "MAX_SEARCH_DEGREE" in err


def test_bound_at_the_degree_cap(capsys):
    code, out, _ = invoke(
        capsys, "bound", "--degree", str(MAX_SEARCH_DEGREE), "--disc", "5", "--delta", "1/2"
    )
    assert code == 0 and float(out) > 2 ** (MAX_SEARCH_DEGREE - 1)


BOUND_AT_CAP = ("bound", "--degree", str(MAX_SEARCH_DEGREE), "--disc", "7", "--delta")
DELTA_CAP = 10**limits.MAX_DELTA_DIGITS


@pytest.mark.parametrize(
    "delta,what",
    [
        ("0." + "1" * (limits.MAX_DELTA_CHARS - 1), "characters"),
        (f"1e-{limits.MAX_DELTA_DIGITS + 1}", "exponent"),
        (f"1e-{10**9}", "exponent"),
        (f"1/{DELTA_CAP + 1}", "denominator"),
    ],
    ids=["chars", "exponent", "exponent-10^9", "denominator"],
)
def test_delta_beyond_its_caps_is_usage_error(capsys, delta, what):
    # Decided before minkowski_bound: 1e-30000 once ran for minutes.
    start = time.perf_counter()
    code, out, err = invoke(capsys, *BOUND_AT_CAP, delta)
    assert code == 2 and out == ""
    assert err.startswith("ParseError: --delta") and what in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "delta",
    [f"1e-{limits.MAX_DELTA_DIGITS}", f"1/{DELTA_CAP}", f"{DELTA_CAP - 1}/{DELTA_CAP}"],
    ids=["exponent", "denominator", "chars"],
)
def test_delta_at_its_caps_is_served_at_once(capsys, delta):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, *BOUND_AT_CAP, delta)
    assert code == 0 and float(out) > 1
    assert time.perf_counter() - start < 1


def test_small_delta_prints_what_it_printed(capsys):
    # byte for byte what `bound` printed at degree 68, then the degree cap,
    # before --delta was capped
    code, out, _ = invoke(capsys, "bound", "--degree", "68", "--disc", "7", "--delta", "1e-300")
    assert code == 0 and out == "2.6457513110645905905e+20100\n"


EPSILON_CAP = 10**limits.MAX_EPSILON_DIGITS


@pytest.mark.parametrize("command", ["find", "verify"])
@pytest.mark.parametrize(
    "epsilon,what",
    [
        ("0." + "1" * (limits.MAX_EPSILON_CHARS - 1), "characters"),
        (f"1e-{limits.MAX_EPSILON_DIGITS + 1}", "exponent"),
        ("1e-1000000", "exponent"),
        (f"1/{EPSILON_CAP + 1}", "denominator"),
    ],
    ids=["chars", "exponent", "exponent-10^6", "denominator"],
)
def test_epsilon_beyond_its_caps_is_usage_error(capsys, command, epsilon, what):
    # Decided before any embedding: find at 1e-1000000 once ran without end.
    argv = [command, "--conductor", "5", "--epsilon", epsilon]
    if command == "verify":
        argv += ["--coeffs", "1,1"]
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("ParseError: --epsilon") and what in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "epsilon",
    [f"1e-{limits.MAX_EPSILON_DIGITS}", f"1/{EPSILON_CAP}", f"{EPSILON_CAP - 1}/{EPSILON_CAP}"],
    ids=["exponent", "denominator", "chars"],
)
def test_epsilon_at_its_caps_is_served(capsys, epsilon):
    code, out, _ = invoke(capsys, "find", "--conductor", "5", "--epsilon", epsilon, "--json")
    assert code == 0 and json.loads(out)["epsilon"]


@pytest.mark.parametrize("conductor", ["1", "4", "6"])
def test_unsupported_conductor_is_a_failure(capsys, conductor):
    # A well-formed conductor whose field has degree < 2 or is 2 mod 4.
    code, _, err = invoke(capsys, "find", "--conductor", conductor)
    assert code == 1 and err.startswith("UnsupportedConductor:")


@pytest.mark.parametrize("m", [15, 21, 33])
def test_conductor_2_mod_4_prints_what_its_odd_half_prints(capsys, m):
    # Q(zeta_2m) = Q(zeta_m) for odd m: the same field, search and answer.
    half = invoke(capsys, "find", "--conductor", str(m), "--json")
    assert half[0] == 0 and json.loads(half[1])["conductor"] == m
    assert invoke(capsys, "find", "--conductor", str(2 * m), "--json") == half


def test_huge_values_fail_with_a_typed_message(capsys, tmp_path):
    # Error messages print these magnitudes; beyond the float range they
    # must not end in an OverflowError traceback.
    code, _, err = invoke(
        capsys, "verify", "--conductor", "15", "--coeffs", f"{10**400},1,1,1"
    )
    assert code == 1 and err.startswith("NotPisot:") and "e+400" in err
    # A coefficient of 60,000 digits needs about 400k bits, above the cap.
    start = time.perf_counter()
    code, _, err = invoke(
        capsys, "verify", "--conductor", "15", "--coeffs", "1" + "0" * 60000 + ",1,1,1"
    )
    assert code == 1 and err.startswith("PrecisionExhausted:")
    assert time.perf_counter() - start < 1
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "kind": "explicit",
        "embedding_rows": [["1", "1e400"], ["1", "-1e400"]],
        "precision_bits": 256,
    }))
    code, _, err = invoke(capsys, "find", "--field", str(path))
    assert code == 1 and err.startswith("PrecisionError:")


def test_a_long_coefficient_is_refused_before_it_is_parsed(capsys, monkeypatch):
    # int() is quadratic in the digits: a million of them took 6.8 s to parse
    # before the build refused the precision they need.
    def embed(spec, bits):
        raise AssertionError(f"embedded at {bits} bits")

    monkeypatch.setattr(cli, "embeddings_for", embed)
    start = time.perf_counter()
    code, _, err = invoke(
        capsys, "verify", "--conductor", "15", "--coeffs=-" + "9" * 1_000_000 + ",1,1,1"
    )
    assert code == 1 and err.startswith("PrecisionExhausted:") and " 1000000-digit " in err
    assert time.perf_counter() - start < 1


def test_leading_zeros_of_a_coefficient_are_not_digits(capsys):
    plain = invoke(capsys, "verify", "--conductor", "15", "--coeffs", "2105,1215,1440,139")
    zeros = "0" * 1_000_000
    padded = invoke(
        capsys, "verify", "--conductor", "15", "--coeffs", f"{zeros}2105,1215,1440,139"
    )
    assert plain[0] == 0 and padded == plain


@pytest.mark.parametrize("entry", ["1e10000000", "1e-10000000"], ids=["huge", "tiny"])
def test_extreme_decimal_exponents_end_at_once(capsys, tmp_path, entry):
    # The entry is sized from its exponent, never expanded: one too large for
    # any error bound at 2^256 is a PrecisionError, and one below 2^-320 is 0
    # at that scale, which leaves a dependent basis.
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "kind": "explicit",
        "embedding_rows": [["1", entry], ["1", "-" + entry]],
        "precision_bits": 256,
    }))
    start = time.perf_counter()
    code, _, err = invoke(capsys, "find", "--field", str(path))
    assert time.perf_counter() - start < 1
    expected = "PrecisionError:" if entry == "1e10000000" else "RankDeficient:"
    assert code == 1 and err.startswith(expected)


@pytest.mark.parametrize("entry", ["null", '"1e%s"' % ("9" * 50)], ids=["null", "exponent"])
def test_non_decimal_entries_are_usage_errors(capsys, tmp_path, entry):
    # null is not a decimal entry. An exponent of 50 digits is refused as
    # written, never expanded.
    path = tmp_path / "field.json"
    path.write_text(
        '{"kind": "explicit", "embedding_rows": [[1, %s], [1, 2]], "precision_bits": 256}' % entry
    )
    code, _, err = invoke(capsys, "find", "--field", str(path))
    assert code == 2 and err.startswith("ParseError:")


# `threshold --json` as the mpmath.polyroots-based root isolation printed it;
# any root solver must give the same n0 and the same 20 digits.
KNACCI_PINS = {  # k: (n0, second_modulus) of x^k - x^(k-1) - ... - 1
    2: (2, "0.6180339887498948482"),
    3: (5, "0.7373527057603276752"),
    4: (9, "0.81827609877953977222"),
    5: (16, "0.87104794173717675365"),
    6: (24, "0.90621496381267945505"),
    7: (35, "0.93029164666568139217"),
    8: (49, "0.94718711090513550339"),
    9: (67, "0.95930122629471424411"),
    10: (90, "0.96815244813705596131"),
    11: (118, "0.97472909312757126196"),
    12: (151, "0.97969042595716280908"),
    13: (191, "0.98348557859041516741"),
    14: (239, "0.98642616831409409259"),
    15: (295, "0.98873192259386034317"),
    16: (359, "0.99056005087351504616"),
    17: (433, "0.99202454820713995515"),
    18: (518, "0.99320910929519144432"),
    19: (614, "0.99417590354480942781"),
    20: (722, "0.99497162160481132464"),
    21: (843, "0.99563169541356674006"),
    22: (978, "0.99618327872486781054"),
    23: (1127, "0.9966473758586983876"),
    24: (1292, "0.99704037828720914062"),
    25: (1473, "0.99737518501614357706"),
    26: (1672, "0.99766202738793118435"),
    27: (1888, "0.99790908188760101422"),
    28: (2124, "0.99812292945445978108"),
    29: (2379, "0.99830890264713406242"),
    30: (2655, "0.99847135015711797108"),
}
THRESHOLD_PINS = {
    **{f"{k}-nacci": (str(IntPoly((-1,) * k + (1,))), *pin) for k, pin in KNACCI_PINS.items()},
    "plastic": ("x^3 - x - 1", 10, "0.86883696183270930181"),
    "quartic": ("x^4 - 4899x^3 - 229x^2 + 21x + 1", 1, "0.065726438484347730112"),
    "x^2-3x+1": ("x^2 - 3x + 1", 1, "0.3819660112501051518"),
    # The benchmark's other searched minpolys (its slow-decay cubics and
    # quartics are the 3- and 4-nacci and the plastic polynomial above) and
    # its degree-12 polynomial, as printed while root isolation still
    # refined and certified both members of each conjugate pair.
    "x^2-4x-1": ("x^2 - 4x - 1", 1, "0.23606797749978969641"),
    "x^2-11x-1": ("x^2 - 11x - 1", 1, "0.090169943749474241023"),
    "x^3-20x^2": ("x^3 - 20x^2 - 9x - 1", 1, "0.22952120737367602805"),
    "x^3-83x^2": ("x^3 - 83x^2 + 19x - 1", 1, "0.14748898226795085164"),
    "x^3-418x^2": ("x^3 - 418x^2 + 41x - 1", 1, "0.05267998463426999511"),
    "x^4-633x^3": ("x^4 - 633x^3 + 14x^2 + 18x + 1", 2, "0.20184139533361323059"),
    "x^4-23434x^3": ("x^4 - 23434x^3 - 754x^2 + 31x + 1", 1, "0.036393113866509420216"),
    "degree-12": ("x^12 - 21x^11 + 2x^10 - 2x^9 - x^8 + 2x^7 + 2x^6 - 2x^4 - 2x^3 + 2x^2 + 2x + 2",
                  38, "0.92115585289692542615"),
    # With the k-nacci, plastic, quartic and x^2-3x+1 pins above, these are
    # THRESHOLD_POLYS (tests/test_algebraic.py): its 50 random Pisot-shaped
    # polynomials, as printed while the first root layout was certified at
    # 128 bits.
    "random-0": ("x^9 - 19x^8 + x^7 + x^5 - x^4 + x^2 + x - 1", 10, "0.74533544928291738633"),
    "random-1": ("x^6 - 13x^5 + x^2 + x - 1", 6, "0.65555627101997491567"),
    "random-2": ("x^8 - 17x^7 - x^6 + x^5 + x^3 + x^2 - 1", 8, "0.70602167750720912517"),
    "random-3": ("x^5 - 11x^4 - x^3 + x^2 + x + 1", 5, "0.64504834035969954625"),
    "random-4": ("x^10 - 21x^9 + x^8 - x^7 + x^4 - x^2 - 1", 10, "0.74088186239672307953"),
    "random-5": ("x^4 - 9x^3 + 1", 3, "0.48980149137237201922"),
    "random-6": ("x^7 - 15x^6 + x^5 - 1", 6, "0.65124870901553573134"),
    "random-7": ("x^5 - 11x^4 - x^3 - x^2 - x + 1", 5, "0.60050298408503846062"),
    "random-8": ("x^5 - 11x^4 + x^2 - 1", 4, "0.55511143249600342831"),
    "random-9": ("x^11 - 23x^10 - x^7 - x^6 + x^5 + x^4 - x^2 + x + 1", 13,
                 "0.79360801022669755527"),
    "random-10": ("x^4 - 9x^3 - 1", 3, "0.48483132075565469963"),
    "random-11": ("x^11 - 23x^10 - x^9 + x^7 + x^6 + x^3 - 1", 11, "0.74865287142738510983"),
    "random-12": ("x^12 - 25x^11 - x^9 - x^8 - x^7 - x^6 - x^5 + x^4 + x^3 - x^2 - 1", 14,
                  "0.79872003899436747593"),
    "random-13": ("x^5 - 11x^4 - x^3 - x^2 - x + 1", 5, "0.60050298408503846062"),
    "random-14": ("x^6 - 13x^5 + x^3 + x - 1", 6, "0.68043953219343966973"),
    "random-15": ("x^9 - 19x^8 - x^4 - x^3 + x + 1", 11, "0.76795240982419336059"),
    "random-16": ("x^4 - 9x^3 - x^2 + x + 1", 3, "0.52830791346561457812"),
    "random-17": ("x^9 - 19x^8 - x^5 + x^4 - x^3 - x - 1", 10, "0.74872426219584482636"),
    "random-18": ("x^2 - 5x + 1", 1, "0.20871215252207999671"),
    "random-19": ("x^12 - 25x^11 + x^10 - x^9 + x^8 + x^7 - x^6 - x^5 + x^4 - x^3 - x^2 - x - 1", 17,
                  "0.82520379726261183783"),
    "random-20": ("x^4 - 9x^3 + x^2 - 1", 3, "0.50544749673596492457"),
    "random-21": ("x^4 - 9x^3 - x^2 - x - 1", 3, "0.50433909636723925448"),
    "random-22": ("x^11 - 23x^10 - x^9 + x^8 - x^7 + x^6 - x^5 + x^4 + x^3 + x^2 + x - 1", 12,
                  "0.77873212755181930979"),
    "random-23": ("x^10 - 21x^9 + x^8 - x^7 - x^6 - x^5 - x^4 - x^2 - x + 1", 11,
                  "0.76037335657428813395"),
    "random-24": ("x^11 - 23x^10 - x^6 - x^4 + x^3 - x^2 + x - 1", 15, "0.81212115618154924068"),
    "random-25": ("x^9 - 19x^8 + x^7 + x^4 - x^2 + x + 1", 10, "0.75647035573148908826"),
    "random-26": ("x^4 - 9x^3 - x - 1", 3, "0.52683547367858460106"),
    "random-27": ("x^8 - 17x^7 - x^6 - x^5 + x^4 - x - 1", 8, "0.70949258066645495774"),
    "random-28": ("x^7 - 15x^6 - x^5 + x^4 + x^2 - x - 1", 7, "0.67272137451682255632"),
    "random-29": ("x^5 - 11x^4 + x^3 + x + 1", 5, "0.65845130080460538216"),
    "random-30": ("x^2 - 5x + 1", 1, "0.20871215252207999671"),
    "random-31": ("x^7 - 15x^6 + x^5 + x^3 + x - 1", 7, "0.67868550949709318325"),
    "random-32": ("x^4 - 9x^3 - x^2 + x - 1", 4, "0.58605119023321558536"),
    "random-33": ("x^8 - 17x^7 - x^3 - x^2 - x - 1", 10, "0.75633021722949538256"),
    "random-34": ("x^9 - 19x^8 - x^7 + x^5 - 1", 8, "0.70562908025512850878"),
    "random-35": ("x^2 - 5x - 1", 1, "0.19258240356725201563"),
    "random-36": ("x^3 - 7x^2 + 1", 2, "0.3889232446865155582"),
    "random-37": ("x^12 - 25x^11 - x^10 - x^9 - x^7 + x^5 - x^4 - x^3 + x^2 + x - 1", 16,
                  "0.81543943678498914435"),
    "random-38": ("x^7 - 15x^6 - x^4 + x^3 + x^2 - x - 1", 8, "0.71245144906980901667"),
    "random-39": ("x^3 - 7x^2 + 1", 2, "0.3889232446865155582"),
    "random-40": ("x^10 - 21x^9 + x^8 + x^7 - x^5 - x^4 + x^3 - x^2 - x - 1", 13,
                  "0.7872035956207180368"),
    "random-41": ("x^8 - 17x^7 + x^5 - x^4 + x^3 - x^2 + x + 1", 8, "0.71062560315305126024"),
    "random-42": ("x^6 - 13x^5 - x^3 + x^2 + 1", 5, "0.62132109254544120921"),
    "random-43": ("x^8 - 17x^7 - x^5 - x^4 + x^3 + x^2 + 1", 8, "0.70614518731373133753"),
    "random-44": ("x^5 - 11x^4 + x^2 + 1", 5, "0.60158155468396237662"),
    "random-45": ("x^6 - 13x^5 - x^4 + x^3 + x^2 - 1", 5, "0.61203962813262188254"),
    "random-46": ("x^6 - 13x^5 - x^2 + x + 1", 6, "0.65951918400539013722"),
    "random-47": ("x^10 - 21x^9 + x^8 - x^7 - x^6 + x^5 + x^4 + x - 1", 11,
                  "0.74908974475571224509"),
    "random-48": ("x^5 - 11x^4 + x + 1", 5, "0.62961086619367056234"),
    "random-49": ("x^5 - 11x^4 - x^3 + x + 1", 5, "0.60400439201921298723"),
}


@pytest.mark.parametrize("expr,n0,modulus", THRESHOLD_PINS.values(), ids=THRESHOLD_PINS)
def test_threshold_json_is_pinned(capsys, expr, n0, modulus):
    code, out, _ = invoke(capsys, "threshold", "--minpoly", expr, "--json")
    assert code == 0
    assert json.loads(out) == {"minpoly": expr, "threshold_n0": n0, "second_modulus": modulus}


@pytest.mark.parametrize("expr", ["x^3-100000x^2-99999", "x^3-1000000x^2-999999"])
def test_threshold_beyond_the_cap_fails_at_once(capsys, monkeypatch, expr):
    # |alpha_2| ~ 1 - 1/(2N) puts n0 near 2.8N: certified above the cap from
    # the first root layout, which no precision doubling could change.
    import pisot.algebraic

    layouts = []
    ladder = pisot.algebraic.root_layouts

    def counted(f, prec):
        for layout in ladder(f, prec):
            layouts.append(layout[0])
            yield layout

    monkeypatch.setattr(pisot.algebraic, "root_layouts", counted)
    code, _, err = invoke(capsys, "threshold", "--minpoly", expr)
    assert code == 1 and err.startswith("PrecisionExhausted: threshold n0 > 99999")
    assert len(layouts) == 1


def test_knacci_threshold_computes_no_determinant(capsys, monkeypatch):
    # The common-root tests are gcds, not O(d^3) Sylvester determinants.
    def no_determinant(self):
        raise AssertionError("IntLattice.det ran")

    monkeypatch.setattr(IntLattice, "det", no_determinant)
    code, out, _ = invoke(capsys, "threshold", "--minpoly", str(IntPoly((-1,) * 30 + (1,))))
    assert code == 0 and int(out) > 0


@pytest.mark.parametrize(
    "expr,error",
    [
        ("x^6-2x^4-2x^3+x^2+2x+1", "NotSquarefree"),  # (x^3-x-1)^2
        ("x^4-2x^3-x^2+2x+1", "NotSquarefree"),  # (x^2-x-1)^2
        ("x^4-x^3-x^2+1", "NotPisot"),  # (x-1)(x^3-x-1)
    ],
)
def test_modular_pow_keeps_the_error_class(capsys, expr, error):
    code, out, err = invoke(capsys, "pow", "--minpoly", expr, "-n", "1000", "-m", str(PRIME))
    assert code == 1 and out == ""
    assert err.startswith(f"{error}: ")


def test_cli_import_loads_no_numpy():
    # numpy is not a dependency: CI installs only mpmath and pytest.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, pisot.cli; sys.exit(3 if 'numpy' in sys.modules else 0)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0


def test_long_coefficient_vector_is_refused_before_any_embedding(capsys, monkeypatch):
    # 20,000 entries once sized a 40,062-bit matrix from the vector's length
    # and ended in PrecisionExhausted (exit 1).
    def embed(spec, bits):
        raise AssertionError(f"embedded at {bits} bits")

    monkeypatch.setattr(cli, "embeddings_for", embed)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", "--conductor", "5", "--coeffs", ",".join(["1"] * 20000))
    assert code == 2 and out == ""
    assert err == "ParseError: --coeffs has 20000 entries, but the field has degree 2\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("modulus", ["0", "1", "1" * 21], ids=["0", "1", "21-chars"])
def test_modulus_is_checked_before_any_work(capsys, monkeypatch, tmp_path, modulus):
    # Once BadModulus (exit 1), for pow after root isolation; 21 characters
    # were reported as "n must lie in [0, 10^19]".
    def isolate(f, *args):
        raise AssertionError("isolated the roots")

    monkeypatch.setattr(cli, "analyze_minpoly", isolate)
    absent = str(tmp_path / "absent.slp")  # read first, it would be an OSError (exit 1)
    for argv in (("pow", "--minpoly", "x^2-x-1", "-n", "5"), ("slp", "eval", absent)):
        code, out, err = invoke(capsys, *argv, "-m", modulus)
        assert code == 2 and out == ""
        assert err.startswith("ParseError: -m must lie in [2, 10^19], got ")


@pytest.mark.parametrize("modulus,result", [("2", "1"), (str(10**19), "11")])
def test_modulus_at_its_bounds_is_served(capsys, modulus, result):
    code, out, _ = invoke(capsys, "pow", "--minpoly", "x^2-x-1", "-n", "5", "-m", modulus)
    assert code == 0 and out == result + "\n"


def _least_epsilon_bits(k):
    """The b with 2^-b the least epsilon that find takes at degree k."""
    return limits.MAX_FIND_SIZE // k**4


# (conductor, degree): one field at each of the degrees the cap was timed at.
FIND_CAP_FIELDS = [(15, 4), (39, 12), (41, 20), (61, 30), (83, 41), (101, 50), (151, 75)]


@pytest.mark.parametrize("conductor,k", FIND_CAP_FIELDS, ids=lambda v: str(v))
def test_epsilon_past_the_find_cap_is_usage_error(capsys, monkeypatch, conductor, k):
    # Decided from k before any embedding: conductor 61 at 1e-100 once took 92 s.
    def search(*args):
        raise errors.SearchFailed("searched")

    monkeypatch.setattr(cli, "find_pisot", search)
    b = _least_epsilon_bits(k)
    argv = ["find", "--conductor", str(conductor), "--epsilon"]
    served = ["1", "1/2", "1/4"]
    if b <= 332:  # else --epsilon's own cap of 10^-100 binds first
        served.append(f"1/{2**b}")
        past = f"1/{2**b + 1}"  # needs b + 1 bits
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv, past)
        assert code == 2 and out == ""
        assert err.startswith(f"ParseError: --epsilon {past} is below 2^-{b}, ")
        assert f"at degree {k}" in err and "MAX_FIND_SIZE" in err
        assert time.perf_counter() - start < 1
    for eps in served:  # the search runs: here, a stub that fails
        code, _, err = invoke(capsys, *argv, eps)
        assert code == 1 and err == "SearchFailed: searched\n"


def test_find_cap_keeps_a_quarter_at_every_degree():
    assert all(_least_epsilon_bits(k) >= 2 for k in range(2, MAX_SEARCH_DEGREE + 1))


@pytest.mark.parametrize(
    "expr", ["x^²-x-1", "x^2-x-١", "x^٣-x-1"], ids=["superscript", "coefficient", "exponent"]
)
def test_non_ascii_digits_in_a_polynomial_are_usage_errors(capsys, expr):
    # str.isdigit() accepts these: the first ended in a ValueError traceback,
    # and the other two were read as x^2 - x - 1 and x^3 - x - 1.
    code, out, err = invoke(capsys, "threshold", "--minpoly", expr)
    assert code == 2 and out == "" and err.startswith("PolySyntaxError:")


def test_an_exponent_above_the_degree_cap_is_refused_at_its_offset():
    assert parse_poly(f"x^{MAX_SEARCH_DEGREE}-x-1").degree == MAX_SEARCH_DEGREE
    for expr, offset in [("x^76-x-1", 2), ("x^100000000-1", 2), ("x^2 - 3x^0076", 9)]:
        with pytest.raises(errors.PolySyntaxError) as exc:
            parse_poly(expr)
        assert exc.value.offset == offset


@pytest.mark.parametrize(
    "expr", ["x^76-x-1", "x^100000000-1", "x^" + "9" * 100_000], ids=["76", "10^8", "long"]
)
@pytest.mark.parametrize(
    "command",
    [("pow", "-n", "5"), ("threshold",), ("slp", "emit", "-n", "5")],
    ids=["pow", "threshold", "slp-emit"],
)
def test_a_degree_above_the_cap_exits_2_at_once(capsys, command, expr):
    # x^100000000 - 1 used to build a coefficient tuple of 10^8 entries and
    # start root isolation on it; it was still running after 20 s.
    start = time.perf_counter()
    code, out, err = invoke(capsys, *command, "--minpoly", expr)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("PolySyntaxError:")
    assert f"above {MAX_SEARCH_DEGREE}" in err


def test_the_75_nacci_still_answers_threshold(capsys):
    f = "x^75" + "-x^" + "-x^".join(str(e) for e in range(74, 1, -1)) + "-x-1"
    assert parse_poly(f) == IntPoly((-1,) * 75 + (1,))
    code, out, _ = invoke(capsys, "threshold", "--minpoly", f)
    assert code == 0 and out == "51719\n"


def _field_stated_at_128_bits(tmp_path):
    with mpmath.workprec(160):
        s = mpmath.nstr(mpmath.sqrt(2), 45)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "kind": "explicit",
        "embedding_rows": [["1", s], ["1", "-" + s]],
        "precision_bits": 128,
    }))
    return str(path)


def test_an_entry_too_long_for_the_stated_bits_is_refused_unparsed(capsys, monkeypatch, tmp_path):
    # At 128 stated bits, a 1,000,000-digit entry took 6.2 s in int() before
    # verify_pisot refused it; ||z||_1 >= 2^128 leaves no conjugate below 1.
    path = _field_stated_at_128_bits(tmp_path)

    def embed(spec, bits):
        raise AssertionError(f"embedded at {bits} bits")

    monkeypatch.setattr(cli, "embeddings_for", embed)
    for digits in (1_000_000, 40):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--field", path, "--coeffs", "9" * digits + ",1")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and err.startswith("NotPisot:") and f" {digits}-digit " in err


def test_a_39_digit_entry_at_128_stated_bits_reaches_the_build(capsys, monkeypatch, tmp_path):
    path = _field_stated_at_128_bits(tmp_path)
    built = []
    real = cli.embeddings_for

    def embed(spec, bits):
        built.append(bits)
        return real(spec, bits)

    monkeypatch.setattr(cli, "embeddings_for", embed)
    code, _, err = invoke(capsys, "verify", "--field", path, "--coeffs", "9" * 39 + ",1")
    assert built == [128]
    assert code == 1 and err.startswith("NotPisot:")


@pytest.mark.parametrize("letters", [3, 40, 6000])
def test_a_malformed_entry_is_a_usage_error_at_any_length(capsys, monkeypatch, tmp_path, letters):
    # Syntax is checked before the size refusals, which count characters:
    # 6,000 letters were PrecisionExhausted and 40 at 128 stated bits
    # NotPisot (exit 1), where 3 letters were a ParseError.
    def embed(spec, bits):
        raise AssertionError(f"embedded at {bits} bits")

    monkeypatch.setattr(cli, "embeddings_for", embed)
    coeffs = "a" * letters
    fields = [("--conductor", "15", coeffs + ",1,1,1")]
    if letters == 40:
        fields.append(("--field", _field_stated_at_128_bits(tmp_path), coeffs + ",1"))
    for flag, field, arg in fields:
        code, out, err = invoke(capsys, "verify", flag, field, "--coeffs", arg)
        assert code == 2 and out == ""
        assert err == f"ParseError: bad coefficient list {arg!r}\n"


def test_entries_parse_as_int_parses_them(capsys, monkeypatch):
    seen = []

    def verify(z, emb, epsilon):
        seen.append(z)
        raise errors.NotPisot("recorded")

    monkeypatch.setattr(cli, "verify_pisot", verify)
    code, _, err = invoke(capsys, "verify", "--conductor", "15", "--coeffs", "1_000, -7 ,+3,١")
    assert code == 1 and err == "NotPisot: recorded\n"
    assert seen == [[1000, -7, 3, 1]]


MALFORMED_FIELD_FILES = {
    "explicit-without-keys": b'{"kind": "explicit"}',
    "cyclotomic-without-conductor": b'{"kind": "cyclotomic"}',
    "conductor-abc": b'{"kind": "cyclotomic", "conductor": "abc"}',
    "precision-x": b'{"kind": "explicit", "embedding_rows": [["1", "1"], ["1", "-1"]],'
                   b' "precision_bits": "x"}',
    "top-level-list": b'[{"kind": "cyclotomic", "conductor": 15}]',
    "rows-5": b'{"kind": "explicit", "embedding_rows": 5, "precision_bits": 64}',
    "conductor-1e400": b'{"kind": "cyclotomic", "conductor": 1e400}',
    "not-json": b"kind: cyclotomic",
    "non-ascii": b'{"kind": "cyclotomic", "conductor": 15, "note": "\xc3\xa9"}',
    "conductor-15.7": b'{"kind": "cyclotomic", "conductor": 15.7}',
    "precision-15.7": b'{"kind": "explicit", "embedding_rows": [["1", "1"], ["1", "-1"]],'
                      b' "precision_bits": 15.7}',
    "conductor-true": b'{"kind": "cyclotomic", "conductor": true}',
    "labels-5": b'{"kind": "explicit", "basis_labels": 5, "embedding_rows": [["1", "1"],'
                b' ["1", "-1"]], "precision_bits": 64}',
    "discriminant-abc": b'{"kind": "explicit", "embedding_rows": [["1", "1"], ["1", "-1"]],'
                        b' "precision_bits": 64, "discriminant": "abc"}',
    "nested-10^5-deep": b"[" * 100_000,
    "conductor-of-10^6-digits": b'{"kind": "cyclotomic", "conductor": ' + b"9" * 10**6 + b"}",
}


@pytest.mark.parametrize("text", MALFORMED_FIELD_FILES.values(), ids=MALFORMED_FIELD_FILES)
@pytest.mark.parametrize("command", ["find", "verify"])
def test_a_malformed_field_file_is_a_usage_error(capsys, tmp_path, command, text):
    # Each of these once escaped `run` with an untyped exception (KeyError,
    # ValueError, AttributeError, TypeError, OverflowError, JSONDecodeError,
    # UnicodeDecodeError), or searched conductor 15 for 15.7 and 1 for true.
    path = tmp_path / "field.json"
    path.write_bytes(text)
    argv = [command, "--field", str(path)] + (["--coeffs", "1,1"] if command == "verify" else [])
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("ParseError: field file") and err.count("\n") == 1


def _sqrt2_field_file(path, root, rest="1.5"):
    path.write_text(json.dumps({
        "kind": "explicit",
        "embedding_rows": [["1", root], ["1", "-" + rest]],
        "precision_bits": 190,
    }))
    return str(path)


PHI = "1.618033988749894848204586834365638117720309179805762862135448623"


@pytest.mark.parametrize(
    "root,rest,code,ending",
    [
        (PHI, "0" + PHI[1:], 0, "minpoly: x^2 - 3x + 1\nepsilon: 1\n"),
        ("1e999999999", "1.5", 1, "PrecisionError: entry '1e999999999' exceeds 2^264 in "
                                  "magnitude: no error bound below 1/2 holds at 200 bits\n"),
        ("1e400", "1.5", 1, "PrecisionError: entry '1e400' exceeds 2^264 in "
                            "magnitude: no error bound below 1/2 holds at 200 bits\n"),
    ],
    ids=["phi-64-digits", "1e999999999", "1e400"],
)
def test_an_unquoted_entry_ends_as_its_quoted_text(capsys, tmp_path, root, rest, code, ending):
    # json.load once read an unquoted entry as a binary float: phi lost all
    # but 17 digits (NotIntegral: Tr(b_1 b_1) ~ 3.0 is not an integer), and
    # 1e999999999 and 1e400 became inf (ParseError: bad decimal entry inf).
    path = tmp_path / "field.json"
    ends = []
    for quote in ('"', ""):
        path.write_text(f'{{"kind": "explicit", "precision_bits": 200, "embedding_rows": '
                        f'[[1, {quote}{root}{quote}], [1, {quote}-{rest}{quote}]]}}')
        ends.append(invoke(capsys, "find", "--field", str(path)))
    assert ends[0] == ends[1]
    assert ends[0][0] == code and (ends[0][1] + ends[0][2]).endswith(ending)


@pytest.mark.parametrize("length", ["one-past", "10^6", "p/q-10^6"])
@pytest.mark.parametrize("command", ["find", "verify"])
def test_a_field_entry_past_its_cap_is_refused_unread(capsys, tmp_path, command, length):
    # `run` lifts the int->str digit limit, so Fraction() of a 10^6-digit
    # entry took about 9 s before it failed or was read.
    cap = limits.MAX_FIELD_ENTRY_CHARS
    root = {"one-past": "1." + "4" * (cap - 1), "10^6": "1." + "4" * 10**6,
            "p/q-10^6": "1/" + "7" * 10**6}[length]
    argv = [command, "--field", _sqrt2_field_file(tmp_path / "field.json", root)]
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv + (["--coeffs", "1,1"] if command == "verify" else []))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("ParseError: decimal entry ") and err.count("\n") == 1
    assert err.endswith(f"has {len(root)} characters, above {cap}\n")


def test_a_field_entry_at_its_cap_is_read(capsys, tmp_path):
    cap = limits.MAX_FIELD_ENTRY_CHARS
    root = str(decimal.Context(prec=cap - 1).sqrt(2))
    assert len(root) == cap
    at_cap = _sqrt2_field_file(tmp_path / "at-cap.json", root, root[:-1])
    short = _sqrt2_field_file(tmp_path / "short.json", root[:62], root[:62])
    for command in (["find", "--json"], ["verify", "--coeffs=1,1", "--json"]):
        code, out, _ = invoke(capsys, command[0], "--field", at_cap, *command[1:])
        assert code == 0 and json.loads(out)["minpoly"] == ["-1", "-2", "1"]
        assert (code, out) == invoke(capsys, command[0], "--field", short, *command[1:])[:2]


def test_field_file_integers_may_be_strings_of_digits(capsys, tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"kind": "cyclotomic", "conductor": "15"}))
    assert invoke(capsys, "find", "--field", str(path)) == invoke(capsys, "find", "--conductor", "15")


def _write_slp_with_result(tmp_path, index):
    path = tmp_path / "prog.slp"
    path.write_text(f"slp v1\nv0 = one\nv1 = add v0 v0\nresult v{index}\n")
    return str(path)


LONG = {
    "find --conductor": lambda t, text: ("find", "--conductor", text),
    "verify --conductor": lambda t, text: ("verify", "--conductor", text, "--coeffs", "1,1"),
    "bound --degree": lambda t, text: ("bound", "--degree", text, "--disc", "5", "--delta", "1/2"),
    "bound --disc": lambda t, text: ("bound", "--degree", "4", "--disc", text, "--delta", "1/2"),
    "pow --minpoly": lambda t, text: ("pow", "--minpoly", f"x^2 - {text}x - 1", "-n", "3"),
    "slp eval result": lambda t, text: ("slp", "eval", _write_slp_with_result(t, text)),
}
CAP_CHARS = {
    "find --conductor": limits.MAX_CONDUCTOR_CHARS,
    "verify --conductor": limits.MAX_CONDUCTOR_CHARS,
    "bound --degree": limits.MAX_N_CHARS,
    "bound --disc": limits.MAX_DISC_CHARS,
    "pow --minpoly": limits.MAX_COEFFICIENT_DIGITS,
    "slp eval result": 1,  # a 4-line file: an index has at most 1 significant digit
}


@pytest.mark.parametrize("length", ["one-past", "10^6"])
@pytest.mark.parametrize("option", LONG)
def test_an_integer_past_its_cap_is_refused_unread(capsys, tmp_path, option, length):
    # `run` lifts the int->str digit limit, so int() of 10^6 nines took
    # 5-24 s before each of these ended with exit 2.
    text = "9" * (CAP_CHARS[option] + 1 if length == "one-past" else 10**6)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *LONG[option](tmp_path, text))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    if option == "slp eval result":
        assert err == "MalformedProgram: result index out of range\n"
    elif option == "pow --minpoly":
        assert err == (f"PolySyntaxError: coefficient of more than {limits.MAX_COEFFICIENT_DIGITS}"
                       " digits (MAX_COEFFICIENT_DIGITS) (at offset 6)\n")
    else:
        assert err.startswith(f"ParseError: {option.split()[1]} must ")
        assert err.endswith(f", got {len(text)} characters\n")


@pytest.mark.parametrize("option", ["find --conductor", "bound --degree", "bound --disc"])
def test_an_integer_at_its_cap_is_read(capsys, option):
    # The longest accepted text reaches the checks after the length check.
    text = "0" * (CAP_CHARS[option] - 1) + "7"
    code, out, err = invoke(capsys, *LONG[option](None, text))
    if option == "find --conductor":
        assert code == 0 and "minpoly: x^3" in out  # conductor 7, k = 3
    else:
        assert code == 0 and out


def test_a_coefficient_is_capped_by_its_significant_digits():
    cap = limits.MAX_COEFFICIENT_DIGITS
    assert parse_poly(f"x^2 - {'9' * cap}x - 1") == IntPoly((-1, 1 - 10**cap, 1))
    assert parse_poly(f"x^2 - {'0' * cap}7x - 1") == IntPoly((-1, -7, 1))
    for expr, offset in [(f"x^2 - x - {'9' * (cap + 1)}", 10), (f"{'7' * (cap + 1)}x^2", 0)]:
        with pytest.raises(errors.PolySyntaxError) as exc:
            parse_poly(expr)
        assert exc.value.offset == offset


def _field_file_with(tmp_path, text):
    path = tmp_path / "field.json"
    path.write_text(text)
    return str(path)


# One input one past each length cap of `pisot.limits`, as argv; each takes
# a scratch directory for the files it needs.
PAST_LENGTH_CAP = {
    "MAX_N_CHARS": lambda t: LONG["bound --degree"](t, "9" * (limits.MAX_N_CHARS + 1)),
    "MAX_CONDUCTOR_CHARS": lambda t: LONG["find --conductor"](
        t, "9" * (limits.MAX_CONDUCTOR_CHARS + 1)),
    "MAX_DISC_CHARS": lambda t: LONG["bound --disc"](t, "9" * (limits.MAX_DISC_CHARS + 1)),
    "MAX_DISC_DIGITS": lambda t: LONG["bound --disc"](t, "-" + "9" * (limits.MAX_DISC_DIGITS + 1)),
    "MAX_DISC_DIGITS, unsigned": lambda t: LONG["bound --disc"](t, "9" * (limits.MAX_DISC_DIGITS + 1)),
    "MAX_COEFFICIENT_DIGITS": lambda t: LONG["pow --minpoly"](
        t, "9" * (limits.MAX_COEFFICIENT_DIGITS + 1)),
    "MAX_DELTA_CHARS": lambda t: (*BOUND_AT_CAP, "0." + "1" * (limits.MAX_DELTA_CHARS - 1)),
    "MAX_DELTA_DIGITS": lambda t: (*BOUND_AT_CAP, f"1e-{limits.MAX_DELTA_DIGITS + 1}"),
    "MAX_EPSILON_CHARS": lambda t: (
        "find", "--conductor", "5", "--epsilon", "0." + "1" * (limits.MAX_EPSILON_CHARS - 1)),
    "MAX_EPSILON_DIGITS": lambda t: (
        "find", "--conductor", "5", "--epsilon", f"1e-{limits.MAX_EPSILON_DIGITS + 1}"),
    "MAX_FIELD_INT_CHARS": lambda t: ("find", "--field", _field_file_with(
        t, '{"kind": "cyclotomic", "conductor": ' + "9" * (limits.MAX_FIELD_INT_CHARS + 1) + "}")),
    "MAX_FIELD_ENTRY_CHARS": lambda t: ("find", "--field", _sqrt2_field_file(
        t / "field.json", "1." + "4" * (limits.MAX_FIELD_ENTRY_CHARS - 1))),
}


def test_every_length_cap_has_a_one_past_case():
    caps = {name for name in vars(limits)
            if name.startswith("MAX_") and name.endswith(("_CHARS", "_DIGITS"))}
    # A cap may have more than one case, each named after it.
    assert caps == {case.split(",")[0] for case in PAST_LENGTH_CAP}


@pytest.mark.parametrize("cap", PAST_LENGTH_CAP)
def test_one_past_each_length_cap_exits_2_at_once(capsys, tmp_path, cap):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *PAST_LENGTH_CAP[cap](tmp_path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200


def test_an_unsigned_disc_past_the_digit_cap_is_refused_by_its_digits(capsys, tmp_path):
    # Its length is within MAX_DISC_CHARS; its digits are not.
    code, out, err = invoke(capsys, *PAST_LENGTH_CAP["MAX_DISC_DIGITS, unsigned"](tmp_path))
    assert code == 2 and out == ""
    assert err == (f"ParseError: --disc must have at most {limits.MAX_DISC_CHARS} characters, "
                   f"MAX_DISC_DIGITS digits and a sign, got {limits.MAX_DISC_DIGITS + 1} digits\n")


def test_bound_at_the_disc_cap_takes_under_a_second(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "bound", "--degree", str(MAX_SEARCH_DEGREE),
                          "--disc", "9" * limits.MAX_DISC_DIGITS, "--delta", "1e-1000", "--json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["disc"] == "9" * limits.MAX_DISC_DIGITS


@pytest.mark.parametrize("index", ["0" * 10**5 + "1", "01"])
def test_slp_indices_keep_their_leading_zeros(capsys, tmp_path, index):
    code, out, _ = invoke(capsys, "slp", "eval", _write_slp_with_result(tmp_path, index))
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize(
    "line,message",
    [
        ("v2 = add v1 v{}", "forward reference"),
        ("v{} = add v1 v0", "expected definition of v2, got 'v999"),
        ("v2 = add v1 w{}", "bad operand 'w999"),
        ("v2 = x{} v1 v0", "unknown opcode 'x999"),
    ],
    ids=["operand", "definition", "bad-operand", "opcode"],
)
def test_a_long_slp_index_keeps_its_line_error(capsys, tmp_path, line, message):
    path = tmp_path / "prog.slp"
    path.write_text("slp v1\nv0 = one\nv1 = add v0 v0\n" + line.format("9" * 10**6) + "\nresult v2\n")
    start = time.perf_counter()
    code, _, err = invoke(capsys, "slp", "eval", str(path))
    assert time.perf_counter() - start < 1
    # A refused token is quoted to at most 60 characters: one short line.
    assert code == 2 and err.startswith("MalformedProgram: line 4: " + message)
    assert len(err) < 200 and err.count("\n") == 1


def _files_across_pieces(size):
    """Program files whose bytes cross pieces of `size` bytes in each way the
    reader joins: a CRLF or a lone CR whose CR ends a piece, a non-ASCII
    byte after the first piece, tab-separated lines with leading zeros, and a
    result line that is not last."""
    crlf = b"slp v1\r\nv0 = one" + b" " * ((size - 17) % size) + b"\r\nv1 = add v0 v0\r\nresult v1\r\n"
    lone = b"slp v1\rv0 = one" + b" " * ((size - 16) % size) + b"\rv1 = add v0 v0\rresult v1\r"

    def after_a_cr_that_ends_a_piece(data):
        return {data[i + 1] for i in range(size - 1, len(data) - 1, size) if data[i] == 13}

    assert 10 in after_a_cr_that_ends_a_piece(crlf) and 10 not in after_a_cr_that_ends_a_piece(lone)
    assert lone[size - 1] == 13
    return [
        crlf,
        lone,
        lone[:size] + "²".encode(),  # right after a lone CR that ends a piece
        b"slp v1\r\nv0 = one\r\n" + b"v1 = add v0 v0\r\n" * 8 + "result v²\r\n".encode(),
        b"slp v1\r\nv00\t=\tone\r\nv001\t=\tadd\tv000\tv00\r\nresult\tv01\r\n",
        b"slp v1\r\nv0 = one\r\nresult v0\r\nv1 = add v0 v0\r\n",
    ]


@pytest.mark.parametrize("size", [7, 64])
def test_slp_eval_reads_a_file_in_pieces_as_it_reads_it_whole(capsys, monkeypatch, tmp_path, size):
    # Every malformed program of these tests, and the files above: the
    # same exit code, output and message, at the same line.
    long_index = "9" * 10**6
    texts = MALFORMED_PROGRAMS + [
        "slp v1\nv0 = one\nv1 = frob v0 v0\nresult v1\n",
        "slp v1\r\nv0 = one\rv1 = add v0 v0\nresult v²\n",
        "slp v1\r\nv0 = one\rv1 = add v0 v0\r\nresult v1\r\n",
        f"slp v1\nv0 = one\nv1 = add v0 v0\nresult v{'0' * 10**5}1\n",
        f"slp v1\nv0 = one\nv1 = add v0 v0\nresult v{long_index}\n",
    ] + ["slp v1\nv0 = one\nv1 = add v0 v0\n" + line.format(long_index) + "\nresult v2\n"
         for line in ("v2 = add v1 v{}", "v{} = add v1 v0", "v2 = add v1 w{}", "v2 = x{} v1 v0")]
    files = [text.encode() for text in texts] + _files_across_pieces(size)
    path = tmp_path / "prog.slp"
    for data in files:
        path.write_bytes(data)
        monkeypatch.setattr(cli, "_READ_PIECE", len(data))
        whole = invoke(capsys, "slp", "eval", str(path), "-m", "7")
        monkeypatch.setattr(cli, "_READ_PIECE", size)
        assert invoke(capsys, "slp", "eval", str(path), "-m", "7") == whole, data[:80]


def test_slp_eval_reads_a_pipe(capsys, tmp_path):
    # A pipe cannot be read twice, so it is read once, into memory.
    read_end, write_end = os.pipe()
    os.write(write_end, b"slp v1\r\nv0 = one\r\nv1 = add v0 v0\r\nresult v1\r\n")
    os.close(write_end)
    try:
        assert invoke(capsys, "slp", "eval", f"/dev/fd/{read_end}") == (0, "2\n", "")
    finally:
        os.close(read_end)


@pytest.mark.parametrize(
    "argv,err",
    [
        (("pow", "--minpoly", "x^2 x", "-n", "3"),
         "PolySyntaxError: expected '+' or '-' (at offset 4)\n"),
        (("pow", "--minpoly", "x2", "-n", "3"),
         "PolySyntaxError: expected '+' or '-' (at offset 1)\n"),
        (("pow", "--minpoly", "x 2", "-n", "3"),
         "PolySyntaxError: expected '+' or '-' (at offset 2)\n"),
        (("pow", "--minpoly", "2 x", "-n", "3"),
         "PolySyntaxError: expected '+' or '-' (at offset 2)\n"),
        (("pow", "--minpoly", "x ^2", "-n", "3"),
         "PolySyntaxError: expected '+' or '-' (at offset 2)\n"),
        (("pow", "--minpoly", "x^ 2", "-n", "3"),
         "PolySyntaxError: expected exponent (at offset 2)\n"),
        (("pow", "--minpoly", "x^-1", "-n", "3"),
         "PolySyntaxError: expected exponent (at offset 2)\n"),
        (("find", "--conductor", "15", "--epsilon", "abc"), "ParseError: bad rational 'abc'\n"),
        (("bound", "--degree", "4", "--disc", "5", "--delta", "1/0"),
         "ParseError: bad rational '1/0'\n"),
        # "5x" is no exponent, so the exponent check passes it to Fraction().
        (("find", "--conductor", "15", "--epsilon", "1e5x"), "ParseError: bad rational '1e5x'\n"),
        (("pow", "--minpoly", "x^2-x-1", "-n", "abc"), "ParseError: bad integer 'abc'\n"),
    ],
    ids=["term-without-sign", "x2", "x-space-2", "2-space-x", "x-space-caret", "caret-space",
         "negative-exponent", "epsilon-abc", "delta-1/0", "epsilon-1e5x", "n-abc"],
)
def test_malformed_text_is_a_usage_error(capsys, argv, err):
    assert invoke(capsys, *argv) == (2, "", err)


def test_threshold_of_a_linear_polynomial_is_not_pisot(capsys):
    assert invoke(capsys, "threshold", "--minpoly", "x-2") == (
        1, "", "NotPisot: degree must be at least 2\n"
    )
