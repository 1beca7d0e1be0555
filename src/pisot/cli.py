"""Command-line interface: Pisot search, nearest powers, SLP emission."""

from __future__ import annotations

import argparse
import decimal
import functools
import io
import itertools
import json
import re
import sys
from fractions import Fraction

from . import errors
from .algebraic import (
    SECOND_MODULUS_DIGITS,
    FieldSpec,
    IntPoly,
    analyze_minpoly,
    coprime_residues,
    embeddings_for,
)
from .limits import (
    MAX_COEFFICIENT_DIGITS,
    MAX_CONDUCTOR_CHARS,
    MAX_DELTA_CHARS,
    MAX_DELTA_DIGITS,
    MAX_DISC_CHARS,
    MAX_DISC_DIGITS,
    MAX_EPSILON_CHARS,
    MAX_EPSILON_DIGITS,
    MAX_EXACT_N,
    MAX_FIND_SIZE,
    MAX_N,
    MAX_N_CHARS,
    MAX_SEARCH_DEGREE,
    MAX_WORK_BITS,
)
from .pisotsearch import (
    find_pisot,
    minkowski_bound,
    verify_pisot,
    verify_precision,
)
from .powtrace import nearest_power, nearest_power_mod
from .slp import emit_power_slp, format_slp_pieces, parse_slp_pieces, slp_eval, slp_length

# Exactly the text int() takes: Unicode decimal digits, single underscores
# between them, a sign, and the whitespace of str.isspace() but \x1c-\x1f.
_INT_TEXT = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")
# One term of a polynomial and the blanks after it: sign, coefficient, x and
# "^" with the exponent. Every part may be empty, so it matches anywhere, and
# the groups say which parts are there. Digits are ASCII only.
_TERM = re.compile(r"([+-]?)[ \t]*([0-9]*)(?:(x)(\^([0-9]*))?)?[ \t]*")


def parse_poly(source: str) -> IntPoly:
    """Parse expressions like "x^3 - x - 1" into an integer polynomial.
    Numbers are ASCII digits; an exponent above MAX_SEARCH_DEGREE, or a
    coefficient of more than MAX_COEFFICIENT_DIGITS significant digits, is
    refused at its offset before int() reads it."""
    pos = len(source) - len(source.lstrip(" \t"))
    if pos == len(source):
        raise errors.PolySyntaxError("empty expression", pos)
    terms: dict[int, int] = {}
    while pos < len(source):
        m = _TERM.match(source, pos)
        sign, coef, x, caret, exp = m.groups(default="")
        if terms and not sign:
            raise errors.PolySyntaxError("expected '+' or '-'", pos)
        # Leading zeros are not counted against a cap, nor read by int().
        coef, exp = coef.lstrip("0") or coef[:1], exp.lstrip("0") or exp[:1]
        if len(coef) > MAX_COEFFICIENT_DIGITS:
            raise errors.PolySyntaxError(
                f"coefficient of more than {MAX_COEFFICIENT_DIGITS} digits "
                "(MAX_COEFFICIENT_DIGITS)", m.start(2)
            )
        if caret and not exp:
            raise errors.PolySyntaxError("expected exponent", m.start(5))
        if len(exp) > len(str(MAX_SEARCH_DEGREE)) or int(exp or 0) > MAX_SEARCH_DEGREE:
            raise errors.PolySyntaxError(
                f"exponent above {MAX_SEARCH_DEGREE} (MAX_SEARCH_DEGREE)", m.start(5)
            )
        if not (coef or x):
            raise errors.PolySyntaxError("expected a term", m.start(2))
        e = int(exp) if exp else 1 if x else 0
        terms[e] = terms.get(e, 0) + (-1 if sign == "-" else 1) * (int(coef) if coef else 1)
        pos = m.end()
    degree = max((e for e, c in terms.items() if c != 0), default=-1)
    if degree < 1:
        raise errors.PolySyntaxError("polynomial must have degree >= 1", 0)
    return IntPoly(tuple(terms.get(e, 0) for e in range(degree + 1)))


def _parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise errors.ParseError(f"bad rational {s!r}") from exc


def _capped_rational(s: str, option: str, digits: int, chars: int) -> Fraction:
    """A rational given in at most `chars` characters, with a decimal
    exponent within +-`digits` and a denominator of at most 10^`digits`.
    The text and its exponent are checked before Fraction(), which expands
    "1e-N" into 10^N however large N is."""
    if len(s) > chars:
        raise errors.ParseError(f"{option} takes at most {chars} characters, got {len(s)}")
    try:
        exponent = int(s.lower().partition("e")[2] or 0)
    except ValueError:
        exponent = 0  # not an exponent: Fraction() rejects the text
    if abs(exponent) > digits:
        raise errors.ParseError(f"{option}'s exponent must lie within +-{digits}, got {exponent}")
    value = _parse_rational(s)
    if value.denominator > 10**digits:
        raise errors.ParseError(f"{option}'s denominator must be at most 10^{digits}")
    return value


def _parse_epsilon(s: str) -> Fraction:
    """--epsilon: a rational in (0, 1] whose denominator, and so its
    numerator, is at most 10^MAX_EPSILON_DIGITS; decided before any work."""
    eps = _capped_rational(s, "--epsilon", MAX_EPSILON_DIGITS, MAX_EPSILON_CHARS)
    if not 0 < eps <= 1:
        raise errors.ParseError(f"--epsilon must lie in (0, 1], got {s}")
    return eps


def _parse_delta(s: str) -> Fraction:
    """--delta: a rational in (0, 1) whose denominator, and so its
    numerator, is at most 10^MAX_DELTA_DIGITS; decided before any work."""
    delta = _capped_rational(s, "--delta", MAX_DELTA_DIGITS, MAX_DELTA_CHARS)
    if not 0 < delta < 1:
        raise errors.ParseError(f"--delta must lie in (0, 1), got {s}")
    return delta


def _parse_int(s: str, name: str, chars: int, span: str) -> int:
    """The integer s, refused unread when longer than `chars` characters:
    the int->str digit limit is lifted in `run`. `span` says what the
    option takes, for the message."""
    if len(s) > chars:
        raise errors.ParseError(f"{name} must {span}, got {len(s)} characters")
    try:
        return int(s)
    except ValueError as exc:
        raise errors.ParseError(f"bad integer {s!r}") from exc


def _parse_n(s: str, name: str = "n", least: int = 0) -> int:
    span = f"lie in [{least}, 10^19]"
    v = _parse_int(s, name, MAX_N_CHARS, span)
    if not least <= v <= MAX_N:
        raise errors.ParseError(f"{name} must {span}, got {s}")
    return v


def _parse_modulus(s: str | None) -> int | None:
    """-m: None when absent, else an integer in [2, 10^19]; checked before
    any root isolation and before a program file is read."""
    return None if s is None else _parse_n(s, "-m", 2)


def _monic_poly(expr: str) -> IntPoly:
    f = parse_poly(expr)
    if not f.is_monic:
        raise errors.NotMonic(f"a monic polynomial is required, got {f}")
    return f


def _field_spec(args) -> tuple[FieldSpec, int]:
    """The field of --conductor or --field, and its degree k."""
    if getattr(args, "conductor", None) is not None:
        n = _parse_int(args.conductor, "--conductor", MAX_CONDUCTOR_CHARS,
                       f"have at most {MAX_CONDUCTOR_CHARS} characters")
        if n < 1:
            raise errors.ParseError(f"--conductor must be at least 1, got {n}")
        return _degree_capped(FieldSpec(kind="cyclotomic", conductor=n), f"--conductor {n}")
    if getattr(args, "field", None):
        return _degree_capped(FieldSpec.from_file(args.field), f"--field {args.field}")
    raise errors.ParseError("one of --conductor or --field is required")


def _degree_capped(spec: FieldSpec, source: str) -> tuple[FieldSpec, int]:
    """spec and its degree k, or a usage error when k is above
    MAX_SEARCH_DEGREE. Decided before any embedding: an explicit field's
    rows are counted, and a conductor's residues only up to one past the
    cap, so a huge conductor costs no more than a small one."""
    if spec.kind == "cyclotomic":
        residues = coprime_residues(spec.conductor)
        k = sum(1 for _ in itertools.islice(residues, MAX_SEARCH_DEGREE + 1))
    else:
        k = len(spec.embedding_rows)
    if k > MAX_SEARCH_DEGREE:
        raise errors.ParseError(
            f"{source} gives a field of degree above {MAX_SEARCH_DEGREE}, "
            "the largest that find and verify take (MAX_SEARCH_DEGREE)"
        )
    return spec, k


def _json_int(v):
    """v, an int or an integral Decimal, as a JSON number below 10^15, else
    as its decimal string. No Decimal reaches json, and a Decimal -0 reads 0."""
    return int(v) if -(10**15) < v < 10**15 else str(v)


def _emit_result(args, obj: dict, r):
    obj["result"] = _json_int(r)
    _emit(args, obj, [str(obj["result"])])


def _emit(args, obj: dict, plain_lines):
    if args.json:
        sys.stdout.write(json.dumps(obj) + "\n")
    else:
        for line in plain_lines:
            sys.stdout.write(line + "\n")


def _candidate_output(args, cand):
    obj = cand.to_json()
    plain = [
        f"value: {obj['value']}",
        "coefficients: " + " ".join(obj["coefficients"]),
        "conjugate moduli: " + " ".join(obj["conjugate_moduli"]),
        f"minpoly: {cand.minpoly}",
        f"epsilon: {obj['epsilon']}",
    ]
    _emit(args, obj, plain)


def _cmd_find(args):
    spec, k = _field_spec(args)
    eps = _parse_epsilon(args.epsilon)
    # ceil(log2(1/eps)): 0 at eps = 1, 1 at 1/2, 2 at 1/4.
    bits = ((eps.denominator - 1) // eps.numerator).bit_length()
    if k**4 * bits > MAX_FIND_SIZE:
        raise errors.ParseError(
            f"--epsilon {args.epsilon} is below 2^-{MAX_FIND_SIZE // k**4}, the least "
            f"that find takes at degree {k}: k^4 * ceil(log2(1/epsilon)) = {k**4 * bits} "
            f"exceeds {MAX_FIND_SIZE} (MAX_FIND_SIZE)"
        )
    _candidate_output(args, find_pisot(spec, eps))
    return 0


def _cmd_verify(args):
    spec, k = _field_spec(args)
    eps = _parse_epsilon(args.epsilon)
    entries = args.coeffs.split(",")
    # Checked before the build, whose precision grows with len(z). A field
    # of degree below 2 is left to the build, which names it unsupported.
    if k >= 2 and len(entries) != k:
        raise errors.ParseError(
            f"--coeffs has {len(entries)} entries, but the field has degree {k}"
        )
    if not all(_INT_TEXT.fullmatch(c) for c in entries):
        raise errors.ParseError(f"bad coefficient list {args.coeffs!r}")
    # int() takes time quadratic in the digits, so an entry too long to
    # certify is refused unparsed. d significant digits make ||z||_1 at least
    # 10^(d-1) > 2^(3.32 (d-1)), the norm of `least`, which so needs no more
    # precision than z.
    d = max(len(c.strip().lstrip("+-").lstrip("0_").replace("_", "")) for c in entries)
    least = [1 << 332 * max(d - 1, 0) // 100] + [0] * (len(entries) - 1)
    if verify_precision(least, spec) > MAX_WORK_BITS:
        raise errors.PrecisionExhausted(
            f"a {d}-digit --coeffs entry needs over {MAX_WORK_BITS} bits"
        )
    # An explicit field verifies at s <= S, its stated bits, with err >= 1.
    # ||z||_1 >= 2^S makes the error bound e >= 2^s, so every conjugate's
    # bound |v| + e exceeds epsilon * 2^s: verify_pisot would refuse z.
    stated = spec.stated_precision_bits
    if stated is not None and least[0].bit_length() > stated:
        raise errors.NotPisot(
            f"a {d}-digit --coeffs entry makes ||z||_1 at least 2^{stated}, so no "
            f"conjugate is certified below epsilon at the field's {stated} stated bits"
        )
    z = [int(c) for c in entries]
    if not any(z):
        raise errors.ParseError("--coeffs must not be all zero")
    emb = embeddings_for(spec, verify_precision(z, spec))
    cand = verify_pisot(z, emb, eps)
    _candidate_output(args, cand)
    return 0


def _cmd_pow(args):
    f = _monic_poly(args.minpoly)
    n = _parse_n(args.n)
    m = _parse_modulus(args.modulus)
    if m is None and n > MAX_EXACT_N:
        raise errors.ParseError(
            f"n > {MAX_EXACT_N} needs -m: the exact answer has on the order "
            "of n*log2(alpha) bits; compute it modulo m instead"
        )
    info = analyze_minpoly(f)
    if m is not None:
        obj = {"minpoly": str(f), "n": _json_int(n), "modulus": _json_int(m)}
        _emit_result(args, obj, nearest_power_mod(info, n, m))
        return 0
    obj = {"minpoly": str(f), "n": _json_int(n)}
    _emit_result(args, obj, nearest_power(info, n, lift=decimal.Decimal))
    return 0


def _cmd_slp_emit(args):
    f = _monic_poly(args.minpoly)
    n = _parse_n(args.n)
    info = analyze_minpoly(f)
    # Written as it is formatted: one piece of text is held at a time.
    pieces = format_slp_pieces(emit_power_slp(info, n))
    if args.output:
        with open(args.output, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
    return 0


def _universal_newlines(text: str) -> str:
    """Text with CRLF and lone CR turned into LF, as text-mode reading does."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


# Bytes of a program file that `slp eval` reads and decodes at a time.
_READ_PIECE = 1 << 14


def _program_pieces(fh):
    """The text of an open program file from its start, a piece at a time,
    with CRLF and lone CR read as LF; a CR that ends a piece waits for the
    next. Program files are ASCII: a non-ASCII byte is a malformed program,
    reported at the line that holds the first one."""
    fh.seek(0)
    line, cr = 1, ""
    while data := fh.read(_READ_PIECE):
        try:
            text = cr + data.decode("ascii")
        except UnicodeDecodeError as exc:
            head = _universal_newlines(cr + data[: exc.start].decode("ascii"))
            raise errors.MalformedProgram(
                f"non-ASCII byte 0x{data[exc.start]:02x}", line=line + head.count("\n")
            ) from None
        cr = "\r" if text.endswith("\r") else ""
        text = _universal_newlines(text[: len(text) - len(cr)])
        line += text.count("\n")
        yield text
    if cr:
        yield "\n"


def _cmd_slp_eval(args):
    m = _parse_modulus(args.modulus)
    with open(args.file, "rb") as fh:
        # The parser reads the file twice, so a pipe is read into memory.
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        p = parse_slp_pieces(lambda: _program_pieces(source))
    obj = {"length": slp_length(p)}
    if m is not None:
        _emit_result(args, obj, slp_eval(p, m))
        return 0
    _emit_result(args, obj, slp_eval(p, lift=decimal.Decimal))
    return 0


def _cmd_threshold(args):
    f = _monic_poly(args.minpoly)
    info = analyze_minpoly(f)
    obj = {
        "minpoly": str(f),
        "threshold_n0": info.threshold_n0,
        "second_modulus": info.second_modulus.digits(SECOND_MODULUS_DIGITS),
    }
    _emit(args, obj, [str(info.threshold_n0)])
    return 0


def _cmd_bound(args):
    delta = _parse_delta(args.delta)
    span = f"lie in [2, {MAX_SEARCH_DEGREE}] (MAX_SEARCH_DEGREE)"
    degree = _parse_int(args.degree, "--degree", MAX_N_CHARS, span)
    if not 2 <= degree <= MAX_SEARCH_DEGREE:
        raise errors.ParseError(f"--degree must {span}, got {degree}")
    disc_span = f"have at most {MAX_DISC_CHARS} characters, MAX_DISC_DIGITS digits and a sign"
    disc = _parse_int(args.disc, "--disc", MAX_DISC_CHARS, disc_span)
    # The text cap leaves room for a sign, so an unsigned number may be one
    # digit longer than the digit cap. Such a text is all digits.
    if abs(disc) >= 10**MAX_DISC_DIGITS:
        raise errors.ParseError(f"--disc must {disc_span}, got {len(args.disc)} digits")
    if disc == 0:
        raise errors.ParseError("--disc must be nonzero")
    obj = {
        "degree": degree,
        "disc": _json_int(disc),
        "delta": args.delta,
        "bound": minkowski_bound(degree, disc, delta).digits(20),
    }
    _emit(args, obj, [obj["bound"]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisot",
        description="Find Pisot generators of totally real Galois fields and "
        "compute nearest integers to their powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(p):
        field = p.add_mutually_exclusive_group()
        field.add_argument("--conductor", help="cyclotomic conductor n")
        field.add_argument("--field", help="path to a FieldSpec JSON file")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("find", help="search for an (epsilon-)Pisot generator")
    add_field_flags(p)
    p.add_argument("--epsilon", default="1", help="rational bound on conjugate moduli")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("verify", help="certify a given coefficient vector")
    add_field_flags(p)
    p.add_argument("--coeffs", required=True, help="comma-separated integers")
    p.add_argument("--epsilon", default="1")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("pow", help="nearest integer to alpha^n, optionally mod m")
    p.add_argument("--minpoly", required=True, help='e.g. "x^2-x-1"')
    p.add_argument("-n", required=True)
    p.add_argument("-m", dest="modulus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("slp", help="straight-line program tools")
    slp_sub = p.add_subparsers(dest="slp_command", required=True)
    pe = slp_sub.add_parser("emit", help="emit a program for [alpha^n]")
    pe.add_argument("--minpoly", required=True)
    pe.add_argument("-n", required=True)
    pe.add_argument("-o", dest="output", help="output file (default stdout)")
    pe.set_defaults(func=_cmd_slp_emit)
    pv = slp_sub.add_parser("eval", help="evaluate a program file")
    pv.add_argument("file")
    pv.add_argument("-m", dest="modulus")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_slp_eval)

    p = sub.add_parser("threshold", help="trace-path threshold n0 of a Pisot minpoly")
    p.add_argument("--minpoly", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("bound", help="upper bound on the minimal Pisot generator")
    p.add_argument("--degree", required=True)
    p.add_argument("--disc", required=True)
    p.add_argument("--delta", required=True, help="rational in (0, 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)
    return parser


# Built on the first run, not at import, and kept: building it costs more
# than a whole modular request.
_parser = functools.cache(build_parser)

_USAGE_ERRORS = (
    errors.PolySyntaxError,
    errors.ParseError,
    errors.MalformedProgram,
    errors.NotMonic,
)


def run(argv) -> int:
    # Exact results may have millions of digits. The limit stays lifted after
    # run returns for callers in the same process that parse those results
    # with int(); `Ball.digits` and the error messages need no lift.
    set_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_digit_limit is not None:
        set_digit_limit(0)
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except errors.PisotError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
