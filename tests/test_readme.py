"""The README's examples print what the README says they print."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from pisot.balls import Ball
from pisot.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading, lang):
    """Lines of the first ```lang block after the given heading."""
    section = README[README.index(heading):]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def _stated(lines):
    """(code, comment) for each line with a comment."""
    out = []
    for line in lines:
        code, sep, comment = line.partition("#")
        if sep:
            out.append((code.strip(), comment.strip()))
    return out


# A CLI comment that starts with a number states the line's output; the
# others describe the command.
CLI = [
    (code, comment.split()[0])
    for code, comment in _stated(_block("## CLI", "sh"))
    if code.startswith("pisot ") and re.match(r"\d", comment)
]


def test_cli_examples_found():
    assert [expected for _, expected in CLI] == ["123", "10"]


@pytest.mark.parametrize("line,expected", CLI, ids=[c for c, _ in CLI])
def test_cli_example(capsys, line, expected):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_library_example():
    lines = _block("## Library", "python")
    namespace = {}
    exec("\n".join(line.partition("#")[0] for line in lines), namespace)
    stated = dict(_stated(lines))
    printed = {
        "cand.minpoly": "x^4 - 633x^3 + 14x^2 + 18x + 1",
        "nearest_power(info, 17)": "119",
        "slp_eval(p) == nearest_power(info, 1000)": "True",
        "nearest_power(info, 1000, lift=Decimal) == nearest_power(info, 1000)": "True",
    }
    for expr, value in printed.items():
        assert str(eval(expr, namespace)) == value
        assert stated[expr] == value or stated[expr].startswith(value + " (")
    # Two comments describe their output in words.
    assert stated["cand.conjugate_moduli"] == "certified balls, all < 1/2"
    moduli = namespace["cand"].conjugate_moduli
    assert len(moduli) == 3
    assert all(isinstance(m, Ball) and m.lt(Fraction(1, 2)) for m in moduli)
    n0 = re.search(r"threshold n0 = (\d+)", stated["info = analyze_minpoly(f)"])
    assert namespace["info"].threshold_n0 == int(n0.group(1)) == 10
    assert len(stated) == 6
