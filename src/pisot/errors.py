"""Exception hierarchy shared by all pisot modules."""


class PisotError(Exception):
    """Base class for every error raised by this package."""


# --- algebraic ---------------------------------------------------------------

class UnsupportedConductor(PisotError):
    pass


class PrecisionError(PisotError):
    pass


class PrecisionExhausted(PisotError):
    pass


class NotSquarefree(PisotError):
    """The polynomial has a repeated root, so its root disks can never be
    separated; decided exactly, before any precision escalation, so no
    handler of PrecisionExhausted may catch it."""


class ParseError(PisotError):
    pass


class DiscriminantMismatch(PisotError):
    pass


class RankDeficient(PisotError):
    pass


class NotIntegral(PisotError):
    """The trace form Tr(b_i b_j) is not integral: not a basis of integers."""


class NotPisot(PisotError):
    pass


class NotMonic(PisotError):
    pass


# --- pisotsearch -------------------------------------------------------------

class SearchFailed(PisotError):
    pass


# --- powtrace / slp ----------------------------------------------------------

class BadModulus(PisotError):
    pass


class MalformedProgram(PisotError):
    """Raised for structurally invalid SLPs; carries a line number for parsed text."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# --- polynomial expression grammar (cli) -------------------------------------

class PolySyntaxError(PisotError):
    """Syntax error in a polynomial expression; `offset` is the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
