class CsakitError(Exception):
    """Base class for all library errors."""


class MalformedWordError(CsakitError):
    """A letter sequence references a generator outside the ambient rank."""


class UnsupportedBaseError(CsakitError):
    """The requested operation needs a base group class we cannot decide."""


# the size limits, each with the flags that set a value checked against it
WORD_LETTER_LIMIT = 10 ** 6  # letters a word writes out: --word, --m, --n
NESTING_LIMIT = 200          # brackets a word nests, within recursion
BALL_WORD_LIMIT = 5000       # reduced words of a search ball: --radius
BALL_LETTER_LIMIT = 30_000   # letters of those words, the same --radius
CLOSURE_CAP = 32             # joins of malnormal_closure, unless --cap


class BudgetExceededError(CsakitError):
    """A size over one of the limits above, named in the message."""

    def __init__(self, what, limit, flag=None):
        by = f" (from {flag})" if flag else ""
        super().__init__(f"{what} is over the limit of {limit}{by}")


def check_budget(value, limit=WORD_LETTER_LIMIT, what="a word of {} letters",
                 flag=None):
    """Raise BudgetExceededError when value > limit; what shows it at {}."""
    if value > limit:
        raise BudgetExceededError(what.format(value), limit, flag)


class CapExceededError(BudgetExceededError):
    """An iterative closure computation ran out of its join budget."""

    def __init__(self, cap):
        super().__init__(f"a closure of more than {cap} joins", cap, "--cap")
        self.cap = cap


class UnsupportedShapeError(CsakitError):
    """Graph-of-groups operation restricted to finite trees and lines."""


class ParseError(CsakitError):
    """Presentation text rejected, with position information."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos
