"""Error hierarchy shared by all glam modules.

Every error carries a stable machine-readable ``code`` plus a human
message.  The code comes from the class statement: it is the class
name, unless the statement gives one, as
``class StuckError(MachineError, code="Stuck")`` does.  ``render()``
produces the one-line form used by the CLI, with a source span when
one is known.

``nesting_guard`` turns a ``RecursionError`` into ``NestingTooDeep``
at the recursive entry points: the parsers (``frontend.parse_term``,
``parse_type`` and ``parse_program``, ``bde.parse_bde``), the type
checker (``elaborate``, ``infer``, ``check``), ``syntax.erase`` and
``alpha_eq``, ``machine.eval_term`` and ``observe_nat``,
``denot.den_term`` and ``den_take``, ``frontend.pretty``, the CLI's
subcommands and the REPL.  Inside a guarded call a number of any size
also reads and prints.
"""

import functools
import sys

# The recursion limit inside a guarded call: substitution and the term
# traversals recurse over deep spines (long chains of succ, prev or
# application, deeply nested input), for which CPython's default limit
# is far too small.
NESTING_LIMIT = 100_000

# Python's limit on the digits of an int read from or written as text
# (0 lifts it); releases before 3.10.7 have no such limit.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)


class GlamError(Exception):
    code = "Error"

    def __init_subclass__(cls, code=None, **kw):
        super().__init_subclass__(**kw)
        cls.code = code or cls.__name__

    def __init__(self, message, loc=None):
        super().__init__(message)
        self.message = message
        self.loc = loc  # (line, col) or None

    def render(self):
        if self.loc is not None:
            line, col = self.loc
            return f"{self.code}: {self.message} (at {line}:{col})"
        return f"{self.code}: {self.message}"


class ParseError(GlamError): ...


class TypingError(GlamError): ...
class UnboundTypeVar(TypingError): ...
class UnguardedMu(TypingError): ...
class OpenBox(TypingError): ...
class TypeMismatch(TypingError): ...
class NonConstantSubstType(TypingError): ...
class EscapingVariable(TypingError): ...
class CannotSynthesize(TypingError): ...
class UnboundVariable(TypingError): ...


class MachineError(GlamError): ...
class FuelExhaustedError(MachineError, code="FuelExhausted"): ...
class StuckError(MachineError, code="Stuck"): ...


class NestingTooDeep(GlamError):
    """The input is nested deeper than the Python stack allows."""


def nesting_guard(fn):
    """Make an entry point run with the recursion limit raised to
    ``NESTING_LIMIT`` and the int digit limit lifted, both restored on
    exit, and raise NestingTooDeep, not RecursionError, on input nested
    deeper than that.  Under an enclosing guard, the limits are already
    set and stay as they are."""

    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        old, digits = sys.getrecursionlimit(), _digit_limit()
        sys.setrecursionlimit(max(old, NESTING_LIMIT))
        _set_digit_limit(0)
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise NestingTooDeep("input nested too deeply to process") from None
        finally:
            sys.setrecursionlimit(old)
            _set_digit_limit(digits)

    return guarded


class DenotError(GlamError): ...
class IndexZero(DenotError): ...
class DepthExceeded(DenotError): ...


class BdeError(GlamError): ...
class UnknownSymbol(BdeError): ...
class BadVariable(BdeError): ...
class ForwardReference(BdeError): ...
