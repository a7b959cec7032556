"""glam: a toolchain for the guarded lambda-calculus.

Parse, type-check and run programs with guarded recursive and
coinductive types under call-by-name evaluation; evaluate them
denotationally at finite topos-of-trees stages; and compile
behavioural differential equations into productive stream programs
checked against an independent corecursive oracle.
"""

from .errors import GlamError, ParseError, TypingError
from .frontend import (
    Program,
    fix_term,
    parse_program,
    parse_term,
    parse_type,
    pretty,
    pretty_type,
)
from .machine import (
    DEFAULT_FUEL,
    eval_term,
    is_value,
    observe_conat,
    observe_nat,
    step,
    step_rd,
    take_stream,
    trace,
)
from .denot import den_nat, den_take, den_term, restrict
from .bde import compile_bde, oracle_eval, parse_bde, validate_bde
from .prelude import load_extras, load_prelude
from .syntax import alpha_eq, erase, free_vars, numeral, subst, type_alpha_eq
from .typecheck import (
    box_depth,
    check,
    check_program,
    elaborate,
    guarded_in,
    infer,
    is_constant,
    unguarded_size,
    wf_type,
)

__all__ = [
    "GlamError",
    "ParseError",
    "TypingError",
    "Program",
    "fix_term",
    "parse_program",
    "parse_term",
    "parse_type",
    "pretty",
    "pretty_type",
    "DEFAULT_FUEL",
    "erase",
    "eval_term",
    "is_value",
    "observe_conat",
    "observe_nat",
    "step",
    "step_rd",
    "take_stream",
    "trace",
    "den_nat",
    "den_take",
    "den_term",
    "restrict",
    "compile_bde",
    "oracle_eval",
    "parse_bde",
    "validate_bde",
    "load_extras",
    "load_prelude",
    "alpha_eq",
    "free_vars",
    "numeral",
    "subst",
    "type_alpha_eq",
    "box_depth",
    "check",
    "check_program",
    "elaborate",
    "guarded_in",
    "infer",
    "is_constant",
    "unguarded_size",
    "wf_type",
]
