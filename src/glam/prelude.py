"""The shipped prelude: every stream/conatural program with its
declared type, loadable as a Program and usable as the base
environment for user programs.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .frontend import Program, parse_program

_HERE = Path(__file__).parent

PRELUDE_PATH = _HERE / "prelude.gl"
EXTRAS_PATH = _HERE / "extras.gl"


@lru_cache(maxsize=None)
def load_prelude() -> Program:
    """Parse the prelude with no base environment.

    The result is cached; definitions are immutable.
    """
    return parse_program(PRELUDE_PATH.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def load_extras() -> Program:
    """The documentation extras (Thue-Morse, Fibonacci word), linked
    against the prelude."""
    return parse_program(EXTRAS_PATH.read_text(encoding="utf-8"), base=load_prelude())
