"""The ``glam`` command-line tool and REPL.

Exit codes: 0 success, 1 domain error (type error, stuck term,
mismatch, missing file), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bde as bdemod
from . import denot, machine, typecheck
from .errors import GlamError, nesting_guard
from .frontend import Program, parse_program, parse_term, pretty, pretty_type
from .prelude import load_prelude
from .syntax import App, Box, NAT, STREAM_G, type_alpha_eq

DEFAULT_N = 8
DEFAULT_INDEX = 3


class CliError(GlamError, code="error"):
    """A file that cannot be read, or is not UTF-8, a malformed REPL
    command, or an evaluation that ends without a value."""


@nesting_guard  # a count of any length reads, as a program numeral does
def _natural(text: str) -> int | None:
    """A count, stage or fuel read from text, or None: only ASCII
    digits, perhaps between blanks, as in a program numeral."""
    s = text.strip()
    return int(s) if s.isascii() and s.isdigit() else None


def _fuel(given: int | None) -> int:
    """The given fuel, else GLAM_FUEL, else the machine's default."""
    if given is not None:
        return given
    env = os.environ.get("GLAM_FUEL")
    if not env:
        return machine.DEFAULT_FUEL
    n = _natural(env)
    if n is None:
        raise GlamError(f"GLAM_FUEL must be a non-negative integer, not {env!r}")
    return n


def _read(path: str) -> str:
    """The text of a program or .bde file."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CliError(str(e)) from None
    return _utf8(data, repr(path))


def _utf8(data: bytes, what: str) -> str:
    """data decoded as UTF-8, less a leading byte-order mark; what names
    data in the error, whose byte offset counts the mark."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise CliError(f"{what} is not UTF-8: {e.reason} at byte {e.start}") from None


def _load(path: str) -> Program:
    """Parse a program file over the prelude and type-check it."""
    program = parse_program(_read(path), base=load_prelude())
    typecheck.check_program(program)
    return program


def _count(text: str) -> int:
    """argparse type of counts, stages and fuel: a non-negative integer."""
    s = text.strip()
    n = _natural(s)
    if n is not None:
        return n
    if s[:1] == "-" and _natural(s[1:]) is not None:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _lookup(program: Program, name: str):
    d = program.lookup(name)
    if d is None:
        raise GlamError(f"no definition named {name!r}")
    return d


def _given(*values):
    """The first value that is not None, so that a given 0 is kept."""
    return next(v for v in values if v is not None)


def _is_stream_type(ty) -> bool:
    if type_alpha_eq(ty, STREAM_G):
        return True
    return isinstance(ty, Box) and type_alpha_eq(ty.body, STREAM_G)


def _observe(cmd: str, t, ty, n: int, fuel: int | None = None) -> str:
    """The line that cmd, take or denote, prints for the term t of type
    ty at count or stage n.  A term of unknown type (None) is read as a
    stream."""
    if ty is not None and not _is_stream_type(ty):
        if cmd == "denote" and type_alpha_eq(ty, NAT):
            return str(denot.den_nat(t, n))
        nat = "Nat and " if cmd == "denote" else ""
        raise GlamError(f"{cmd} handles {nat}stream definitions, not {pretty_type(ty)}")
    xs = machine.take_stream(t, n, _fuel(fuel)) if cmd == "take" else denot.den_take(t, n)
    return " ".join(str(x) for x in xs)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    program = _load(args.file)
    for d in program:
        print(f"{d.name} : {pretty_type(d.ty)}")
    return 0


def cmd_run(args) -> int:
    program = _load(args.file)
    d = _lookup(program, args.name)
    out = machine.eval_term(d.resolved(), fuel=_fuel(args.fuel))
    if not isinstance(out, machine.Value):
        kind = "fuel exhausted" if isinstance(out, machine.FuelExhausted) else "stuck"
        raise CliError(f"{kind} after {out.steps} steps")
    print(pretty(out.term))
    return 0


def cmd_take(args) -> int:
    program = _load(args.file)
    d = _lookup(program, args.name)
    n = _given(args.n, args.count, DEFAULT_N)
    print(_observe("take", d.resolved(), d.ty, n, args.fuel))
    return 0


def cmd_denote(args) -> int:
    program = _load(args.file)
    d = _lookup(program, args.name)
    i = _given(args.index, args.stage, DEFAULT_INDEX)
    print(_observe("denote", d.resolved(), d.ty, i))
    return 0


def cmd_bde_compile(args) -> int:
    defs = bdemod.parse_bde(_read(args.file))
    out = bdemod.compile_bde(defs, args.name)
    print(f"guarded : {pretty_type(out.guarded_type)}")
    print(f"  {pretty(out.guarded)}")
    print(f"lifted : {pretty_type(out.lifted_type)}")
    print(f"  {pretty(out.lifted)}")
    return 0


# Named argument streams available to bde-run: a glam term and its
# host-level twin.
def _bde_arg(name: str):
    prelude = load_prelude()
    if name == "zeros":
        return prelude.lookup("zeros").resolved(), bdemod.host_zeros()
    if name == "toggle":
        return prelude.lookup("toggle").resolved(), bdemod.host_toggle()
    if name == "nats":
        term = parse_term("iterate' (\\x. succ x) 0", env=prelude.env(), strict=True)
        return term, bdemod.host_nats()
    raise GlamError(f"unknown argument stream {name!r} (use zeros, toggle, or nats)")


def cmd_bde_run(args) -> int:
    defs = bdemod.parse_bde(_read(args.file))
    pairs = [_bde_arg(a) for a in args.args]
    n = _given(args.n, DEFAULT_N)
    # the oracle runs first: it refuses a wrong number of streams, which
    # the compiled term would take as a stuck application
    want = bdemod.oracle_eval(defs, args.name, [h for _, h in pairs], n)
    applied = bdemod.compile_bde(defs, args.name).guarded
    for term, _ in pairs:
        applied = App(applied, term)
    got = machine.take_stream(applied, n, fuel=_fuel(args.fuel))
    print("i compiled oracle")
    for i, (g, w) in enumerate(zip(got, want)):
        print(f"{i} {g} {w}")
    if got == want:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def cmd_repl(args) -> int:
    run_repl(sys.stdin, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# REPL


@nesting_guard
def run_repl(infile, outfile, fuel: int | None = None) -> None:
    """Read commands from the text stream infile.  When it has a binary
    buffer, as sys.stdin does, lines are read from that and decoded
    here, so a line that is not UTF-8 is one error line."""
    fuel = _fuel(fuel)
    readline = getattr(infile, "buffer", infile).readline
    program = load_prelude()
    env = program.env()

    def w(line):
        print(line, file=outfile)

    w(f"glam repl; {', '.join(_USAGE.values())}, :q")
    while True:
        print("glam> ", end="", file=outfile, flush=True)
        line = readline()
        if not line:
            return
        try:
            line = (_utf8(line, "input line") if isinstance(line, bytes) else line).strip()
            if not line:
                continue
            if line == ":q":
                return
            cmd, _, arg = line.partition(" ")
            if cmd in _USAGE and not arg:
                raise CliError(f"usage: {_USAGE[cmd]}")
            if cmd == ":load":
                program = _load(arg.strip())
                env = program.env()
                w(f"loaded {len(program)} definitions")
            elif cmd == ":t":
                t = parse_term(arg, env=env, strict=True)
                w(pretty_type(typecheck.infer({}, t)))
            elif cmd == ":step":
                t = machine.erase(parse_term(arg, env=env, strict=True))
                nxt = machine.step(t)
                w(pretty(nxt) if nxt is not None else "(no step: value or stuck)")
            elif cmd in (":take", ":den"):
                n, src = _count_and_term(cmd, arg)
                t = parse_term(src, env=env, strict=True)
                try:
                    ty = typecheck.infer({}, t)
                except GlamError:
                    ty = None
                w(_observe("take" if cmd == ":take" else "denote", t, ty, n, fuel))
            elif line.startswith(":"):
                w(f"unknown command {line.split()[0]!r}")
            else:
                t = parse_term(line, env=env, strict=True)
                out = machine.eval_term(t, fuel=fuel)
                if not isinstance(out, machine.Value):
                    kind = "stuck" if isinstance(out, machine.Stuck) else "no value"
                    raise CliError(f"{kind} after {out.steps} steps")
                w(pretty(out.term))
        except GlamError as e:
            w(e.render())


# The usage line of each REPL command that takes an argument, by its name.
_USAGE = {u.split()[0]: u for u in (":t e", ":step e", ":take n e", ":den i e", ":load f")}


def _count_and_term(cmd: str, rest: str):
    """The count and the term source of :take and :den."""
    parts = rest.split(None, 1)
    n = _natural(parts[0]) if len(parts) == 2 else None
    if n is None:
        raise CliError(f"usage: {_USAGE[cmd]}")
    return n, parts[1]


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="glam", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="type-check a program file")
    c.add_argument("file")
    c.set_defaults(fn=cmd_check)

    c = sub.add_parser("run", help="evaluate a definition to a value")
    c.add_argument("file")
    c.add_argument("name")
    c.add_argument("--fuel", type=_count, default=None)
    c.set_defaults(fn=cmd_run)

    c = sub.add_parser("take", help="print the first n elements of a stream")
    c.add_argument("file")
    c.add_argument("name")
    c.add_argument("count", nargs="?", type=_count, default=None)
    c.add_argument("--n", type=_count, default=None)
    c.add_argument("--fuel", type=_count, default=None)
    c.set_defaults(fn=cmd_take)

    c = sub.add_parser("denote", help="print a denotation at a stage index")
    c.add_argument("file")
    c.add_argument("name")
    c.add_argument("stage", nargs="?", type=_count, default=None)
    c.add_argument("--index", type=_count, default=None)
    c.set_defaults(fn=cmd_denote)

    c = sub.add_parser("bde-compile", help="compile a behavioural equation")
    c.add_argument("file")
    c.add_argument("name")
    c.set_defaults(fn=cmd_bde_compile)

    c = sub.add_parser("bde-run", help="compare a compiled equation with the oracle")
    c.add_argument("file")
    c.add_argument("name")
    c.add_argument("args", nargs="*", help="argument streams: zeros, toggle, nats")
    c.add_argument("--n", type=_count, default=None)
    c.add_argument("--fuel", type=_count, default=None)
    c.set_defaults(fn=cmd_bde_run)

    c = sub.add_parser("repl", help="interactive session")
    c.set_defaults(fn=cmd_repl)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return nesting_guard(args.fn)(args)
    except GlamError as e:
        print(e.render(), file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: exit 1 quietly.  stdout points at
        # devnull, so that the flush at exit does not fail again (the
        # recipe in the documentation of Python's signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
