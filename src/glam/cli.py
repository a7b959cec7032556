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


def _fuel(given: int | None) -> int:
    """The given fuel, else GLAM_FUEL, else the machine's default."""
    if given is not None:
        return given
    env = os.environ.get("GLAM_FUEL")
    if not env:
        return machine.DEFAULT_FUEL
    if not env.strip().isdecimal():
        raise GlamError(f"GLAM_FUEL must be a non-negative integer, not {env!r}")
    return int(env)


def _read(path: str) -> str:
    """The text of a program or .bde file."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise _InputError(str(e)) from None
    return _utf8(data, repr(path))


def _utf8(data: bytes, what: str) -> str:
    """data decoded as UTF-8, less a leading byte-order mark; what names
    data in the error, whose byte offset counts the mark."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise _InputError(f"{what} is not UTF-8: {e.reason} at byte {e.start}") from None


def _load(path: str) -> Program:
    """Parse a program file over the prelude and type-check it."""
    program = parse_program(_read(path), base=load_prelude())
    typecheck.check_program(program)
    return program


def _count(text: str) -> int:
    """argparse type of counts, stages and fuel: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return n


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
    if isinstance(out, machine.Value):
        print(pretty(out.term))
        return 0
    kind = "fuel exhausted" if isinstance(out, machine.FuelExhausted) else "stuck"
    print(f"error: {kind} after {out.steps} steps", file=sys.stderr)
    return 1


def cmd_take(args) -> int:
    program = _load(args.file)
    d = _lookup(program, args.name)
    if not _is_stream_type(d.ty):
        raise GlamError(f"take handles stream definitions, not {pretty_type(d.ty)}")
    n = _given(args.n, args.count, DEFAULT_N)
    xs = machine.take_stream(d.resolved(), n, fuel=_fuel(args.fuel))
    print(" ".join(str(x) for x in xs))
    return 0


def cmd_denote(args) -> int:
    program = _load(args.file)
    d = _lookup(program, args.name)
    i = _given(args.index, args.stage, DEFAULT_INDEX)
    if type_alpha_eq(d.ty, NAT):
        print(denot.den_nat(d.resolved(), i))
    elif _is_stream_type(d.ty):
        xs = denot.den_take(d.resolved(), i)
        print(" ".join(str(x) for x in xs))
    else:
        raise GlamError(
            f"denote handles Nat and stream definitions, not {pretty_type(d.ty)}"
        )
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

    w("glam repl; :t e, :step e, :take n e, :den i e, :load f, :q")
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
            if line.startswith(":load "):
                program = _load(line[len(":load "):].strip())
                env = program.env()
                w(f"loaded {len(program)} definitions")
            elif line.startswith(":t "):
                t = parse_term(line[3:], env=env, strict=True)
                w(pretty_type(typecheck.infer({}, t)))
            elif line.startswith(":step "):
                t = machine.erase(parse_term(line[6:], env=env, strict=True))
                nxt = machine.step(t)
                w(pretty(nxt) if nxt is not None else "(no step: value or stuck)")
            elif line.startswith(":take "):
                n, src = _count_and_term(":take n e", line[6:])
                t = parse_term(src, env=env, strict=True)
                w(" ".join(str(x) for x in machine.take_stream(t, n, fuel)))
            elif line.startswith(":den "):
                i, src = _count_and_term(":den i e", line[5:])
                t = parse_term(src, env=env, strict=True)
                try:
                    ty = typecheck.infer({}, t)
                except GlamError:
                    ty = None
                if ty is not None and type_alpha_eq(ty, NAT):
                    w(str(denot.den_nat(t, i)))
                else:
                    w(" ".join(str(x) for x in denot.den_take(t, i)))
            elif line.startswith(":"):
                w(f"unknown command {line.split()[0]!r}")
            else:
                t = parse_term(line, env=env, strict=True)
                out = machine.eval_term(t, fuel=fuel)
                if isinstance(out, machine.Value):
                    w(pretty(out.term))
                else:
                    kind = "stuck" if isinstance(out, machine.Stuck) else "no value"
                    w(f"error: {kind} after {out.steps} steps")
        except GlamError as e:
            w(e.render())
        except _InputError as e:
            w(f"error: {e}")


class _InputError(Exception):
    """A file that cannot be read as UTF-8, or a malformed REPL command."""


def _count_and_term(usage: str, rest: str):
    """The count and the term source of :take and :den."""
    parts = rest.split(None, 1)
    if len(parts) != 2 or not parts[0].isdecimal():
        raise _InputError(f"usage: {usage}")
    return int(parts[0]), parts[1]


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
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
