"""Behavioural differential equations over streams of naturals.

A k-ary equation gives the head of the result from the heads of the
arguments, and the tail of the result as a stream expression over:

    x1..xk  the argument heads, embedded as streams with all-zero tails
    y1..yk  the argument streams
    z1..zk  the argument tails
    f       the function being defined (recursive self-reference)
    e(...)  any stream function defined earlier in the same file

``compile_bde`` turns a definition into a guarded stream function (a
fixed point at (Strg)^k -> Strg, curried) together with its lifting to
coinductive streams; ``oracle_eval`` runs the same definition as an
ordinary corecursive computation on host-level lazy streams, which is
the independent reference the compiled terms are tested against.

File format (`.bde`)::

    bde zeros(0) { head = 0; tail = zeros; }
    bde plus(2)  { head = x1 + x2; tail = plus(z1, z2); }

In heads, + and * are the primitive addN/mulN on naturals; in tails
they stand for the earlier-defined stream equations named plus/times.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .errors import BadVariable, BdeError, ForwardReference, ParseError, UnknownSymbol
from .frontend import fix_term, tokenize
from .prelude import load_prelude
from .syntax import (
    PRIMITIVES,
    App,
    Arrow,
    Box,
    BoxI,
    Lam,
    Later,
    LaterApp,
    Next,
    STREAM,
    STREAM_G,
    Term,
    Type,
    Prim,
    Unbox,
    Var,
    numeral,
    subst,
)

# ---------------------------------------------------------------------------
# Abstract syntax


@dataclass(frozen=True)
class HeadVar:
    name: str  # x<i>


@dataclass(frozen=True)
class HeadNum:
    n: int


@dataclass(frozen=True)
class HeadOp:
    op: str  # addN | mulN
    left: object
    right: object


@dataclass(frozen=True)
class TailVar:
    kind: str  # x | y | z
    i: int  # 1-based


@dataclass(frozen=True)
class TailCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class BdeDef:
    name: str
    arity: int
    head: object
    tail: object
    deps: tuple  # earlier names referenced by the tail, in order of first use


_VAR_RE = re.compile(r"^([xyz])([1-9][0-9]*)$")
# anything of single-letter-plus-index shape is a (possibly bad) variable
_VARISH_RE = re.compile(r"^([a-z])([0-9]+)$")


# ---------------------------------------------------------------------------
# Parsing


class _BdeParser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind, value=None):
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            raise ParseError(
                f"expected {value or kind!r}, found {t.value or t.kind!r}", t.loc
            )
        return self.advance()

    def ident(self, value=None):
        return self.expect("ident", value)

    def p_file(self):
        defs = []
        while self.peek().kind != "eof":
            defs.append(self.p_def())
        return defs

    def p_def(self):
        self.ident("bde")
        name = self.ident().value
        self.expect("(")
        arity = int(self.expect("num").value)
        self.expect(")")
        self.expect("{")
        self.ident("head")
        self.expect("=")
        head = self.p_hsum()
        self.expect(";")
        self.ident("tail")
        self.expect("=")
        tail = self.p_tsum()
        self.expect(";")
        self.expect("}")
        return BdeDef(name, arity, head, tail, deps=())

    # heads: + / * are primitive arithmetic

    def p_hsum(self):
        left = self.p_hprod()
        while self.peek().kind == "+":
            self.advance()
            left = HeadOp("addN", left, self.p_hprod())
        return left

    def p_hprod(self):
        left = self.p_hatom()
        while self.peek().kind == "*":
            self.advance()
            left = HeadOp("mulN", left, self.p_hatom())
        return left

    def p_hatom(self):
        t = self.peek()
        if t.kind == "num":
            self.advance()
            return HeadNum(int(t.value))
        if t.kind == "ident":
            self.advance()
            return HeadVar(t.value)
        if t.kind == "(":
            self.advance()
            out = self.p_hsum()
            self.expect(")")
            return out
        raise ParseError(f"expected a head term, found {t.value or t.kind!r}", t.loc)

    # tails: + / * are the earlier stream equations plus / times

    def p_tsum(self):
        left = self.p_tprod()
        while self.peek().kind == "+":
            self.advance()
            left = TailCall("plus", (left, self.p_tprod()))
        return left

    def p_tprod(self):
        left = self.p_tatom()
        while self.peek().kind == "*":
            self.advance()
            left = TailCall("times", (left, self.p_tatom()))
        return left

    def p_tatom(self):
        t = self.peek()
        if t.kind == "ident":
            self.advance()
            m = _VAR_RE.match(t.value)
            if m and self.peek().kind != "(":
                return TailVar(m.group(1), int(m.group(2)))
            if self.peek().kind == "(":
                self.advance()
                args = []
                if self.peek().kind != ")":
                    args.append(self.p_tsum())
                    while self.peek().kind == ",":
                        self.advance()
                        args.append(self.p_tsum())
                self.expect(")")
                return TailCall(t.value, tuple(args))
            return TailCall(t.value, ())
        if t.kind == "(":
            self.advance()
            out = self.p_tsum()
            self.expect(")")
            return out
        raise ParseError(f"expected a tail term, found {t.value or t.kind!r}", t.loc)


def parse_bde(text: str):
    """Parse a .bde file into definitions (unvalidated)."""
    defs = _BdeParser(tokenize(text)).p_file()
    return [d for d in _with_deps(defs)]


def _with_deps(defs):
    for d in defs:
        deps = []

        def walk(t):
            if isinstance(t, TailCall):
                if t.name != d.name and t.name not in deps:
                    deps.append(t.name)
                for a in t.args:
                    walk(a)

        walk(d.tail)
        yield BdeDef(d.name, d.arity, d.head, d.tail, tuple(deps))


# ---------------------------------------------------------------------------
# Validation


def _check_head(h, k):
    if isinstance(h, HeadNum):
        return
    if isinstance(h, HeadVar):
        m = _VAR_RE.match(h.name)
        if not m or m.group(1) != "x" or int(m.group(2)) > k:
            raise BadVariable(f"head may only use x1..x{k}, found {h.name!r}")
        return
    _check_head(h.left, k)
    _check_head(h.right, k)


def _varish(name: str) -> bool:
    return bool(_VARISH_RE.match(name))


def validate_bde(defs) -> None:
    """Check variable scoping, arities, and the no-forward-reference
    ordering (mutual recursion is rejected)."""
    positions = {d.name: p for p, d in enumerate(defs)}
    if len(positions) != len(defs):
        raise BdeError("duplicate equation name")
    for p, d in enumerate(defs):
        if _VAR_RE.match(d.name):
            raise BadVariable(f"equation name {d.name!r} is a reserved variable")
        if d.arity < 0:
            raise BdeError(f"negative arity in {d.name!r}")
        _check_head(d.head, d.arity)
        _check_tail(d.tail, d, p, positions, {q.name: q for q in defs})

    return None


def _check_tail(t, d, pos, positions, byname):
    if isinstance(t, TailVar):
        if t.i > d.arity:
            raise BadVariable(
                f"tail of {d.name!r} uses {t.kind}{t.i} but arity is {d.arity}"
            )
        return
    assert isinstance(t, TailCall)
    if _VAR_RE.match(t.name):
        raise BadVariable(f"variable {t.name!r} cannot be applied")
    if _varish(t.name) and t.name not in positions and t.name != d.name:
        raise BadVariable(
            f"tail of {d.name!r} uses {t.name!r}; only x/y/z variables exist"
        )
    if t.name == d.name:
        target_arity = d.arity
    elif t.name in positions:
        if positions[t.name] > pos:
            raise ForwardReference(
                f"tail of {d.name!r} uses {t.name!r}, defined later "
                f"(mutual recursion is not supported)"
            )
        target_arity = byname[t.name].arity
    else:
        raise UnknownSymbol(f"tail of {d.name!r} uses undefined {t.name!r}")
    if len(t.args) != target_arity:
        raise BdeError(
            f"{t.name!r} has arity {target_arity}, applied to {len(t.args)} "
            f"arguments in {d.name!r}"
        )
    for a in t.args:
        _check_tail(a, d, pos, positions, byname)


# ---------------------------------------------------------------------------
# Compilation to guarded lambda terms


@dataclass(frozen=True)
class CompiledBde:
    guarded: Term
    guarded_type: Type
    lifted: Term
    lifted_type: Type


def _curried(result: Type, args, k: int) -> Type:
    ty = result
    for _ in range(k):
        ty = Arrow(args, ty)
    return ty


def _prelude_pieces():
    p = load_prelude()
    return {n: p.lookup(n).resolved() for n in ("consg", "hdg", "tlg", "zeros")}


def _head_to_term(h) -> Term:
    if isinstance(h, HeadNum):
        return numeral(h.n)
    if isinstance(h, HeadVar):
        return Var(h.name)
    return Prim(h.op, (_head_to_term(h.left), _head_to_term(h.right)))


def _tail_to_term(t, d: BdeDef, compiled: dict) -> Term:
    """The later-stream term for a tail expression, over the variables
    x1..xk, y1..yk : Strg, z1..zk : |>Strg and f : |>((Strg)^k -> Strg)."""
    if isinstance(t, TailVar):
        if t.kind == "z":
            return Var(f"z{t.i}")
        return Next(Var(f"{t.kind}{t.i}"))
    if t.name == d.name:
        out: Term = Var("f")
    else:
        out = Next(compiled[t.name].guarded)
    for a in t.args:
        out = LaterApp(out, _tail_to_term(a, d, compiled))
    return out


def _compile_one(d: BdeDef, compiled: dict, pieces: dict) -> CompiledBde:
    k = d.arity
    consg, hdg, tlg, zeros = (pieces[n] for n in ("consg", "hdg", "tlg", "zeros"))
    gty = _curried(STREAM_G, STREAM_G, k)

    head = _head_to_term(d.head)
    tail = _tail_to_term(d.tail, d, compiled)

    ys = [Var(f"y{i}") for i in range(1, k + 1)]
    head_sub = {f"x{i}": App(hdg, y) for i, y in enumerate(ys, start=1)}
    tail_sub = {}
    for i, y in enumerate(ys, start=1):
        # x_i embeds the i-th head as the stream  hd y_i :: next zeros
        tail_sub[f"x{i}"] = App(App(consg, App(hdg, y)), Next(zeros))
        tail_sub[f"z{i}"] = App(tlg, y)

    body = App(App(consg, subst(head, head_sub)), subst(tail, tail_sub))
    phi = body
    for y in reversed(ys):
        phi = Lam(y.name, STREAM_G, phi)
    phi = Lam("f", Later(gty), phi)
    guarded = App(fix_term(gty), phi)

    boxed = BoxI((), guarded)
    lty = _curried(STREAM, STREAM, k)
    if k == 0:
        lifted: Term = boxed
    else:
        # L_k : #((Strg)^k -> Strg) -> (Str)^k -> Str, applied to box(f^g)
        inner: Term = Unbox(Var("g"))
        for y in ys:
            inner = App(inner, Unbox(y))
        sig = tuple((v.name, Var(v.name)) for v in [Var("g")] + ys)
        lk = BoxI(sig, inner)
        for y in reversed(ys):
            lk = Lam(y.name, STREAM, lk)
        lk = Lam("g", Box(gty), lk)
        lifted = App(lk, boxed)
    return CompiledBde(guarded, gty, lifted, lty)


def compile_bde(defs, name: str) -> CompiledBde:
    """Compile a named equation (and its dependencies) to terms.

    Returns the guarded function at (Strg)^k -> Strg (curried) and its
    lifting to coinductive streams at (Str)^k -> Str.
    """
    validate_bde(defs)
    pieces = _prelude_pieces()
    compiled = {}
    for d in defs:
        compiled[d.name] = _compile_one(d, compiled, pieces)
        if d.name == name:
            return compiled[d.name]
    raise BdeError(f"no equation named {name!r}")


# ---------------------------------------------------------------------------
# Host-level corecursive oracle (Set semantics)


class HostStream:
    """A memoized infinite stream of naturals: index -> value."""

    __slots__ = ("fn", "_memo")

    def __init__(self, fn):
        self.fn = fn
        self._memo = {}

    def __call__(self, i: int) -> int:
        v = self._memo.get(i)
        if v is None:
            v = self.fn(i)
            self._memo[i] = v
        return v

    def tail(self) -> "HostStream":
        return HostStream(lambda i: self(i + 1))


def host_cons(h: int, s: HostStream) -> HostStream:
    return HostStream(lambda i: h if i == 0 else s(i - 1))


def host_zeros() -> HostStream:
    return HostStream(lambda i: 0)


def host_toggle() -> HostStream:
    return HostStream(lambda i: 1 if i % 2 == 0 else 0)


def host_nats() -> HostStream:
    return HostStream(lambda i: i)


def host_const(n: int) -> HostStream:
    return HostStream(lambda i: n)


def _eval_head(h, heads):
    if isinstance(h, HeadNum):
        return h.n
    if isinstance(h, HeadVar):
        return heads[int(h.name[1:]) - 1]
    return PRIMITIVES[h.op].op(_eval_head(h.left, heads), _eval_head(h.right, heads))


def _oracle_stream(byname: dict, d: BdeDef, args) -> HostStream:
    heads = [s(0) for s in args]
    cell = []

    def tail_stream():
        if not cell:
            env = {}
            for i in range(d.arity):
                env[("x", i + 1)] = host_cons(heads[i], host_zeros())
                env[("y", i + 1)] = args[i]
                env[("z", i + 1)] = args[i].tail()
            cell.append(_eval_tail(d.tail, env, byname, d))
        return cell[0]

    def elem(i):
        if i == 0:
            return _eval_head(d.head, heads)
        return tail_stream()(i - 1)

    return HostStream(elem)


def _eval_tail(t, env, byname, d):
    if isinstance(t, TailVar):
        return env[(t.kind, t.i)]
    target = d if t.name == d.name else byname[t.name]
    streams = [_eval_tail(a, env, byname, d) for a in t.args]
    return _oracle_stream(byname, target, streams)


def oracle_eval(defs, name: str, args, n: int):
    """First n elements of the named equation applied to host streams."""
    validate_bde(defs)
    byname = {d.name: d for d in defs}
    if name not in byname:
        raise BdeError(f"no equation named {name!r}")
    d = byname[name]
    if len(args) != d.arity:
        raise BdeError(f"{name!r} has arity {d.arity}, given {len(args)} streams")
    s = _oracle_stream(byname, d, list(args))
    return [s(i) for i in range(n)]
