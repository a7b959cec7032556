"""Behavioural differential equations over streams of naturals.

A k-ary equation gives the head of the result from the heads of the
arguments, and the tail of the result as a stream expression over:

    x1..xk  the argument heads, embedded as streams with all-zero tails
    y1..yk  the argument streams
    z1..zk  the argument tails
    f       the function being defined (recursive self-reference)
    e(...)  any stream function defined earlier in the same file

Both parts of an equation are glam terms.  A head is built from
numerals, x1..xk and the primitives addN/mulN, which + and * stand for;
a tail from variables and <*>, where a call e(a, b) is (e <*> a) <*> b
and + and * are calls of the earlier equations named plus/times.

``compile_bde`` turns a definition into a guarded stream function (a
fixed point at (Strg)^k -> Strg, curried) together with its lifting to
coinductive streams, by substitution: one ``subst`` maps the head's x_i
to the argument heads, and one maps the tail's names to later streams.
``oracle_eval`` runs the same definition as an ordinary corecursive
computation on host-level streams, memoized on structural keys (see
``_Oracle``): the independent reference the compiled terms are tested
against.

File format (`.bde`)::

    bde zeros(0) { head = 0; tail = zeros; }
    bde plus(2)  { head = x1 + x2; tail = plus(z1, z2); }
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import (
    BadVariable,
    BdeError,
    ForwardReference,
    ParseError,
    UnknownSymbol,
    nesting_guard,
)
from .frontend import TokenCursor, fix_term, tokenize
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
#
# A head is a term of Var, numeral and Prim nodes; a tail is a term of
# Var and LaterApp nodes.


class BdeDef(NamedTuple):
    name: str
    arity: int
    head: Term
    tail: Term


_VAR_RE = re.compile(r"^([xyz])([1-9][0-9]*)$")
# anything of single-letter-plus-index shape is a (possibly bad) variable
_VARISH_RE = re.compile(r"^([a-z])([0-9]+)$")

# The infix operators: precedence, then the primitive each stands for
# in a head and the equation it stands for in a tail.
_OPS = {"+": (0, "addN", "plus"), "*": (1, "mulN", "times")}


# ---------------------------------------------------------------------------
# Parsing


class _BdeParser(TokenCursor):
    def ident(self, value=None):
        return self.expect("ident", value)

    def p_file(self):
        defs = []
        while not self.at("eof"):
            defs.append(self.p_def())
        return defs

    def p_def(self):
        self.ident("bde")
        name = self.ident()[1]
        self.expect("(")
        arity = int(self.expect("num")[1])
        self.expect(")")
        self.expect("{")
        self.ident("head")
        self.expect("=")
        head = self.p_expr(True)
        self.expect(";")
        self.ident("tail")
        self.expect("=")
        tail = self.p_expr(False)
        self.expect(";")
        self.expect("}")
        return BdeDef(name, arity, head, tail)

    def p_expr(self, head: bool, prec: int = 0):
        """Atoms joined by the operators of precedence prec and above,
        to the left: a head's operators build a Prim, a tail's a call
        of plus or times."""
        left = self.p_atom(head)
        while (op := _OPS.get(self.kinds[self.i])) and op[0] >= prec:
            self.i += 1
            arg = self.p_expr(head, op[0] + 1)
            left = Prim(op[1], left, arg) if head else LaterApp(LaterApp(Var(op[2]), left), arg)
        return left

    def p_atom(self, head: bool):
        """A numeral (in a head), a name, a call e(a, b) read as
        (e <*> a) <*> b (in a tail), or an expression in parentheses."""
        kind, value, line, col = self.advance()
        if kind == "num" and head:
            return numeral(int(value))
        if kind == "ident":
            out = Var(value)
            if head or not self.at("("):
                return out
            self.i += 1
            if not self.at(")"):
                out = LaterApp(out, self.p_expr(False))
                while self.at(","):
                    self.i += 1
                    out = LaterApp(out, self.p_expr(False))
            elif _VAR_RE.match(value):  # y1() would be the term y1
                raise BadVariable(f"variable {value!r} cannot be applied")
            self.expect(")")
            return out
        if kind == "(":
            out = self.p_expr(head)
            self.expect(")")
            return out
        what = "head" if head else "tail"
        raise ParseError(f"expected a {what} term, found {value or kind!r}", (line, col))


@nesting_guard
def parse_bde(text: str):
    """Parse a .bde file into definitions (unvalidated)."""
    return _BdeParser(tokenize(text)).p_file()


# ---------------------------------------------------------------------------
# Validation


def _check_head(h, k):
    if h.__class__ is Prim:
        _check_head(h.left, k)
        _check_head(h.right, k)
    elif h.__class__ is Var:
        m = _VAR_RE.match(h.name)
        if not m or m.group(1) != "x" or int(m.group(2)) > k:
            raise BadVariable(f"head may only use x1..x{k}, found {h.name!r}")


def validate_bde(defs) -> None:
    """Check variable scoping, arities, and the no-forward-reference
    ordering (mutual recursion is rejected)."""
    positions = {d.name: p for p, d in enumerate(defs)}
    if len(positions) != len(defs):
        raise BdeError("duplicate equation name")
    for p, d in enumerate(defs):
        if _VAR_RE.match(d.name):
            raise BadVariable(f"equation name {d.name!r} is a reserved variable")
        if d.arity < 0:  # only a hand-built BdeDef: the parser reads digits
            raise BdeError(f"negative arity in {d.name!r}")
        _check_head(d.head, d.arity)
        _check_tail(d.tail, d, p, positions, defs)


def _spine(t):
    """The name and the arguments of the call t: (e <*> a) <*> b is
    e(a, b), and a variable or a bare name is a call of no arguments."""
    args = []
    while t.__class__ is LaterApp:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t.name, args


def _check_tail(t, d, pos, positions, defs):
    name, args = _spine(t)
    m = _VAR_RE.match(name)
    if m:
        if args:
            raise BadVariable(f"variable {name!r} cannot be applied")
        if int(m.group(2)) > d.arity:
            raise BadVariable(f"tail of {d.name!r} uses {name} but arity is {d.arity}")
        return
    if _VARISH_RE.match(name) and name not in positions and name != d.name:
        raise BadVariable(
            f"tail of {d.name!r} uses {name!r}; only x/y/z variables exist"
        )
    if name == d.name:
        target_arity = d.arity
    elif name in positions:
        if positions[name] > pos:
            raise ForwardReference(
                f"tail of {d.name!r} uses {name!r}, defined later "
                f"(mutual recursion is not supported)"
            )
        target_arity = defs[positions[name]].arity
    else:
        raise UnknownSymbol(f"tail of {d.name!r} uses undefined {name!r}")
    if len(args) != target_arity:
        raise BdeError(
            f"{name!r} has arity {target_arity}, applied to {len(args)} "
            f"arguments in {d.name!r}"
        )
    for a in args:
        _check_tail(a, d, pos, positions, defs)


# ---------------------------------------------------------------------------
# Compilation to guarded lambda terms


class CompiledBde(NamedTuple):
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


def _compile_one(d: BdeDef, compiled: dict, pieces: dict) -> CompiledBde:
    k = d.arity
    consg, hdg, tlg, zeros = (pieces[n] for n in ("consg", "hdg", "tlg", "zeros"))
    gty = _curried(STREAM_G, STREAM_G, k)

    # The tail becomes a later stream over y1..yk : Strg and
    # f : |>((Strg)^k -> Strg), the equation's own name.
    ys = [Var(f"y{i}") for i in range(1, k + 1)]
    head_sub = {f"x{i}": App(hdg, y) for i, y in enumerate(ys, start=1)}
    tail_sub = {e: Next(c.guarded) for e, c in compiled.items()}
    tail_sub[d.name] = Var("f")
    for i, y in enumerate(ys, start=1):
        # x_i embeds the i-th head as the stream  hd y_i :: next zeros
        tail_sub[f"x{i}"] = Next(App(App(consg, App(hdg, y)), Next(zeros)))
        tail_sub[f"y{i}"] = Next(y)
        tail_sub[f"z{i}"] = App(tlg, y)

    body = App(App(consg, subst(d.head, head_sub)), subst(d.tail, tail_sub))
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


def host_zeros() -> HostStream:
    return HostStream(lambda i: 0)


def host_toggle() -> HostStream:
    return HostStream(lambda i: 1 if i % 2 == 0 else 0)


def host_nats() -> HostStream:
    return HostStream(lambda i: i)


def _eval_head(h, heads):
    """The value of the head term h, given the argument heads."""
    if h.__class__ is Prim:
        return PRIMITIVES[h.name](_eval_head(h.left, heads), _eval_head(h.right, heads))
    if h.__class__ is Var:
        return heads[int(h.name[1:]) - 1]
    return h.n


# The oracle names every stream it meets by a structural key, so that
# a stream met again is computed once (a lazy memo function, Hughes,
# FPCA 1985).  A key is
#
#   ("c", h)     the stream h, 0, 0, ...  (an argument head x_i, and zeros)
#   (base, k)    base without its first k elements, where base is a
#                HostStream argument or an application (name, args) of
#                an equation to a tuple of keys.
#
# In Rutten's stream calculus (TCS 2003) the only distinct calls of
# times are times(tail^a x, tail^b y) and times([c], tail^b y), so with
# these keys times costs O(n^2) elements, not O(2^n).


class _Pending(Exception):
    """An element that another one needs first: args[0] is (key, i)."""


class _Oracle:
    """The memo tables of one ``oracle_eval`` call.

    ``heads`` maps an application to its first element.  ``chains``
    maps an application to the applications its tail, its tail's tail
    and so on are, for as long as each of those is a whole
    application; ``ends`` gives the key that follows the last one.
    Element i of an application is the head of the i-th application on
    its chain, so a walk down tails is a list index, not a recursion.
    ``index`` gives the argument each tail variable x_i, y_i, z_i reads.
    """

    def __init__(self, byname: dict):
        self.byname = byname
        self.index = {v: int(v[1:]) - 1 for d in byname.values()
                      for v in d.tail._fv if v not in byname}
        self.heads = {}
        self.chains = {}
        self.ends = {}

    def element(self, key, i: int) -> int:
        """Element i of the stream key.  Demands are kept on a list,
        not the Python stack, so any n is fine."""
        todo = [(key, i)]
        while True:
            try:
                v = self._element(*todo[-1], known=False)
            except _Pending as p:
                todo.append(p.args[0])
                continue
            todo.pop()
            if not todo:
                return v

    def _element(self, key, i: int, known: bool) -> int:
        """Element i of key.  Elements of other keys come only from
        the tables; with ``known`` set, so does this one.  A missing
        one raises _Pending."""
        demand = (key, i)
        while True:
            base, k = key
            if base == "c":
                return k if i == 0 else 0
            if base.__class__ is HostStream:
                return base(k + i)
            i += k
            chain = self.chains.get(base)
            if chain is None:
                chain = self.chains[base] = [base]
            while len(chain) <= i and base not in self.ends:
                if known:
                    raise _Pending(demand)
                name, args = chain[-1]
                tail = self._key(self.byname[name].tail, args)
                if tail[1] == 0 and tail[0].__class__ is tuple:
                    chain.append(tail[0])
                else:
                    self.ends[base] = tail
            if i >= len(chain):
                key, i = self.ends[base], i - len(chain)
                continue
            app = chain[i]
            h = self.heads.get(app)
            if h is None:
                if known:
                    raise _Pending(demand)
                name, args = app
                firsts = [self._element(a, 0, known=True) for a in args]
                h = self.heads[app] = _eval_head(self.byname[name].head, firsts)
            return h

    def _key(self, t, args):
        """The key of the tail term t over the argument keys."""
        if t.__class__ is Var and t.name not in self.byname:
            a = args[self.index[t.name]]
            if t.name[0] == "y":
                return a
            if t.name[0] == "z":
                return ("c", 0) if a[0] == "c" else (a[0], a[1] + 1)
            return ("c", self._element(a, 0, known=True))
        name, targs = _spine(t)
        return ((name, tuple([self._key(u, args) for u in targs])), 0)


def oracle_eval(defs, name: str, args, n: int):
    """First n elements of the named equation applied to host streams."""
    validate_bde(defs)
    byname = {d.name: d for d in defs}
    if name not in byname:
        raise BdeError(f"no equation named {name!r}")
    d = byname[name]
    if len(args) != d.arity:
        raise BdeError(f"{name!r} has arity {d.arity}, given {len(args)} streams")
    oracle = _Oracle(byname)
    key = ((name, tuple((a, 0) for a in args)), 0)
    return [oracle.element(key, i) for i in range(n)]
