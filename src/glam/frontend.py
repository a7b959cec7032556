"""Concrete syntax: lexer, parser, and pretty-printer.

Surface grammar (normative; see docs/grammar.md for the commented
version):

    program  ::= { "def" ident ":" type "=" term ";" }

    type     ::= tsum "->" type | tsum            -- right-assoc
    tsum     ::= tprod [ "+" tsum ]
    tprod    ::= tunary [ "*" tprod ]
    tunary   ::= "|>" tunary | "#" tunary | tatom
    tatom    ::= "Nat" | "Unit" | "Void" | ident
               | "mu" ident "." type | "(" type ")"

    term     ::= "\\" ident [":" type] "." term
               | "case" term "of" "inl" ident "->" term "|" "inr" ident "->" term
               | apl
    apl      ::= app { "<*>" app }                -- left-assoc
    app      ::= prefix { prefix }                -- juxtaposition, left-assoc
    prefix   ::= ("succ"|"fst"|"snd"|"unfold"|"next"|"unbox") prefix
               | ("inl"|"inr"|"abort"|"fold") [ "[" type "]" ] prefix
               | ("prev"|"box"|"boxp") binder
               | "fix" "[" type "]"
               | atom
    binder   ::= "{" [ ident "<-" term { "," ident "<-" term } ] "}" "." term
               | "." term                         -- identity substitution sugar
               | prefix                           -- empty substitution sugar
    atom     ::= ident | numeral | "(" ")" | "(" term ")"
               | "(" term "," term ")" | "(" term ":" type ")"

Comments run from "--" to end of line.  Numerals abbreviate
succ^n zero.  The dotted binder forms and lambda/case bodies extend as
far to the right as possible.  "prev. t" closes t with the identity
substitution on its free variables; "prev t" carries the empty
substitution.  Unsaturated uses of the primitives addN/mulN are
eta-expanded while parsing, so the tree only ever holds saturated
Prim nodes.

Parsing a program resolves identifiers immediately: each definition is
inlined (as an ascribed closed term) into the ones after it.  This
happens before the identity-substitution sugar is expanded, so
definition names never show up in explicit substitution lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ParseError
from .syntax import (
    NAT,
    PRIMITIVES,
    UNIT,
    VOID,
    Abort,
    App,
    Arrow,
    Ascribe,
    Box,
    BoxI,
    BoxSum,
    Case,
    Fold,
    In1,
    In2,
    Lam,
    LaterApp,
    Later,
    Mu,
    Nat,
    Next,
    Pair,
    Prev,
    Prim,
    Prod,
    Proj1,
    Proj2,
    Succ,
    Sum,
    TVar,
    Term,
    Type,
    Unbox,
    Unfold,
    Unit,
    UnitVal,
    Var,
    Void,
    Zero,
    free_vars,
    fresh_name,
    numeral,
    numeral_value,
)

# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "def", "mu", "Nat", "Unit", "Void", "fst", "snd", "inl", "inr", "abort",
    "case", "of", "fold", "unfold", "next", "prev", "box", "boxp", "succ",
    "unbox", "fix",
}

_SYMBOLS = ["<*>", "<-", "->", "|>", "(", ")", "[", "]", "{", "}", ",", ":",
            ";", ".", "\\", "*", "+", "#", "|", "="]


@dataclass(frozen=True)
class Tok:
    kind: str  # keyword, symbol, "ident", "num", "eof"
    value: str
    line: int
    col: int

    @property
    def loc(self):
        return (self.line, self.col)


def tokenize(text: str):
    toks = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append(Tok(word if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Tok("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Tok(sym, sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", (line, col))
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Def:
    name: str
    ty: Type
    body: Term  # closed: earlier definitions are already inlined

    def resolved(self) -> Term:
        return Ascribe(self.body, self.ty)


class Program:
    """An ordered list of definitions, linked by inlining.

    ``base`` holds the implicitly available definitions (normally the
    prelude); a file may shadow base names but not its own.
    """

    def __init__(self, defs, base: "Program | None" = None):
        self.defs = tuple(defs)
        self.base = base
        self._byname = {d.name: d for d in self.defs}

    def lookup(self, name: str) -> Optional[Def]:
        d = self._byname.get(name)
        if d is None and self.base is not None:
            return self.base.lookup(name)
        return d

    def env(self) -> dict:
        out = self.base.env() if self.base is not None else {}
        for d in self.defs:
            out[d.name] = d.resolved()
        return out

    def __len__(self):
        return len(self.defs)

    def __iter__(self):
        return iter(self.defs)


# ---------------------------------------------------------------------------
# The fix[T] macro: Turing's fixed point combinator at type T.
#
# Rec_T = mu r. (|>r -> (|>T -> T) -> T)
# theta = \y:|>Rec_T. \f:|>T -> T.
#           f ((next \z:Rec_T. unfold z) <*> y <*> next y <*> next f)
# fix_term(T) = theta (next (fold[Rec_T] theta))   : (|>T -> T) -> T


def fix_term(ty: Type) -> Term:
    rec = Mu("r", Arrow(Later(TVar("r")), Arrow(Arrow(Later(ty), ty), ty)))
    unf = Lam("z", rec, Unfold(Var("z")))
    chain = LaterApp(
        LaterApp(LaterApp(Next(unf), Var("y")), Next(Var("y"))), Next(Var("f"))
    )
    theta = Lam("y", Later(rec), Lam("f", Arrow(Later(ty), ty), App(Var("f"), chain)))
    return App(theta, Next(Fold(rec, theta)))


# ---------------------------------------------------------------------------
# Parser

_PREFIX_KEYWORDS = {"succ", "fst", "snd", "unfold", "next", "unbox"}
_ANNOT_KEYWORDS = {"inl", "inr", "abort", "fold"}
_BINDER_KEYWORDS = {"prev", "box", "boxp"}
_TERM_START = (
    {"ident", "num", "(", "fix"} | _PREFIX_KEYWORDS | _ANNOT_KEYWORDS | _BINDER_KEYWORDS
)


class _PrimRef:
    """A bare occurrence of a primitive, pending saturation."""

    def __init__(self, name, loc):
        self.name = name
        self.loc = loc


class _Parser:
    def __init__(self, toks, env, strict):
        self.toks = toks
        self.i = 0
        self.env = env or {}
        self.strict = strict
        self.scope = frozenset()

    # -- token plumbing

    def peek(self) -> Tok:
        return self.toks[self.i]

    def advance(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind) -> Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value or t.kind!r}", t.loc)
        return self.advance()

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    # -- types

    def p_type(self) -> Type:
        left = self.p_tsum()
        if self.at("->"):
            self.advance()
            return Arrow(left, self.p_type())
        return left

    def p_tsum(self) -> Type:
        left = self.p_tprod()
        if self.at("+"):
            self.advance()
            return Sum(left, self.p_tsum())
        return left

    def p_tprod(self) -> Type:
        left = self.p_tunary()
        if self.at("*"):
            self.advance()
            return Prod(left, self.p_tprod())
        return left

    def p_tunary(self) -> Type:
        if self.at("|>"):
            self.advance()
            return Later(self.p_tunary())
        if self.at("#"):
            self.advance()
            return Box(self.p_tunary())
        return self.p_tatom()

    def p_tatom(self) -> Type:
        t = self.peek()
        if t.kind == "Nat":
            self.advance()
            return NAT
        if t.kind == "Unit":
            self.advance()
            return UNIT
        if t.kind == "Void":
            self.advance()
            return VOID
        if t.kind == "ident":
            self.advance()
            return TVar(t.value)
        if t.kind == "mu":
            self.advance()
            v = self.expect("ident").value
            self.expect(".")
            return Mu(v, self.p_type())
        if t.kind == "(":
            self.advance()
            ty = self.p_type()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {t.value or t.kind!r}", t.loc)

    # -- terms

    def p_term(self) -> Term:
        t = self.peek()
        if t.kind == "\\":
            self.advance()
            x = self.expect("ident").value
            annot = None
            if self.at(":"):
                self.advance()
                annot = self.p_type()
            self.expect(".")
            saved = self.scope
            self.scope = saved | {x}
            body = self.p_term()
            self.scope = saved
            return Lam(x, annot, body, loc=t.loc)
        if t.kind == "case":
            self.advance()
            scrut = self.p_term()
            self.expect("of")
            self.expect("inl")
            x1 = self.expect("ident").value
            self.expect("->")
            saved = self.scope
            self.scope = saved | {x1}
            arm1 = self.p_term()
            self.scope = saved
            self.expect("|")
            self.expect("inr")
            x2 = self.expect("ident").value
            self.expect("->")
            self.scope = saved | {x2}
            arm2 = self.p_term()
            self.scope = saved
            return Case(scrut, x1, arm1, x2, arm2, loc=t.loc)
        return self.p_apl()

    def p_apl(self) -> Term:
        left = self.p_app()
        while self.at("<*>"):
            loc = self.advance().loc
            left = LaterApp(left, self.p_app(), loc=loc)
        return left

    def p_app(self) -> Term:
        head = self.p_prefix()
        units = []
        while self.peek().kind in _TERM_START:
            units.append(self.p_prefix())
        if isinstance(head, _PrimRef):
            arity = PRIMITIVES[head.name].arity
            if len(units) > arity:
                raise ParseError(
                    f"primitive {head.name} takes {arity} arguments, given {len(units)}",
                    head.loc,
                )
            args = [self._force(u) for u in units]
            return self._saturate(head, args)
        out = self._force(head)
        for u in units:
            out = App(out, self._force(u), loc=out.loc)
        return out

    def _saturate(self, ref: _PrimRef, args) -> Term:
        arity = PRIMITIVES[ref.name].arity
        missing = arity - len(args)
        if missing == 0:
            return Prim(ref.name, tuple(args), loc=ref.loc)
        avoid = set().union(*(free_vars(a) for a in args)) if args else set()
        params = []
        for _ in range(missing):
            p = fresh_name("a", avoid)
            avoid.add(p)
            params.append(p)
        body = Prim(ref.name, tuple(args) + tuple(Var(p) for p in params), loc=ref.loc)
        for p in reversed(params):
            body = Lam(p, NAT, body, loc=ref.loc)
        return body

    def _force(self, u) -> Term:
        if isinstance(u, _PrimRef):
            return self._saturate(u, [])
        return u

    def p_prefix(self):
        t = self.peek()
        if t.kind in _PREFIX_KEYWORDS:
            self.advance()
            body = self._force(self.p_prefix())
            ctor = {
                "succ": Succ, "fst": Proj1, "snd": Proj2,
                "unfold": Unfold, "next": Next, "unbox": Unbox,
            }[t.kind]
            return ctor(body, loc=t.loc)
        if t.kind in _ANNOT_KEYWORDS:
            self.advance()
            annot = None
            if self.at("["):
                self.advance()
                annot = self.p_type()
                self.expect("]")
            body = self._force(self.p_prefix())
            ctor = {"inl": In1, "inr": In2, "abort": Abort, "fold": Fold}[t.kind]
            return ctor(annot, body, loc=t.loc)
        if t.kind in _BINDER_KEYWORDS:
            self.advance()
            ctor = {"prev": Prev, "box": BoxI, "boxp": BoxSum}[t.kind]
            if self.at("{"):
                sig = self.p_bindings()
                self.expect(".")
                saved = self.scope
                self.scope = saved | {x for x, _ in sig}
                body = self.p_term()
                self.scope = saved
                return ctor(sig, body, loc=t.loc)
            if self.at("."):
                self.advance()
                body = self.p_term()
                sig = tuple((x, Var(x)) for x in sorted(free_vars(body)))
                return ctor(sig, body, loc=t.loc)
            body = self._force(self.p_prefix())
            return ctor((), body, loc=t.loc)
        if t.kind == "fix":
            self.advance()
            self.expect("[")
            ty = self.p_type()
            self.expect("]")
            return fix_term(ty)
        return self.p_atom()

    def p_bindings(self):
        self.expect("{")
        sig = []
        seen = set()
        while not self.at("}"):
            x = self.expect("ident")
            if x.value in seen:
                raise ParseError(f"duplicate variable {x.value} in substitution", x.loc)
            seen.add(x.value)
            self.expect("<-")
            sig.append((x.value, self.p_term()))
            if self.at(","):
                self.advance()
            elif not self.at("}"):
                raise ParseError("expected ',' or '}' in substitution", self.peek().loc)
        self.advance()
        return tuple(sig)

    def p_atom(self):
        t = self.peek()
        if t.kind == "ident":
            self.advance()
            name = t.value
            if name in self.scope:
                return Var(name, loc=t.loc)
            if name in self.env:
                return self.env[name]
            if name in PRIMITIVES:
                return _PrimRef(name, t.loc)
            if self.strict:
                raise ParseError(f"unknown identifier {name!r}", t.loc)
            return Var(name, loc=t.loc)
        if t.kind == "num":
            self.advance()
            return numeral(int(t.value))
        if t.kind == "(":
            self.advance()
            if self.at(")"):
                self.advance()
                return UnitVal(loc=t.loc)
            inner = self.p_term()
            if self.at(","):
                self.advance()
                right = self.p_term()
                self.expect(")")
                return Pair(inner, right, loc=t.loc)
            if self.at(":"):
                self.advance()
                ty = self.p_type()
                self.expect(")")
                return Ascribe(inner, ty, loc=t.loc)
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {t.value or t.kind!r}", t.loc)

    # -- programs

    def p_program(self, base: Optional[Program]) -> Program:
        defs = []
        seen = set()
        while not self.at("eof"):
            self.expect("def")
            name_tok = self.expect("ident")
            name = name_tok.value
            if name in seen:
                raise ParseError(f"duplicate definition {name!r}", name_tok.loc)
            if name in PRIMITIVES:
                raise ParseError(f"cannot redefine primitive {name!r}", name_tok.loc)
            self.expect(":")
            ty = self.p_type()
            self.expect("=")
            self.scope = frozenset()
            body = self.p_term()
            self.expect(";")
            d = Def(name, ty, body)
            defs.append(d)
            seen.add(name)
            self.env[name] = d.resolved()
        return Program(defs, base=base)


def parse_term(text: str, env=None, strict: bool = False) -> Term:
    p = _Parser(tokenize(text), dict(env) if env else {}, strict)
    t = p.p_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.value or tok.kind!r} after term", tok.loc)
    return t


def parse_type(text: str) -> Type:
    p = _Parser(tokenize(text), {}, False)
    ty = p.p_type()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.value or tok.kind!r} after type", tok.loc)
    return ty


def parse_program(text: str, base: Optional[Program] = None) -> Program:
    env = base.env() if base is not None else {}
    p = _Parser(tokenize(text), env, strict=True)
    return p.p_program(base)


# ---------------------------------------------------------------------------
# Pretty-printer
#
# Levels: 0 term (lam/case/dotted binders), 1 <*>, 2 application,
# 3 prefix operators, 4 atoms.  parse_term(pretty(t)) is alpha-equal
# to t.


def pretty(t: Term) -> str:
    return _pp(t, 0)


def _parens(s: str, mine: int, want: int) -> str:
    return f"({s})" if mine < want else s


def _pp(t: Term, want: int) -> str:
    n = numeral_value(t)
    if n is not None:
        return str(n)
    match t:
        case Var(x):
            return x
        case UnitVal():
            return "()"
        case Pair(l, r):
            return f"({_pp(l, 0)}, {_pp(r, 0)})"
        case Ascribe(b, a):
            return f"({_pp(b, 0)} : {pretty_type(a)})"
        case Succ(b):
            return _parens(f"succ {_pp(b, 3)}", 3, want)
        case Proj1(b):
            return _parens(f"fst {_pp(b, 3)}", 3, want)
        case Proj2(b):
            return _parens(f"snd {_pp(b, 3)}", 3, want)
        case Unfold(b):
            return _parens(f"unfold {_pp(b, 3)}", 3, want)
        case Next(b):
            return _parens(f"next {_pp(b, 3)}", 3, want)
        case Unbox(b):
            return _parens(f"unbox {_pp(b, 3)}", 3, want)
        case Abort(a, b):
            return _parens(f"abort{_ann(a)} {_pp(b, 3)}", 3, want)
        case In1(a, b):
            return _parens(f"inl{_ann(a)} {_pp(b, 3)}", 3, want)
        case In2(a, b):
            return _parens(f"inr{_ann(a)} {_pp(b, 3)}", 3, want)
        case Fold(a, b):
            return _parens(f"fold{_ann(a)} {_pp(b, 3)}", 3, want)
        case Lam(x, a, b):
            annot = f":{pretty_type(a)}" if a is not None else ""
            return _parens(f"\\{x}{annot}. {_pp(b, 0)}", 0, want)
        case Case(s, x1, a1, x2, a2):
            body = (
                f"case {_pp(s, 0)} of inl {x1} -> {_pp(a1, 0)}"
                f" | inr {x2} -> {_pp(a2, 0)}"
            )
            return _parens(body, 0, want)
        case App(f, a):
            return _parens(f"{_pp(f, 2)} {_pp(a, 3)}", 2, want)
        case LaterApp(f, a):
            return _parens(f"{_pp(f, 1)} <*> {_pp(a, 2)}", 1, want)
        case Prev(sig, b):
            return _binder("prev", sig, b, want)
        case BoxI(sig, b):
            return _binder("box", sig, b, want)
        case BoxSum(sig, b):
            return _binder("boxp", sig, b, want)
        case Prim(name, args):
            # level 1, not 2: a Prim heading an application must be
            # parenthesized or the saturation would absorb the arguments
            inner = " ".join([name] + [_pp(a, 3) for a in args])
            return _parens(inner, 1, want)
        case Zero():
            return "0"
        case _:
            raise TypeError(f"not a term: {t!r}")


def _ann(a) -> str:
    return f"[{pretty_type(a)}]" if a is not None else ""


def _binder(kw: str, sig, b: Term, want: int) -> str:
    if not sig:
        return _parens(f"{kw} {_pp(b, 3)}", 3, want)
    pairs = ", ".join(f"{x}<-{_pp(u, 0)}" for x, u in sig)
    return _parens(f"{kw}{{{pairs}}}. {_pp(b, 0)}", 0, want)


# Type levels: 0 arrow/mu, 1 sum, 2 product, 3 unary, 4 atom.


def pretty_type(a: Type) -> str:
    return _pt(a, 0)


def _pt(a: Type, want: int) -> str:
    match a:
        case TVar(x):
            return x
        case Nat():
            return "Nat"
        case Unit():
            return "Unit"
        case Void():
            return "Void"
        case Arrow(d, c):
            return _parens(f"{_pt(d, 1)} -> {_pt(c, 0)}", 0, want)
        case Sum(l, r):
            return _parens(f"{_pt(l, 2)} + {_pt(r, 1)}", 1, want)
        case Prod(l, r):
            return _parens(f"{_pt(l, 3)} * {_pt(r, 2)}", 2, want)
        case Later(b):
            return _parens(f"|>{_pt(b, 3)}", 3, want)
        case Box(b):
            return _parens(f"#{_pt(b, 3)}", 3, want)
        case Mu(x, b):
            return _parens(f"mu {x}. {_pt(b, 0)}", 0, want)
        case _:
            raise TypeError(f"not a type: {a!r}")
