"""Concrete syntax: lexer, parser, and pretty-printer.

The lexer (``tokenize``) is one compiled regular expression matched
once per token.  A token is a plain tuple ``(kind, value, line, col)``;
the kind of a keyword or symbol is its own text, other words are
``ident`` and numerals ``num``.  Identifiers start with a letter
(``str.isalpha``) or ``_`` and go on with ``str.isalnum`` characters,
``_`` and ``'``.  Numerals are ASCII ``[0-9]+``; any other digit
outside an identifier is an "unexpected character".  The term/type
parser here and the ``.bde`` parser in glam.bde share ``TokenCursor``,
which keeps the kinds in a list beside the tokens so that lookahead is
an index lookup.  The binary type formers are parsed by precedence
climbing.  Input nested deeper than the Python stack allows raises
``NestingTooDeep`` from every parse entry point.

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

Comments run from "--" to end of line.  A numeral is one node, which
the runners read as succ^n zero.  The dotted binder forms and
lambda/case bodies extend as far to the right as possible.  "prev. t"
closes t with the identity substitution on its free variables; "prev
t" carries the empty substitution.  The primitives addN and mulN are
binary: an unsaturated use is eta-expanded while parsing, so every
Prim node in the tree holds both operands.

Parsing a program resolves identifiers immediately: each definition is
inlined (as an ascribed closed term) into the ones after it.  This
happens before the identity-substitution sugar is expanded, so
definition names never show up in explicit substitution lists.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import ParseError, nesting_guard
from .syntax import (
    NAT,
    PRIMITIVES,
    SHAPES,
    TYPE_SHAPES,
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
    UnitVal,
    Var,
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

# One match per token, with the blanks before it.  Exactly one group
# takes part in a match (none for trailing blanks): a comment, a
# newline, a word, an ASCII numeral, a symbol (in _SYMBOLS order, so
# the longest wins), or any other character, which is an error.
# [^\W\d] is a word character that is not a decimal digit; the few
# such characters that are not letters (superscript digits, vulgar
# fractions) are rejected after the match.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(--[^\n]*)|(\n)|([^\W\d][\w']*)|([0-9]+)|("
    + "|".join(map(re.escape, _SYMBOLS))
    + r")|(.)|\Z)",
    re.DOTALL,
)
_COMMENT, _NEWLINE, _WORD, _NUM, _SYMBOL = 1, 2, 3, 4, 5


def tokenize(text: str) -> list:
    """The tokens of ``text`` as ``(kind, value, line, col)`` tuples,
    ending with an ``eof`` token.  The kind of a keyword or a symbol is
    its own text; other words are ``ident``, numerals ``num``."""
    toks = []
    append = toks.append
    line, line_start, comment_at = 1, 0, -1
    for m in _TOKEN_RE.finditer(text):
        g = m.lastindex
        if g is None:
            continue
        if g == _COMMENT:
            comment_at = m.start(g)
            continue
        if g == _NEWLINE:
            line += 1
            line_start = m.end()
            continue
        value = m[g]
        col = m.start(g) - line_start + 1
        if g == _WORD:
            if value in KEYWORDS:
                append((value, value, line, col))
            elif value[0].isalpha() or value[0] == "_":
                append(("ident", value, line, col))
            else:
                raise ParseError(f"unexpected character {value[0]!r}", (line, col))
        elif g == _SYMBOL:
            append((value, value, line, col))
        elif g == _NUM:
            append(("num", value, line, col))
        else:
            raise ParseError(f"unexpected character {value!r}", (line, col))
    # the end-of-file column stops where a comment on the last line
    # starts, as it always has; errors at end of file are reported there
    end = comment_at if comment_at >= line_start else len(text)
    append(("eof", "", line, end - line_start + 1))
    return toks


class TokenCursor:
    """A position in a token list.  The kinds are kept in a list of
    their own, so looking at the next token is one index lookup.  A
    token's location is ``tok[2:]``, the tuple (line, col)."""

    def __init__(self, toks):
        self.toks = toks
        self.kinds = [t[0] for t in toks]
        self.i = 0

    def at(self, kind) -> bool:
        return self.kinds[self.i] == kind

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, kind, value=None):
        t = self.toks[self.i]
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError(f"expected {value or kind!r}, found {t[1] or t[0]!r}", t[2:])
        self.i += 1
        return t


# ---------------------------------------------------------------------------
# Programs


class Def(NamedTuple):
    name: str
    ty: Type
    body: Term  # closed: earlier definitions are already inlined
    loc: Optional[tuple] = None  # (line, col) of the name

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
#
# The App node it returns carries the mark ``_fix``, set on the node
# after it is built and invisible to printing, alpha_eq and the
# machines.  The node is closed and fully annotated, so elaboration
# keeps it as it is.  Its one reader is ``denot``, which denotes a
# marked node by iterating the fixed point up the stages instead of
# unrolling theta.


def fix_term(ty: Type) -> Term:
    rec = Mu("r", Arrow(Later(TVar("r")), Arrow(Arrow(Later(ty), ty), ty)))
    unf = Lam("z", rec, Unfold(Var("z")))
    chain = LaterApp(
        LaterApp(LaterApp(Next(unf), Var("y")), Next(Var("y"))), Next(Var("f"))
    )
    theta = Lam("y", Later(rec), Lam("f", Arrow(Later(ty), ty), App(Var("f"), chain)))
    t = App(theta, Next(Fold(rec, theta)))
    object.__setattr__(t, "_fix", True)
    return t


# ---------------------------------------------------------------------------
# Parser

_TYPE_CONSTANTS = {"Nat": NAT, "Unit": UNIT, "Void": VOID}
# The right-associative binary type formers: precedence, constructor.
_TYPE_OPS = {"->": (0, Arrow), "+": (1, Sum), "*": (2, Prod)}
_TYPE_PREFIX_CTORS = {"|>": Later, "#": Box}
_PREFIX_CTORS = {
    "succ": Succ, "fst": Proj1, "snd": Proj2,
    "unfold": Unfold, "next": Next, "unbox": Unbox,
}
_ANNOT_CTORS = {"inl": In1, "inr": In2, "abort": Abort, "fold": Fold}
_BINDER_CTORS = {"prev": Prev, "box": BoxI, "boxp": BoxSum}
_TERM_START = {"ident", "num", "(", "fix", *_PREFIX_CTORS, *_ANNOT_CTORS, *_BINDER_CTORS}


class _PrimRef:
    """A bare occurrence of a primitive, pending saturation."""

    def __init__(self, name, loc):
        self.name = name
        self.loc = loc


class _Parser(TokenCursor):
    def __init__(self, toks, env, strict):
        super().__init__(toks)
        self.env = env or {}
        self.strict = strict
        self.scope = frozenset()

    # -- types

    def p_type(self, min_prec: int = 0) -> Type:
        """Precedence climbing over the binary formers: each operand is a
        unary type, and the right operand of an operator of precedence p
        takes every operator of precedence p or more."""
        left = self.p_tunary()
        while True:
            op = _TYPE_OPS.get(self.kinds[self.i])
            if op is None or op[0] < min_prec:
                return left
            self.i += 1
            left = op[1](left, self.p_type(op[0]))

    def p_tunary(self) -> Type:
        kind = self.kinds[self.i]
        ctor = _TYPE_PREFIX_CTORS.get(kind)
        if ctor is not None:
            self.i += 1
            return ctor(self.p_tunary())
        t = self.advance()
        const = _TYPE_CONSTANTS.get(kind)
        if const is not None:
            return const
        if kind == "ident":
            return TVar(t[1])
        if kind == "mu":
            v = self.expect("ident")[1]
            self.expect(".")
            return Mu(v, self.p_type())
        if kind == "(":
            ty = self.p_type()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {t[1] or kind!r}", t[2:])

    # -- terms

    def p_term(self) -> Term:
        kind = self.kinds[self.i]
        if kind == "\\":
            loc = self.advance()[2:]
            x = self.expect("ident")[1]
            annot = None
            if self.at(":"):
                self.i += 1
                annot = self.p_type()
            self.expect(".")
            saved = self.scope
            self.scope = saved | {x}
            body = self.p_term()
            self.scope = saved
            return Lam(x, annot, body, loc=loc)
        if kind == "case":
            loc = self.advance()[2:]
            scrut = self.p_term()
            self.expect("of")
            self.expect("inl")
            x1 = self.expect("ident")[1]
            self.expect("->")
            saved = self.scope
            self.scope = saved | {x1}
            arm1 = self.p_term()
            self.scope = saved
            self.expect("|")
            self.expect("inr")
            x2 = self.expect("ident")[1]
            self.expect("->")
            self.scope = saved | {x2}
            arm2 = self.p_term()
            self.scope = saved
            return Case(scrut, x1, arm1, x2, arm2, loc=loc)
        return self.p_apl()

    def p_apl(self) -> Term:
        left = self.p_app()
        while self.kinds[self.i] == "<*>":
            loc = self.advance()[2:]
            left = LaterApp(left, self.p_app(), loc=loc)
        return left

    def p_app(self) -> Term:
        head = self.p_prefix()
        units = []
        while self.kinds[self.i] in _TERM_START:
            units.append(self.p_prefix())
        if isinstance(head, _PrimRef):
            if len(units) > 2:
                raise ParseError(
                    f"primitive {head.name} takes 2 arguments, given {len(units)}", head.loc
                )
            args = [self._force(u) for u in units]
            return self._saturate(head, args)
        out = self._force(head)
        for u in units:
            out = App(out, self._force(u), loc=out.loc)
        return out

    def _saturate(self, ref: _PrimRef, args) -> Term:
        if len(args) == 2:
            return Prim(ref.name, *args, loc=ref.loc)
        avoid = set().union(*(free_vars(a) for a in args))
        params = []
        for _ in range(2 - len(args)):
            p = fresh_name("a", avoid)
            avoid.add(p)
            params.append(p)
        body = Prim(ref.name, *args, *(Var(p) for p in params), loc=ref.loc)
        for p in reversed(params):
            body = Lam(p, NAT, body, loc=ref.loc)
        return body

    def _force(self, u) -> Term:
        if isinstance(u, _PrimRef):
            return self._saturate(u, [])
        return u

    def p_prefix(self):
        kind = self.kinds[self.i]
        if kind in _PREFIX_CTORS:
            loc = self.advance()[2:]
            body = self._force(self.p_prefix())
            return _PREFIX_CTORS[kind](body, loc=loc)
        if kind in _ANNOT_CTORS:
            loc = self.advance()[2:]
            annot = None
            if self.at("["):
                self.i += 1
                annot = self.p_type()
                self.expect("]")
            body = self._force(self.p_prefix())
            return _ANNOT_CTORS[kind](annot, body, loc=loc)
        if kind in _BINDER_CTORS:
            loc = self.advance()[2:]
            ctor = _BINDER_CTORS[kind]
            if self.at("{"):
                sig = self.p_bindings()
                self.expect(".")
                saved = self.scope
                self.scope = saved | {x for x, _ in sig}
                body = self.p_term()
                self.scope = saved
                return ctor(sig, body, loc=loc)
            if self.at("."):
                self.i += 1
                body = self.p_term()
                sig = tuple((x, Var(x)) for x in sorted(free_vars(body)))
                return ctor(sig, body, loc=loc)
            body = self._force(self.p_prefix())
            return ctor((), body, loc=loc)
        if kind == "fix":
            self.i += 1
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
            tok = self.expect("ident")
            x = tok[1]
            if x in seen:
                raise ParseError(f"duplicate variable {x} in substitution", tok[2:])
            seen.add(x)
            self.expect("<-")
            sig.append((x, self.p_term()))
            if self.at(","):
                self.i += 1
            elif not self.at("}"):
                raise ParseError("expected ',' or '}' in substitution", self.peek()[2:])
        self.i += 1
        return tuple(sig)

    def p_atom(self):
        t = self.advance()
        kind = t[0]
        if kind == "ident":
            name = t[1]
            if name in self.scope:
                return Var(name, loc=t[2:])
            if name in self.env:
                return self.env[name]
            if name in PRIMITIVES:
                return _PrimRef(name, t[2:])
            if self.strict:
                raise ParseError(f"unknown identifier {name!r}", t[2:])
            return Var(name, loc=t[2:])
        if kind == "num":
            return numeral(int(t[1]))
        if kind == "(":
            if self.at(")"):
                self.i += 1
                return UnitVal(loc=t[2:])
            inner = self.p_term()
            if self.at(","):
                self.i += 1
                right = self.p_term()
                self.expect(")")
                return Pair(inner, right, loc=t[2:])
            if self.at(":"):
                self.i += 1
                ty = self.p_type()
                self.expect(")")
                return Ascribe(inner, ty, loc=t[2:])
            self.expect(")")
            return inner
        raise ParseError(f"expected a term, found {t[1] or kind!r}", t[2:])

    # -- programs

    def p_program(self, base: Optional[Program]) -> Program:
        defs = []
        seen = set()
        while not self.at("eof"):
            self.expect("def")
            name_tok = self.expect("ident")
            name = name_tok[1]
            if name in seen:
                raise ParseError(f"duplicate definition {name!r}", name_tok[2:])
            if name in PRIMITIVES:
                raise ParseError(f"cannot redefine primitive {name!r}", name_tok[2:])
            self.expect(":")
            ty = self.p_type()
            self.expect("=")
            self.scope = frozenset()
            body = self.p_term()
            self.expect(";")
            d = Def(name, ty, body, name_tok[2:])
            defs.append(d)
            seen.add(name)
            self.env[name] = d.resolved()
        return Program(defs, base=base)

    def p_end(self, what: str) -> None:
        t = self.peek()
        if t[0] != "eof":
            raise ParseError(f"unexpected {t[1] or t[0]!r} after {what}", t[2:])


@nesting_guard
def parse_term(text: str, env=None, strict: bool = False) -> Term:
    p = _Parser(tokenize(text), dict(env) if env else {}, strict)
    t = p.p_term()
    p.p_end("term")
    return t


@nesting_guard
def parse_type(text: str) -> Type:
    p = _Parser(tokenize(text), {}, False)
    ty = p.p_type()
    p.p_end("type")
    return ty


@nesting_guard
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


@nesting_guard
def pretty(t: Term) -> str:
    return _pp(t, 0)


def _parens(s: str, mine: int, want: int) -> str:
    return f"({s})" if mine < want else s


# The printer's keywords are the parser's tables, read backwards.
_PREFIX_KW = {c: k for k, c in _PREFIX_CTORS.items()}
_ANNOT_KW = {c: k for k, c in _ANNOT_CTORS.items()}
_BINDER_KW = {c: k for k, c in _BINDER_CTORS.items()}


def _pp(t: Term, want: int) -> str:
    cls = t.__class__
    if cls not in SHAPES:
        raise TypeError(f"not a term: {t!r}")
    n = numeral_value(t)
    if n is not None:
        return str(n)
    if cls in _PREFIX_KW:
        return _parens(f"{_PREFIX_KW[cls]} {_pp(t.body, 3)}", 3, want)
    if cls in _ANNOT_KW:
        ann = f"[{pretty_type(t.annot)}]" if t.annot is not None else ""
        return _parens(f"{_ANNOT_KW[cls]}{ann} {_pp(t.body, 3)}", 3, want)
    if cls in _BINDER_KW:
        kw = _BINDER_KW[cls]
        if not t.subst:
            return _parens(f"{kw} {_pp(t.body, 3)}", 3, want)
        pairs = ", ".join(f"{x}<-{_pp(u, 0)}" for x, u in t.subst)
        return _parens(f"{kw}{{{pairs}}}. {_pp(t.body, 0)}", 0, want)
    match t:
        case Var(x):
            return x
        case UnitVal():
            return "()"
        case Pair(l, r):
            return f"({_pp(l, 0)}, {_pp(r, 0)})"
        case Ascribe(b, a):
            return f"({_pp(b, 0)} : {pretty_type(a)})"
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
        case Prim(name, a, b):
            # level 1, not 2: a Prim heading an application must be
            # parenthesized or the saturation would absorb the arguments
            return _parens(f"{name} {_pp(a, 3)} {_pp(b, 3)}", 1, want)


# Type levels: 0 arrow/mu, 1 sum, 2 product, 3 unary, 4 atom.  The
# binary formers' levels are their precedences in _TYPE_OPS.
_TYPE_OP_KW = {c: (k, prec) for k, (prec, c) in _TYPE_OPS.items()}
_TYPE_CONSTANT_KW = {v.__class__: k for k, v in _TYPE_CONSTANTS.items()}
_TYPE_PREFIX_KW = {c: k for k, c in _TYPE_PREFIX_CTORS.items()}


def pretty_type(a: Type) -> str:
    return _pt(a, 0)


def _pt(a: Type, want: int) -> str:
    cls = a.__class__
    if cls in _TYPE_CONSTANT_KW:
        return _TYPE_CONSTANT_KW[cls]
    if cls in _TYPE_OP_KW:
        kw, prec = _TYPE_OP_KW[cls]
        left, right = (getattr(a, f) for f in TYPE_SHAPES[cls])
        return _parens(f"{_pt(left, prec + 1)} {kw} {_pt(right, prec)}", prec, want)
    if cls in _TYPE_PREFIX_KW:
        return _parens(f"{_TYPE_PREFIX_KW[cls]}{_pt(a.body, 3)}", 3, want)
    match a:
        case TVar(x):
            return x
        case Mu(x, b):
            return _parens(f"mu {x}. {_pt(b, 0)}", 0, want)
        case _:
            raise TypeError(f"not a type: {a!r}")
