from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from glam.errors import NestingTooDeep, ParseError
from glam.frontend import (
    KEYWORDS,
    _SYMBOLS,
    fix_term,
    parse_program,
    parse_term,
    parse_type,
    pretty,
    pretty_type,
    tokenize,
)
from glam.prelude import EXTRAS_PATH, PRELUDE_PATH
from glam.syntax import (
    NAT,
    Arrow,
    Later,
    Mu,
    Next,
    Prev,
    Prim,
    Prod,
    Succ,
    Sum,
    TVar,
    Unfold,
    Fold,
    Lam,
    Var,
    alpha_eq,
    free_vars,
    numeral,
    type_alpha_eq,
)
from glam.typecheck import infer

import corpus
from test_syntax import _terms, _types

ROOT = Path(__file__).parent.parent
PROGRAM_FILES = [
    PRELUDE_PATH, EXTRAS_PATH, ROOT / "programs/demo.gl", ROOT / "programs/badfolds.gl",
    ROOT / "perfbench/programs/bench.gl", ROOT / "programs/streams.bde",
    ROOT / "programs/rutten.bde",
]


def _reference_tokenize(text: str):
    """The character-at-a-time lexer that the one-regex ``tokenize``
    replaced, kept as its reference.  It yields the tokens one by one,
    so a test can see what it lexed before raising.  Unlike
    ``tokenize`` it starts a numeral at any ``str.isdigit`` character,
    superscripts and non-ASCII decimal digits included."""
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
            yield (word if word in KEYWORDS else "ident", word, line, col)
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("num", text[i:j], line, col)
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                yield (sym, sym, line, col)
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", (line, col))
    yield ("eof", "", line, col)


@pytest.mark.parametrize("path", PROGRAM_FILES, ids=lambda p: p.name)
def test_lexer_matches_reference_on_program_files(path):
    text = path.read_text()
    assert tokenize(text) == list(_reference_tokenize(text))


_LEX_ALPHABET = _SYMBOLS + [
    "--", " ", "\t", "\r", "\n", "_", "'", "λ", "é", "-", "\f", "²", "١",
    *"abcxyzABCXYZ", *"0123456789",
]


@given(st.lists(st.sampled_from(_LEX_ALPHABET), max_size=30).map("".join))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_lexer_matches_reference(text):
    ref, ref_err = [], None
    try:
        for tok in _reference_tokenize(text):
            ref.append(tok)
    except ParseError as e:
        ref_err = e
    try:
        toks, err = tokenize(text), None
    except ParseError as e:
        toks, err = None, e
    wide = next((t for t in ref if t[0] == "num" and not t[1].isascii()), None)
    if wide is not None:
        # the reference read a non-ASCII digit as a numeral; the regex
        # lexer rejects that digit
        _, value, line, col = wide
        k = next(k for k, c in enumerate(value) if not c.isascii())
        assert err is not None
        assert (err.message, err.loc) == (f"unexpected character {value[k]!r}", (line, col + k))
    elif ref_err is not None:
        assert err is not None
        assert (err.message, err.loc) == (ref_err.message, ref_err.loc)
    else:
        assert toks == ref


@pytest.mark.parametrize("src", ["²", "١٢", "x ²", "1²"])
def test_non_ascii_digit_is_a_parse_error(src):
    with pytest.raises(ParseError) as e:
        parse_term(src)
    bad = next(c for c in src if not c.isascii())
    assert e.value.message == f"unexpected character {bad!r}"
    assert e.value.loc == (1, src.index(bad) + 1)


def test_type_precedence_climbing():
    a, b, c, d, e, f = (TVar(x) for x in "ABCDEF")
    got = parse_type("A * B -> C + D * E -> F")
    assert type_alpha_eq(got, Arrow(Prod(a, b), Arrow(Sum(c, Prod(d, e)), f)))


def test_deep_nesting_is_nesting_too_deep():
    src = "def deep : Nat = " + "(" * 30_000 + "0" + ")" * 30_000 + ";"
    with pytest.raises(NestingTooDeep):
        parse_program(src)


def test_parse_unfold_fold():
    t = parse_term("unfold (fold[mu a. Nat * |>a] x)")
    assert isinstance(t, Unfold)
    assert isinstance(t.body, Fold)
    assert type_alpha_eq(t.body.annot, Mu("a", Prod(NAT, Later(TVar("a")))))
    assert alpha_eq(t.body.body, Var("x"))


def test_parse_numeral_sugar():
    assert alpha_eq(parse_term("2"), numeral(2))


def test_succ_of_a_numeral_is_the_next_numeral():
    # a literal is one node and succ 2 a node over it: alpha_eq compares
    # numerals by value, and the printer writes succ 2 as 3
    assert alpha_eq(parse_term("succ 2"), parse_term("3"))
    assert alpha_eq(parse_term("3"), parse_term("succ (succ 1)"))
    assert not alpha_eq(parse_term("succ 2"), parse_term("2"))
    assert not alpha_eq(parse_term("succ x"), parse_term("3"))
    for t in (Succ(numeral(2)), Succ(Succ(numeral(10**30))), Next(Succ(numeral(0)))):
        assert alpha_eq(parse_term(pretty(t)), t)


def test_parse_prev_iota_sugar():
    t = parse_term("prev. next x")
    assert alpha_eq(t, Prev((("x", Var("x")),), Next(Var("x"))))


def test_parse_prev_closed_sugar():
    t = parse_term("prev t u")  # prev binds one unit; then application
    assert t.fun.subst == ()


def test_dotted_binder_extends_maximally():
    t = parse_term("box. f x")
    assert sorted(x for x, _ in t.subst) == ["f", "x"]


def test_parse_program_single_def():
    p = parse_program("def id : Nat -> Nat = \\x. x;")
    assert len(p) == 1
    assert p.lookup("id") is not None


def test_parse_program_reference_earlier():
    p = parse_program(
        "def one : Nat = 1;\n"
        "def two : Nat = succ one;"
    )
    assert len(p) == 2
    # 'one' was inlined: the second body is closed
    assert free_vars(p.lookup("two").body) == frozenset()


def test_parse_program_unknown_identifier():
    with pytest.raises(ParseError) as e:
        parse_program("def d : Nat = y;")
    assert "y" in str(e.value)
    assert e.value.loc is not None


def test_parse_program_duplicate_name():
    with pytest.raises(ParseError):
        parse_program("def d : Nat = 1;\ndef d : Nat = 2;")


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_term("\\x. (x")
    assert e.value.loc is not None


def test_lexer_rejects_stray_character():
    with pytest.raises(ParseError):
        parse_term("x ? y")


def test_comments_stripped():
    p = parse_program("-- a comment\ndef d : Nat = 3; -- trailing\n")
    assert len(p) == 1


def test_pretty_later_arrow():
    assert pretty_type(Later(Arrow(NAT, NAT))) == "|>(Nat -> Nat)"


def test_pretty_numeral():
    assert pretty(numeral(2)) == "2"


def test_primitive_eta_expansion():
    t = parse_term("addN")
    assert isinstance(t, Lam)
    assert infer({}, t) is not None
    partial = parse_term("addN 1")
    assert isinstance(partial, Lam)
    assert isinstance(partial.body, Prim)


def test_primitive_arity_error():
    with pytest.raises(ParseError) as e:
        parse_term("addN 1 2 3")
    assert e.value.render() == "ParseError: primitive addN takes 2 arguments, given 3 (at 1:1)"


def test_fix_macro_type():
    t = fix_term(NAT)
    ty = infer({}, t)
    assert type_alpha_eq(ty, Arrow(Arrow(Later(NAT), NAT), NAT))


def test_ascription_parses():
    t = parse_term("(\\x. x : Nat -> Nat)")
    assert type_alpha_eq(infer({}, t), Arrow(NAT, NAT))


def test_lambda_annotation_with_mu_body():
    t = parse_term("\\x:mu a. Nat * |>a. x")
    assert isinstance(t, Lam)
    assert type_alpha_eq(t.annot, Mu("a", Prod(NAT, Later(TVar("a")))))


def test_roundtrip_prelude():
    from glam.machine import erase

    for d in corpus.PRELUDE:
        for t in (d.body, erase(d.body)):
            assert alpha_eq(parse_term(pretty(t)), t), d.name
        assert type_alpha_eq(parse_type(pretty_type(d.ty)), d.ty), d.name


@given(_terms)
@settings(max_examples=200)
def test_roundtrip_generated_terms(t):
    assert alpha_eq(parse_term(pretty(t)), t)


@given(st.integers(min_value=0, max_value=300))
def test_roundtrip_numerals(n):
    assert alpha_eq(parse_term(pretty(numeral(n))), numeral(n))


@given(_types)
@settings(max_examples=200)
def test_roundtrip_generated_types(a):
    assert type_alpha_eq(parse_type(pretty_type(a)), a)
