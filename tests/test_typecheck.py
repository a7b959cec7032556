import random

import pytest

import corpus
from glam.errors import (
    CannotSynthesize,
    DepthExceeded,
    EscapingVariable,
    NestingTooDeep,
    NonConstantSubstType,
    OpenBox,
    TypeMismatch,
    TypingError,
    UnboundTypeVar,
    UnboundVariable,
    UnguardedMu,
)
from glam.frontend import parse_program, parse_term, parse_type
from glam.syntax import (
    CONAT,
    NAT,
    STREAM_G,
    UNIT,
    Arrow,
    Box,
    Later,
    Prod,
    Sum,
    TVar,
    UnitVal,
    type_alpha_eq,
    type_subst,
)
from glam.typecheck import (
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

SG = "mu a. Nat * |>a"


# ---------------------------------------------------------------------------
# Type predicates


def test_guarded_in_stream_body():
    assert guarded_in("a", Prod(NAT, Later(TVar("a"))))


def test_guarded_in_bare_var():
    assert not guarded_in("a", TVar("a"))


def test_guarded_in_all_occurrences_under_later():
    assert guarded_in("a", Later(Arrow(TVar("a"), TVar("a"))))


def test_is_constant_nat():
    assert is_constant(NAT)


def test_is_constant_later():
    assert not is_constant(Later(NAT))


def test_is_constant_boxed_later():
    assert is_constant(Box(Later(NAT)))


def test_is_constant_streams():
    assert not is_constant(STREAM_G)
    assert is_constant(Box(STREAM_G))
    assert is_constant(CONAT)


def test_wf_stream():
    wf_type((), parse_type(SG))


def test_wf_unguarded_mu():
    with pytest.raises(UnguardedMu):
        wf_type((), parse_type("mu a. Nat * a"))


def test_wf_open_box():
    with pytest.raises(OpenBox):
        wf_type((), parse_type("mu a. |>#a"))
    with pytest.raises(OpenBox):
        wf_type((), parse_type("mu a. #|>a"))


def test_wf_unbound_var():
    with pytest.raises(UnboundTypeVar):
        wf_type((), parse_type("b + Nat"))


# ---------------------------------------------------------------------------
# Metrics


def test_unguarded_size_later_is_zero():
    assert unguarded_size(Later(Arrow(NAT, NAT))) == 0


def test_unguarded_size_product():
    assert unguarded_size(Prod(NAT, NAT)) == 3


def test_unguarded_size_nat():
    assert unguarded_size(NAT) == 1


def test_box_depth_box():
    assert box_depth(Box(NAT)) == 1


def test_box_depth_min_clause():
    assert box_depth(Prod(NAT, Box(NAT))) == 0


def test_box_depth_mu_later_transparent():
    assert box_depth(STREAM_G) == 0


def test_metric_lemmas_seeded():
    rng = random.Random(7)
    us_hits = bd_hits = 0
    while us_hits < 200 or bd_hits < 200:
        a = corpus.random_type(rng, tyvars=("c",))
        b = corpus.random_type(rng)
        if guarded_in("c", a):
            us_hits += 1
            assert unguarded_size(type_subst(a, "c", b)) <= unguarded_size(a)
        if box_depth(b) <= box_depth(a):
            bd_hits += 1
            assert box_depth(type_subst(a, "c", b)) <= box_depth(a)


# ---------------------------------------------------------------------------
# Bidirectional checking


def _t(src):
    return corpus.term(src)


def test_infer_stream_head():
    t = parse_term(f"(\\s. fst (unfold s) : ({SG}) -> Nat)")
    assert type_alpha_eq(infer({}, t), Arrow(STREAM_G, NAT))


def test_check_zeros():
    check({}, _t("zeros"), STREAM_G)


def test_interleave_prime_misuse_rejected():
    t = _t(f"fix[{SG}] (\\s. interleave' s toggle)")
    with pytest.raises(TypeMismatch):
        check({}, t, STREAM_G)


def test_prev_nonconstant_substitution_rejected():
    t = parse_term("\\x : |>Nat. prev{y<-x}. y")
    with pytest.raises(NonConstantSubstType):
        infer({}, t)


def test_prev_escaping_variable_rejected():
    t = parse_term("\\x : Nat. prev{}. next x")
    with pytest.raises(EscapingVariable):
        infer({}, t)


def test_cannot_synthesize_unannotated_lambda():
    with pytest.raises(CannotSynthesize):
        infer({}, parse_term("\\x. x"))


def test_cannot_synthesize_bare_inl():
    with pytest.raises(CannotSynthesize):
        infer({}, parse_term("inl 3"))


def test_annotated_injections_synthesize():
    assert type_alpha_eq(infer({}, _t("inl[Nat + Unit] 3")), Sum(NAT, UNIT))


def test_prev_any_context_with_empty_substitution():
    # Gamma |- prev t : A for closed t, in any context
    t = parse_term("\\w : Nat. prev (next 3)")
    assert type_alpha_eq(infer({}, t), Arrow(NAT, NAT))


def test_boxsum_typing():
    t = _t("boxp (inl[Nat + Unit] 5)")
    assert type_alpha_eq(infer({}, t), Sum(Box(NAT), Box(UNIT)))


def test_later_app_mismatch():
    with pytest.raises(TypeMismatch):
        infer({}, _t("(next (\\x : Nat. x)) <*> next ()"))


def test_check_program_prelude():
    check_program(corpus.PRELUDE)


def test_check_program_circular():
    with pytest.raises(TypeMismatch):
        check_program(
            parse_program(
                f"def circular : {SG} = fix[{SG}] (\\s. s);",
                base=corpus.PRELUDE,
            )
        )


def test_check_program_empty():
    check_program(parse_program(""))


def test_rejection_table():
    for name, src, code in corpus.ILL_TYPED:
        with pytest.raises(TypingError) as e:
            t = parse_term(src, env=corpus.ENV, strict=True)
            check({}, t, STREAM_G) if src.startswith("fix") else infer({}, t)
        assert e.value.code == code, name


def test_ill_formed_type_table():
    for name, src, code in corpus.ILL_FORMED_TYPES:
        with pytest.raises(TypingError) as e:
            wf_type((), parse_type(src))
        assert e.value.code == code, name


_UNGUARDED = "recursion variable 'a' is not guarded in a"


@pytest.mark.parametrize(
    "src,cls,message,loc",
    [
        ("fst 0", TypeMismatch, "fst applied to a non-product", (1, 1)),
        ("snd 0", TypeMismatch, "snd applied to a non-product", (1, 1)),
        ("unfold 0", TypeMismatch, "unfold applied to a non-mu type", (1, 1)),
        ("unbox 0", TypeMismatch, "unbox applied to a non-# type", (1, 1)),
        ("(fst (0, ()) : Unit)", TypeMismatch, "has type Nat but Unit expected", (1, 2)),
        ("abort 0", CannotSynthesize, "abort needs a type annotation", (1, 1)),
        ("inl 0", CannotSynthesize, "inl needs a type annotation", (1, 1)),
        ("inr 0", CannotSynthesize, "inr needs a type annotation", (1, 1)),
        ("fold 0", CannotSynthesize, "fold needs a type annotation", (1, 1)),
        (
            "(inl[Nat + Unit] 0 : Unit + Nat)",
            TypeMismatch,
            "inl annotated Nat + Unit but Unit + Nat expected",
            (1, 2),
        ),
        ("inl[Nat] 0", TypeMismatch, "inl must produce a sum type", (1, 1)),
        ("inr[Unit] ()", TypeMismatch, "inr must produce a sum type", (1, 1)),
        ("fold[Nat * Nat] (0, 0)", TypeMismatch, "fold must produce a mu-type", (1, 1)),
        # the shared numeral node carries no location: the error takes
        # the enclosing node's
        ("abort[Nat] 0", TypeMismatch, "has type Nat but Void expected", (1, 1)),
        # the target's former is checked before the annotation is well-formed
        ("inl[mu a. a] 0", TypeMismatch, "inl must produce a sum type", (1, 1)),
        ("fold[mu a. a] 0", UnguardedMu, _UNGUARDED, (1, 1)),
        ("inl[Nat + b] 0", UnboundTypeVar, "unbound type variable 'b'", (1, 1)),
    ],
)
def test_eliminator_and_annotated_introduction_errors(src, cls, message, loc):
    with pytest.raises(TypingError) as e:
        elaborate({}, parse_term(src))
    got = (type(e.value), e.value.code, e.value.message, e.value.loc)
    assert got == (cls, cls.code, message, loc)


def test_free_variable_is_unbound():
    # the parsers refuse an unknown name in a program or a REPL line; a
    # term parsed without strict can still reach the checker open
    with pytest.raises(UnboundVariable) as e:
        elaborate({}, parse_term("\\x:Nat. y"))
    assert (e.value.message, e.value.loc) == ("unbound variable 'y'", (1, 9))


# ---------------------------------------------------------------------------
# Structural properties


def test_weakening(nat_corpus):
    for name, t, _ in nat_corpus[::9]:
        ty = infer({}, t)
        check({"fresh_w": Box(STREAM_G)}, t, ty)


def test_meta_substitution_lemma():
    from glam.syntax import subst

    cases = [
        ("consg x (next zeros)", NAT, "hdg toggle", STREAM_G),
        ("addN x 3", NAT, "mulN 2 2", NAT),
        ("(x, hdg zeros)", NAT, "7", Prod(NAT, NAT)),
        ("case inl[Nat + Nat] x of inl a -> a | inr b -> b", NAT, "5", NAT),
        ("mapg (\\y. addN y x) toggle", NAT, "2", STREAM_G),
    ]
    for src, bty, usrc, aty in cases:
        t = parse_term(src, env=corpus.ENV)
        u = corpus.term(usrc)
        check({"x": bty}, t, aty)
        check({}, u, bty)
        check({}, subst(t, {"x": u}), aty)


def test_elaborated_terms_synthesize(nat_corpus):
    for name, t, _ in nat_corpus[::7]:
        t2, ty = elaborate({}, t)
        assert type_alpha_eq(infer({}, t2), ty), name


def test_subject_reduction_spot():
    from glam.machine import trace

    t, ty = elaborate({}, _t("hdg (mapg (\\x. succ x) paperfolds)"))
    for u in trace(t, 10**4, pre_erase=False):
        assert type_alpha_eq(infer({}, u), ty)


def test_closed_subterm_memo_is_per_expected_type():
    from glam.syntax import Lam, Var

    ident = Lam("x", None, Var("x"))  # closed, checkable at many types
    nat_fn, unit_fn = Arrow(NAT, NAT), Arrow(UNIT, UNIT)
    for _ in range(2):  # the second round is served from the memo
        assert elaborate({}, ident, nat_fn)[0].annot is NAT
        assert elaborate({}, ident, unit_fn)[0].annot is UNIT
        with pytest.raises(TypeMismatch):
            check({}, ident, NAT)
        with pytest.raises(CannotSynthesize):
            infer({}, ident)


def test_infer_caches_types_on_closed_nodes_only():
    from glam.syntax import App, Lam, Succ, Var, Zero

    body = Succ(Var("x"))
    t = App(Lam("x", NAT, body), Succ(Zero()))
    assert infer({}, t) is NAT
    assert t._ty is NAT and t.fun._ty.cod is NAT and t.arg._ty is NAT
    assert "_ty" not in body.__dict__  # open: its type depends on the context
    bad = App(Lam("x", NAT, body), UnitVal())
    with pytest.raises(TypeMismatch):
        infer({}, bad)
    assert "_ty" not in bad.__dict__


def test_deep_terms_raise_nesting_too_deep():
    from glam.denot import den_nat
    from glam.machine import Value, eval_term, observe_nat
    from glam.syntax import Succ, Zero, alpha_eq, erase, free_vars, numeral_value

    def chain():
        # a numeral elaborates, erases and runs at once, so the spine
        # sits over a redex
        t = _t("(\\x : Nat. x) 0")
        for _ in range(150_000):
            t = Succ(t)
        return t

    deep = chain()
    with pytest.raises(NestingTooDeep):
        infer({}, deep)
    with pytest.raises(NestingTooDeep):
        den_nat(deep, 1)
    # _den's own depth budget stops it before the Python stack does
    with pytest.raises(DepthExceeded):
        den_nat(deep, 1, elaborated=True)
    with pytest.raises(NestingTooDeep):
        eval_term(deep)
    with pytest.raises(NestingTooDeep):
        observe_nat(deep)
    # stored by the constructor: no walk, under any recursion limit
    assert free_vars(deep) == frozenset()
    with pytest.raises(NestingTooDeep):
        erase(deep)
    # a distinct chain: alpha_eq(deep, deep) answers at once by identity
    with pytest.raises(NestingTooDeep):
        alpha_eq(deep, chain())

    big = Zero()
    for _ in range(150_000):
        big = Succ(big)
    assert numeral_value(big) == 150_000
    assert infer({}, big) is NAT
    check({}, big, NAT)
    out = eval_term(big)
    assert isinstance(out, Value) and out.term is big and out.steps == 0
