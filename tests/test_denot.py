import pytest

import corpus
from glam.denot import (
    SLATERSTAR,
    SemEnv,
    SGlobal,
    SLater,
    SNat,
    SPair,
    den_nat,
    den_take,
    den_term,
    restrict,
    restrict_to,
    sem_eq,
)
from glam.errors import DepthExceeded, IndexZero, TypingError
from glam.machine import observe_nat, take_stream, trace
from glam.syntax import NAT, STREAM_G, Box, Later, Prod, numeral
from glam.typecheck import elaborate


def _t(src):
    return corpus.term(src)


def _stream_val(*heads):
    """Nested-pair stream approximation ending in the stage-1 star."""
    v = SLATERSTAR
    for h in reversed(heads):
        v = SPair(SNat(h), v) if v is SLATERSTAR else SPair(SNat(h), SLater(v))
    return v


# ---------------------------------------------------------------------------
# Restriction


def test_restrict_nat_identity():
    assert restrict(NAT, 3, SNat(7)) == SNat(7)


def test_restrict_stream_drops_last_stage():
    v2 = _stream_val(0, 0)  # stage 2 approximation (0, (0, *))
    v1 = restrict(STREAM_G, 1, v2)
    assert v1 == SPair(SNat(0), SLATERSTAR)


def test_restrict_later_to_stage_one():
    assert restrict(Later(NAT), 1, SLater(SNat(5))) is SLATERSTAR


def test_restrict_stage_zero_rejected():
    with pytest.raises(IndexZero):
        restrict(NAT, 0, SNat(1))
    with pytest.raises(IndexZero):
        den_nat(numeral(1), 0)


# ---------------------------------------------------------------------------
# Term denotations


def test_den_succ_zero_all_stages():
    for i in (1, 2, 5):
        assert den_term({}, numeral(1), NAT, i) == SNat(1)


def test_den_next_zero_stage_one_trivial():
    v = den_term({}, _t("next 0"), Later(NAT), 1)
    assert v is SLATERSTAR


def test_den_zeros_nested_pairs():
    v = den_term({}, _t("zeros"), STREAM_G, 3)
    assert v == _stream_val(0, 0, 0)


def test_den_take_examples():
    assert den_take(_t("zeros"), 3) == [0, 0, 0]
    assert den_take(_t("toggle"), 4) == [1, 0, 1, 0]
    assert den_take(_t("paperfolds"), 8) == [1, 1, 0, 1, 1, 0, 0, 1]


def test_den_take_unboxes():
    assert den_take(_t("box toggle"), 3) == [1, 0, 1]


@pytest.mark.parametrize("t", [numeral(3), _t("hdg zeros")], ids=["numeral", "hdg"])
def test_den_take_reports_the_terms_own_error(t):
    # the error is the one for t itself, not the retry's "unbox applied to ..."
    with pytest.raises(TypingError, match="has type Nat but mu a. Nat"):
        den_take(t, 3)


def test_den_nat_examples():
    assert den_nat(_t("addN 2 2"), 1) == 4
    assert den_nat(_t("hdg toggle"), 5) == 1


def test_den_nat_stage_invariance(nat_corpus):
    for name, t, want in nat_corpus[::11]:
        assert den_nat(t, 1) == den_nat(t, 7) == want, name


def test_boxsum_denotation():
    from glam.denot import SIn
    from glam.syntax import Sum, UNIT

    ty = Sum(Box(NAT), Box(UNIT))
    v = den_term({}, _t("boxp (inl[Nat + Unit] 5)"), ty, 2)
    assert isinstance(v, SIn) and v.tag == 1
    assert v.val.at(1) == SNat(5) and v.val.at(4) == SNat(5)


def test_sglobal_memoization_invisible():
    t, ty = elaborate({}, _t("box (iterate' (\\x. succ x) 0)"))
    v = den_term({}, t, ty, 2, elaborated=True)
    assert isinstance(v, SGlobal)
    first = v.at(3)
    assert v.at(3) is first  # memoized
    assert sem_eq(STREAM_G, 3, first, v.at(3))


def test_depth_guard():
    with pytest.raises(DepthExceeded):
        den_nat(_t("hdg paperfolds"), 3, depth_limit=10)


def test_depth_guard_counts_memoized_subterms():
    t, _ = elaborate({}, _t("hdg paperfolds"))
    assert den_nat(t, 3, elaborated=True) == 1  # fills the closed-subterm memo
    with pytest.raises(DepthExceeded):
        den_nat(t, 3, depth_limit=10, elaborated=True)


# ---------------------------------------------------------------------------
# Agreement with the machine


def test_soundness_along_steps_stages_one_to_five():
    for src in ("hdg (mapg (\\x. mulN x x) toggle)", "second (box paperfolds)"):
        t2, _ = elaborate({}, _t(src))
        tr = trace(t2, 10**4, pre_erase=False)
        want = observe_nat(_t(src))
        for i in range(1, 6):
            assert {den_nat(u, i, elaborated=True) for u in tr} == {want}


def test_adequacy_spot(nat_corpus):
    for name, t, want in nat_corpus[::13]:
        assert den_nat(t, 1) == observe_nat(t) == want, name


def test_stream_agreement_spot():
    for name, src, oracle in corpus.STREAMS[:4]:
        t = _t(src)
        for i in (1, 4):
            assert den_take(t, i) == take_stream(t, i) == [oracle(k) for k in range(i)]


# ---------------------------------------------------------------------------
# Naturality and the substitution lemma


def test_restriction_naturality():
    for src in ("zeros", "toggle", "paperfolds", "interleave toggle (next paperfolds)"):
        t = _t(src)
        for i in (1, 2, 3):
            hi = den_term({}, t, STREAM_G, i + 1)
            lo = den_term({}, t, STREAM_G, i)
            assert sem_eq(STREAM_G, i, restrict(STREAM_G, i, hi), lo), (src, i)


def test_restrict_to_composes():
    t = _t("paperfolds")
    v = den_term({}, t, STREAM_G, 4)
    lo = restrict_to(STREAM_G, 4, 1, v)
    assert sem_eq(STREAM_G, 1, lo, den_term({}, t, STREAM_G, 1))


def test_den_substitution_lemma():
    from glam.frontend import parse_term
    from glam.syntax import subst

    cases = [
        ("consg x (next zeros)", NAT, "hdg toggle", STREAM_G),
        ("addN x 3", NAT, "mulN 2 2", NAT),
        ("(x, x)", NAT, "7", Prod(NAT, NAT)),
        ("consg 1 (next (consg x (next zeros)))", NAT, "hdg paperfolds", STREAM_G),
    ]
    for src, bty, usrc, aty in cases:
        t = parse_term(src, env=corpus.ENV)
        u = _t(usrc)
        for i in (1, 2, 3):
            uval = den_term({}, u, bty, i)
            env = SemEnv(i, {"x": (bty, uval)})
            via_env = den_term({"x": bty}, t, aty, i, env=env)
            direct = den_term({}, subst(t, {"x": u}), aty, i)
            assert sem_eq(aty, i, via_env, direct), (src, i)
