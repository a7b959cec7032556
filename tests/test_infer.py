"""The checker's closed-node record agrees with the rules it shortcuts.

``infer`` is ``elaborate``'s synthesis mode.  A closed node records its
synthesis, and a check against a type alpha-equal to the recorded one is
answered from the record.  The reference here is the same rules run
without the record (``_unrecorded``, patched in for the test only): the
same type on every reduct of the corpus, and the same error, class,
code, message and location, wherever the reference rejects."""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import corpus
from glam import machine as M
from glam import typecheck as TC
from glam.errors import GlamError, TypingError
from glam.frontend import parse_type
from glam.syntax import (
    NAT,
    SHAPES,
    SUBST,
    TERM,
    UNIT,
    VOID,
    Abort,
    Box,
    Case,
    Fold,
    In1,
    In2,
    Lam,
    Later,
    Var,
    free_vars,
    type_alpha_eq,
)


def _unrecorded(cache):
    """``typecheck._elab`` without the closed-node record: each node is
    elaborated by its rule, in the mode asked for.  The outcome on a
    closed node depends on the node and the expected type alone, so it
    is kept in cache under both, which lets one cache serve a whole
    trace; errors are not kept."""

    def elab(ctx, t, want):
        key = (t, want)
        if not t._fv and key in cache:
            return cache[key]
        try:
            out = TC._RULES[t.__class__](ctx, t, want)
        except TypingError as e:
            if e.loc is None:
                e.loc = t.loc
            raise
        if not t._fv:
            cache[key] = out
        return out

    return elab


def _outcome(ctx, t, cache=None):
    """What infer makes of t, with the record and without it: for each,
    the type it returned or the error it raised, as (class, code,
    message, location)."""
    out = []
    for elab in (TC._elab, _unrecorded({} if cache is None else cache)):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(TC, "_elab", elab)
            try:
                out.append(TC.infer(ctx, t))
            except GlamError as e:
                out.append((type(e), e.code, e.message, e.loc))
    return out


def _agree(got, want) -> bool:
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    return type_alpha_eq(got, want)


def test_infer_matches_elaborate_on_every_corpus_reduct():
    total = 0
    for name, t, ty in corpus.sr_corpus():
        cache = {}
        for u in M.trace(TC.elaborate({}, t, ty)[0], 10**6, pre_erase=False):
            got, want = _outcome({}, u, cache)
            assert type_alpha_eq(got, want) and type_alpha_eq(got, ty), name
            # a reduct of an elaborated term needs nothing filled in
            assert TC.elaborate({}, u)[0] is u, name
            total += 1
    assert total >= 10**4


def test_infer_raises_what_elaborate_raises():
    cases = list(corpus.ILL_TYPED)
    for name, src, code in corpus.ILL_FORMED_TYPES:
        cases.append((name, f"\\x : {src}. x", code))
        cases.append((name, f"inl[({src}) + Nat] 0", code))
    for name, src, code in cases:
        got, want = _outcome({}, corpus.term(src))
        assert isinstance(want, tuple) and want[1] == code, name
        assert got == want, name


# ---------------------------------------------------------------------------
# Mutated reducts: one subterm replaced by a closed term or a variable,
# one annotation changed, or one substituted variable listed twice.


def _positions(t, path=(), names=(), parent=None):
    """(path, node, names bound above it, parent class) for every
    subterm of t.

    ``names`` ignores the scoping of explicit substitutions on purpose,
    so that a variable drawn from it may escape a prev/box body.
    """
    yield path, t, names, parent
    inner, cls = names, t.__class__
    for field, kind in SHAPES[cls]:
        v = getattr(t, field)
        if kind is TERM:
            if cls is Case:
                inner = names + ((t.var1,) if field == "arm1" else (t.var2,) if field == "arm2" else ())
            elif cls is Lam:
                inner = names + (t.var,)
            yield from _positions(v, path + ((field, None),), inner, cls)
        elif kind is SUBST:
            for i, (x, u) in enumerate(v):
                yield from _positions(u, path + ((field, i),), names, cls)
            inner = names + tuple(x for x, _ in v)


def _replace_at(t, path, f):
    """t with the node at path replaced by f(node); new nodes on the spine."""
    if not path:
        return f(t)
    (field, i), rest = path[0], path[1:]
    v = getattr(t, field)
    if i is None:
        new = _replace_at(v, rest, f)
    else:  # the term of an explicit substitution's entry i
        new = v[:i] + ((v[i][0], _replace_at(v[i][1], rest, f)),) + v[i + 1:]
    return _replace(t, **{field: new})


def _replace(t, **changes):
    """t rebuilt through its constructor with some fields changed; same loc."""
    assert set(changes) <= set(t.__match_args__), changes
    return t.__class__(*[changes.get(f, getattr(t, f)) for f in t.__match_args__], loc=t.loc)


_PROBES = [
    "hd (tl (box toggle))",
    "second (box paperfolds)",
    "case (pred (box infinity)) of inl u -> 0 | inr m -> 1",
    "case (boxp (inl[Nat + Unit] 5)) of inl b -> unbox b | inr u -> 0",
    "hd (lift2 (box interleave') (box toggle) (box zeros))",
    "case (inr[Void + Nat] 6) of inl v -> abort[Nat] v | inr n -> n",
    "prev (secondg toggle)",
    "hdg (final (\\x. (x, next (succ x))) 3)",
    "(\\f : Nat -> Nat. \\x : Nat. f (f (f x))) (\\y. addN y 2) 1",
    "hd (tl (mapConst (\\x. succ x) (box toggle)))",
    "prev{x<-3}. next x",
]


_ANNOTATED = (Lam, In1, In2, Fold, Abort)


@lru_cache(maxsize=None)
def _pool():
    """The sites of each kind of mutation in the elaborated reducts of the
    probes, grouped by the class of the node and of its parent (so that
    rare classes are drawn as often as common ones), and the annotations
    and closed subterms to mutate them with."""
    sites = {"closed": {}, "var": {}, "annot": {}, "repeat": {}}
    annots, closed = [NAT, UNIT, VOID, Later(NAT), Box(NAT), None], []
    for src in _PROBES:
        tr = M.trace(TC.elaborate({}, corpus.term(src))[0], 10**4, pre_erase=False)
        for u in tr[:: max(1, len(tr) // 12)]:
            pos = list(_positions(u))
            for path, v, names, parent in pos if len(pos) <= 400 else ():
                groups = [v.__class__.__name__, f"in {parent.__name__}" if parent else "top"]
                kinds = ["closed"] + ["var"] * bool(names) + ["annot"] * isinstance(v, _ANNOTATED)
                kinds += ["repeat"] * bool(getattr(v, "subst", ()))
                for kind in kinds:
                    for g in groups:
                        sites[kind].setdefault(g, []).append((u, path, names))
            for _, v, _, _ in pos:
                annot = getattr(v, "annot", None)
                if annot is not None and all(annot is not a for a in annots):
                    annots.append(annot)
                if not free_vars(v) and len(closed) < 200:
                    closed.append(v)
    annots += [parse_type(src) for _, src, _ in corpus.ILL_FORMED_TYPES]
    return {k: sorted(g.items()) for k, g in sites.items()}, annots, closed


@given(st.data())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_infer_agrees_with_elaborate_on_mutated_reducts(data):
    sites, annots, closed = _pool()
    kind = data.draw(st.sampled_from(sorted(sites)))
    _, group = data.draw(st.sampled_from(sites[kind]))
    u, path, names = data.draw(st.sampled_from(group))
    if kind == "closed":
        new = data.draw(st.sampled_from(closed))
        mutant = _replace_at(u, path, lambda _: new)
    elif kind == "var":
        new = Var(data.draw(st.sampled_from(names)))
        mutant = _replace_at(u, path, lambda _: new)
    elif kind == "annot":
        a = data.draw(st.sampled_from(annots))
        mutant = _replace_at(u, path, lambda v: _replace(v, annot=a))
    else:  # a substituted variable listed twice
        mutant = _replace_at(u, path, lambda v: _replace(v, subst=v.subst + v.subst[:1]))
    got, want = _outcome({}, mutant)
    assert _agree(got, want), kind
