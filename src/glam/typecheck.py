"""Type well-formedness, constancy, guardedness, metrics, and the
bidirectional checker.

``elaborate`` is the checker: it checks a term against an expected
type (or synthesizes one) and returns the term with every binder and
constructor annotation filled in.  On an elaborated term every node
synthesizes, which is what the subject-reduction and denotational
machinery rely on.  ``check`` is ``elaborate`` against a given type,
and ``infer`` is its synthesis mode.

Each term class has one rule in ``_RULES``.  The unary eliminators
(fst, snd, unfold, unbox) share one rule that reads ``_ELIM``, and the
annotated introductions (abort, inl, inr, fold) one that reads
``_INTRO``.  A node that needs nothing filled in elaborates to itself,
and a closed node records its synthesis, so consecutive reducts, which
share almost all of their closed subtrees, are typed in time
proportional to their new nodes (see ``_elab``).

A typing context is an ordered mapping from term variables to closed
well-formed types.

The type predicates and metrics loop over ``syntax.TYPE_SHAPES`` for
every type former they do not single out.
"""

from __future__ import annotations

from .errors import (
    CannotSynthesize,
    EscapingVariable,
    NonConstantSubstType,
    OpenBox,
    TypeMismatch,
    TypingError,
    UnboundTypeVar,
    UnboundVariable,
    UnguardedMu,
    nesting_guard,
)
from .frontend import pretty_type
from .syntax import (
    NAT,
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
    Later,
    LaterApp,
    Mu,
    Next,
    Num,
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
    _type_shape,
    free_type_vars,
    type_alpha_eq,
    type_subst,
)

# ---------------------------------------------------------------------------
# Predicates on types.  Cached on the node: _wf (a closed type is
# well-formed) and _unfold (a mu-type's unfolding).


def guarded_in(alpha: str, a: Type) -> bool:
    """True iff every occurrence of alpha in a lies beneath a |>."""
    cls = a.__class__
    if cls is TVar:
        return a.name != alpha
    if cls is Later or (cls is Mu and a.var == alpha):
        return True
    for f in _type_shape(a):
        if not guarded_in(alpha, getattr(a, f)):
            return False
    return True


def is_constant(a: Type) -> bool:
    """True iff every |> in a lies beneath a #."""
    cls = a.__class__
    if cls is Later:
        return False
    if cls is Box:
        return True
    for f in _type_shape(a):
        if not is_constant(getattr(a, f)):
            return False
    return True


def wf_type(tyvars, a: Type) -> None:
    """Type formation: raises UnboundTypeVar, UnguardedMu, or OpenBox."""
    tyvars = frozenset(tyvars)
    if not tyvars and getattr(a, "_wf", False):
        return
    cls = a.__class__
    if cls is TVar:
        if a.name not in tyvars:
            raise UnboundTypeVar(f"unbound type variable {a.name!r}")
    elif cls is Box:
        if free_type_vars(a.body):
            raise OpenBox(f"# applied to an open type: {pretty_type(a.body)}")
        wf_type(frozenset(), a.body)
    else:
        inner = tyvars | {a.var} if cls is Mu else tyvars
        for f in _type_shape(a):
            wf_type(inner, getattr(a, f))
        if cls is Mu and not guarded_in(a.var, a.body):
            raise UnguardedMu(
                f"recursion variable {a.var!r} is not guarded in {pretty_type(a.body)}"
            )
    if not tyvars:
        object.__setattr__(a, "_wf", True)


# ---------------------------------------------------------------------------
# Metrics (induction measures for the logical relation)


def unguarded_size(a: Type) -> int:
    """Node count of the type, except any |>-subtree contributes 0."""
    if a.__class__ is Later:
        return 0
    return 1 + sum([unguarded_size(getattr(a, f)) for f in _type_shape(a)])


def box_depth(a: Type) -> int:
    d = min([box_depth(getattr(a, f)) for f in _type_shape(a)], default=0)
    return d + 1 if a.__class__ is Box else d


# ---------------------------------------------------------------------------
# Bidirectional checking / elaboration


def _mu_unfold(a: Mu) -> Type:
    try:
        return a._unfold
    except AttributeError:
        out = type_subst(a.body, a.var, a)
        object.__setattr__(a, "_unfold", out)
        return out


# The unary eliminators: the type former the operand must have, the
# error when it has another, and the part of the operand's type that the
# result has.
_ELIM = {
    Proj1: (Prod, "fst applied to a non-product", lambda a: a.left),
    Proj2: (Prod, "snd applied to a non-product", lambda a: a.right),
    Unfold: (Mu, "unfold applied to a non-mu type", _mu_unfold),
    Unbox: (Box, "unbox applied to a non-# type", lambda a: a.body),
}

# The annotated introductions: the keyword, the type former the target
# must have (abort takes any type), the error when it has another, and
# the part of the target that the body is checked against.
_INTRO = {
    Abort: ("abort", Type, None, lambda a: VOID),
    In1: ("inl", Sum, "inl must produce a sum type", lambda a: a.left),
    In2: ("inr", Sum, "inr must produce a sum type", lambda a: a.right),
    Fold: ("fold", Mu, "fold must produce a mu-type", _mu_unfold),
}


@nesting_guard
def elaborate(ctx, t: Term, want: Type | None = None):
    """Bidirectionally type t, returning (annotated term, its type).

    When ``want`` is given the term is checked against it; otherwise
    the type is synthesized.  In the result every lambda is
    domain-annotated and every inl/inr/fold/abort carries its type, so
    the result always synthesizes.
    """
    return _elab(dict(ctx), t, want)


@nesting_guard
def infer(ctx, t: Term) -> Type:
    """The type of t: ``elaborate``'s synthesis mode."""
    return _elab(dict(ctx), t, None)[1]


@nesting_guard
def check(ctx, t: Term, a: Type) -> None:
    elaborate(ctx, t, a)


_UNTYPED = object()  # a closed node's _ty before its first synthesis


def _elab(ctx, t, want):
    """Elaborate t by its class's rule, recording a closed node's synthesis.

    A closed term synthesizes the same way in every context, so the
    outcome is recorded on the (immutable, shared) node as ``_ty``: the
    elaborated node (None when it is t itself) and its type, or None
    when t does not synthesize.  The node's ``_fv``, stored when it was
    built, tells whether it is closed.  A check of a closed node against
    a type alpha-equal to its recorded one is answered from the record,
    which a synthesizing term allows; the checking rule runs only where
    synthesis fails or the types differ, so errors come from the rule
    that the unrecorded checker would run.  Consecutive reducts share
    almost all of their closed subtrees, which is what makes typing a
    whole reduction sequence cheap.

    An error without a location takes this node's as it passes up, so
    an error at a node without one (a shared numeral, an ill-formed
    annotation) is reported at the nearest enclosing node that has one.
    """
    try:
        rule = _RULES[t.__class__]
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None
    try:
        if t._fv:
            return rule(ctx, t, want)
        syn = getattr(t, "_ty", _UNTYPED)
        if syn is _UNTYPED:
            try:
                t2, ty = rule(ctx, t, None)
            except TypingError:
                object.__setattr__(t, "_ty", None)
                if want is None:
                    raise
                syn = None
            else:
                syn = (None if t2 is t else t2, ty)
                object.__setattr__(t, "_ty", syn)
        if syn is not None:
            t2, ty = syn
            if want is None or ty is want or type_alpha_eq(ty, want):
                return t if t2 is None else t2, ty
        return rule(ctx, t, want)
    except TypingError as e:
        if e.loc is None:
            e.loc = t.loc
        raise


def _done(t2, ty, want, loc):
    if want is not None and ty is not want and not type_alpha_eq(ty, want):
        raise TypeMismatch(
            f"has type {pretty_type(ty)} but {pretty_type(want)} expected", loc
        )
    return t2, ty


# ---------------------------------------------------------------------------
# The rules, one per term class: rule(ctx, t, want) checks t against
# want, or synthesizes its type when want is None, and returns (the
# elaborated node, its type).  The elaborated node is t itself when
# nothing in t was filled in, so a fully annotated term allocates no
# node.  Subterms go through _elab.


def _var(ctx, t, want):
    ty = ctx.get(t.name)
    if ty is None:
        raise UnboundVariable(f"unbound variable {t.name!r}", t.loc)
    return _done(t, ty, want, t.loc)


def _succ(ctx, t, want):
    if t._nv is None:  # a numeral is a Nat as it stands
        b2, _ = _elab(ctx, t.body, NAT)
        if b2 is not t.body:
            t = Succ(b2, loc=t.loc)
    return _done(t, NAT, want, t.loc)


def _pair(ctx, t, want):
    if want is None:
        l2, tl = _elab(ctx, t.left, None)
        r2, tr = _elab(ctx, t.right, None)
        want = Prod(tl, tr)
    elif not isinstance(want, Prod):
        raise TypeMismatch("pair where a non-product is expected", t.loc)
    else:
        l2, _ = _elab(ctx, t.left, want.left)
        r2, _ = _elab(ctx, t.right, want.right)
    if l2 is not t.left or r2 is not t.right:
        t = Pair(l2, r2, loc=t.loc)
    return t, want


def _elim(ctx, t, want):
    former, wrong, part = _ELIM[t.__class__]
    b2, tb = _elab(ctx, t.body, None)
    if not isinstance(tb, former):
        raise TypeMismatch(wrong, t.loc)
    if b2 is not t.body:
        t = t.__class__(b2, loc=t.loc)
    return _done(t, part(tb), want, t.loc)


def _intro(ctx, t, want):
    what, former, wrong, part = _INTRO[t.__class__]
    a0 = t.annot
    if a0 is not None and want is not None and not type_alpha_eq(a0, want):
        raise TypeMismatch(
            f"{what} annotated {pretty_type(a0)} but {pretty_type(want)} expected", t.loc
        )
    target = want if a0 is None else a0
    if target is None:
        raise CannotSynthesize(f"{what} needs a type annotation", t.loc)
    if not isinstance(target, former):
        raise TypeMismatch(wrong, t.loc)
    if a0 is not None:
        wf_type((), a0)
    b2, _ = _elab(ctx, t.body, part(target))
    if target is not a0 or b2 is not t.body:
        t = t.__class__(target, b2, loc=t.loc)
    return t, target


def _case(ctx, t, want):
    s2, ts = _elab(ctx, t.scrut, None)
    if not isinstance(ts, Sum):
        raise TypeMismatch("case scrutinee is not a sum", t.loc)
    a1, c1 = _elab({**ctx, t.var1: ts.left}, t.arm1, want)
    a2, c2 = _elab({**ctx, t.var2: ts.right}, t.arm2, want)
    if want is None and c1 is not c2 and not type_alpha_eq(c1, c2):
        raise TypeMismatch("case arms have different types", t.loc)
    if s2 is not t.scrut or a1 is not t.arm1 or a2 is not t.arm2:
        t = Case(s2, t.var1, a1, t.var2, a2, loc=t.loc)
    return t, c1 if want is None else want


def _lam(ctx, t, want):
    x, a0 = t.var, t.annot
    if want is None:
        if a0 is None:
            raise CannotSynthesize("cannot synthesize the type of an unannotated lambda", t.loc)
        wf_type((), a0)
        b2, tb = _elab({**ctx, x: a0}, t.body, None)
        return (t if b2 is t.body else Lam(x, a0, b2, loc=t.loc)), Arrow(a0, tb)
    if not isinstance(want, Arrow):
        raise TypeMismatch("lambda where a non-function is expected", t.loc)
    if a0 is not None and not type_alpha_eq(a0, want.dom):
        raise TypeMismatch("lambda annotation disagrees with expected domain", t.loc)
    b2, _ = _elab({**ctx, x: want.dom}, t.body, want.cod)
    if a0 is None or b2 is not t.body:
        t = Lam(x, want.dom if a0 is None else a0, b2, loc=t.loc)
    return t, want


def _app(ctx, t, want):
    f2, tf = _elab(ctx, t.fun, None)
    if not isinstance(tf, Arrow):
        raise TypeMismatch("application of a non-function", t.loc)
    a2, _ = _elab(ctx, t.arg, tf.dom)
    if f2 is not t.fun or a2 is not t.arg:
        t = App(f2, a2, loc=t.loc)
    return _done(t, tf.cod, want, t.loc)


def _next(ctx, t, want):
    if want is None:
        b2, tb = _elab(ctx, t.body, None)
        want = Later(tb)
    elif not isinstance(want, Later):
        raise TypeMismatch("next where a non-later type is expected", t.loc)
    else:
        b2, _ = _elab(ctx, t.body, want.body)
    return (t if b2 is t.body else Next(b2, loc=t.loc)), want


def _later_app(ctx, t, want):
    f2, tf = _elab(ctx, t.fun, None)
    if not (isinstance(tf, Later) and isinstance(tf.body, Arrow)):
        raise TypeMismatch("<*> needs a later function on the left", t.loc)
    a2, ta = _elab(ctx, t.arg, None)
    if not isinstance(ta, Later):
        raise TypeMismatch("<*> needs a later value on the right", t.loc)
    if ta.body is not tf.body.dom and not type_alpha_eq(ta.body, tf.body.dom):
        raise TypeMismatch("<*> argument type disagrees with the function", t.loc)
    if f2 is not t.fun or a2 is not t.arg:
        t = LaterApp(f2, a2, loc=t.loc)
    return _done(t, Later(tf.body.cod), want, t.loc)


def _prev(ctx, t, want):
    sig2, ctx2 = _elab_subst(ctx, t)
    if want is not None:
        b2, _ = _elab(ctx2, t.body, Later(want))
        return _rebind(t, sig2, b2), want
    b2, tb = _elab(ctx2, t.body, None)
    if not isinstance(tb, Later):
        raise TypeMismatch("prev body must have a later type", t.loc)
    return _rebind(t, sig2, b2), tb.body


def _box(ctx, t, want):
    sig2, ctx2 = _elab_subst(ctx, t)
    if want is None:
        b2, tb = _elab(ctx2, t.body, None)
        return _rebind(t, sig2, b2), Box(tb)
    if not isinstance(want, Box):
        raise TypeMismatch("box where a non-# type is expected", t.loc)
    b2, _ = _elab(ctx2, t.body, want.body)
    return _rebind(t, sig2, b2), want


def _box_sum(ctx, t, want):
    sig2, ctx2 = _elab_subst(ctx, t)
    if want is None:
        b2, tb = _elab(ctx2, t.body, None)
        if not isinstance(tb, Sum):
            raise TypeMismatch("boxp body must have a sum type", t.loc)
        return _rebind(t, sig2, b2), Sum(Box(tb.left), Box(tb.right))
    if not (isinstance(want, Sum) and isinstance(want.left, Box) and isinstance(want.right, Box)):
        raise TypeMismatch("boxp must produce a sum of # types", t.loc)
    b2, _ = _elab(ctx2, t.body, Sum(want.left.body, want.right.body))
    return _rebind(t, sig2, b2), want


def _prim(ctx, t, want):
    l2, _ = _elab(ctx, t.left, NAT)
    r2, _ = _elab(ctx, t.right, NAT)
    if l2 is not t.left or r2 is not t.right:
        t = Prim(t.name, l2, r2, loc=t.loc)
    return _done(t, NAT, want, t.loc)


def _ascribe(ctx, t, want):
    wf_type((), t.annot)
    b2, _ = _elab(ctx, t.body, t.annot)
    return _done(b2, t.annot, want, t.loc)


def _rebind(t, sig2, b2):
    """prev/box/boxp t itself, or a copy with substitution sig2 and body b2."""
    if sig2 is t.subst and b2 is t.body:
        return t
    return t.__class__(sig2, b2, loc=t.loc)


def _elab_subst(ctx, t):
    """Elaborate the explicit substitution of prev/box/boxp t, returning
    it (itself if nothing was filled in) and the context of t's body:
    synthesized, constant types; the body may use only the listed
    variables."""
    seen = set()
    sig2 = []
    ctx2 = {}
    for x, u in t.subst:
        if x in seen:
            raise TypingError(f"duplicate variable {x!r} in substitution", t.loc)
        seen.add(x)
        u2, tu = _elab(ctx, u, None)
        if not is_constant(tu):
            raise NonConstantSubstType(
                f"substituted variable {x!r} has non-constant type {pretty_type(tu)}",
                t.loc,
            )
        sig2.append((x, u2))
        ctx2[x] = tu
    escapees = t.body._fv - seen
    if escapees:
        raise EscapingVariable(
            f"body uses variables outside its substitution list: "
            f"{', '.join(sorted(escapees))}",
            t.loc,
        )
    if all(u2 is u for (_, u2), (_, u) in zip(sig2, t.subst)):
        return t.subst, ctx2
    return tuple(sig2), ctx2


_RULES = {
    Var: _var,
    Num: lambda ctx, t, want: _done(t, NAT, want, t.loc),
    Succ: _succ,
    UnitVal: lambda ctx, t, want: _done(t, UNIT, want, t.loc),
    Pair: _pair,
    **dict.fromkeys(_ELIM, _elim),
    **dict.fromkeys(_INTRO, _intro),
    Case: _case,
    Lam: _lam,
    App: _app,
    Next: _next,
    LaterApp: _later_app,
    Prev: _prev,
    BoxI: _box,
    BoxSum: _box_sum,
    Prim: _prim,
    Ascribe: _ascribe,
}


# ---------------------------------------------------------------------------
# Programs


def check_program(program) -> None:
    """Check every definition of a program against its declared type.

    Raises the first failing definition's error, annotated with the
    definition name, and located at the name if it has no location.
    """
    for d in program:
        try:
            wf_type((), d.ty)
            check({}, d.body, d.ty)
        except TypingError as e:
            e.message = f"in definition {d.name!r}: {e.message}"
            e.args = (e.message,)
            if e.loc is None:
                e.loc = d.loc
            raise
