"""Type well-formedness, constancy, guardedness, metrics, and the
bidirectional checker.

``elaborate`` is the surface checker: it checks a term against an
expected type (or synthesizes one) and returns the term with every
binder and constructor annotation filled in.  On an elaborated term
every node synthesizes, which is what the subject-reduction and
denotational machinery rely on; ``check`` is ``elaborate`` against a
given type.

``infer`` types a term by synthesis alone (``_syn``), with the rules of
``elaborate``'s synthesis mode, and builds no term nodes.  Both passes
type the unary eliminators (fst, snd, unfold, unbox) by one rule that
reads ``_ELIM``, and the annotated introductions (abort, inl, inr,
fold) by one that reads ``_INTRO``.  The type of a closed node is
cached on it as ``_ty``, so consecutive reducts, which share almost all
of their closed subtrees, are typed in time proportional to their new
nodes.  Where synthesis alone does not settle the question (a missing
annotation, an ascription, any mismatch or ill-formed annotation)
``_syn`` gives up and ``infer`` returns what ``elaborate`` says, so
every error comes from ``elaborate``.

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
    Zero,
    _type_shape,
    free_type_vars,
    free_vars,
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
    """The type of t, by synthesis; see the module docstring."""
    try:
        return _syn(ctx, t)
    except (_Fallback, TypingError):
        return elaborate(ctx, t)[1]


@nesting_guard
def check(ctx, t: Term, a: Type) -> None:
    elaborate(ctx, t, a)


def _done(t2, ty, want, loc):
    if want is not None and not type_alpha_eq(ty, want):
        raise TypeMismatch(
            f"has type {pretty_type(ty)} but {pretty_type(want)} expected", loc
        )
    return t2, ty


def _elab(ctx, t, want):
    """_elab1, memoized on closed nodes.

    A closed term elaborates the same way in every context, so the
    result is cached on the (immutable, shared) node per expected type
    object; the node's ``_fv``, stored when it was built, tells whether
    it is closed.  Consecutive reducts share almost all of their closed
    subtrees, which is what makes typing a whole reduction sequence
    cheap.  Errors are not cached.

    An error without a location takes this node's as it passes up, so
    an error at a node without one (a shared numeral, an ill-formed
    annotation) is reported at the nearest enclosing node that has one.
    """
    try:
        if t._fv:
            return _elab1(ctx, t, want)
        try:
            memo = t._elab_memo
        except AttributeError:
            memo = {}
            object.__setattr__(t, "_elab_memo", memo)
        out = memo.get(want)
        if out is None:
            out = memo[want] = _elab1(ctx, t, want)
        return out
    except TypingError as e:
        if e.loc is None:
            e.loc = t.loc
        raise


def _elab1(ctx, t, want):
    match t:
        case Var(x):
            ty = ctx.get(x)
            if ty is None:
                raise UnboundVariable(f"unbound variable {x!r}", t.loc)
            return _done(t, ty, want, t.loc)
        case Zero() | Succ() if t._nv is not None:  # a numeral: nothing to fill in
            return _done(t, NAT, want, t.loc)
        case Succ(b):
            b2, _ = _elab(ctx, b, NAT)
            return _done(Succ(b2, loc=t.loc), NAT, want, t.loc)
        case UnitVal():
            return _done(t, UNIT, want, t.loc)
        case Pair(l, r):
            if want is None:
                l2, tl = _elab(ctx, l, None)
                r2, tr = _elab(ctx, r, None)
                return Pair(l2, r2, loc=t.loc), Prod(tl, tr)
            if not isinstance(want, Prod):
                raise TypeMismatch("pair where a non-product is expected", t.loc)
            l2, _ = _elab(ctx, l, want.left)
            r2, _ = _elab(ctx, r, want.right)
            return Pair(l2, r2, loc=t.loc), want
        case Proj1(b) | Proj2(b) | Unfold(b) | Unbox(b):
            former, wrong, part = _ELIM[t.__class__]
            b2, tb = _elab(ctx, b, None)
            if not isinstance(tb, former):
                raise TypeMismatch(wrong, t.loc)
            return _done(t.__class__(b2, loc=t.loc), part(tb), want, t.loc)
        case Abort(a0, b) | In1(a0, b) | In2(a0, b) | Fold(a0, b):
            what, former, wrong, part = _INTRO[t.__class__]
            if a0 is not None and want is not None and not type_alpha_eq(a0, want):
                raise TypeMismatch(
                    f"{what} annotated {pretty_type(a0)} but {pretty_type(want)} expected",
                    t.loc,
                )
            target = want if a0 is None else a0
            if target is None:
                raise CannotSynthesize(f"{what} needs a type annotation", t.loc)
            if not isinstance(target, former):
                raise TypeMismatch(wrong, t.loc)
            if a0 is not None:
                wf_type((), a0)
            b2, _ = _elab(ctx, b, part(target))
            return t.__class__(target, b2, loc=t.loc), target
        case Case(s, x1, a1, x2, a2):
            s2, ts = _elab(ctx, s, None)
            if not isinstance(ts, Sum):
                raise TypeMismatch("case scrutinee is not a sum", t.loc)
            ctx1 = dict(ctx)
            ctx1[x1] = ts.left
            ctx2 = dict(ctx)
            ctx2[x2] = ts.right
            a1n, c1 = _elab(ctx1, a1, want)
            a2n, c2 = _elab(ctx2, a2, want)
            if want is None and not type_alpha_eq(c1, c2):
                raise TypeMismatch("case arms have different types", t.loc)
            return Case(s2, x1, a1n, x2, a2n, loc=t.loc), (want or c1)
        case Lam(x, a0, b):
            if want is None:
                if a0 is None:
                    raise CannotSynthesize(
                        "cannot synthesize the type of an unannotated lambda", t.loc
                    )
                wf_type((), a0)
                ctx2 = dict(ctx)
                ctx2[x] = a0
                b2, tb = _elab(ctx2, b, None)
                return Lam(x, a0, b2, loc=t.loc), Arrow(a0, tb)
            if not isinstance(want, Arrow):
                raise TypeMismatch("lambda where a non-function is expected", t.loc)
            if a0 is not None and not type_alpha_eq(a0, want.dom):
                raise TypeMismatch("lambda annotation disagrees with expected domain", t.loc)
            ctx2 = dict(ctx)
            ctx2[x] = want.dom
            b2, _ = _elab(ctx2, b, want.cod)
            return Lam(x, want.dom, b2, loc=t.loc), want
        case App(f, a):
            f2, tf = _elab(ctx, f, None)
            if not isinstance(tf, Arrow):
                raise TypeMismatch("application of a non-function", t.loc)
            a2, _ = _elab(ctx, a, tf.dom)
            t2 = App(f2, a2, loc=t.loc)
            if getattr(t, "_fix", False):  # frontend.fix_term's mark
                object.__setattr__(t2, "_fix", True)
            return _done(t2, tf.cod, want, t.loc)
        case Next(b):
            if want is None:
                b2, tb = _elab(ctx, b, None)
                return Next(b2, loc=t.loc), Later(tb)
            if not isinstance(want, Later):
                raise TypeMismatch("next where a non-later type is expected", t.loc)
            b2, _ = _elab(ctx, b, want.body)
            return Next(b2, loc=t.loc), want
        case LaterApp(f, a):
            f2, tf = _elab(ctx, f, None)
            if not (isinstance(tf, Later) and isinstance(tf.body, Arrow)):
                raise TypeMismatch("<*> needs a later function on the left", t.loc)
            a2, ta = _elab(ctx, a, None)
            if not isinstance(ta, Later):
                raise TypeMismatch("<*> needs a later value on the right", t.loc)
            if not type_alpha_eq(ta.body, tf.body.dom):
                raise TypeMismatch("<*> argument type disagrees with the function", t.loc)
            return _done(
                LaterApp(f2, a2, loc=t.loc), Later(tf.body.cod), want, t.loc
            )
        case Prev(sig, b):
            sig2, ctx2 = _elab_subst(ctx, t, sig, b)
            if want is not None:
                b2, _ = _elab(ctx2, b, Later(want))
                return Prev(sig2, b2, loc=t.loc), want
            b2, tb = _elab(ctx2, b, None)
            if not isinstance(tb, Later):
                raise TypeMismatch("prev body must have a later type", t.loc)
            return Prev(sig2, b2, loc=t.loc), tb.body
        case BoxI(sig, b):
            sig2, ctx2 = _elab_subst(ctx, t, sig, b)
            if want is not None:
                if not isinstance(want, Box):
                    raise TypeMismatch("box where a non-# type is expected", t.loc)
                b2, _ = _elab(ctx2, b, want.body)
                return BoxI(sig2, b2, loc=t.loc), want
            b2, tb = _elab(ctx2, b, None)
            return BoxI(sig2, b2, loc=t.loc), Box(tb)
        case BoxSum(sig, b):
            sig2, ctx2 = _elab_subst(ctx, t, sig, b)
            if want is not None:
                if not (
                    isinstance(want, Sum)
                    and isinstance(want.left, Box)
                    and isinstance(want.right, Box)
                ):
                    raise TypeMismatch("boxp must produce a sum of # types", t.loc)
                b2, _ = _elab(ctx2, b, Sum(want.left.body, want.right.body))
                return BoxSum(sig2, b2, loc=t.loc), want
            b2, tb = _elab(ctx2, b, None)
            if not isinstance(tb, Sum):
                raise TypeMismatch("boxp body must have a sum type", t.loc)
            return BoxSum(sig2, b2, loc=t.loc), Sum(Box(tb.left), Box(tb.right))
        case Prim(name, a, b):
            a2, _ = _elab(ctx, a, NAT)
            b2, _ = _elab(ctx, b, NAT)
            return _done(Prim(name, a2, b2, loc=t.loc), NAT, want, t.loc)
        case Ascribe(b, a0):
            wf_type((), a0)
            b2, _ = _elab(ctx, b, a0)
            return _done(b2, a0, want, t.loc)
        case _:
            raise TypeError(f"not a term: {t!r}")


def _elab_subst(ctx, t, sig, body):
    """Elaborate an explicit substitution: synthesized, constant types;
    the body may use only the listed variables."""
    seen = set()
    sig2 = []
    ctx2 = {}
    for x, u in sig:
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
    escapees = free_vars(body) - seen
    if escapees:
        raise EscapingVariable(
            f"body uses variables outside its substitution list: "
            f"{', '.join(sorted(escapees))}",
            t.loc,
        )
    return tuple(sig2), ctx2


# ---------------------------------------------------------------------------
# Synthesis on elaborated terms (infer's fast path)


class _Fallback(Exception):
    """Synthesis alone cannot type this term; ask ``elaborate``."""


def _syn(ctx, t):
    """The type of t by synthesis, cached as ``_ty`` on closed nodes.

    Raises _Fallback (or a wf_type error) where ``elaborate`` would
    need its checking mode or would fail; nothing is cached then.
    """
    fv = t._fv
    if not fv:
        try:
            return t._ty
        except AttributeError:
            pass
    rule = _SYN.get(t.__class__)
    if rule is None:
        raise _Fallback
    ty = rule(ctx, t)
    if not fv:
        object.__setattr__(t, "_ty", ty)
    return ty


def _same(a, b):
    if a is not b and not type_alpha_eq(a, b):
        raise _Fallback


def _is(ty, cls):
    if not isinstance(ty, cls):
        raise _Fallback
    return ty


def _annot(t):
    """The annotation of a lambda or inl/inr/fold/abort, well-formed."""
    a = t.annot
    if a is None:
        raise _Fallback
    wf_type((), a)
    return a


def _syn_var(ctx, t):
    ty = ctx.get(t.name)
    if ty is None:
        raise _Fallback
    return ty


def _syn_succ(ctx, t):
    if t._nv is None:  # a numeral is a Nat as it stands
        _same(_syn(ctx, t.body), NAT)
    return NAT


def _syn_case(ctx, t):
    ts = _is(_syn(ctx, t.scrut), Sum)
    c1 = _syn({**ctx, t.var1: ts.left}, t.arm1)
    _same(_syn({**ctx, t.var2: ts.right}, t.arm2), c1)
    return c1


def _syn_elim(ctx, t):
    former, _, part = _ELIM[t.__class__]
    return part(_is(_syn(ctx, t.body), former))


def _syn_intro(ctx, t):
    _, former, _, part = _INTRO[t.__class__]
    a = _is(_annot(t), former)
    _same(_syn(ctx, t.body), part(a))
    return a


def _syn_lam(ctx, t):
    a = _annot(t)
    return Arrow(a, _syn({**ctx, t.var: a}, t.body))


def _syn_app(ctx, t):
    tf = _is(_syn(ctx, t.fun), Arrow)
    _same(_syn(ctx, t.arg), tf.dom)
    return tf.cod


def _syn_later_app(ctx, t):
    tf = _is(_syn(ctx, t.fun), Later)
    f = _is(tf.body, Arrow)
    _same(_is(_syn(ctx, t.arg), Later).body, f.dom)
    return Later(f.cod)


def _syn_prim(ctx, t):
    _same(_syn(ctx, t.left), NAT)
    _same(_syn(ctx, t.right), NAT)
    return NAT


def _syn_body(ctx, t):
    """The type of the body of prev/box/boxp, under its substitution.

    The body sees only the listed variables, so an escaping variable is
    unbound there and falls back like any other unbound variable.
    """
    ctx2 = {}
    for x, u in t.subst:
        if x in ctx2:
            raise _Fallback
        tu = ctx2[x] = _syn(ctx, u)
        if not is_constant(tu):
            raise _Fallback
    return _syn(ctx2, t.body)


def _syn_box_sum(ctx, t):
    tb = _is(_syn_body(ctx, t), Sum)
    return Sum(Box(tb.left), Box(tb.right))


_SYN = {
    Var: _syn_var,
    Zero: lambda ctx, t: NAT,
    Succ: _syn_succ,
    UnitVal: lambda ctx, t: UNIT,
    Pair: lambda ctx, t: Prod(_syn(ctx, t.left), _syn(ctx, t.right)),
    **dict.fromkeys(_ELIM, _syn_elim),
    **dict.fromkeys(_INTRO, _syn_intro),
    Case: _syn_case,
    Lam: _syn_lam,
    App: _syn_app,
    Next: lambda ctx, t: Later(_syn(ctx, t.body)),
    LaterApp: _syn_later_app,
    Prev: lambda ctx, t: _is(_syn_body(ctx, t), Later).body,
    BoxI: lambda ctx, t: Box(_syn_body(ctx, t)),
    BoxSum: _syn_box_sum,
    Prim: _syn_prim,
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
