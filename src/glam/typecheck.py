"""Type well-formedness, constancy, guardedness, metrics, and the
bidirectional checker.

``elaborate`` is the engine: it checks a term against an expected type
(or synthesizes one) and returns the term with every binder and
constructor annotation filled in.  On an elaborated term every node
synthesizes, which is what the subject-reduction and denotational
machinery rely on.  ``infer`` and ``check`` are thin wrappers.

A typing context is an ordered mapping from term variables to closed
well-formed types.
"""

from __future__ import annotations

import weakref

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
)
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
    Later,
    LaterApp,
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
    free_type_vars,
    free_vars,
    type_alpha_eq,
    type_subst,
)

# ---------------------------------------------------------------------------
# Predicates on types


def guarded_in(alpha: str, a: Type) -> bool:
    """True iff every occurrence of alpha in a lies beneath a |>."""
    match a:
        case TVar(x):
            return x != alpha
        case Nat() | Unit() | Void():
            return True
        case Prod(l, r) | Sum(l, r):
            return guarded_in(alpha, l) and guarded_in(alpha, r)
        case Arrow(d, c):
            return guarded_in(alpha, d) and guarded_in(alpha, c)
        case Mu(x, b):
            return True if x == alpha else guarded_in(alpha, b)
        case Later(_):
            return True
        case Box(b):
            return guarded_in(alpha, b)
        case _:
            raise TypeError(f"not a type: {a!r}")


_CONST_CACHE: "weakref.WeakKeyDictionary[Type, bool]" = weakref.WeakKeyDictionary()


def is_constant(a: Type) -> bool:
    """True iff every |> in a lies beneath a #."""
    out = _CONST_CACHE.get(a)
    if out is None:
        out = _is_constant(a)
        _CONST_CACHE[a] = out
    return out


def _is_constant(a: Type) -> bool:
    match a:
        case TVar(_) | Nat() | Unit() | Void():
            return True
        case Prod(l, r) | Sum(l, r):
            return is_constant(l) and is_constant(r)
        case Arrow(d, c):
            return is_constant(d) and is_constant(c)
        case Mu(_, b):
            return is_constant(b)
        case Later(_):
            return False
        case Box(_):
            return True
        case _:
            raise TypeError(f"not a type: {a!r}")


_WF_CLOSED_OK: "weakref.WeakKeyDictionary[Type, bool]" = weakref.WeakKeyDictionary()


def wf_type(tyvars, a: Type) -> None:
    """Type formation: raises UnboundTypeVar, UnguardedMu, or OpenBox."""
    tyvars = frozenset(tyvars)
    if not tyvars and _WF_CLOSED_OK.get(a):
        return
    _wf_type(tyvars, a)
    if not tyvars:
        _WF_CLOSED_OK[a] = True


def _wf_type(tyvars, a: Type) -> None:
    match a:
        case TVar(x):
            if x not in tyvars:
                raise UnboundTypeVar(f"unbound type variable {x!r}")
        case Nat() | Unit() | Void():
            pass
        case Prod(l, r) | Sum(l, r):
            wf_type(tyvars, l)
            wf_type(tyvars, r)
        case Arrow(d, c):
            wf_type(tyvars, d)
            wf_type(tyvars, c)
        case Mu(x, b):
            wf_type(tyvars | {x}, b)
            if not guarded_in(x, b):
                raise UnguardedMu(
                    f"recursion variable {x!r} is not guarded in {b!r}"
                )
        case Later(b):
            wf_type(tyvars, b)
        case Box(b):
            if free_type_vars(b):
                raise OpenBox(f"# applied to an open type: {b!r}")
            wf_type(frozenset(), b)
        case _:
            raise TypeError(f"not a type: {a!r}")


# ---------------------------------------------------------------------------
# Metrics (induction measures for the logical relation)


def unguarded_size(a: Type) -> int:
    """Node count of the type, except any |>-subtree contributes 0."""
    match a:
        case Later(_):
            return 0
        case TVar(_) | Nat() | Unit() | Void():
            return 1
        case Prod(l, r) | Sum(l, r):
            return 1 + unguarded_size(l) + unguarded_size(r)
        case Arrow(d, c):
            return 1 + unguarded_size(d) + unguarded_size(c)
        case Mu(_, b) | Box(b):
            return 1 + unguarded_size(b)
        case _:
            raise TypeError(f"not a type: {a!r}")


def box_depth(a: Type) -> int:
    match a:
        case TVar(_) | Nat() | Unit() | Void():
            return 0
        case Prod(l, r) | Sum(l, r):
            return min(box_depth(l), box_depth(r))
        case Arrow(d, c):
            return min(box_depth(d), box_depth(c))
        case Mu(_, b) | Later(b):
            return box_depth(b)
        case Box(b):
            return box_depth(b) + 1
        case _:
            raise TypeError(f"not a type: {a!r}")


# ---------------------------------------------------------------------------
# Bidirectional checking / elaboration


_MU_UNFOLD: "weakref.WeakKeyDictionary[Mu, Type]" = weakref.WeakKeyDictionary()


def _mu_unfold(a: Mu) -> Type:
    out = _MU_UNFOLD.get(a)
    if out is None:
        out = type_subst(a.body, a.var, a)
        _MU_UNFOLD[a] = out
    return out


def _mismatch(msg, loc):
    return TypeMismatch(msg, loc)


def _agree(annot, want, what, loc):
    """Reconcile an annotation with an expected type."""
    if annot is not None and want is not None and not type_alpha_eq(annot, want):
        from .frontend import pretty_type

        raise _mismatch(
            f"{what} annotated {pretty_type(annot)} but "
            f"{pretty_type(want)} expected",
            loc,
        )
    return annot if annot is not None else want


def elaborate(ctx, t: Term, want: Type | None = None):
    """Bidirectionally type t, returning (annotated term, its type).

    When ``want`` is given the term is checked against it; otherwise
    the type is synthesized.  In the result every lambda is
    domain-annotated and every inl/inr/fold/abort carries its type, so
    the result always synthesizes.
    """
    out, ty = _elab(dict(ctx), t, want)
    return out, ty


def infer(ctx, t: Term) -> Type:
    return elaborate(ctx, t)[1]


def check(ctx, t: Term, a: Type) -> None:
    elaborate(ctx, t, a)


def _done(t2, ty, want, loc):
    if want is not None and not type_alpha_eq(ty, want):
        from .frontend import pretty_type

        raise _mismatch(
            f"has type {pretty_type(ty)} but {pretty_type(want)} expected", loc
        )
    return t2, ty


def _elab(ctx, t, want):
    """_elab1, memoized on closed nodes.

    A closed term elaborates the same way in every context, so the
    result is cached on the (immutable, shared) node per expected type
    object, as ``free_vars`` caches ``_fv``.  Consecutive reducts share
    almost all of their closed subtrees, which is what makes typing a
    whole reduction sequence cheap.  Errors are not cached.
    """
    try:
        fv = t._fv
    except AttributeError:
        fv = free_vars(t)
    if fv:
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


def _elab1(ctx, t, want):
    match t:
        case Var(x):
            ty = ctx.get(x)
            if ty is None:
                raise UnboundVariable(f"unbound variable {x!r}", t.loc)
            return _done(t, ty, want, t.loc)
        case Zero():
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
                raise _mismatch("pair where a non-product is expected", t.loc)
            l2, _ = _elab(ctx, l, want.left)
            r2, _ = _elab(ctx, r, want.right)
            return Pair(l2, r2, loc=t.loc), want
        case Proj1(b):
            b2, tb = _elab(ctx, b, None)
            if not isinstance(tb, Prod):
                raise _mismatch("fst applied to a non-product", t.loc)
            return _done(Proj1(b2, loc=t.loc), tb.left, want, t.loc)
        case Proj2(b):
            b2, tb = _elab(ctx, b, None)
            if not isinstance(tb, Prod):
                raise _mismatch("snd applied to a non-product", t.loc)
            return _done(Proj2(b2, loc=t.loc), tb.right, want, t.loc)
        case Abort(a0, b):
            target = _agree(a0, want, "abort", t.loc)
            if target is None:
                raise CannotSynthesize("abort needs a type annotation", t.loc)
            if a0 is not None:
                wf_type((), a0)
            b2, _ = _elab(ctx, b, VOID)
            return Abort(target, b2, loc=t.loc), target
        case In1(a0, b):
            target = _agree(a0, want, "inl", t.loc)
            if target is None:
                raise CannotSynthesize("inl needs a type annotation", t.loc)
            if not isinstance(target, Sum):
                raise _mismatch("inl must produce a sum type", t.loc)
            if a0 is not None:
                wf_type((), a0)
            b2, _ = _elab(ctx, b, target.left)
            return In1(target, b2, loc=t.loc), target
        case In2(a0, b):
            target = _agree(a0, want, "inr", t.loc)
            if target is None:
                raise CannotSynthesize("inr needs a type annotation", t.loc)
            if not isinstance(target, Sum):
                raise _mismatch("inr must produce a sum type", t.loc)
            if a0 is not None:
                wf_type((), a0)
            b2, _ = _elab(ctx, b, target.right)
            return In2(target, b2, loc=t.loc), target
        case Case(s, x1, a1, x2, a2):
            s2, ts = _elab(ctx, s, None)
            if not isinstance(ts, Sum):
                raise _mismatch("case scrutinee is not a sum", t.loc)
            ctx1 = dict(ctx)
            ctx1[x1] = ts.left
            ctx2 = dict(ctx)
            ctx2[x2] = ts.right
            a1n, c1 = _elab(ctx1, a1, want)
            a2n, c2 = _elab(ctx2, a2, want if want is not None else None)
            if want is None and not type_alpha_eq(c1, c2):
                raise _mismatch("case arms have different types", t.loc)
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
                raise _mismatch("lambda where a non-function is expected", t.loc)
            if a0 is not None and not type_alpha_eq(a0, want.dom):
                raise _mismatch("lambda annotation disagrees with expected domain", t.loc)
            ctx2 = dict(ctx)
            ctx2[x] = want.dom
            b2, _ = _elab(ctx2, b, want.cod)
            return Lam(x, want.dom, b2, loc=t.loc), want
        case App(f, a):
            f2, tf = _elab(ctx, f, None)
            if not isinstance(tf, Arrow):
                raise _mismatch("application of a non-function", t.loc)
            a2, _ = _elab(ctx, a, tf.dom)
            return _done(App(f2, a2, loc=t.loc), tf.cod, want, t.loc)
        case Fold(a0, b):
            target = _agree(a0, want, "fold", t.loc)
            if target is None:
                raise CannotSynthesize("fold needs a type annotation", t.loc)
            if not isinstance(target, Mu):
                raise _mismatch("fold must produce a mu-type", t.loc)
            if a0 is not None:
                wf_type((), a0)
            b2, _ = _elab(ctx, b, _mu_unfold(target))
            return Fold(target, b2, loc=t.loc), target
        case Unfold(b):
            b2, tb = _elab(ctx, b, None)
            if not isinstance(tb, Mu):
                raise _mismatch("unfold applied to a non-mu type", t.loc)
            return _done(Unfold(b2, loc=t.loc), _mu_unfold(tb), want, t.loc)
        case Next(b):
            if want is None:
                b2, tb = _elab(ctx, b, None)
                return Next(b2, loc=t.loc), Later(tb)
            if not isinstance(want, Later):
                raise _mismatch("next where a non-later type is expected", t.loc)
            b2, _ = _elab(ctx, b, want.body)
            return Next(b2, loc=t.loc), want
        case LaterApp(f, a):
            f2, tf = _elab(ctx, f, None)
            if not (isinstance(tf, Later) and isinstance(tf.body, Arrow)):
                raise _mismatch("<*> needs a later function on the left", t.loc)
            a2, ta = _elab(ctx, a, None)
            if not isinstance(ta, Later):
                raise _mismatch("<*> needs a later value on the right", t.loc)
            if not type_alpha_eq(ta.body, tf.body.dom):
                raise _mismatch("<*> argument type disagrees with the function", t.loc)
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
                raise _mismatch("prev body must have a later type", t.loc)
            return Prev(sig2, b2, loc=t.loc), tb.body
        case BoxI(sig, b):
            sig2, ctx2 = _elab_subst(ctx, t, sig, b)
            if want is not None:
                if not isinstance(want, Box):
                    raise _mismatch("box where a non-# type is expected", t.loc)
                b2, _ = _elab(ctx2, b, want.body)
                return BoxI(sig2, b2, loc=t.loc), want
            b2, tb = _elab(ctx2, b, None)
            return BoxI(sig2, b2, loc=t.loc), Box(tb)
        case Unbox(b):
            b2, tb = _elab(ctx, b, None)
            if not isinstance(tb, Box):
                raise _mismatch("unbox applied to a non-# type", t.loc)
            return _done(Unbox(b2, loc=t.loc), tb.body, want, t.loc)
        case BoxSum(sig, b):
            sig2, ctx2 = _elab_subst(ctx, t, sig, b)
            if want is not None:
                if not (
                    isinstance(want, Sum)
                    and isinstance(want.left, Box)
                    and isinstance(want.right, Box)
                ):
                    raise _mismatch("boxp must produce a sum of # types", t.loc)
                b2, _ = _elab(ctx2, b, Sum(want.left.body, want.right.body))
                return BoxSum(sig2, b2, loc=t.loc), want
            b2, tb = _elab(ctx2, b, None)
            if not isinstance(tb, Sum):
                raise _mismatch("boxp body must have a sum type", t.loc)
            return BoxSum(sig2, b2, loc=t.loc), Sum(Box(tb.left), Box(tb.right))
        case Prim(name, args):
            prim = PRIMITIVES.get(name)
            if prim is None or prim.arity != len(args):
                raise TypingError(f"bad primitive application {name}", t.loc)
            args2 = tuple(_elab(ctx, a, NAT)[0] for a in args)
            return _done(Prim(name, args2, loc=t.loc), NAT, want, t.loc)
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
            from .frontend import pretty_type

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
# Programs


def check_program(program) -> None:
    """Check every definition of a program against its declared type.

    Raises the first failing definition's error, annotated with the
    definition name.
    """
    for d in program:
        try:
            wf_type((), d.ty)
            check({}, d.body, d.ty)
        except TypingError as e:
            e.message = f"in definition {d.name!r}: {e.message}"
            e.args = (e.message,)
            raise
