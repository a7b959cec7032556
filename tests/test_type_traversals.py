"""The type traversals over TYPE_SHAPES against the match-based reference.

The ``_reference_*`` functions are the one-``match``-per-function
versions that the table-driven traversals in glam.syntax and
glam.typecheck replaced, without their caches.  The property compares
values, error classes and error messages on random types, ill-formed
ones and ones with a non-type leaf included, and calls each new
function twice so that the facts cached on the nodes are checked too.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from glam.errors import OpenBox, TypingError, UnboundTypeVar, UnguardedMu
from glam.frontend import pretty_type
from glam.syntax import (
    NAT,
    UNIT,
    VOID,
    Arrow,
    Box,
    Later,
    Mu,
    Nat,
    Prod,
    Sum,
    TVar,
    TYPE_SHAPES,
    Unit,
    Void,
    fresh_name,
    free_type_vars,
    type_alpha_eq,
    type_subst,
)
from glam.typecheck import box_depth, guarded_in, is_constant, unguarded_size, wf_type

# ---------------------------------------------------------------------------
# The reference: one match over the type classes per function


def _reference_free_type_vars(a):
    match a:
        case TVar(x):
            return frozenset((x,))
        case Nat() | Unit() | Void():
            return frozenset()
        case Prod(l, r) | Sum(l, r):
            return _reference_free_type_vars(l) | _reference_free_type_vars(r)
        case Arrow(d, c):
            return _reference_free_type_vars(d) | _reference_free_type_vars(c)
        case Mu(x, b):
            return _reference_free_type_vars(b) - {x}
        case Later(b) | Box(b):
            return _reference_free_type_vars(b)
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_type_subst(a, var, b):
    if var not in _reference_free_type_vars(a):
        return a
    match a:
        case TVar(_):
            return b
        case Prod(l, r):
            return Prod(_reference_type_subst(l, var, b), _reference_type_subst(r, var, b))
        case Sum(l, r):
            return Sum(_reference_type_subst(l, var, b), _reference_type_subst(r, var, b))
        case Arrow(d, c):
            return Arrow(_reference_type_subst(d, var, b), _reference_type_subst(c, var, b))
        case Mu(x, body):
            if x == var:
                return a
            fvb = _reference_free_type_vars(b)
            if x in fvb:
                xn = fresh_name(x, fvb | _reference_free_type_vars(body) | {var})
                body = _reference_type_subst(body, x, TVar(xn))
                x = xn
            return Mu(x, _reference_type_subst(body, var, b))
        case Later(body):
            return Later(_reference_type_subst(body, var, b))
        case Box(body):
            return Box(_reference_type_subst(body, var, b))
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_type_alpha_eq(a, b):
    return _reference_taeq(a, b, {}, {}, [0])


def _reference_taeq(a, b, enva, envb, ctr):
    if a is b and enva == envb:
        return True
    if a.__class__ is not b.__class__:
        return False
    match a:
        case TVar(x):
            return enva.get(x, x) == envb.get(b.name, b.name)
        case Nat() | Unit() | Void():
            return True
        case Prod(l, r) | Sum(l, r):
            return _reference_taeq(l, b.left, enva, envb, ctr) and _reference_taeq(
                r, b.right, enva, envb, ctr
            )
        case Arrow(d, c):
            return _reference_taeq(d, b.dom, enva, envb, ctr) and _reference_taeq(
                c, b.cod, enva, envb, ctr
            )
        case Mu(x, body):
            ctr[0] += 1
            enva = dict(enva)
            envb = dict(envb)
            enva[x] = ctr[0]
            envb[b.var] = ctr[0]
            return _reference_taeq(body, b.body, enva, envb, ctr)
        case Later(body) | Box(body):
            return _reference_taeq(body, b.body, enva, envb, ctr)
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_guarded_in(alpha, a):
    match a:
        case TVar(x):
            return x != alpha
        case Nat() | Unit() | Void():
            return True
        case Prod(l, r) | Sum(l, r):
            return _reference_guarded_in(alpha, l) and _reference_guarded_in(alpha, r)
        case Arrow(d, c):
            return _reference_guarded_in(alpha, d) and _reference_guarded_in(alpha, c)
        case Mu(x, b):
            return True if x == alpha else _reference_guarded_in(alpha, b)
        case Later(_):
            return True
        case Box(b):
            return _reference_guarded_in(alpha, b)
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_is_constant(a):
    match a:
        case TVar(_) | Nat() | Unit() | Void():
            return True
        case Prod(l, r) | Sum(l, r):
            return _reference_is_constant(l) and _reference_is_constant(r)
        case Arrow(d, c):
            return _reference_is_constant(d) and _reference_is_constant(c)
        case Mu(_, b):
            return _reference_is_constant(b)
        case Later(_):
            return False
        case Box(_):
            return True
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_wf_type(tyvars, a):
    tyvars = frozenset(tyvars)
    match a:
        case TVar(x):
            if x not in tyvars:
                raise UnboundTypeVar(f"unbound type variable {x!r}")
        case Nat() | Unit() | Void():
            pass
        case Prod(l, r) | Sum(l, r):
            _reference_wf_type(tyvars, l)
            _reference_wf_type(tyvars, r)
        case Arrow(d, c):
            _reference_wf_type(tyvars, d)
            _reference_wf_type(tyvars, c)
        case Mu(x, b):
            _reference_wf_type(tyvars | {x}, b)
            if not _reference_guarded_in(x, b):
                raise UnguardedMu(f"recursion variable {x!r} is not guarded in {pretty_type(b)}")
        case Later(b):
            _reference_wf_type(tyvars, b)
        case Box(b):
            if _reference_free_type_vars(b):
                raise OpenBox(f"# applied to an open type: {pretty_type(b)}")
            _reference_wf_type(frozenset(), b)
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_unguarded_size(a):
    match a:
        case Later(_):
            return 0
        case TVar(_) | Nat() | Unit() | Void():
            return 1
        case Prod(l, r) | Sum(l, r):
            return 1 + _reference_unguarded_size(l) + _reference_unguarded_size(r)
        case Arrow(d, c):
            return 1 + _reference_unguarded_size(d) + _reference_unguarded_size(c)
        case Mu(_, b) | Box(b):
            return 1 + _reference_unguarded_size(b)
        case _:
            raise TypeError(f"not a type: {a!r}")


def _reference_box_depth(a):
    match a:
        case TVar(_) | Nat() | Unit() | Void():
            return 0
        case Prod(l, r) | Sum(l, r):
            return min(_reference_box_depth(l), _reference_box_depth(r))
        case Arrow(d, c):
            return min(_reference_box_depth(d), _reference_box_depth(c))
        case Mu(_, b) | Later(b):
            return _reference_box_depth(b)
        case Box(b):
            return _reference_box_depth(b) + 1
        case _:
            raise TypeError(f"not a type: {a!r}")


# ---------------------------------------------------------------------------
# Generators

# Binder and variable names overlap, so mu-types shadow, capture and
# leave variables free; "a'" is what fresh_name makes of "a".
_names = st.sampled_from(["a", "b", "a'"])

# One leaf in 25 is 5, which is not a type.
_leaves = st.sampled_from([NAT, UNIT, VOID, "a", "b", "a'"] * 4 + [5]).map(
    lambda x: TVar(x) if isinstance(x, str) else x
)

_types = st.recursive(
    _leaves,
    lambda s: st.one_of(
        st.builds(Prod, s, s),
        st.builds(Sum, s, s),
        st.builds(Arrow, s, s),
        st.builds(Later, s),
        st.builds(Box, s),
        st.builds(Mu, _names, s),
    ),
    max_leaves=8,
)


def _rename(a, n=0):
    """An alpha-variant with every mu binder renamed apart."""
    if isinstance(a, Mu):
        xn = f"m{n}"
        return Mu(xn, _rename(_reference_type_subst(a.body, a.var, TVar(xn)), n + 1))
    shape = TYPE_SHAPES.get(a.__class__)
    if not shape:
        return a
    return a.__class__(*[_rename(getattr(a, f), n + 10 * i + 1) for i, f in enumerate(shape)])


def _key(a):
    """The exact tree, binder names included."""
    shape = TYPE_SHAPES.get(a.__class__)
    if shape is None:
        return repr(a)
    data = (a.name,) if isinstance(a, TVar) else (a.var,) if isinstance(a, Mu) else ()
    return (a.__class__.__name__, *data, *[_key(getattr(a, f)) for f in shape])


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (TypeError, TypingError) as e:
        return type(e), str(e)
    return "ok", _key(out) if out.__class__ in TYPE_SHAPES else out


def _agree(new, reference, *args):
    want = _outcome(reference, *args)
    assert _outcome(new, *args) == want, (new.__name__, args)
    # again, now that the first call may have cached facts on the nodes
    assert _outcome(new, *args) == want, (new.__name__, args)


# ---------------------------------------------------------------------------
# The property


@given(_types, _types, _names)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_type_traversals_agree_with_the_reference(a, b, var):
    try:
        a2 = _rename(a)
    except TypeError:  # a has a non-type leaf
        a2 = a
    _agree(free_type_vars, _reference_free_type_vars, a)
    _agree(type_subst, _reference_type_subst, a, var, b)
    _agree(type_subst, _reference_type_subst, a2, var, b)
    # a mu whose binder is free in what is substituted: it must be renamed
    x = "b" if var != "b" else "a"
    _agree(type_subst, _reference_type_subst, Mu(x, Sum(a, TVar(var))), var, Prod(TVar(x), b))
    for p, q in ((a, a), (a, a2), (a2, a), (a, b)):
        _agree(type_alpha_eq, _reference_type_alpha_eq, p, q)
    _agree(guarded_in, _reference_guarded_in, var, a)
    _agree(is_constant, _reference_is_constant, a)
    _agree(wf_type, _reference_wf_type, (var,), a)
    _agree(wf_type, _reference_wf_type, (), a)
    _agree(unguarded_size, _reference_unguarded_size, a)
    _agree(box_depth, _reference_box_depth, a)
