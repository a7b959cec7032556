"""Shared closed-term corpus for the test suites.

Everything here is built against the shipped prelude: the eight
observation streams with independent Python oracles, at least a
hundred closed Nat-typed terms, the fixed-point-law probes, and the
ill-typed rejection examples.
"""

from __future__ import annotations

from functools import lru_cache

from glam import load_prelude, parse_program, parse_term
from glam.syntax import (
    NAT,
    STREAM_G,
    UNIT,
    VOID,
    App,
    Arrow,
    Ascribe,
    Box,
    Later,
    Mu,
    Next,
    Prev,
    Prod,
    Proj1,
    Proj2,
    Sum,
    TVar,
    Term,
    Unfold,
)
from glam.typecheck import elaborate

PRELUDE = load_prelude()

# Extra definitions used only by tests: a stream of streams whose j-th
# row is j, j+1, j+2, ..., feeding diag.
_HELPERS_SRC = """
def consS : #(mu b. Nat * |>b) -> |>(mu a. #(mu b. Nat * |>b) * |>a)
            -> mu a. #(mu b. Nat * |>b) * |>a
  = \\x. \\s. fold[mu a. #(mu b. Nat * |>b) * |>a] (x, s);

def iterS : (#(mu b. Nat * |>b) -> #(mu b. Nat * |>b)) -> #(mu b. Nat * |>b)
            -> mu a. #(mu b. Nat * |>b) * |>a
  = \\f. fix[#(mu b. Nat * |>b) -> mu a. #(mu b. Nat * |>b) * |>a]
      (\\g. \\x. consS x (g <*> next (f x)));

def rows : #(mu a. #(mu b. Nat * |>b) * |>a)
  = box (iterS (mapConst (\\x. succ x)) (box (iterate' (\\x. succ x) 0)));
"""

HELPERS = parse_program(_HELPERS_SRC, base=PRELUDE)
ENV = HELPERS.env()


def term(src: str) -> Term:
    return parse_term(src, env=ENV, strict=True)


# ---------------------------------------------------------------------------
# Python-side stream oracles (independent of the machine and of denot)


@lru_cache(maxsize=None)
def _pf(i: int) -> int:
    # paperfolds = interleave toggle paperfolds
    return _toggle(i // 2) if i % 2 == 0 else _pf(i // 2)


def _toggle(i: int) -> int:
    return 1 if i % 2 == 0 else 0


# (name, source, oracle) for the eight observation streams.
STREAMS = [
    ("zeros", "zeros", lambda i: 0),
    ("toggle", "toggle", _toggle),
    ("paperfolds", "paperfolds", _pf),
    ("map-succ-zeros", "mapg (\\x. succ x) zeros", lambda i: 1),
    (
        "interleave-toggle-paperfolds",
        "interleave toggle (next paperfolds)",
        lambda i: _toggle(i // 2) if i % 2 == 0 else _pf(i // 2),
    ),
    ("iterate'-succ-0", "iterate' (\\x. succ x) 0", lambda i: i),
    (
        "every2nd-boxed-iterate'",
        "every2nd (box (iterate' (\\x. succ x) 0))",
        lambda i: 2 * i,
    ),
    ("diag-rows", "diag rows", lambda i: 2 * i),
]


def element_probe(t: Term, k: int) -> Term:
    """fst (unfold .) of the k-th tail, taken with closed prev."""
    cur = t
    for _ in range(k):
        cur = Prev((), Proj2(Unfold(cur)))
    return Proj1(Unfold(cur))


# ---------------------------------------------------------------------------
# Closed Nat-typed corpus: (description, term, expected value)


def _arith_ladder(n: int) -> str:
    src = "0"
    for _ in range(n):
        src = f"addN 1 ({src})"
    return src


def nat_corpus(max_depth: int = 6):
    out = []
    for name, src, oracle in STREAMS:
        t = term(src)
        for k in range(max_depth + 1):
            out.append((f"{name}[{k}]", element_probe(t, k), oracle(k)))
    misc = [
        ("plain numeral", "7", 7),
        ("addN", "addN 2 3", 5),
        ("mulN", "mulN 6 7", 42),
        ("nested prims", "addN (mulN 2 3) (addN 1 1)", 8),
        ("eta addN", "(addN 2) 3", 5),
        ("bare prim applied", "(\\f : Nat -> Nat -> Nat. f 4 5) addN", 9),
        ("beta", "(\\x : Nat. succ x) 4", 5),
        ("two-arg beta", "(\\x : Nat. \\y : Nat. mulN x y) 3 4", 12),
        ("fst", "fst (2, 3)", 2),
        ("snd", "snd (hdg toggle, hdg zeros)", 0),
        ("case inl", "case (inl[Nat + Nat] 4) of inl x -> x | inr y -> 0", 4),
        ("case inr", "case (inr[Nat + Nat] 4) of inl x -> 0 | inr y -> succ y", 5),
        ("unfold-fold", "hdg (fold[mu a. Nat * |>a] (9, next zeros))", 9),
        ("prev-next", "prev (next 9)", 9),
        ("prev subst", "prev{x<-3}. next x", 3),
        ("unbox-box", "unbox (box 7)", 7),
        ("boxsum", "case (boxp (inl[Nat + Unit] 5)) of inl b -> unbox b | inr u -> 0", 5),
        ("hd of boxed", "hd (box toggle)", 1),
        ("second", "second (box paperfolds)", 1),
        ("hd of tl", "hd (tl (box toggle))", 0),
        ("mapConst", "hd (tl (mapConst (\\x. succ x) (box toggle)))", 1),
        ("cons coinductive", "second (cons 8 (box zeros))", 0),
        ("lift1", "unbox (lift1 (\\x. mulN x x) (box 6))", 36),
        ("lift2", "hd (lift2 (box interleave') (box toggle) (box zeros))", 1),
        ("lim", "hd (lim (box (mapg (\\x. succ x))) (box zeros))", 1),
        ("initial head", "initial (\\p. fst p) paperfolds", 1),
        ("final head", "hdg (final (\\x. (x, next (succ x))) 3)", 3),
        ("secondg observed", "prev (secondg toggle)", 0),
        ("thirdg observed", "prev (prev (thirdg (iterate' (\\x. succ x) 5)))", 7),
        ("iterate vs iterate'", "hdg (iterate (next (\\x. succ x)) 2)", 2),
        ("ascription", "((\\x. x) : Nat -> Nat) 3", 3),
        ("interleave' head", "hdg (interleave' zeros toggle)", 0),
        ("shadowed binder", "(\\x : Nat. (\\x : Nat. succ x) (succ x)) 1", 3),
        ("ladder 20", _arith_ladder(20), 20),
        ("ladder 35", _arith_ladder(35), 35),
        ("square ladder", "mulN (addN 3 4) (addN 2 5)", 49),
        ("succ of prim", "succ (addN 0 9)", 10),
        ("deep beta", "(\\f : Nat -> Nat. \\x : Nat. f (f (f x))) (\\y. addN y 2) 1", 7),
        ("predg of cosucc", "case (predg (cosucc cozero)) of inl u -> 0 | inr m -> 1", 1),
        ("pred of boxed zero", "case (pred (box cozero)) of inl u -> 0 | inr m -> 1", 0),
        ("pred of infinity", "case (pred (box infinity)) of inl u -> 0 | inr m -> 1", 1),
        ("abort unreachable", "case (inr[Void + Nat] 6) of inl v -> abort[Nat] v | inr n -> n", 6),
        ("pair of projections", "fst (snd ((1, 2), (3, 4)))", 3),
        ("curried prim section", "(\\g : Nat -> Nat. g 11) (addN 4)", 15),
        ("boxed arithmetic", "unbox (box (mulN 5 5))", 25),
        ("iterate at 3", "hdg (iterate (next (\\x. addN x 3)) 7)", 7),
    ]
    for name, src, want in misc:
        out.append((name, term(src), want))
    return out


# ---------------------------------------------------------------------------
# Subject-reduction / determinism corpus: closed well-typed terms whose
# traces together exceed the required step budget.


def sr_corpus():
    """(description, term, declared type) for trace-based suites."""
    out = []
    for d in PRELUDE:
        out.append((f"prelude {d.name}", d.body, d.ty))
    for name, t, _ in nat_corpus(max_depth=7):
        out.append((name, t, NAT))
    for name, src, oracle in STREAMS:
        t = term(src)
        out.append((f"stream {name}", t, STREAM_G))
        out.append((f"{name}[9]", element_probe(t, 9), NAT))
    for n in range(40, 200, 6):
        out.append((f"ladder {n}", term(_arith_ladder(n)), NAT))
    return out


# ---------------------------------------------------------------------------
# Fixed-point law probes: lhs = fix phi (possibly instantiated), and the
# law compares it observably with phi (next lhs).

_SG = "mu a. Nat * |>a"

# (name, lhs source, phi source, argument sources, observation kind)
FIX_LAW = [
    ("zeros", "zeros", "(\\s. consg 0 s)", [], "stream"),
    ("toggle", "toggle", "(\\s. consg 1 (next (consg 0 s)))", [], "stream"),
    ("paperfolds", "paperfolds", "(\\s. interleave toggle s)", [], "stream"),
    (
        "mapg",
        "mapg (\\x. succ x)",
        "(\\m. \\s. consg ((\\x : Nat. succ x) (hdg s)) (m <*> tlg s))",
        ["zeros"],
        "stream",
    ),
    (
        "iterate",
        "iterate (next (\\x. succ x))",
        "(\\g. \\x. consg x (g <*> ((next (\\x : Nat. succ x)) <*> next x)))",
        ["0"],
        "stream",
    ),
    (
        "iterate'",
        "iterate' (\\x. succ x)",
        "(\\g. \\x. consg x (g <*> next ((\\x : Nat. succ x) x)))",
        ["0"],
        "stream",
    ),
    (
        "interleave",
        "interleave",
        "(\\g. \\s. \\t. consg (hdg s) (g <*> t <*> next (tlg s)))",
        ["toggle", "(next zeros)"],
        "stream",
    ),
    (
        "interleave'",
        "interleave'",
        "(\\g. \\s. \\t. consg (hdg s) (g <*> next t <*> tlg s))",
        ["toggle", "zeros"],
        "stream",
    ),
    (
        "initial",
        "initial",
        "(\\g. \\f. \\s. f (hdg s, g <*> next f <*> tlg s))",
        ["(\\p. fst p)", "paperfolds"],
        "nat",
    ),
    (
        "final",
        "final",
        "(\\g. \\f. \\x. consg (fst (f x)) (g <*> next f <*> snd (f x)))",
        ["(\\x. (x, next (succ x)))", "0"],
        "stream",
    ),
    (
        "every2nd",
        "every2nd",
        "(\\g. \\s. consg (hd s) (g <*> next (tl (tl s))))",
        ["(box (iterate' (\\x. succ x) 0))"],
        "stream",
    ),
    (
        "diag",
        "diag",
        "(\\f. \\s. consg (hd (hdS s)) (f <*> next (tlS (tlS s))))",
        ["rows"],
        "stream",
    ),
    (
        "infinity",
        "infinity",
        "(\\n. fold[mu a. Unit + |>a] (inr[Unit + |>(mu a. Unit + |>a)] n))",
        [],
        "conat",
    ),
]


def fix_law_sides(name):
    """(fix phi args, phi (next (fix phi)) args, observation kind), with
    phi ascribed |>T -> T for the type T of fix phi, so that both sides
    elaborate; an ascription is transparent to the machines."""
    for n, lhs, phi, args, kind in FIX_LAW:
        if n == name:
            fx = term(lhs)
            fty = elaborate({}, fx)[1]
            left, right = fx, App(Ascribe(term(phi), Arrow(Later(fty), fty)), Next(fx))
            for a in args:
                left, right = App(left, term(a)), App(right, term(a))
            return left, right, kind
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Rejection suite: (description, source, expected error code)

ILL_TYPED = [
    (
        "paperfolds' (interleave' s toggle)",
        f"fix[{_SG}] (\\s. interleave' s toggle)",
        "TypeMismatch",
    ),
    ("circular (fix of identity)", f"fix[{_SG}] (\\s. s)", "TypeMismatch"),
    (
        "prev with non-constant substitution",
        "\\x : |>Nat. prev{y<-x}. y",
        "NonConstantSubstType",
    ),
    (
        "escaping variable in prev body",
        "\\x : Nat. prev{}. next x",
        "EscapingVariable",
    ),
]

ILL_FORMED_TYPES = [
    ("mu under box-later", "mu a. #|>a", "OpenBox"),
    ("mu under later-box", "mu a. |>#a", "OpenBox"),
    ("unguarded mu", "mu a. Nat * a", "UnguardedMu"),
    ("unbound type variable", "Nat * b", "UnboundTypeVar"),
]


# ---------------------------------------------------------------------------
# Seeded random types for the metric lemmas.  Box is only ever applied
# to closed types, matching type formation.


def random_type(rng, tyvars=(), depth=3):
    leaves = [NAT, UNIT, VOID] + [TVar(v) for v in tyvars]
    if depth <= 0:
        return rng.choice(leaves)
    k = rng.randrange(8)
    if k == 0:
        return rng.choice(leaves)
    if k == 1:
        return Prod(random_type(rng, tyvars, depth - 1), random_type(rng, tyvars, depth - 1))
    if k == 2:
        return Sum(random_type(rng, tyvars, depth - 1), random_type(rng, tyvars, depth - 1))
    if k == 3:
        return Arrow(random_type(rng, tyvars, depth - 1), random_type(rng, tyvars, depth - 1))
    if k == 4:
        return Later(random_type(rng, tyvars, depth - 1))
    if k == 5:
        return Box(random_type(rng, (), depth - 1))
    if k == 6:
        v = f"m{depth}"
        return Mu(v, Later(random_type(rng, tyvars + (v,), depth - 1)))
    return rng.choice(leaves)


def glam_arity(ty) -> int:
    """Number of curried arguments of an arrow type."""
    k = 0
    while isinstance(ty, Arrow):
        k += 1
        ty = ty.cod
    return k
