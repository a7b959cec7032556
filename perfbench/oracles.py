"""Expected outputs computed apart from glam.

Every stream element, BDE row and Nat value the benchmark checks comes
from here: closed forms and plain-Python recurrences, never from glam's
own evaluators or from a stored copy of their output.
"""

from __future__ import annotations


def paperfolds(i: int) -> int:
    """Regular paperfolding: 1 when the odd part of i+1 is 1 mod 4."""
    m = i + 1
    while m % 2 == 0:
        m //= 2
    return 1 if m % 4 == 1 else 0


def thue_morse(i: int) -> int:
    """Parity of the number of ones in the binary expansion of i."""
    return bin(i).count("1") % 2


def fibonacci_word(n: int) -> list:
    """The first n letters of the fixed point of 0 -> 01, 1 -> 0."""
    w = [0]
    while len(w) < n:
        w = [c for x in w for c in ((0, 1) if x == 0 else (0,))]
    return w[:n]


def toggle(i: int) -> int:
    return 1 - i % 2


def interleave_toggle_paperfolds(i: int) -> int:
    return toggle(i // 2) if i % 2 == 0 else paperfolds(i // 2)


def _pointwise(f):
    return lambda n: [f(i) for i in range(n)]


# Observed streams: name -> (glam source, prefix of length n).  The
# sources resolve against the prelude, extras.gl, programs/demo.gl and
# the benchmark's own programs/bench.gl.
STREAMS = {
    "zeros": ("zeros", _pointwise(lambda i: 0)),
    "toggle": ("toggle", _pointwise(toggle)),
    "paperfolds": ("paperfolds", _pointwise(paperfolds)),
    "map-succ-zeros": ("mapg (\\x. succ x) zeros", _pointwise(lambda i: 1)),
    "interleave": ("interleave toggle (next paperfolds)",
                   _pointwise(interleave_toggle_paperfolds)),
    "iterate-succ": ("iterate' (\\x. succ x) 0", _pointwise(lambda i: i)),
    "every2nd": ("every2nd (box (iterate' (\\x. succ x) 0))", _pointwise(lambda i: 2 * i)),
    "diag-rows": ("diag rows", _pointwise(lambda i: 2 * i)),
    "thuemorse": ("toNat thuemorse", _pointwise(thue_morse)),
    "fibonacci": ("toNat fibonacci", fibonacci_word),
    "nats": ("nats", _pointwise(lambda i: i)),
    "squares": ("squares", _pointwise(lambda i: i * i)),
    "evens": ("evens", _pointwise(lambda i: 2 * i)),
}


def stream_element(name: str, k: int) -> int:
    return STREAMS[name][1](k + 1)[k]


# ---------------------------------------------------------------------------
# Stream calculus (programs/streams.bde) on argument prefixes


BDE_ARGS = {
    "zeros": lambda n: [0] * n,
    "toggle": _pointwise(toggle),
    "nats": _pointwise(lambda i: i),
}


def bde_row(name: str, args, n: int) -> list:
    """The first n elements of a streams.bde equation applied to the
    named argument streams: constants, the pointwise sum and the
    Cauchy convolution of the argument prefixes."""
    xs = [BDE_ARGS[a](n) for a in args]
    if name == "zeros":
        return [0] * n
    if name == "five":
        return [5] + [0] * (n - 1)
    if name == "plus":
        return [a + b for a, b in zip(*xs)]
    if name == "times":
        a, b = xs
        return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n)]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Closed Nat programs with known values.  Each template takes small
# integers a, b, c; the value is computed here by ordinary arithmetic.

NAT_TEMPLATES = [
    ("addN", "addN {a} {b}", lambda a, b, c: a + b),
    ("mulN", "mulN {a} {b}", lambda a, b, c: a * b),
    ("beta2", "(\\x : Nat. \\y : Nat. mulN x y) {a} {b}", lambda a, b, c: a * b),
    ("fst", "fst ({a}, {b})", lambda a, b, c: a),
    ("case-inl", "case (inl[Nat + Nat] {a}) of inl x -> x | inr y -> 0", lambda a, b, c: a),
    ("case-inr", "case (inr[Nat + Nat] {a}) of inl x -> 0 | inr y -> succ y",
     lambda a, b, c: a + 1),
    ("unbox-box", "unbox (box (mulN {a} {b}))", lambda a, b, c: a * b),
    ("thrice", "(\\f : Nat -> Nat. \\x : Nat. f (f (f x))) (\\y. addN y {a}) {b}",
     lambda a, b, c: b + 3 * a),
    ("lift1", "unbox (lift1 (\\x. mulN x x) (box {a}))", lambda a, b, c: a * a),
    ("iterate", "hdg (iterate (next (\\x. addN x {a})) {b})", lambda a, b, c: b),
    ("initial", "initial (\\p. fst p) (iterate' (\\x. succ x) {a})", lambda a, b, c: a),
    ("final", "hdg (final (\\x. (x, next (succ x))) {a})", lambda a, b, c: a),
    ("prev-subst", "prev{{x<-{a}}}. next x", lambda a, b, c: a),
    ("boxp", "case (boxp (inl[Nat + Unit] {a})) of inl b -> unbox b | inr u -> 0",
     lambda a, b, c: a),
    ("section", "(\\g : Nat -> Nat. g {a}) (addN {b})", lambda a, b, c: a + b),
    ("succ-prim", "succ (addN {a} {b})", lambda a, b, c: a + b + 1),
    ("mapConst", "hd (tl (mapConst (\\x. addN x {a}) (box toggle)))", lambda a, b, c: a),
    ("thirdg", "prev (prev (thirdg (iterate' (\\x. succ x) {a})))", lambda a, b, c: a + 2),
    ("cons", "second (cons {a} (box (iterate' (\\x. succ x) {b})))", lambda a, b, c: b),
    ("pred-inf", "case (pred (box infinity)) of inl u -> 0 | inr m -> {a}", lambda a, b, c: a),
    ("interleave'", "hdg (interleave' (iterate' (\\x. succ x) {a}) zeros)", lambda a, b, c: a),
    ("arith", "mulN (addN {a} {b}) (addN {c} 1)", lambda a, b, c: (a + b) * (c + 1)),
]


def element_probe(src: str, k: int) -> str:
    """fst (unfold .) of the k-th tail of a guarded stream, each tail
    taken with a closed prev."""
    cur = f"({src})"
    for _ in range(k):
        cur = f"(prev (snd (unfold {cur})))"
    return f"fst (unfold {cur})"


def ladder(n: int) -> str:
    src = "0"
    for _ in range(n):
        src = f"addN 1 ({src})"
    return src
