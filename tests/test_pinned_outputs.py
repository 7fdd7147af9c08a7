"""Byte-level pins on the rewrite engine's output.

Digests guard refactors of `steps` and `datagen`: one over a fixed generate
schedule, one over the traces of a seeded corpus of grammar-shaped trees that
reaches corners the generator never produces (nested `(`/`[` groups,
bracketed negative power bases, unary minus on groups, fraction-mode sign
pairs through brackets), and one per digit phase over int-mixed records. A
change to any digest is a change to the published trace format, never a
refactor.
"""

import hashlib
import io
import random

import pytest

from stepmath.datagen import GenSpec, build_record, default_curriculum, generate_dataset
from stepmath.errors import StepmathError
from stepmath.expr import Chain, FractionLit, Group, Lit, Node, Unary, parse, print_expr
from stepmath.numeric import Frac
from stepmath.steps import render_trace, trace

GENERATE_DIGEST = "sha256:cb566750b5d8473308cc98bd2604bb6ec8c848695d06c8c77654bb5247f6915a"
# sha256 of the whole manifest JSON of that schedule: digest and histograms
MANIFEST_DIGEST = "sha256:99be6919e90cf67497559ac8ba26538e62b0437dcf40ca1c08ce90a51b1eb1c7"
CORPUS_DIGEST = "sha256:be1d2bcc367645f59ef9eac719e577d073e40629716c6e7e05c29267232f5539"
# 2,000 int-mixed records per digit phase: line, op count and digit count
INT_MIXED_DIGESTS = {
    (1, 5): "sha256:b489962fc9da973323c3b35d0c9970ad6751cdd3572831e911c23c7878bb1abe",
    (5, 12): "sha256:8eae71381d9258e1153a38ffe4f2eb6dfe3c527bc594b895cd63dd8ae3816504",
}

# Hand-picked rows the random corpus might miss.
FIXED_ROWS = [
    ("(-7)^2", "standard"),
    ("((-7))^2", "standard"),
    ("[(-7)^2+1]*3", "standard"),
    ("2*[(-7)^3-(-2)^2]", "standard"),
    ("-(3+4)*-(5-9)", "standard"),
    ("-[2*(3-8)]/-(4)", "standard"),
    ("1-(2-(3-(4-9)))", "standard"),
    ("[(1-3)*(2-5)]^2", "standard"),
    ("3*-(2/-(4))*-5", "standard"),
    ("[(-(3/4))*(5/6)]*-(7/8)", "fraction"),
    ("(-(1/2)*(3/4))/-(5/6)", "fraction"),
    ("[(1/2)*-(3/4)*(5/6)]/[-(7/8)*(9/10)]", "fraction"),
    ("-((2/3)*(4/5))*-(6/7)+(1/3)", "fraction"),
    ("(2/4)*(3/6)-[(1/2)/(-(1/4))]", "fraction"),
]


def _int_lit(rng) -> Lit:
    v = rng.choice((0, 1, 2, rng.randint(1, 99), rng.randint(100, 99999)))
    if rng.random() < 0.25 and v:
        return Lit(-v, f"-{v}")
    return Lit(v, str(v))


def _leaf(rng, mode: str) -> Node:
    roll = rng.random()
    if mode == "fraction" and roll < 0.7:
        num, den = rng.randint(1, 99), rng.randint(1, 99)
        text = f"({num}/{den})"
        if rng.random() < 0.3:
            return FractionLit(Frac(-num, den), f"-{text}")
        return FractionLit(Frac(num, den), text)
    if roll < 0.8:
        return _int_lit(rng)
    if roll < 0.9:
        text = f"{rng.randint(0, 999)}.{rng.randint(0, 99)}"
        return Lit(float(text), text)
    v = rng.randint(1, 999)
    return Lit(v, f"{v}%")


def _tree(rng, mode: str, depth: int = 0) -> Node:
    kind = rng.randint(0, 11) if depth < 5 else 0
    if kind <= 2:
        return _leaf(rng, mode)
    if kind == 3:
        return Group(rng.choice("(["), _tree(rng, mode, depth + 1))
    if kind == 4:
        inner = _tree(rng, mode, depth + 1)
        if not isinstance(inner, Group):
            inner = Group(rng.choice("(["), inner)
        return Unary("-", inner)
    if kind == 5:
        # a power whose base is a literal or a bracket, often a negative one
        if rng.random() < 0.5:
            v = rng.randint(1, 30)
            base: Node = Group(rng.choice("(["), Lit(-v, f"-{v}"))
        else:
            base = _tree(rng, mode, depth + 1)
            if not isinstance(base, (Lit, Group)) or isinstance(base, Lit) and base.value < 0:
                base = Group("(", base)
        v = rng.randint(0, 5)
        return Chain("^", (base, Lit(v, str(v))))
    op = rng.choice("*/" if kind >= 9 else "+-*/")
    return Chain(op, (_tree(rng, mode, depth + 1), _tree(rng, mode, depth + 1)))


def _corpus() -> list[tuple[str, str]]:
    rng = random.Random(20230906)
    rows = list(FIXED_ROWS)
    for i in range(1500):
        mode = "fraction" if i % 3 == 2 else "standard"
        rows.append((print_expr(_tree(rng, mode)), mode))
    return rows


def _outcome(text: str, mode: str) -> str:
    try:
        t = trace(parse(text, mode), mode)
    except StepmathError as err:
        return f"{text}!{type(err).__name__}:{err}"
    return render_trace(t) + "#" + ",".join(t.rules)


@pytest.fixture(scope="module")
def manifest():
    return generate_dataset(default_curriculum(3000, seed=777, tail_count=500), io.BytesIO())


def test_generate_digest_is_pinned(manifest):
    assert manifest.content_digest == GENERATE_DIGEST


def test_generate_manifest_is_pinned(manifest):
    assert "sha256:" + hashlib.sha256(manifest.to_json().encode()).hexdigest() == MANIFEST_DIGEST


@pytest.mark.parametrize("digits", sorted(INT_MIXED_DIGESTS))
def test_int_mixed_digest_is_pinned(digits):
    spec = GenSpec("int-mixed", digit_range=digits, seed=20230906)
    h = hashlib.sha256()
    for i in range(2000):
        line, ops, width = build_record(spec, i)
        h.update(f"{line}#{ops}#{width}\n".encode())
    assert "sha256:" + h.hexdigest() == INT_MIXED_DIGESTS[digits]


def test_grammar_corpus_digest_is_pinned():
    rows = _corpus()
    outcomes = [_outcome(text, mode) for text, mode in rows]
    # the corpus reaches the corners it claims to
    assert sum("#" in o for o in outcomes) > 1000
    assert "(-7)^2=49#binop" in outcomes
    assert sum("[" in text for text, _ in rows) > 300
    assert sum("-(" in text or "-[" in text for text, _ in rows) > 300
    # fraction-mode cancellations that marked the chain head with `+`
    assert sum(mode == "fraction" and "sign" in o.partition("#")[2]
               and "+" in o.partition("#")[0]
               for (_, mode), o in zip(rows, outcomes)) > 20

    h = hashlib.sha256()
    for (_, mode), o in zip(rows, outcomes):
        h.update(f"{mode}:{o}\n".encode())
    assert "sha256:" + h.hexdigest() == CORPUS_DIGEST
