"""Shared golden data and independent oracles.

The oracles here deliberately avoid the library's own arithmetic: schoolbook
digit-list big-integer routines, cross-multiplication rational checks, and
decimal-string rounding. They are the second route every dual-checked result
is verified against.
"""

from __future__ import annotations

import pytest

from stepmath.errors import UnknownId, UnknownSymbol
from stepmath.steps import next_step
from stepmath.tokenizer import MARKER, PAD

# Published step-by-step traces, reproduced byte-for-byte. The bracket example
# that prints its first snapshot twice in the source table is pinned here in
# de-duplicated form (the engine never emits identical adjacent snapshots).
GOLDEN_TRACES = [
    ("1+8/1*10+2", "standard", "1+8/1*10+2=1+8*10+2=1+80+2=81+2=83"),
    ("53-2+23+51*56", "standard", "53-2+23+51*56=53-2+23+2856=51+23+2856=74+2856=2930"),
    (
        "214-792*509*260*556",
        "standard",
        "214-792*509*260*556=214-403128*260*556=214-104813280*556"
        "=214-58276183680=-58276183466",
    ),
    (
        "1912*6800*6022-7250-1624",
        "standard",
        "1912*6800*6022-7250-1624=13001600*6022-7250-1624"
        "=78295635200-7250-1624=78295627950-1624=78295626326",
    ),
    ("5170^0", "standard", "5170^0=1"),
    ("1^8756", "standard", "1^8756=1"),
    ("3^9", "standard", "3^9=19683"),
    ("93^18", "standard", "93^18=270827695297250208363869180422467849"),
    ("100^13", "standard", "100^13=100000000000000000000000000"),
    (
        "((49/24)*-(8/70))/-(34/80)",
        "fraction",
        "((49/24)*-(8/70))/-(34/80)=(+(49/24)*(8/70))/(34/80)=(392/1680)/(34/80)"
        "=(7/30)/(34/80)=(7/30)*(80/34)=(560/1020)=28/51",
    ),
    (
        "(9947/9276)+(4411/9276)",
        "fraction",
        "(9947/9276)+(4411/9276)=14358/9276=2393/1546",
    ),
    (
        "-7805+(4383/7377)",
        "standard",
        "-7805+(4383/7377)=-7805+0.5941439609597398=-7804.40585603904",
    ),
    ("8371*(-1945+8878)", "standard", "8371*(-1945+8878)=8371*6933=58036143"),
    (
        "(-2090-5457.35697)*73.0",
        "standard",
        "(-2090-5457.35697)*73.0=-7547.35697*73.0=-550957.05881",
    ),
    (
        "-4457+(-7823/5483%)*-3338",
        "standard",
        "-4457+(-7823/5483%)*-3338=-4457+(-7823/54.83)*-3338"
        "=-4457+(-142.6773664052526)*-3338=-4457+-142.6773664052526*-3338"
        "=-4457+142.6773664052526*3338=-4457+476257.0490607332=471800.0490607332",
    ),
]

# Published tokenization rows: input text and exact id sequence.
GOLDEN_TOKENIZATION = [
    (
        "12345+345=",
        [20005, 20009, 20010, 20013, 20016, 20015, 20065, 20013, 20016, 20015, 20054],
    ),
    (
        "1234-45678=",
        [20005, 20009, 20010, 20013, 20016, 20011, 20016, 20015, 20021, 20025, 20023, 20054],
    ),
    ("34*678=", [20005, 20013, 20016, 20032, 20021, 20025, 20023, 20054]),
    ("1.2/2=", [20005, 20009, 20007, 20010, 20026, 20010, 20054]),
    (
        "(1.2*3%)/2+[(12+3)*5]=",
        [20005, 20020, 20009, 20007, 20010, 20032, 20013, 20040, 20014, 20026,
         20010, 20065, 20052, 20020, 20009, 20010, 20065, 20013, 20014, 20032,
         20015, 20042, 20054],
    ),
]

# Failure-analysis rows: (input, model output, ground-truth trace). Every model
# output scores incorrect under two-decimal accuracy.
ERROR_TABLE_ROWS = [
    (
        "3468*4046/7424=",
        "14031528/7424=1889.901400862069",
        "14031528/7424=1890.0226293103449",
    ),
    (
        "(3626*8919)/8861=",
        "32330294/8861=3648.605574991536",
        "32340294/8861=3649.7341157882856",
    ),
    (
        "7715/4791*7691-1968*9155=",
        "1.610311*7691-1968*9155=12384.801801-1968*9155"
        "=12384.801801-18017040=-18004655.198199",
        "1.610311*7691-1968*9155=12384.9018993-1968*9155"
        "=12384.9018993-18017040=-18004655.098100606",
    ),
    (
        "(4059+7011.8718)-4038.22*847.15907=",
        "(4059+7011.8718)-4038.22*847.15907=11070.8718-4038.22*847.15907"
        "=11070.8718-3420014.6996554=-3408943.8278554",
        "(4059+7011.8718)-4038.22*847.15907=11070.8718-4038.22*847.15907"
        "=11070.8718-3421014.6996554=-3409943.8278554003",
    ),
    (
        "7499-5747.91007/-5438*-439=",
        "7499-5747.91007/5438*439=7499-1.0570081040823832*439"
        "=7499-464.0265576921662=7034.973442307834",
        "7499-5747.91007/5438*439=7499-1.056989715*439"
        "=7499-464.0184848713=7034.981515128724",
    ),
    (
        "3868*6735*5755+3741-7533=",
        "26050980*5755+3741-7533=159923389900+3741-7533"
        "=159923393641-7533=159923386108",
        "26050980*5755+3741-7533=149923389900+3741-7533"
        "=149923393641-7533=149923386108",
    ),
]


# ---------------------------------------------------------------------------
# independent oracles


def schoolbook_digits(n: int) -> list[int]:
    return [int(c) for c in str(abs(n))][::-1]  # little-endian


def _digits_to_int(ds: list[int]) -> int:
    return int("".join(str(d) for d in reversed(ds)) or "0")


def schoolbook_add_magnitudes(a: list[int], b: list[int]) -> list[int]:
    out, carry = [], 0
    for i in range(max(len(a), len(b))):
        s = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) + carry
        out.append(s % 10)
        carry = s // 10
    if carry:
        out.append(carry)
    return out


def schoolbook_cmp(a: list[int], b: list[int]) -> int:
    at = a[:]
    bt = b[:]
    while at and at[-1] == 0:
        at.pop()
    while bt and bt[-1] == 0:
        bt.pop()
    if len(at) != len(bt):
        return -1 if len(at) < len(bt) else 1
    for x, y in zip(reversed(at), reversed(bt)):
        if x != y:
            return -1 if x < y else 1
    return 0


def schoolbook_sub_magnitudes(a: list[int], b: list[int]) -> list[int]:
    # requires a >= b
    out, borrow = [], 0
    for i in range(len(a)):
        d = a[i] - borrow - (b[i] if i < len(b) else 0)
        if d < 0:
            d += 10
            borrow = 1
        else:
            borrow = 0
        out.append(d)
    return out


def schoolbook_mul_magnitudes(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        carry = 0
        for j, y in enumerate(b):
            s = out[i + j] + x * y + carry
            out[i + j] = s % 10
            carry = s // 10
        k = i + len(b)
        while carry:
            s = out[k] + carry
            out[k] = s % 10
            carry = s // 10
            k += 1
    return out


def schoolbook_add(x: int, y: int) -> int:
    a, b = schoolbook_digits(x), schoolbook_digits(y)
    if (x < 0) == (y < 0):
        mag = schoolbook_add_magnitudes(a, b)
        sign = -1 if x < 0 else 1
    else:
        c = schoolbook_cmp(a, b)
        if c == 0:
            return 0
        if c > 0:
            mag = schoolbook_sub_magnitudes(a, b)
            sign = -1 if x < 0 else 1
        else:
            mag = schoolbook_sub_magnitudes(b, a)
            sign = -1 if y < 0 else 1
    return sign * _digits_to_int(mag)


def schoolbook_sub(x: int, y: int) -> int:
    return schoolbook_add(x, -y)


def schoolbook_mul(x: int, y: int) -> int:
    mag = _digits_to_int(schoolbook_mul_magnitudes(schoolbook_digits(x), schoolbook_digits(y)))
    if x == 0 or y == 0:
        return 0
    return -mag if (x < 0) != (y < 0) else mag


def string_round_2dp(text: str) -> str:
    """Round a plain decimal string to two places, half away from zero, by pure
    string and integer manipulation (no binary floating point involved)."""
    neg = text.startswith("-")
    t = text.lstrip("+-")
    whole, _, frac = t.partition(".")
    frac = (frac + "000")[: max(len(frac), 3)]
    keep, rest = frac[:2].ljust(2, "0"), frac[2:]
    cents = int(whole or "0") * 100 + int(keep or "0")
    if rest and int(rest) * 2 >= 10 ** len(rest):
        cents += 1
    return ("-" if neg and cents else "") + f"{cents // 100}.{cents % 100:02d}"


# ---------------------------------------------------------------------------
# Tokenizer references: the per-character and per-id loops that the
# table-driven Vocab.encode and Vocab.decode must agree with.


# symbols outside the vocabulary, most with a record symbol's low byte ("1" is
# 0x31, "丱" U+4E31), and a lone surrogate, which UTF-8 cannot encode
BAD_SYMBOLS = [chr(0x100 + ord("1")), "\u4e31", MARKER, "\x00", "\n", "\ud800"]


def reference_encode(vocab, text):
    ids = [vocab.marker_id]
    for i, ch in enumerate(text):
        if ch in (MARKER, PAD):
            raise UnknownSymbol(ch, i)
        try:
            ids.append(vocab.id_of(ch))
        except KeyError:
            raise UnknownSymbol(ch, i) from None
    return ids


def reference_decode(vocab, ids):
    out = []
    for tid in ids:
        if tid == vocab.marker_id or tid == vocab.pad_id:
            continue
        sym = next((s for s in vocab.provenance if vocab.id_of(s) == tid), None)
        if sym is None:
            raise UnknownId(tid)
        out.append(sym)
    return "".join(out)


@pytest.fixture(scope="session")
def golden_traces():
    return GOLDEN_TRACES


def step_trees(tree, mode: str):
    """The trees a trace steps through, `tree` first, and the rule of each
    step: a trace keeps only their texts."""
    trees, rules = [tree], []
    step = next_step(tree, mode)
    while step is not None:
        trees.append(step[0])
        rules.append(step[1])
        step = next_step(step[0], mode)
    return trees, rules
