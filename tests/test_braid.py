"""Braid words, the Garside normal form against an Artin-action reference, the
cabling operad, linking numbers, and Artin's relations on cabled generators."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbraid import braid, fission, selfcheck
from wildbraid.braid import (
    BraidWord,
    block_braid,
    braids_equal,
    cabled_group_generators,
    direct_sum,
    format_word,
    gamma,
    identity,
    is_identity_braid,
    is_pure,
    leaves_under,
    linking_matrix,
    normal_form,
    parse_word,
    permutation,
    pure_generator,
    word,
)
from wildbraid.rootsys import build_root_system, project_traceless

FIG2_WORD = parse_word("s1^-1 s1^-1 s2 s1 s1 s2", 3)


def braid_words(max_strands=5, max_len=8):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))),
            max_size=max_len,
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )


def random_pure_word(rng, n, length):
    """Random pure braid: product of conjugated squares."""
    out = identity(n)
    while len(out.letters) < length and n >= 2:
        i = rng.randint(1, n - 1)
        s = rng.choice((1, -1))
        out = out * word(n, (i, s), (i, s))
    return out


# ---------------------------------------------------------------------------
# Permutations and purity
# ---------------------------------------------------------------------------


def test_permutation_single_crossing():
    b = word(2, (1, 1))
    assert permutation(b) == (2, 1)
    assert not is_pure(b)


def test_permutation_square_is_pure():
    b = word(2, (1, 1), (1, 1))
    assert permutation(b) == (1, 2)
    assert is_pure(b)


def test_permutation_s1s2s1():
    b = word(3, (1, 1), (2, 1), (1, 1))
    assert permutation(b) == (3, 2, 1)


# ---------------------------------------------------------------------------
# Artin action on the free group: the short-word reference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word; letters are signed 1-based generator indices."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple(_inv(self.letters)))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, tuple(_mul(self.letters, other.letters)))


def _inv(x) -> list[int]:
    return [-t for t in reversed(x)]


def _mul(*words) -> list[int]:
    out: list[int] = []
    for w in words:
        for t in w:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
    return out


def _artin_images(b: BraidWord) -> list[list[int]]:
    imgs: list[list[int]] = [[j] for j in range(1, b.strands + 1)]
    for g, s in b.letters:
        i = g - 1
        a, c = imgs[i], imgs[i + 1]
        if s > 0:
            imgs[i], imgs[i + 1] = _mul(a, c, _inv(a)), a
        else:
            imgs[i], imgs[i + 1] = c, _mul(_inv(c), a, c)
    return imgs


def artin_action(b: BraidWord) -> tuple[FreeWord, ...]:
    """Images of the free generators x_1..x_n under the braid automorphism
    (s_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i).

    The action is faithful and a homomorphism into Aut(F_n) with composition
    (f o g)(x) = f(g(x)), so equal images decide equality; the image words
    grow exponentially with the braid word, so it serves short words only.
    """
    return tuple(FreeWord(b.strands, tuple(w)) for w in _artin_images(b))


def artin_equal(a: BraidWord, b: BraidWord) -> bool:
    return _artin_images(a) == _artin_images(b)


def test_artin_identity_word():
    imgs = artin_action(identity(3))
    assert [w.letters for w in imgs] == [(1,), (2,), (3,)]


def test_artin_single_generator():
    imgs = artin_action(word(2, (1, 1)))
    assert imgs[0].letters == (1, 2, -1)  # x1 x2 x1^-1
    assert imgs[1].letters == (1,)


def test_artin_cancellation():
    imgs = artin_action(word(2, (1, 1), (1, -1)))
    assert [w.letters for w in imgs] == [(1,), (2,)]


def apply_images(images, freeword):
    out = images[0].__class__(freeword.rank, ())
    for t in freeword.letters:
        img = images[abs(t) - 1]
        out = out * (img if t > 0 else img.inverse())
    return out


@settings(max_examples=120, deadline=None)
@given(braid_words(), braid_words())
def test_artin_action_is_homomorphism(a, b):
    if a.strands != b.strands:
        b = BraidWord(a.strands, tuple((min(g, a.strands - 1), s) for g, s in b.letters))
    ab = artin_action(a * b)
    ia, ib = artin_action(a), artin_action(b)
    for j in range(a.strands):
        assert ab[j] == apply_images(ia, ib[j])


@settings(max_examples=80, deadline=None)
@given(braid_words())
def test_artin_action_inverse(a):
    assert all(
        img.letters == (j + 1,)
        for j, img in enumerate(artin_action(a * a.inverse()))
    )


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------


def test_braid_relation():
    assert braids_equal(word(3, (1, 1), (2, 1), (1, 1)), word(3, (2, 1), (1, 1), (2, 1)))


def test_opposite_crossings_differ():
    assert not braids_equal(word(2, (1, 1)), word(2, (1, -1)))


def test_strand_count_mismatch_rejected():
    with pytest.raises(ValueError):
        braids_equal(identity(2), identity(3))


def test_parse_word_reads_ascii_digits_only():
    assert parse_word("s2 s1^-1 s10", 11) == word(11, (2, 1), (1, -1), (10, 1))
    assert format_word(parse_word("s2 s1^-1", 3)) == "s2 s1^-1"
    # An Arabic-Indic one and a superscript two are digits to str.isdigit.
    for token in ("s١", "s²", "s²^-1", "s", "t1", "s-1", "s1^2"):
        with pytest.raises(ValueError, match="bad braid token"):
            parse_word(token, 3)


@settings(max_examples=60, deadline=None)
@given(braid_words(max_strands=4, max_len=6), braid_words(max_strands=4, max_len=6))
def test_equality_refines_permutation_and_linking(a, b):
    if a.strands != b.strands:
        return
    if braids_equal(a, b):
        assert permutation(a) == permutation(b)
        if is_pure(a):
            assert linking_matrix(a) == linking_matrix(b)


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=4, max_len=6))
def test_equality_invariant_under_insertion(a):
    # a equals a with ss^-1 spliced in: equivalence survives free insertion.
    n = a.strands
    padded = a * word(n, (1, 1), (1, -1))
    assert braids_equal(a, padded)


# ---------------------------------------------------------------------------
# Garside normal form
# ---------------------------------------------------------------------------


def rewrite(letters, n, rng, moves):
    """Apply `moves` braid-relation rewrites at random places: the braid
    relation s_i s_j s_i = s_j s_i s_j (|i-j| = 1, same signs) or the far
    commutation s_i s_j = s_j s_i (|i-j| >= 2) where one applies, else a
    free insertion of s s^-1."""
    w = list(letters)
    for _ in range(moves):
        pos = rng.randint(0, len(w))
        (a, sa), (b, sb), (c, sc) = (w[pos:pos + 3] + [(0, 0)] * 3)[:3]
        if a and c and a == c and abs(a - b) == 1 and sa == sb == sc:
            w[pos:pos + 3] = [(b, sa), (a, sa), (b, sa)]
        elif a and b and abs(a - b) >= 2:
            w[pos], w[pos + 1] = w[pos + 1], w[pos]
        else:
            g, sign = rng.randint(1, n - 1), rng.choice((1, -1))
            w[pos:pos] = [(g, sign), (g, -sign)]
    return w


def random_letters(rng, n, length):
    return [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]


def half_twist(n):
    """Delta = s_1 (s_2 s_1) ... (s_{n-1} .. s_1), positive."""
    return BraidWord(n, tuple((g, 1) for top in range(1, n) for g in range(top, 0, -1)))


@st.composite
def word_pairs(draw):
    """(a, b, kind) on n <= 5 strands from a word of at most 10 letters.

    Equal kinds: a relation rewrite; s s^-1 inserted; a conjugate x = c a c^-1
    against Delta tau(x) Delta^-1 (tau: s_i -> s_(n-i)).  Unequal kinds: one
    letter's sign flipped (the exponent sum moves by 2); unrelated words.
    """
    n = draw(st.integers(2, 5))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    a = draw(st.lists(letter, max_size=10))
    kinds = ("relations", "insertion", "conjugate", "flipped", "other")
    kind = draw(st.sampled_from(kinds if a else kinds[:3] + kinds[4:]))
    if kind == "relations":
        b = rewrite(a, n, random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 4)))
    elif kind == "insertion":
        pos, (g, sign) = draw(st.integers(0, len(a))), draw(letter)
        b = a[:pos] + [(g, sign), (g, -sign)] + a[pos:]
    elif kind == "conjugate":
        c = BraidWord(n, tuple(draw(st.lists(letter, max_size=3))))
        x = c * BraidWord(n, tuple(a)) * c.inverse()
        delta = half_twist(n)
        a = list(x.letters)
        b = list((delta * BraidWord(n, tuple((n - g, s) for g, s in a)) * delta.inverse()).letters)
    elif kind == "flipped":
        pos = draw(st.integers(0, len(a) - 1))
        b = a[:pos] + [(a[pos][0], -a[pos][1])] + a[pos + 1:]
    else:
        b = draw(st.lists(letter, max_size=10))
    return BraidWord(n, tuple(a)), BraidWord(n, tuple(b)), kind


@settings(max_examples=400, deadline=None)
@given(word_pairs())
def test_normal_form_agrees_with_artin_reference(pair):
    a, b, kind = pair
    same = artin_equal(a, b)
    if kind != "other":
        assert same == (kind != "flipped")
    assert (normal_form(a) == normal_form(b)) == same
    assert braids_equal(a, b) == same
    assert is_identity_braid(a * b.inverse()) == same


def ref_normal_form(b):
    """The per-letter form: each inverse letter is Delta^-1 (Delta s_i^-1) on
    its own, each letter twisted by tau when an odd number of inverse letters
    follow it, and each factor left-weighted by the engine's _left_weight."""
    n = b.strands
    ident, delta = list(range(n)), list(range(n - 1, -1, -1))
    inverses = sum(1 for _, s in b.letters if s < 0)
    cs, ps = [], []

    def push(c):
        p = [0] * n
        for at, strand in enumerate(c):
            p[strand] = at
        cs.append(c)
        ps.append(p)
        j = len(cs) - 1
        while j and braid._left_weight(cs[j - 1], ps[j - 1], cs[j], ps[j]):
            j -= 1
        while cs and cs[-1] == ident:
            cs.pop()
            ps.pop()

    k, c = -inverses, ident[:]
    for g, s in b.letters:
        if s < 0:
            inverses -= 1
        i = n - 1 - g if inverses & 1 else g - 1
        if s > 0 and c[i] < c[i + 1]:
            c[i], c[i + 1] = c[i + 1], c[i]
            continue
        if c != ident:
            push(c)
        c = ident[:] if s > 0 else delta[:]
        c[i], c[i + 1] = c[i + 1], c[i]
    if c != ident:
        push(c)
    lead = cs.count(delta)
    return k + lead, tuple(tuple(p) for p in ps[lead:])


@st.composite
def planted_words(draw, strands=st.integers(2, 18)):
    """Words of single letters, planted s s^-1 pairs and runs of inverse letters."""
    n = draw(strands)
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    chunk = st.one_of(
        letter.map(lambda x: [x]),
        letter.map(lambda x: [x, (x[0], -x[1])]),
        st.lists(st.integers(1, n - 1), min_size=1, max_size=8).map(
            lambda gs: [(g, -1) for g in gs]
        ),
    )
    return BraidWord(n, tuple(x for part in draw(st.lists(chunk, max_size=12)) for x in part))


@settings(max_examples=300, deadline=None)
@given(planted_words())
def test_normal_form_matches_per_letter_reference(b):
    assert normal_form(b) == ref_normal_form(b)


@settings(max_examples=200, deadline=None)
@given(planted_words(st.integers(2, 8)), st.data())
def test_normal_form_drops_a_cancelling_pair(u, data):
    n = u.strands
    v = data.draw(planted_words(st.just(n)))
    g, e = data.draw(st.integers(1, n - 1)), data.draw(st.sampled_from((1, -1)))
    assert normal_form(u * word(n, (g, e), (g, -e)) * v) == normal_form(u * v)


def test_half_twist_times_inverse_needs_no_left_weighting(monkeypatch):
    # Delta Delta^-1: the inverse letters cancel the factor they follow, so no
    # Delta^-1 is owed and no pair is left-weighted.
    calls = []
    weigh = braid._left_weight
    monkeypatch.setattr(braid, "_left_weight", lambda *a: calls.append(1) or weigh(*a))
    for n in range(2, 9):
        x = half_twist(n)
        assert normal_form(x * x.inverse()) == (0, ())
    assert calls == []


def starts(p):
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def finishes(p):
    c = [0] * len(p)
    for s, at in enumerate(p):
        c[at] = s
    return starts(c)


def test_normal_form_shape_and_bounds():
    # Delta^k A_1..A_r: every A_j simple and neither 1 nor Delta, each pair
    # left-weighted, k >= -(#inverse letters) and k + r <= #positive letters.
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 6)
        b = BraidWord(n, tuple(random_letters(rng, n, rng.randint(0, 40))))
        k, factors = normal_form(b)
        negative = sum(1 for _, s in b.letters if s < 0)
        assert k >= -negative
        assert k + len(factors) <= len(b) - negative
        for p in factors:
            assert sorted(p) == list(range(n))
            assert p not in (tuple(range(n)), tuple(range(n - 1, -1, -1)))
        for a, c in zip(factors, factors[1:]):
            assert starts(c) <= finishes(a)


def test_normal_form_of_delta_powers():
    delta = parse_word("s1 s2 s1", 3)
    assert normal_form(delta) == (1, ())
    assert normal_form(delta.inverse() * delta.inverse()) == (-2, ())
    assert normal_form(identity(3)) == (0, ())
    assert normal_form(word(3, (1, 1))) == (0, ((1, 0, 2),))


def test_equality_on_1000_letter_words():
    # The Artin images of such words run to astronomically many letters; the
    # normal form is polynomial in the word length.
    rng = random.Random(1000)
    letters = random_letters(rng, 4, 1000)
    rewritten = rewrite(letters, 4, rng, 200)
    assert rewritten != letters
    assert braids_equal(BraidWord(4, tuple(letters)), BraidWord(4, tuple(rewritten)))


# ---------------------------------------------------------------------------
# The Burau pass: it can only say "different"
# ---------------------------------------------------------------------------


@st.composite
def relation_sides(draw):
    """(lhs, rhs) on 2-12 strands: the two sides of one braid relation, far
    commutation or cancellation s s^-1 = s^-1 s = 1, between random words."""
    n = draw(st.integers(2, 12))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    u, v = (BraidWord(n, tuple(draw(st.lists(letter, max_size=8)))) for _ in range(2))
    kinds = ["cancel"] + ["braid"] * (n >= 3) + ["far"] * (n >= 4)
    kind = draw(st.sampled_from(kinds))
    e = draw(st.sampled_from((1, -1)))
    if kind == "cancel":
        i = draw(st.integers(1, n - 1))
        lhs, rhs = word(n, (i, e), (i, -e)), identity(n)
    elif kind == "braid":
        i = draw(st.integers(1, n - 2))
        lhs, rhs = word(n, (i, e), (i + 1, e), (i, e)), word(n, (i + 1, e), (i, e), (i + 1, e))
    else:
        i = draw(st.integers(1, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        f = draw(st.sampled_from((1, -1)))
        lhs, rhs = word(n, (i, e), (j, f)), word(n, (j, f), (i, e))
    return u * lhs * v, u * rhs * v


@settings(max_examples=300, deadline=None)
@given(relation_sides())
def test_burau_pass_respects_the_relations(sides):
    lhs, rhs = sides
    assert braid._burau_pass(lhs) == braid._burau_pass(rhs)


def commutator_a12_a23(n):
    a12, a23 = pure_generator(n, 1, 2), pure_generator(n, 2, 3)
    return a12 * a23 * a12.inverse() * a23.inverse()


def test_braids_equal_agrees_with_normal_form_on_3_to_33_strands():
    rng = random.Random(33)
    for n in list(range(3, 12)) + [17, 24, 33]:
        for _ in range(4):
            w = BraidWord(n, tuple(random_letters(rng, n, rng.randint(0, 40))))
            pairs = [
                (w, BraidWord(n, tuple(rewrite(w.letters, n, rng, rng.randint(1, 12))))),
                (w, w * commutator_a12_a23(n)),
            ]
            for a, b in pairs:
                same = normal_form(a) == normal_form(b)
                assert braids_equal(a, b) == same
                assert is_identity_braid(a * b.inverse()) == same
            assert braids_equal(*pairs[0]) and not braids_equal(*pairs[1])


def test_burau_pass_settles_a_long_unequal_pair_alone(monkeypatch):
    # 1,000 letters on 33 strands, the width of cable at MAX_RANK: equal
    # permutations, and the pass answers without a normal form.
    rng = random.Random(1000)
    w = BraidWord(33, tuple(random_letters(rng, 33, 1000)))
    monkeypatch.setattr(braid, "normal_form", lambda b: pytest.fail("normal form called"))
    assert not braids_equal(w, w * commutator_a12_a23(33))
    assert not is_identity_braid(commutator_a12_a23(33))


def test_equal_burau_passes_still_leave_unequal_braids_unequal(monkeypatch):
    # With every pass forced equal, True can only come from the normal form.
    monkeypatch.setattr(braid, "_burau_pass", lambda b: ((), ()))
    rng = random.Random(7)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            w = BraidWord(n, tuple(random_letters(rng, n, rng.randint(0, 20))))
            g = rng.randint(1, n - 1)
            assert not braids_equal(w, w * word(n, (g, 1)))
            assert not braids_equal(w, w * word(n, (g, 1), (g, 1)))
            assert braids_equal(w, w * word(n, (g, 1), (g, -1)))
            if n >= 3:
                assert not braids_equal(w, w * commutator_a12_a23(n))
                assert not is_identity_braid(commutator_a12_a23(n))


# ---------------------------------------------------------------------------
# Windows: free reduction, then the common prefix and suffix cut off
# ---------------------------------------------------------------------------


@st.composite
def framed_pairs(draw):
    """(P x S, P y S) on 2-6 strands, each word with up to three cancelling
    pairs s s^-1 inserted at random places.  y is x rewritten by relations,
    x with one letter's generator or sign changed, x with a prefix or suffix
    of itself added or cut off (so one reduced word can hold the other at
    both ends, and the windows overlap), or an unrelated word."""
    n = draw(st.integers(2, 6))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    words = st.lists(letter, max_size=8)
    p, x, s = draw(words), draw(words), draw(words)
    kind = draw(st.sampled_from(("relations", "generator", "sign", "repeat", "other")))
    if kind == "relations":
        y = rewrite(x, n, random.Random(draw(st.integers(0, 2**32))), draw(st.integers(1, 4)))
    elif kind in ("generator", "sign") and x:
        at = draw(st.integers(0, len(x) - 1))
        g, e = x[at]
        x_at = (g, -e) if kind == "sign" else (draw(st.integers(1, n - 1)), e)
        y = x[:at] + [x_at] + x[at + 1:]
    elif kind == "repeat":
        k = draw(st.integers(0, len(x)))
        y = draw(st.sampled_from((x + x[:k], x[k:] + x, x[:k], x[k:])))
    else:
        y = draw(words)

    def pad(w):
        for _ in range(draw(st.integers(0, 3))):
            at, (g, e) = draw(st.integers(0, len(w))), draw(letter)
            w = w[:at] + [(g, e), (g, -e)] + w[at:]
        return BraidWord(n, tuple(w))

    return pad(p + x + s), pad(p + y + s)


def assert_decided_as_whole_words(a, b):
    same = normal_form(a) == normal_form(b)
    assert braids_equal(a, b) == same
    assert braids_equal(b, a) == same
    assert is_identity_braid(a * b.inverse()) == same


@settings(max_examples=400, deadline=None)
@given(framed_pairs())
def test_braids_equal_on_windows_agrees_with_whole_normal_forms(pair):
    assert_decided_as_whole_words(*pair)


def test_windows_that_overlap_or_differ_in_one_letter():
    # One reduced word a prefix or suffix of the other, so the suffix scan
    # would run into the stripped prefix; and pairs one letter or sign apart.
    cases = [
        ("s1 s1", "s1", False),
        ("s1 s2 s1", "s1", False),
        ("s1 s1 s1", "s1", False),
        ("s1 s2 s1", "s1 s2", False),
        ("s1 s2 s1", "s2 s1 s2", True),
        ("s1 s1^-1 s1", "s1", True),
        ("s2 s1 s1^-1 s1 s1^-1", "s2^-1 s2 s2", True),
        ("s1 s2 s3 s1", "s1 s2^-1 s3 s1", False),
        ("s1 s2 s3 s1", "s1 s1 s3 s1", False),
        ("s1 s3 s2", "s3 s1 s2", True),
        ("s1 s3 s2 s2^-1", "s3 s1", True),
    ]
    for left, right, equal in cases:
        a, b = parse_word(left, 4), parse_word(right, 4)
        assert braids_equal(a, b) == braids_equal(b, a) == equal, (left, right)
        assert_decided_as_whole_words(a, b)
    assert not is_identity_braid(parse_word("s1 s1", 2))
    assert is_identity_braid(parse_word("s1 s2 s2^-1 s1^-1", 3))


def test_a_cancelling_pair_leaves_two_empty_windows(monkeypatch):
    # 1,000 letters on 33 strands against the same with one s s^-1 inserted:
    # the reduced windows are empty, so the answer comes without a Burau
    # pass or a normal form.
    rng = random.Random(1000)
    w = BraidWord(33, tuple(random_letters(rng, 33, 1000)))
    monkeypatch.setattr(braid, "normal_form", lambda b: pytest.fail("normal form called"))
    monkeypatch.setattr(braid, "_burau_pass", lambda b: pytest.fail("Burau pass called"))
    for at in (0, 1, 500, 999, 1000):
        g = rng.randint(1, 32)
        padded = BraidWord(33, w.letters[:at] + ((g, 1), (g, -1)) + w.letters[at:])
        assert braids_equal(w, padded) and braids_equal(padded, w)
    with pytest.raises(ValueError):
        braids_equal(identity(2), identity(3))
    with pytest.raises(ValueError):
        braids_equal(BraidWord(2, ((1, 1),)), BraidWord(3, ((1, 1),)))


def test_windows_when_a_cancellation_straddles_the_cut():
    # The raw common prefix ends in s_i and a window starts with s_i^-1, or a
    # window ends in s_i and the raw common suffix starts with s_i^-1: the
    # cancellation is left out of the reduction, so the window stays longer,
    # and the answer is still that of the whole words.
    cases = [
        # at the prefix
        ("s2 s1 s1^-1 s3", "s2 s1 s3 s1^-1", True),
        ("s2 s1 s1^-1 s3", "s2 s1 s3 s1", False),
        ("s1 s1^-1", "s1 s2 s2^-1 s1^-1", True),
        ("s1 s2 s2^-1 s1^-1 s3", "s1 s2 s3", False),
        ("s1 s2 s2^-1 s1^-1 s3", "s1 s2 s3 s2^-1 s1^-1", False),
        ("s1 s2 s2^-1 s1^-1 s4", "s1 s2 s4 s2^-1 s1^-1", True),
        # at the suffix
        ("s3 s1 s1^-1 s2", "s1 s3 s1^-1 s2", True),
        ("s3 s1 s1^-1 s2", "s1 s1 s1^-1 s2", False),
        ("s2 s2^-1", "s2 s1 s1^-1 s2^-1", True),
        ("s3 s1^-1 s2^-1 s2 s1", "s1^-1 s2^-1 s3 s2 s1", False),
        ("s4 s1^-1 s2^-1 s2 s1", "s1^-1 s2^-1 s4 s2 s1", True),
        # at both ends
        ("s1 s1^-1 s2 s2^-1", "s1 s2 s2^-1 s1^-1", True),
        ("s1 s1^-1 s2 s2 s2^-1", "s1 s2^-1 s2 s2^-1", False),
    ]
    for left, right, equal in cases:
        a, b = parse_word(left, 5), parse_word(right, 5)
        assert braids_equal(a, b) == braids_equal(b, a) == equal, (left, right)
        assert is_identity_braid(a * b.inverse()) == equal, (left, right)
        assert is_identity_braid(b.inverse() * a) == equal, (left, right)
        assert_decided_as_whole_words(a, b)


# ---------------------------------------------------------------------------
# direct_sum and block_braid
# ---------------------------------------------------------------------------


def test_direct_sum_identities():
    assert direct_sum([identity(2), identity(3)]) == identity(5)


def test_direct_sum_shifts_indices():
    out = direct_sum([word(2, (1, 1)), word(2, (1, 1))])
    assert out == word(4, (1, 1), (3, 1))


def test_direct_sum_with_trivial_slot():
    out = direct_sum([word(2, (1, -1), (1, -1)), identity(1)])
    assert out == word(3, (1, -1), (1, -1))


def test_block_identity_any_widths():
    assert block_braid(identity(3), [2, 0, 3]) == identity(5)


def test_block_s1_squared_widths_2_1():
    out = block_braid(word(2, (1, 1), (1, 1)), [2, 1])
    assert out == parse_word("s2 s1 s1 s2", 3)


def test_block_braid_preserves_purity_and_inverse_cancels():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 4)
        b = random_pure_word(rng, n, rng.randint(0, 6))
        widths = [rng.randint(0, 3) for _ in range(n)]
        blocked = block_braid(b, widths)
        if blocked.strands:
            assert is_pure(blocked)
        cancel = block_braid(b * b.inverse(), widths)
        if cancel.strands:
            assert is_identity_braid(cancel)


def test_block_braid_width_mismatch():
    with pytest.raises(ValueError):
        block_braid(identity(2), [1])


# ---------------------------------------------------------------------------
# gamma: cabling one strand is gamma with identity(1) on the others
# ---------------------------------------------------------------------------


def test_cable_into_single_strand_is_tau():
    tau = random_pure_word(random.Random(0), 3, 6)
    assert gamma(identity(1), [tau]) == tau


def test_cable_unit_strand_is_sigma():
    sigma = random_pure_word(random.Random(1), 3, 6)
    assert gamma(sigma, [identity(1), identity(1), identity(1)]) == sigma


def test_cable_reproduces_figure_word():
    sigma = word(2, (1, 1), (1, 1))
    tau = word(2, (1, -1), (1, -1))
    assert gamma(sigma, [tau, identity(1)]) == FIG2_WORD


def test_gamma_unity():
    sigma = random_pure_word(random.Random(2), 4, 8)
    assert gamma(sigma, [identity(1)] * 4) == sigma


def test_gamma_blocked_identity_is_direct_sum():
    rng = random.Random(5)
    taus = [random_pure_word(rng, 2, 4), random_pure_word(rng, 3, 4)]
    assert gamma(identity(2), taus) == direct_sum(taus)


def test_gamma_figure_word_bit_exact():
    out = gamma(word(2, (1, 1), (1, 1)), [word(2, (1, -1), (1, -1)), identity(1)])
    assert out == FIG2_WORD
    assert braids_equal(out, FIG2_WORD)


def test_gamma_rejects_non_pure():
    with pytest.raises(ValueError):
        gamma(word(2, (1, 1)), [identity(1), identity(1)])
    with pytest.raises(ValueError):
        gamma(identity(2), [word(2, (1, 1)), identity(1)])
    with pytest.raises(ValueError):
        gamma(identity(2), [identity(1)])


def test_gamma_homomorphism_law():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        sig1 = random_pure_word(rng, n, rng.randint(0, 4))
        sig2 = random_pure_word(rng, n, rng.randint(0, 4))
        taus1, taus2 = [], []
        for _ in range(n):
            m = rng.randint(1, 3)
            taus1.append(random_pure_word(rng, m, rng.randint(0, 4)))
            taus2.append(random_pure_word(rng, m, rng.randint(0, 4)))
        lhs = gamma(sig1 * sig2, [t1 * t2 for t1, t2 in zip(taus1, taus2)])
        rhs = gamma(sig1, taus1) * gamma(sig2, taus2)
        assert braids_equal(lhs, rhs)


def test_gamma_associativity():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 2)
        sigma = random_pure_word(rng, n, rng.randint(0, 4))
        taus = []
        rhos = []
        for _ in range(n):
            m = rng.randint(1, 2)
            taus.append(random_pure_word(rng, m, rng.randint(0, 3)))
            rhos.append([random_pure_word(rng, rng.randint(1, 2), rng.randint(0, 3)) for _ in range(m)])
        flat = [r for group in rhos for r in group]
        lhs = gamma(gamma(sigma, taus), flat)
        rhs = gamma(sigma, [gamma(t, group) for t, group in zip(taus, rhos)])
        assert braids_equal(lhs, rhs)


def test_gamma_injectivity_search():
    # Falsification: gamma(sigma; taus) trivial should force trivial inputs.
    rng = random.Random(9)
    for _ in range(2000):
        n = rng.randint(1, 3)
        sigma = random_pure_word(rng, n, rng.randint(0, 4))
        taus = [random_pure_word(rng, rng.randint(1, 3), rng.randint(0, 4)) for _ in range(n)]
        if is_identity_braid(gamma(sigma, taus)):
            assert is_identity_braid(sigma)
            assert all(is_identity_braid(t) for t in taus)


def test_purity_preserved_by_operad_ops():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randint(2, 4)
        sigma = random_pure_word(rng, n, 6)
        taus = [random_pure_word(rng, rng.randint(1, 2), 4) for _ in range(n)]
        assert is_pure(direct_sum(taus))
        assert is_pure(gamma(sigma, taus))
        assert is_pure(gamma(sigma, [taus[0]] + [identity(1)] * (n - 1)))


# ---------------------------------------------------------------------------
# Linking matrices
# ---------------------------------------------------------------------------


def test_linking_identity():
    assert linking_matrix(identity(4)) == tuple((0,) * 4 for _ in range(4))


def test_linking_full_twist_pair():
    m = linking_matrix(word(2, (1, 1), (1, 1)))
    assert m[0][1] == m[1][0] == 1


def test_linking_figure_word():
    # Signed crossing walk of s1^-1 s1^-1 s2 s1 s1 s2: the tau twist puts -1
    # on the cabled pair, the block crossings put +1 against strand 3.
    m = linking_matrix(FIG2_WORD)
    assert m == ((0, -1, 1), (-1, 0, 1), (1, 1, 0))


def test_linking_requires_pure():
    with pytest.raises(ValueError):
        linking_matrix(word(2, (1, 1)))


def test_linking_invariant_under_equality():
    rng = random.Random(12)
    for _ in range(20):
        b = random_pure_word(rng, 4, 6)
        padded = word(4, (2, 1), (2, -1)) * b
        assert braids_equal(b, padded)
        assert linking_matrix(b) == linking_matrix(padded)


# ---------------------------------------------------------------------------
# Cabled generators from trees
# ---------------------------------------------------------------------------


def sl3_tree():
    rs = build_root_system("A", 2)
    q = fission.irregular_type(rs, [(-1, 1, 0), (-1, -1, 2)])
    return fission.fission_tree(q)


def test_cabled_generators_fig3():
    tree = sl3_tree()
    groups = cabled_group_generators(tree)
    assert len(groups) == 2
    gens = {node: words for node, words in groups}
    all_gens = [g for words in gens.values() for g in words]
    assert all(g.strands == 3 for g in all_gens)
    assert all(is_pure(g) for g in all_gens)
    # One generator is s1^2 on the cabled pair, the other the blocked root twist.
    flat = [format_word(g) for g in all_gens]
    assert "s1 s1" in flat
    assert any(braids_equal(g, parse_word("s2 s1 s1 s2", 3)) for g in all_gens)
    lower, upper = (g for words in gens.values() for g in words)
    assert braids_equal(lower * upper, upper * lower)


def test_cabled_generators_single_node_tree():
    rs = build_root_system("A", 3)
    q = fission.irregular_type(rs, [project_traceless([1, 2, 4, 8])])
    tree = fission.fission_tree(q)
    groups = cabled_group_generators(tree)
    assert len(groups) == 1
    (_, gens) = groups[0]
    assert len(gens) == 6  # n(n-1)/2 standard generators of PB_4
    assert sorted(format_word(g) for g in gens)[0] == "s1 s1"


def test_cabled_generators_qii_counts():
    rs = build_root_system("A", 8)
    q = fission.irregular_type(
        rs,
        [(4, 3, 2, 1, 0, -1, -2, -3, -4), (4, 1, 1, 0, 0, 0, -2, -2, -2)],
    )
    tree = fission.fission_tree(q)
    groups = cabled_group_generators(tree)
    sizes = sorted(len(words) for _, words in groups)
    assert sizes == [1, 3, 3, 6]
    assert sum(sizes) == 13


def test_cabled_generators_rejects_other_families():
    rs = build_root_system("B", 2)
    q = fission.irregular_type(rs, [(1, 2)])
    tree = fission.fission_tree(q)
    with pytest.raises(ValueError):
        cabled_group_generators(tree)


def subtree_scan(tree, node_id):
    """Reference: the leaves reached below a node, scanned in leaf order."""
    reach, stack = set(), [node_id]
    while stack:
        node = stack.pop()
        reach.add(node)
        stack.extend(tree.children_map[node])
    return tuple(pos + 1 for pos, leaf in enumerate(tree.leaf_order) if leaf in reach)


def test_leaf_runs_match_the_subtree_scan():
    # Each node's run of leaf_order holds exactly the leaves below it, on
    # random trees of every family, also with the ids relabelled at random
    # and the nodes listed in a random order.
    rng = random.Random(37)
    nodes = 0
    for _ in range(80):
        rs = build_root_system(rng.choice("ABCD"), rng.randint(2, 7))
        tree = fission.fission_tree(fission.random_irregular_type(rs, rng.randint(1, 4), rng))
        new_id = dict(zip([n.id for n in tree.nodes], rng.sample(range(1000), len(tree.nodes))))
        moved = [
            n._replace(id=new_id[n.id], parent=None if n.parent is None else new_id[n.parent])
            for n in tree.nodes
        ]
        rng.shuffle(moved)
        for t in (tree, fission.FissionTree(tree.family, tuple(moved))):
            for n in t.nodes:
                assert leaves_under(t, n.id) == subtree_scan(t, n.id)
                nodes += 1
    assert nodes > 1000


def gamma_lift(tree, node_id, label):
    """Reference lift: gamma at every node, label at node_id, identities elsewhere."""

    def rec(u):
        kids = tree.children(u)
        if not kids:
            return identity(1)
        top = label if u == node_id else identity(len(kids))
        return gamma(top, [rec(c) for c in kids])

    return rec(tree.root_id)


def test_cabled_generators_match_gamma_recursion():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        rs = build_root_system("A", rng.randint(1, 7))
        tree = fission.fission_tree(fission.random_irregular_type(rs, rng.randint(1, 4), rng))
        for node_id, gens in cabled_group_generators(tree):
            k = tree.k(node_id)
            labels = [pure_generator(k, j, m) for j in range(1, k + 1) for m in range(j + 1, k + 1)]
            assert list(gens) == [gamma_lift(tree, node_id, a) for a in labels]
            checked += len(gens)
    assert checked > 200


def test_cabled_generator_linking_block_pattern():
    tree = sl3_tree()
    for node_id, gens in cabled_group_generators(tree):
        kids = tree.children(node_id)
        idx = 0
        for j in range(1, len(kids) + 1):
            for m in range(j + 1, len(kids) + 1):
                g = gens[idx]
                idx += 1
                left = set(leaves_under(tree, kids[j - 1]))
                right = set(leaves_under(tree, kids[m - 1]))
                lk = linking_matrix(g)
                n = g.strands
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        expect = 1 if (a in left and b in right) or (a in right and b in left) else 0
                        assert lk[a - 1][b - 1] == expect


# ---------------------------------------------------------------------------
# Artin's presentation of PB_k on every cabled node
# ---------------------------------------------------------------------------


def test_pure_braid_relations_hold_on_standard_generators():
    for k, count in ((3, 2), (4, 12), (5, 40)):
        pairs = [(j, m) for j in range(1, k + 1) for m in range(j + 1, k + 1)]
        gens = {pair: pure_generator(k, *pair) for pair in pairs}
        relations = list(selfcheck._pure_braid_relations(gens))
        assert len(relations) == count
        assert all(braids_equal(lhs, rhs) for _, lhs, rhs in relations)


def one_node_sweep():
    """A sweep result holding one tree: an A3 root node over four leaves."""
    rs = build_root_system("A", 3)
    tree = fission.fission_tree(fission.irregular_type(rs, [project_traceless([1, 2, 4, 8])]))
    return selfcheck.SweepResult(a_trees={"one node": tree})


def patch_lifts(monkeypatch, change):
    real = braid.cabled_group_generators
    monkeypatch.setattr(
        braid, "cabled_group_generators",
        lambda tree: [(node, tuple(change(list(gens)))) for node, gens in real(tree)],
    )


def test_cabled_criterion_counts_relations():
    ok, detail = selfcheck.criterion_cabled_groups(one_node_sweep())
    assert ok, detail
    assert "12 PB_k relations" in detail


def test_cabled_criterion_rejects_swapped_lifts(monkeypatch):
    def swap(gens):  # A_12 and A_13 trade places
        gens[0], gens[1] = gens[1], gens[0]
        return gens

    patch_lifts(monkeypatch, swap)
    ok, detail = selfcheck.criterion_cabled_groups(one_node_sweep())
    assert not ok, detail


def test_cabled_criterion_relations_catch_a_conjugated_lift(monkeypatch):
    # A_12 A_13 A_12^-1 in place of A_13 is pure with the linking matrix of
    # A_13 (linking numbers add), so only Artin's relations can reject it.
    def conjugate(gens):
        gens[1] = gens[0] * gens[1] * gens[0].inverse()
        return gens

    patch_lifts(monkeypatch, conjugate)
    ok, detail = selfcheck.criterion_cabled_groups(one_node_sweep())
    assert not ok
    assert "relation" in detail, detail
