"""Exact verification of the SL_3 Stokes braiding actions."""

import hashlib
import random
import re
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbraid import stokes
from wildbraid.stokes import (
    StokesTuple,
    act_sigma,
    act_tau1,
    mat,
    mmul,
    random_tuple,
    solve_relation,
    verify_properties,
)


IDENTITY = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def diagonal(a, b, c):
    return mat([[a, 0, 0], [0, b, 0], [0, 0, c]])


def nonzero_rational(rng):
    """The Fraction of stokes._nonzero_ratio's draw."""
    return Fraction(*stokes._nonzero_ratio(rng))


def shear(i, j, c):
    rows = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    rows[i][j] = Fraction(c)
    return mat(rows)


P = stokes._pair  # the canonical (n, q) pair of a Mat


def mdet(m):
    """det(m) as a Fraction, through the integer kernel."""
    n, q = P(m)
    return Fraction(stokes._det(n), q**3)


def minv(m):
    """m^-1 as a Mat, through the integer kernel."""
    return stokes._mat(stokes._inv(P(m)))


def shear_product(rng, factors=3):
    """A random determinant-1 Mat (the canonical pair _shear_product draws)."""
    return stokes._mat(stokes._shear_product(rng, factors))


def identity_tuple():
    return StokesTuple(*([IDENTITY] * 7))


# ---------------------------------------------------------------------------
# Matrix helpers
# ---------------------------------------------------------------------------


def test_minv_exact():
    rng = random.Random(0)
    for _ in range(20):
        m = shear_product(rng, 4)
        assert mmul(m, minv(m)) == IDENTITY
        assert mdet(m) == 1


def ref_mmul(a, b):
    """Plain Fraction product, the reference for the integer mmul."""
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(3)), Fraction(0)) for j in range(3))
        for i in range(3)
    )


def ref_mdet(m):
    return sum(
        (
            (-1) ** (p[0] > p[1]) * (-1) ** (p[0] > p[2]) * (-1) ** (p[1] > p[2])
            * m[0][p[0]] * m[1][p[1]] * m[2][p[2]]
            for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        ),
        Fraction(0),
    )


def ref_minv(m):
    """Plain Fraction inverse, adj(m) / det(m) from the cofactors."""
    det = ref_mdet(m)
    cof = [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
    return tuple(tuple(cof[j][i] / det for j in range(3)) for i in range(3))


rationals = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12])
)
matrices = st.lists(rationals, min_size=9, max_size=9).map(
    lambda xs: (tuple(xs[:3]), tuple(xs[3:6]), tuple(xs[6:]))
)


def all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


@settings(max_examples=300, deadline=None)
@given(matrices, matrices, matrices)
def test_integer_arithmetic_matches_fraction_reference(a, b, c):
    prod = mmul(a, b, c)
    assert prod == ref_mmul(ref_mmul(a, b), c)
    assert all_fractions(prod)
    det = mdet(a)
    assert type(det) is Fraction and det == ref_mdet(a)
    if ref_mdet(a) == 0:
        with pytest.raises(ZeroDivisionError):
            minv(a)
    else:
        inv = minv(a)
        assert all_fractions(inv)
        assert inv == ref_minv(a)
        assert ref_mmul(a, inv) == IDENTITY and ref_mmul(inv, a) == IDENTITY


@settings(max_examples=200, deadline=None)
@given(matrices, st.integers(-50, 50).filter(bool))
def test_canonical_pair_is_unique(a, k):
    n, q = P(a)
    assert q > 0 and gcd(q, *n) == 1
    assert stokes._mat((n, q)) == a
    assert stokes._canon(tuple(k * x for x in n), k * q) == (n, q)
    assert stokes._canon(tuple(-x for x in n), -q) == (n, q)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(matrices, st.integers(-30, 30).filter(bool)), min_size=1, max_size=7))
def test_mul_matches_fraction_product_at_every_arity(factors):
    # Each factor as a pair (k n, k q) of the matrix n / q, canonical only
    # when k = 1: a single factor is put in canonical form, more factors
    # multiply, and the relation's product has seven.
    pairs = []
    for m, k in factors:
        n, q = P(m)
        pairs.append((tuple(k * x for x in n), k * q))
    product = stokes._mul(*pairs)
    assert product == P(reduce(ref_mmul, [m for m, _ in factors]))
    n, q = product
    assert q > 0 and gcd(q, *n) == 1


def test_minv_singular_raises():
    with pytest.raises(ZeroDivisionError):
        minv(mat([[1, Fraction(1, 2), 0], [2, 1, 0], [0, 0, Fraction(1, 3)]]))


def test_float_and_bool_entries_are_refused():
    # A float is not exact and a bool is not a number; ints, Fractions and
    # the strings Fraction reads stay accepted.
    floats = ((1.0, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="^h entry 1.0 is not an exact rational$"):
        StokesTuple(*[floats] * 7)
    with pytest.raises(ValueError, match="^B4\\^2 entry True is not an exact rational$"):
        StokesTuple(*[IDENTITY] * 6, ((True, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="^matrix entry 0.1 is not an exact rational$"):
        mmul(((0.1, 0, 0), (0, 1, 0), (0, 0, 1)), IDENTITY)
    with pytest.raises(ValueError, match="^matrix entry 0.5 is not an exact rational$"):
        mat([[1, 0, 0], [0, 0.5, 0], [0, 0, 2]])
    with pytest.raises(ValueError, match="^matrix entry False is not an exact rational$"):
        mat([[1, False, 0], [0, 1, 0], [0, 0, 1]])
    ints = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert StokesTuple(*[ints] * 7) == identity_tuple()
    assert mat([[Fraction(1, 2), 0, 0], [0, "2", 0], [0, 0, 1]]) == diagonal(Fraction(1, 2), 2, 1)
    assert mmul(ints, diagonal(Fraction(1, 2), 2, 1)) == diagonal(Fraction(1, 2), 2, 1)


@pytest.mark.parametrize("entry, text", [("1", "'1'"), (1j, "1j")], ids=["str", "complex"])
def test_entries_without_a_ratio_are_refused_as_pairs(entry, text):
    # A pair needs as_integer_ratio: a str or a complex is refused with the
    # float/bool message, naming the entry.
    bad = ((entry, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError, match=f"^h entry {re.escape(text)} is not an exact rational$"):
        StokesTuple(*[bad] * 7)
    with pytest.raises(ValueError, match=f"^B2\\^2 entry {re.escape(text)} is not an exact rational$"):
        StokesTuple(*[IDENTITY] * 4, bad, IDENTITY, IDENTITY)
    with pytest.raises(ValueError, match=f"^matrix entry {re.escape(text)} is not an exact rational$"):
        mmul(IDENTITY, bad)


def test_mat_shape_checked():
    with pytest.raises(ValueError):
        mat([[1, 0], [0, 1]])
    # A 4x3 matrix would flatten to 12 entries; the kernel's boundary refuses it.
    with pytest.raises(ValueError, match="matrix must be 3x3"):
        mmul(IDENTITY + ((Fraction(0),) * 3,), IDENTITY)


# ---------------------------------------------------------------------------
# solve_relation
# ---------------------------------------------------------------------------


def test_solve_all_identity():
    t = solve_relation(IDENTITY, IDENTITY, IDENTITY, IDENTITY, IDENTITY, IDENTITY)
    assert t.b42 == IDENTITY


def test_solve_random_rational_inputs():
    rng = random.Random(1)
    for _ in range(30):
        a, b = nonzero_rational(rng), nonzero_rational(rng)
        h = diagonal(a, b, 1 / (a * b))
        t = solve_relation(
            h,
            shear(1, 0, Fraction(1, 2)),
            shear(0, 1, 3),
            shear_product(rng),
            shear_product(rng),
            shear_product(rng),
        )
        assert t.relation_holds()
        assert mdet(t.b42) == 1


def test_solve_with_printed_torus_element():
    rng = random.Random(11)
    h = diagonal(2, Fraction(1, 2), 1)
    t = solve_relation(
        h,
        shear(1, 0, 2),  # lower unipotent
        shear(0, 2, Fraction(-1, 3)),  # upper unipotent
        shear_product(rng),
        shear_product(rng),
        shear_product(rng),
    )
    assert t.relation_holds()
    assert verify_properties(t, rng).passed


def test_solve_scale_case_explicit_inverse():
    # h = 1, level-2 product (I * E21(1) * E12(1)); B4^2 is its hand inverse.
    b12 = shear(0, 1, 1)
    b22 = shear(1, 0, 1)
    t = solve_relation(IDENTITY, IDENTITY, IDENTITY, b12, b22, IDENTITY)
    assert t.b42 == mat([[2, -1, 0], [-1, 1, 0], [0, 0, 1]])


def test_solve_rejects_singular_entries_before_inverting():
    # Singular entries fail the constructor's checks, in its order (every
    # determinant, then h diagonal), not the kernel's inverse, as a
    # determinant other than 0 or 1 does.
    singular = mat([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="^determinant of h must be 1$"):
        solve_relation(singular, *[IDENTITY] * 5)
    with pytest.raises(ValueError, match="^determinant of B3\\^2 must be 1$"):
        solve_relation(*[IDENTITY] * 5, mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    with pytest.raises(ValueError, match="^determinant of B1\\^2 must be 1$"):
        solve_relation(*[IDENTITY] * 3, diagonal(2, 1, 1), IDENTITY, singular)
    with pytest.raises(ValueError, match="^determinant of B3\\^2 must be 1$"):
        solve_relation(shear(0, 1, 1), *[IDENTITY] * 4, singular)
    with pytest.raises(ValueError, match="^h must be diagonal$"):
        solve_relation(shear(0, 1, 1), *[IDENTITY] * 5)


def test_constructor_rejects_bad_determinant():
    bad = mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        StokesTuple(IDENTITY, bad, IDENTITY, IDENTITY, IDENTITY, IDENTITY, IDENTITY)


def test_constructor_rejects_non_3x3_entries():
    tall = IDENTITY + ((Fraction(0),) * 3,)
    with pytest.raises(ValueError, match="^h must be 3x3$"):
        StokesTuple(tall, *([IDENTITY] * 6))
    small = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError, match="^B1\\^1 must be 3x3$"):
        StokesTuple(IDENTITY, small, *([IDENTITY] * 5))
    with pytest.raises(ValueError, match="^B4\\^2 must be 3x3$"):
        StokesTuple(*([IDENTITY] * 6), tall)


def test_constructor_rejects_nondiagonal_h():
    with pytest.raises(ValueError):
        StokesTuple(shear(0, 1, 1), *([IDENTITY] * 6))


# ---------------------------------------------------------------------------
# The two actions
# ---------------------------------------------------------------------------


def test_sigma_fixes_identity_tuple():
    assert act_sigma(identity_tuple()) == identity_tuple()


def test_tau1_fixes_identity_tuple():
    assert act_tau1(identity_tuple()) == identity_tuple()


def test_sigma_cycles_level_two():
    rng = random.Random(2)
    t = random_tuple(rng)
    s = act_sigma(t)
    h1 = mmul(t.h, t.b31, t.b11)
    assert (s.h, s.b11, s.b31) == (t.h, t.b11, t.b31)
    assert s.b12 == t.b32
    assert s.b22 == t.b42
    assert s.b32 == mmul(minv(h1), t.b12, h1)
    assert s.b42 == mmul(minv(h1), t.b22, h1)
    assert s.relation_holds()


def test_sigma_twice_wraps_level_two_once():
    # Composing the printed formula with itself: the two-step shift applied
    # twice is a full cycle, so each level-2 entry comes back in place having
    # wrapped exactly once, i.e. conjugated by h1.
    rng = random.Random(3)
    t = random_tuple(rng)
    ss = act_sigma(act_sigma(t))
    h1 = mmul(t.h, t.b31, t.b11)
    conj = lambda m: mmul(minv(h1), m, h1)
    assert (ss.b12, ss.b22, ss.b32, ss.b42) == tuple(
        conj(m) for m in (t.b12, t.b22, t.b32, t.b42)
    )


def test_tau1_with_trivial_b1():
    rng = random.Random(4)
    base = random_tuple(rng)
    t = solve_relation(base.h, IDENTITY, base.b31, base.b12, base.b22, base.b32)
    out = act_tau1(t)
    # b1 = 1: the level-1 pair swaps through an h-conjugation, level 2 fixed.
    assert out.b11 == t.b31
    assert out.b31 == IDENTITY
    assert (out.b12, out.b22, out.b32, out.b42) == (t.b12, t.b22, t.b32, t.b42)


def test_tau1_preserves_relation_random():
    rng = random.Random(5)
    for _ in range(100):
        t = random_tuple(rng)
        assert act_tau1(t).relation_holds()


def test_sigma_preserves_relation_random():
    rng = random.Random(6)
    for _ in range(100):
        t = random_tuple(rng)
        assert act_sigma(t).relation_holds()


def test_actions_commute_random():
    rng = random.Random(7)
    for _ in range(50):
        t = random_tuple(rng)
        assert act_sigma(act_tau1(t)) == act_tau1(act_sigma(t))


def test_torus_equivariance_random():
    rng = random.Random(8)
    for _ in range(25):
        t = random_tuple(rng)
        a, b = nonzero_rational(rng), nonzero_rational(rng)
        d = diagonal(a, b, 1 / (a * b))

        def conj(t):  # the plain-Fraction conjugation by d
            return StokesTuple(*ref_conj(d, t.matrices()))

        assert conj(act_sigma(t)) == act_sigma(conj(t))
        assert conj(act_tau1(t)) == act_tau1(conj(t))


# ---------------------------------------------------------------------------
# verify_properties
# ---------------------------------------------------------------------------


def test_verify_identity_tuple_passes():
    report = verify_properties(identity_tuple())
    assert report.passed


def test_verify_random_tuples_pass():
    rng = random.Random(9)
    for _ in range(20):
        assert verify_properties(random_tuple(rng), rng).passed


def test_verify_flags_corrupted_tuple():
    rng = random.Random(10)
    t = random_tuple(rng)
    corrupted = StokesTuple(
        t.h, t.b11, t.b31, mmul(t.b12, shear(0, 2, 5)), t.b22, t.b32, t.b42
    )
    report = verify_properties(corrupted, rng)
    assert not report.passed
    assert any(name == "relation" for name, _ in report.failures())


# ---------------------------------------------------------------------------
# The plain-Fraction verifier: the reference for the integer one
# ---------------------------------------------------------------------------


def ref_chain(*ms):
    return reduce(ref_mmul, ms)


def ref_relation_holds(e):
    h, b11, b31, b12, b22, b32, b42 = e
    return ref_chain(h, b31, b11, b42, b32, b22, b12) == IDENTITY


def ref_sigma(e):
    h, b11, b31, b12, b22, b32, b42 = e
    h1 = ref_chain(h, b31, b11)
    h1i = ref_minv(h1)
    return (h, b11, b31, b32, b42, ref_chain(h1i, b12, h1), ref_chain(h1i, b22, h1))


def ref_tau1(e):
    h, b1, b31, *level2 = e
    b1i = ref_minv(b1)
    return (h, b31, ref_chain(ref_minv(h), b1, h), *(ref_chain(b1, m, b1i) for m in level2))


def ref_conj(d, e):
    scale = [[d[i][i] / d[j][j] for j in range(3)] for i in range(3)]
    return tuple(
        tuple(tuple(x * s for x, s in zip(row, srow)) for row, srow in zip(m, scale))
        for m in e
    )


def ref_verify_properties(t, rng):
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, ok, detail))

    ok0 = ref_relation_holds(t.matrices())
    check("relation", ok0, "" if ok0 else f"violated by {t}")
    e = t.matrices()
    st_, tt = ref_sigma(e), ref_tau1(e)
    check("sigma preserves relation", ref_relation_holds(st_))
    check("tau1 preserves relation", ref_relation_holds(tt))
    check("actions commute", ref_tau1(st_) == ref_sigma(tt))
    for name, m in zip(stokes._NAMES * 2, st_ + tt):
        det = ref_mdet(m)
        if det != 1:
            check("determinants preserved", False, f"{name} has det {det}")
            break
    else:
        check("determinants preserved", True)
    for _ in range(3):
        a, b = nonzero_rational(rng), nonzero_rational(rng)
        d = diagonal(a, b, 1 / (a * b))
        dt = ref_conj(d, e)
        equi = ref_conj(d, st_) == ref_sigma(dt) and ref_conj(d, tt) == ref_tau1(dt)
        if not equi:
            check("torus equivariance", False, f"fails for d = diag({a},{b},{1/(a*b)})")
            break
    else:
        check("torus equivariance", True)
    return tuple(checks)


class NegativeTorus(random.Random):
    """Draws only negative numerators, so every torus element has a, b < 0."""

    def choice(self, seq):
        return super().choice([x for x in seq if x < 0] or seq)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([-2, -1, 1, 2]),
    st.booleans(),
)
def test_verifier_agrees_with_fraction_reference(seed, corrupt_at, c, negative):
    rng = random.Random(seed)
    t = random_tuple(rng)
    if corrupt_at is not None:
        # Determinant 1, but B^2_4 no longer closes the relation.
        i = corrupt_at
        t = StokesTuple(*t.matrices()[:6], ref_mmul(t.b42, shear(i, (i + 1) % 3, c)))
    make_rng = NegativeTorus if negative else random.Random
    checks = verify_properties(t, make_rng(seed)).checks
    assert checks == ref_verify_properties(t, make_rng(seed))
    assert (corrupt_at is None) == all(ok for _, ok, _ in checks)


@pytest.mark.parametrize("make_rng", [random.Random, NegativeTorus])
def test_verifier_leaves_the_rng_where_the_reference_does(make_rng):
    # stokes-verify draws each tuple and then its torus scalars from one rng,
    # so the verifier's draws decide every later tuple of the run.
    for seed in range(10):
        t = random_tuple(random.Random(seed))
        corrupted = StokesTuple(*t.matrices()[:6], ref_mmul(t.b42, shear(0, 1, 1)))
        for u in (t, corrupted):
            ours, ref = make_rng(seed), make_rng(seed)
            verify_properties(u, ours)
            ref_verify_properties(u, ref)
            assert ours.getstate() == ref.getstate()


def test_torus_scalar_is_built_as_its_canonical_pair():
    ratios = [(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
    for a in ratios:
        for b in ratios:
            fa, fb = Fraction(*a), Fraction(*b)
            assert stokes._torus(a, b) == P(diagonal(fa, fb, 1 / (fa * fb)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), rationals.filter(bool), rationals.filter(bool))
def test_conj_agrees_with_reference(seed, a, b):
    t = random_tuple(random.Random(seed))
    for d in (diagonal(a, b, 1 / (a * b)), diagonal(-abs(a), -abs(b), 1 / (a * b))):
        images = stokes._conj(P(d), t.pairs)
        assert tuple(stokes._mat(p) for p in images) == ref_conj(d, t.matrices())


def test_tuple_keeps_its_pairs_out_of_repr():
    t = random_tuple(random.Random(5))
    assert t.pairs == tuple(P(m) for m in t.matrices())
    assert "pairs" not in repr(t)


def test_entries_are_cleared_to_pairs_once(monkeypatch):
    # random_tuple draws h and every shear as integer pairs, so it clears
    # nothing; the tuple is built from pairs, so no entry is cleared again.
    # The actions clear nothing, solve_relation its six inputs.
    calls = []
    pair = stokes._pair
    monkeypatch.setattr(stokes, "_pair", lambda *args: calls.append(args) or pair(*args))
    t = random_tuple(random.Random(5))
    assert calls == []
    act_sigma(t)
    act_tau1(t)
    assert calls == []
    solve_relation(t.h, t.b11, t.b31, t.b12, t.b22, t.b32)
    assert len(calls) == 6


@pytest.mark.parametrize(
    "corrupt,message",
    [
        ({0: shear(0, 1, 1)}, "h must be diagonal"),
        ({2: diagonal(2, 1, 1)}, "determinant of B3\\^1 must be 1"),
        ({0: shear(0, 1, 1), 6: diagonal(1, 3, 1)}, "determinant of B4\\^2 must be 1"),
        ({1: diagonal(2, 1, 1), 5: diagonal(2, 1, 1)}, "determinant of B1\\^1 must be 1"),
    ],
)
def test_tuple_from_pairs_checks_as_the_constructor_does(corrupt, message):
    mats = [corrupt.get(k, IDENTITY) for k in range(7)]
    with pytest.raises(ValueError, match=message):
        StokesTuple(*mats)
    with pytest.raises(ValueError, match=message):
        stokes._from_pairs(tuple(P(m) for m in mats))
    assert stokes._from_pairs(identity_tuple().pairs) == identity_tuple()


# Generated from the plain-Fraction verifier: the reprs of 50 random tuples,
# 10 corrupted copies, and every report's checks must not change.
PINNED_SHA256 = "4c13f340b0fd05bdc19f2f0c602da111338eed10d2c5795c450198aec20fdae9"


def test_verifier_transcript_pinned():
    rng = random.Random(4242)
    tuples = [random_tuple(rng) for _ in range(50)]
    tuples += [
        StokesTuple(
            t.h, t.b11, t.b31, t.b12, t.b22, t.b32,
            ref_mmul(t.b42, shear(i % 3, (i + 1) % 3, i + 1)),
        )
        for i, t in enumerate(tuples[:10])
    ]
    lines = []
    for i, t in enumerate(tuples):
        lines.append(repr(t))
        lines.append(repr(verify_properties(t, random.Random(i)).checks))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# ---------------------------------------------------------------------------
# The plain-Fraction generator: the reference for the integer one
# ---------------------------------------------------------------------------


def ref_shear_product(rng, factors=3):
    """A product of Fraction shears, drawn as _shear_product draws them."""
    m = IDENTITY
    for _ in range(factors):
        i, j = rng.sample(range(3), 2)
        m = ref_mmul(m, shear(i, j, nonzero_rational(rng)))
    return m


def ref_random_tuple(rng):
    a, b = nonzero_rational(rng), nonzero_rational(rng)
    return solve_relation(diagonal(a, b, 1 / (a * b)), *[ref_shear_product(rng) for _ in range(5)])


def test_shear_product_matches_fraction_reference():
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        for factors in (3, 1, 6):
            assert stokes._shear_product(ours, factors) == P(ref_shear_product(ref, factors))
        assert ours.getstate() == ref.getstate()


def test_random_tuple_matches_fraction_reference():
    for seed in range(200):
        ours, ref = random.Random(seed), random.Random(seed)
        t, u = random_tuple(ours), ref_random_tuple(ref)
        assert t == u and t.pairs == u.pairs
        assert ours.getstate() == ref.getstate()


class Scripted:
    """Answers _shear_product's draws from a list of ((i, j), num, den)
    shears: sample gives (i, j), then the two choices give num and den."""

    def __init__(self, shears):
        self.draws = iter([x for shear in shears for x in shear])

    def sample(self, population, k):
        return next(self.draws)

    def choice(self, seq):
        return next(self.draws)


shears = st.tuples(
    st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]),
    st.integers(-40, 40),
    st.integers(1, 12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(shears, max_size=8))
def test_integer_shears_match_fraction_product(seq):
    rng = Scripted(seq)
    product = stokes._shear_product(rng, len(seq))
    assert next(rng.draws, None) is None
    factors = [shear(i, j, Fraction(num, den)) for (i, j), num, den in seq]
    assert product == P(reduce(ref_mmul, factors, IDENTITY))


# ---------------------------------------------------------------------------
# Negative controls: every check of verify_properties can fail
# ---------------------------------------------------------------------------


# The unpatched raw-entry actions, which the patched ones below wrap.  They
# take and return canonical pairs.
SIGMA, TAU1 = stokes._sigma, stokes._tau1


def _replace(e, k, m):
    return e[:k] + (m,) + e[k + 1 :]


def _broken_determinant(e):
    # tau1 with B4^2 multiplied by diag(2, 1, 1).
    out = TAU1(e)
    return _replace(out, 6, stokes._mul(out[6], P(diagonal(2, 1, 1))))


def _broken_sigma_relation(e):
    out = SIGMA(e)
    return _replace(out, 3, stokes._mul(out[3], P(shear(0, 1, 1))))


def _broken_tau1_relation(e):
    out = TAU1(e)
    return _replace(out, 3, stokes._mul(out[3], P(shear(0, 1, 1))))


def _non_commuting_sigma(e):
    # Conjugating every entry by B^1_1 keeps the relation, the determinants
    # and torus equivariance, but not commutation with tau1.
    b, bi = e[1], stokes._inv(e[1])
    return tuple(stokes._mul(b, m, bi) for m in SIGMA(e))


def _non_equivariant_sigma(e):
    # A fixed non-diagonal conjugation commutes with both actions but not
    # with the torus.
    g = P(shear(0, 1, 1))
    gi = stokes._inv(g)
    return tuple(stokes._mul(g, m, gi) for m in SIGMA(e))


NEGATIVE_CONTROLS = {
    "determinant": ("_tau1", _broken_determinant, "determinants preserved"),
    "sigma-relation": ("_sigma", _broken_sigma_relation, "sigma preserves relation"),
    "tau1-relation": ("_tau1", _broken_tau1_relation, "tau1 preserves relation"),
    "non-commuting": ("_sigma", _non_commuting_sigma, "actions commute"),
    "non-equivariant": ("_sigma", _non_equivariant_sigma, "torus equivariance"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_CONTROLS))
def test_every_check_can_fail(monkeypatch, case):
    action, patched, expected = NEGATIVE_CONTROLS[case]
    monkeypatch.setattr(stokes, action, patched)
    rng = random.Random(14)
    for _ in range(5):
        t = random_tuple(rng)
        report = verify_properties(t, rng)
        failed = dict(report.failures())
        assert expected in failed
        assert "relation" not in failed
        if case == "determinant":
            assert failed[expected] == "B4^2 has det 2"
            with pytest.raises(ValueError, match="determinant of B4\\^2 must be 1"):
                act_tau1(t)


def test_torus_equivariance_failure_from_a_later_scalar(monkeypatch):
    # The first scalar drawn from Random(4) is diag(-1,-1,1), which commutes
    # with shear(0, 1, 1), so only the second one shows that the patched
    # sigma is not equivariant; each scalar must conjugate afresh.
    monkeypatch.setattr(stokes, "_sigma", _non_equivariant_sigma)
    rng = random.Random(4)
    report = verify_properties(random_tuple(random.Random(0)), rng)
    assert report.failures() == [("torus equivariance", "fails for d = diag(1/2,-2,-1)")]
    drawn = random.Random(4)
    assert [nonzero_rational(drawn) for _ in range(4)][:2] == [-1, -1]
    assert rng.getstate() == drawn.getstate()  # two scalars drawn, then the break
