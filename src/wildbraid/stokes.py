"""Verifier for the explicit SL_3 braiding action on Stokes representations.

A Stokes tuple is (h, B^1_1, B^1_3, B^2_1, B^2_2, B^2_3, B^2_4), seven 3x3
matrices of exact rationals with determinant 1, h diagonal, subject to the
relation

    h . (B^1_3 B^1_1) . (B^2_4 B^2_3 B^2_2 B^2_1) = 1.

Two commuting actions are verified entrywise:

    sigma: level-2 entries cycle two steps with an h1-conjugation,
           h1 = h B^1_3 B^1_1;
    tau1:  the level-1 pair shuffles through an h-conjugation and the
           level-2 entries are conjugated by b1 = B^1_1.

The matrices are arbitrary determinant-1 rationals (no unipotent shape is
enforced): the relation and the commutation/equivariance properties do not
depend on triangularity, so the verifier checks them in full generality.

Validation: the StokesTuple constructor checks every shape and determinant
and a diagonal h, so act_sigma, act_tau1 and solve_relation only return
valid tuples.  verify_properties runs the same actions on the seven raw
entries (_sigma, _tau1, _conj), which build no StokesTuple, and checks
every image's determinant itself: a broken determinant is a failed check
in the report, not an exception.

Arithmetic runs on one canonical integer form.  A matrix m is the pair
(n, q): n the flat row-major 9-tuple of ints and q > 0 an int with
m = n / q and gcd(q, *n) == 1.  Each rational matrix has exactly one such
pair, so matrix equality is tuple equality, the identity is
((1, 0, 0, 0, 1, 0, 0, 0, 1), 1) and det(m) = 1 reads det(n) == q**3.
_pair checks a Mat's shape and clears its denominators, once per entry,
with linalg.cleared, which refuses a float, a bool, a str or a complex (mat
refuses the first two too, and reads a str through Fraction):
a StokesTuple keeps its seven pairs as ``pairs``, and the actions,
solve_relation and random_tuple build their tuples from pairs
(``_from_pairs``, with the constructor's checks), clearing nothing again.
random_tuple clears nothing at all: it draws and multiplies its shears on
integer pairs (_shear_product) and builds h as a pair (_torus).
The kernel (_mul, _det, _inv, _conj) takes and returns pairs, with one gcd
per result in _canon.  Each unpacks its 9-tuples and builds its results
unrolled, entry by entry: on small ints, interpreter steps set the cost.
Fractions are built only at the edges: by _mat, when a public function
returns a Mat, in the public Mat API (mat, mmul) and in verify_properties'
failure details.

verify_properties draws a and b of each torus scalar diag(a, b, 1/(ab)) as
(num, den) int pairs and builds the scalar as a canonical pair directly
(_torus).  It numbers the 21 entries of the tuple and of its two images
once by slot, one slot per distinct entry; each scalar conjugates every
distinct entry once and reads the three conjugated tuples by slot.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from . import linalg

Mat = tuple[tuple[Fraction, ...], ...]
Pair = tuple[tuple[int, ...], int]


def mat(rows) -> Mat:
    m = tuple(tuple(Fraction(linalg.exact(x, "matrix")) for x in row) for row in rows)
    if len(m) != 3 or any(len(r) != 3 for r in m):
        raise ValueError("3x3 matrix required")
    return m


_ID: Pair = ((1, 0, 0, 0, 1, 0, 0, 0, 1), 1)


# ---------------------------------------------------------------------------
# The integer kernel on canonical pairs
# ---------------------------------------------------------------------------


def _pair(m: Mat, name: str = "matrix") -> Pair:
    """The canonical pair of a 3x3 matrix of rationals.

    q is the lcm of the reduced entries' denominators, so gcd(q, *n) is
    already 1: every prime power in q divides some entry's denominator
    exactly, and that entry's numerator is prime to it.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError(f"{name} must be 3x3")
    n, q = linalg.cleared([x for row in m for x in row], name)
    return tuple(n), q


def _mat(p: Pair) -> Mat:
    n, q = p
    f = [Fraction(x, q) for x in n]
    return tuple(f[:3]), tuple(f[3:6]), tuple(f[6:])


def _canon(n: tuple[int, ...], q: int) -> Pair:
    """Divide n / q through by gcd(q, *n), taking q's sign, so that q > 0."""
    g = gcd(q, *n)
    if q < 0:
        g = -g
    if g == 1:
        return n, q
    n0, n1, n2, n3, n4, n5, n6, n7, n8 = n
    return (n0 // g, n1 // g, n2 // g, n3 // g, n4 // g,
            n5 // g, n6 // g, n7 // g, n8 // g), q // g


def _mul(*ps: Pair) -> Pair:
    """Exact product: the integer matrices multiply, and one gcd ends it."""
    n, q = ps[0]
    for (b0, b1, b2, b3, b4, b5, b6, b7, b8), r in ps[1:]:
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = n
        n = (
            a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
            a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
        )
        q *= r
    return _canon(n, q)


def _det(n: tuple[int, ...]) -> int:
    a, b, c, d, e, f, g, h, i = n
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _inv(p: Pair) -> Pair:
    """Exact inverse q . adj(n) / det(n) of m = n / q."""
    (a, b, c, d, e, f, g, h, i), q = p
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * c0 + b * c1 + c * c2
    if det == 0:
        raise ZeroDivisionError("singular matrix")
    return _canon((
        q * c0, q * (c * h - b * i), q * (b * f - c * e),
        q * c1, q * (a * i - c * g), q * (c * d - a * f),
        q * c2, q * (b * g - a * h), q * (a * e - b * d),
    ), det)


def _is_diagonal(n: tuple[int, ...]) -> bool:
    return not (n[1] or n[2] or n[3] or n[5] or n[6] or n[7])


# ---------------------------------------------------------------------------
# Mat-valued wrappers: Mat -> pair at entry, pair -> Mat at exit
# ---------------------------------------------------------------------------


def mmul(*ms: Mat) -> Mat:
    return _mat(_mul(*[_pair(m) for m in ms]))


_NAMES = ("h", "B1^1", "B3^1", "B1^2", "B2^2", "B3^2", "B4^2")


class StokesTuple(namedtuple("StokesTuple", "h b11 b31 b12 b22 b32 b42")):
    """(h, B^1_1, B^1_3, B^2_1, B^2_2, B^2_3, B^2_4), 3x3 Mats, dets 1, h diagonal.

    The quasi moment-map relation is checked by relation_holds(); it is not
    enforced at construction so that deliberately corrupted tuples can be run
    through the verifier as negative controls.  ``pairs`` holds the seven
    entries' canonical pairs, cleared once here; it is an instance attribute,
    not a field, so it stays out of the repr and of equality.
    """

    def __new__(cls, h: Mat, b11: Mat, b31: Mat, b12: Mat, b22: Mat, b32: Mat, b42: Mat):
        self = super().__new__(cls, h, b11, b31, b12, b22, b32, b42)
        self.pairs = _checked(_pair(m, name) for name, m in self.entries())
        return self

    def matrices(self) -> tuple[Mat, ...]:
        return (self.h, self.b11, self.b31, self.b12, self.b22, self.b32, self.b42)

    def entries(self) -> list[tuple[str, Mat]]:
        return list(zip(_NAMES, self.matrices()))

    def relation_holds(self) -> bool:
        return _relation_holds(self.pairs)

    def validate(self) -> None:
        if not self.relation_holds():
            raise ValueError("quasi moment-map relation violated")


def _checked(pairs) -> tuple[Pair, ...]:
    """The entries' pairs (seven, or solve_relation's six), each checked for
    determinant 1 as it comes, then h for being diagonal, as the constructor does."""
    out = []
    for name, (n, q) in zip(_NAMES, pairs):
        if _det(n) != q**3:
            raise ValueError(f"determinant of {name} must be 1")
        out.append((n, q))
    if not _is_diagonal(out[0][0]):
        raise ValueError("h must be diagonal")
    return tuple(out)


def _from_pairs(e: tuple[Pair, ...]) -> StokesTuple:
    """The StokesTuple of seven canonical pairs, checked as the constructor
    checks its Mats, without clearing any entry to a pair again."""
    pairs = _checked(e)
    t = tuple.__new__(StokesTuple, map(_mat, pairs))
    t.pairs = pairs
    return t


# ---------------------------------------------------------------------------
# The actions on the seven raw entries, as canonical pairs
# ---------------------------------------------------------------------------


def _relation_holds(e: tuple[Pair, ...]) -> bool:
    h, b11, b31, b12, b22, b32, b42 = e
    return _mul(h, b31, b11, b42, b32, b22, b12) == _ID


def _sigma(e: tuple[Pair, ...]) -> tuple[Pair, ...]:
    h, b11, b31, b12, b22, b32, b42 = e
    h1 = _mul(h, b31, b11)
    h1i = _inv(h1)
    return (h, b11, b31, b32, b42, _mul(h1i, b12, h1), _mul(h1i, b22, h1))


def _tau1(e: tuple[Pair, ...]) -> tuple[Pair, ...]:
    h, b1, b31, *level2 = e
    b1i = _inv(b1)
    return (h, b31, _mul(_inv(h), b1, h), *[_mul(b1, m, b1i) for m in level2])


def _conj(d: Pair, e: tuple[Pair, ...]) -> tuple[Pair, ...]:
    """d m d^-1 for every entry m (d invertible diagonal).

    With D the integer diagonal of d and L = lcm(D) > 0, entry (i, j) scales
    by d_i / d_j = D_i (L / D_j) / L, so n_ij gains D_i (L / D_j) and q gains L.
    """
    x, _, _, _, y, _, _, _, z = d[0]
    big = lcm(x, y, z)  # the diagonal's scale D_i (L / D_i) is L itself
    bx, by, bz = big // x, big // y, big // z
    xy, xz, yx, yz, zx, zy = x * by, x * bz, y * bx, y * bz, z * bx, z * by
    return tuple([
        _canon((n0 * big, n1 * xy, n2 * xz, n3 * yx, n4 * big,
                n5 * yz, n6 * zx, n7 * zy, n8 * big), q * big)
        for (n0, n1, n2, n3, n4, n5, n6, n7, n8), q in e
    ])


def solve_relation(h: Mat, b11: Mat, b31: Mat, b12: Mat, b22: Mat, b32: Mat) -> StokesTuple:
    """Fill in B^2_4 so the relation holds exactly.  The six given entries are
    checked first, as the constructor checks them: a singular one is a ValueError."""
    given = (h, b11, b31, b12, b22, b32)
    return _solve(*_checked(_pair(m, name) for name, m in zip(_NAMES, given)))


def _solve(h: Pair, b11: Pair, b31: Pair, b12: Pair, b22: Pair, b32: Pair) -> StokesTuple:
    """solve_relation on canonical pairs."""
    b42 = _mul(_inv(_mul(h, b31, b11)), _inv(_mul(b32, b22, b12)))
    t = _from_pairs((h, b11, b31, b12, b22, b32, b42))
    t.validate()
    return t


def act_sigma(t: StokesTuple) -> StokesTuple:
    """Level-2 generator: (B^2_*) -> (B^2_3, B^2_4, h1^-1 B^2_1 h1, h1^-1 B^2_2 h1)."""
    return _from_pairs(_sigma(t.pairs))


def act_tau1(t: StokesTuple) -> StokesTuple:
    """Level-1 generator: (B^1_1, B^1_3) -> (B^1_3, h^-1 b1 h), level 2 conjugated by b1."""
    return _from_pairs(_tau1(t.pairs))


class VerificationReport(namedtuple("VerificationReport", "checks")):
    """``checks``: one (name, passed, detail) triple per check."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]


def verify_properties(t: StokesTuple, rng: random.Random | None = None) -> VerificationReport:
    """Check relation preservation, commutation, and torus equivariance for t."""
    rng = rng or random.Random(7)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    e = t.pairs
    ok0 = _relation_holds(e)
    check("relation", ok0, "" if ok0 else f"violated by {t}")
    st, tt = _sigma(e), _tau1(e)
    check("sigma preserves relation", _relation_holds(st))
    check("tau1 preserves relation", _relation_holds(tt))
    check("actions commute", _tau1(st) == _sigma(tt))
    for name, (n, q) in zip(_NAMES * 2, st + tt):
        det = _det(n)
        if det != q**3:
            check("determinants preserved", False, f"{name} has det {Fraction(det, q**3)}")
            break
    else:
        check("determinants preserved", True)
    # Conjugation by d acts entry by entry, so each scalar conjugates each
    # distinct entry of e, st and tt once (st shares five entries with e, tt
    # two); each of the 21 positions holds the slot of its distinct entry,
    # and each scalar reads its three conjugated tuples by slot.
    slots: dict[Pair, int] = {}
    index = [slots.setdefault(m, len(slots)) for m in e + st + tt]
    distinct = tuple(slots)
    for _ in range(3):
        a, b = _nonzero_ratio(rng), _nonzero_ratio(rng)
        image = _conj(_torus(a, b), distinct)
        c = [image[k] for k in index]
        dt = tuple(c[:7])
        equi = tuple(c[7:14]) == _sigma(dt) and tuple(c[14:]) == _tau1(dt)
        if not equi:
            a, b = Fraction(*a), Fraction(*b)
            check("torus equivariance", False, f"fails for d = diag({a},{b},{1 / (a * b)})")
            break
    else:
        check("torus equivariance", True)
    return VerificationReport(tuple(checks))


def _nonzero_ratio(rng: random.Random) -> tuple[int, int]:
    """A random nonzero rational as an unreduced (num, den), den > 0."""
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 2, 3])
    return num, den


def _torus(a: tuple[int, int], b: tuple[int, int]) -> Pair:
    """The canonical pair of diag(a, b, 1/(ab)) for a = an/ad and b = bn/bd:
    over the common denominator ad bd an bn its diagonal is
    (an^2 bn bd, an bn^2 ad, (ad bd)^2)."""
    (an, ad), (bn, bd) = a, b
    x = an * bn
    return _canon((an * bd * x, 0, 0, 0, bn * ad * x, 0, 0, 0, (ad * bd) ** 2), ad * bd * x)


def _shear_product(rng: random.Random, factors: int = 3) -> Pair:
    """Random determinant-1 matrix, as its canonical pair: a product of
    elementary shears I + (num/den) E_ij, multiplied on the integer
    numerators.  Right-multiplying n / q by a shear scales n and q by den
    and adds num times the old column i to column j; one gcd ends it."""
    n, q = _ID
    for _ in range(factors):
        i, j = rng.sample(range(3), 2)
        num, den = _nonzero_ratio(rng)
        m = [x * den for x in n]
        for r in (0, 3, 6):
            m[r + j] += num * n[r + i]
        n, q = m, q * den
    return _canon(tuple(n), q)


def random_tuple(rng: random.Random) -> StokesTuple:
    """Random exact tuple satisfying the relation, solved as solve_relation does."""
    h = _torus(_nonzero_ratio(rng), _nonzero_ratio(rng))
    return _solve(h, *[_shear_product(rng) for _ in range(5)])
