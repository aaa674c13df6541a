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

Validation: the StokesTuple constructor checks every determinant and a
diagonal h, so act_sigma, act_tau1, conjugate_tuple and solve_relation only
return valid tuples.  verify_properties runs the same actions on the seven
raw entries (_sigma, _tau1, _conj), which build no StokesTuple, and checks
every image's determinant itself: a broken determinant is a failed check
in the report, not an exception.

Matrices hold Fractions, but the arithmetic runs on integers: mmul, mdet and
minv clear each matrix's denominators once, multiply ints, and divide once at
the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

Mat = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Mat:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(m) != 3 or any(len(r) != 3 for r in m):
        raise ValueError("3x3 matrix required")
    return m


IDENTITY: Mat = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _cleared(m: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(n, q) with m = n / q: n an integer matrix, q the lcm of m's denominators."""
    ratios = [x.as_integer_ratio() for row in m for x in row]
    # A list, not a generator: unpacking a generator builds an oversized
    # tuple and shrinks it, which fills CPython's tuple free list (+0.2 MB).
    q = lcm(*[d for _, d in ratios])
    n = [a * (q // d) for a, d in ratios]
    return (tuple(n[:3]), tuple(n[3:6]), tuple(n[6:])), q


def _imul(a, b):
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j] for j in range(3))
        for i in range(3)
    )


def _idet(n) -> int:
    return (
        n[0][0] * (n[1][1] * n[2][2] - n[1][2] * n[2][1])
        - n[0][1] * (n[1][0] * n[2][2] - n[1][2] * n[2][0])
        + n[0][2] * (n[1][0] * n[2][1] - n[1][1] * n[2][0])
    )


def mmul(*ms: Mat) -> Mat:
    """Exact product: the integer matrices multiply, and one division ends it."""
    out, q = _cleared(ms[0])
    for m in ms[1:]:
        n, r = _cleared(m)
        out, q = _imul(out, n), q * r
    return tuple(tuple(Fraction(x, q) for x in row) for row in out)


def mdet(m: Mat) -> Fraction:
    n, q = _cleared(m)
    return Fraction(_idet(n), q**3)


def minv(m: Mat) -> Mat:
    """Exact inverse q . adj(n) / det(n) of m = n / q."""
    n, q = _cleared(m)
    d = _idet(n)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    cof = [
        [
            (n[(i + 1) % 3][(j + 1) % 3] * n[(i + 2) % 3][(j + 2) % 3])
            - (n[(i + 1) % 3][(j + 2) % 3] * n[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return tuple(tuple(Fraction(q * c, d) for c in row) for row in cof)


def is_diagonal(m: Mat) -> bool:
    return all(m[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def diagonal(a, b, c) -> Mat:
    return mat([[a, 0, 0], [0, b, 0], [0, 0, c]])


_NAMES = ("h", "B1^1", "B3^1", "B1^2", "B2^2", "B3^2", "B4^2")


@dataclass(frozen=True)
class StokesTuple:
    """(h, B^1_1, B^1_3, B^2_1, B^2_2, B^2_3, B^2_4), dets 1, h diagonal.

    The quasi moment-map relation is checked by relation_holds(); it is not
    enforced at construction so that deliberately corrupted tuples can be run
    through the verifier as negative controls.
    """

    h: Mat
    b11: Mat
    b31: Mat
    b12: Mat
    b22: Mat
    b32: Mat
    b42: Mat

    def __post_init__(self):
        for name, m in self.entries():
            n, q = _cleared(m)
            if _idet(n) != q**3:
                raise ValueError(f"determinant of {name} must be 1")
        if not is_diagonal(self.h):
            raise ValueError("h must be diagonal")

    def matrices(self) -> tuple[Mat, ...]:
        return (self.h, self.b11, self.b31, self.b12, self.b22, self.b32, self.b42)

    def entries(self) -> list[tuple[str, Mat]]:
        return list(zip(_NAMES, self.matrices()))

    def relation_holds(self) -> bool:
        return _relation_holds(self.matrices())

    def validate(self) -> None:
        if not self.relation_holds():
            raise ValueError("quasi moment-map relation violated")


def _relation_holds(e: tuple[Mat, ...]) -> bool:
    h, b11, b31, b12, b22, b32, b42 = e
    return mmul(h, b31, b11, b42, b32, b22, b12) == IDENTITY


def _sigma(e: tuple[Mat, ...]) -> tuple[Mat, ...]:
    h, b11, b31, b12, b22, b32, b42 = e
    h1 = mmul(h, b31, b11)
    h1i = minv(h1)
    return (h, b11, b31, b32, b42, mmul(h1i, b12, h1), mmul(h1i, b22, h1))


def _tau1(e: tuple[Mat, ...]) -> tuple[Mat, ...]:
    h, b1, b31, *level2 = e
    b1i = minv(b1)
    return (h, b31, mmul(minv(h), b1, h), *(mmul(b1, m, b1i) for m in level2))


def _conj(d: Mat, e: tuple[Mat, ...]) -> tuple[Mat, ...]:
    """d m d^-1 for every entry m, as m_ij d_i / d_j (d diagonal)."""
    scale = [[d[i][i] / d[j][j] for j in range(3)] for i in range(3)]
    return tuple(
        tuple(tuple(x * s for x, s in zip(row, srow)) for row, srow in zip(m, scale))
        for m in e
    )


def solve_relation(h: Mat, b11: Mat, b31: Mat, b12: Mat, b22: Mat, b32: Mat) -> StokesTuple:
    """Fill in B^2_4 so the relation holds exactly."""
    b42 = mmul(minv(mmul(h, b31, b11)), minv(mmul(b32, b22, b12)))
    t = StokesTuple(h, b11, b31, b12, b22, b32, b42)
    t.validate()
    return t


def act_sigma(t: StokesTuple) -> StokesTuple:
    """Level-2 generator: (B^2_*) -> (B^2_3, B^2_4, h1^-1 B^2_1 h1, h1^-1 B^2_2 h1)."""
    return StokesTuple(*_sigma(t.matrices()))


def act_tau1(t: StokesTuple) -> StokesTuple:
    """Level-1 generator: (B^1_1, B^1_3) -> (B^1_3, h^-1 b1 h), level 2 conjugated by b1."""
    return StokesTuple(*_tau1(t.matrices()))


def conjugate_tuple(d: Mat, t: StokesTuple) -> StokesTuple:
    """Simultaneous conjugation of every entry by a diagonal d."""
    if not is_diagonal(d):
        raise ValueError("d must be diagonal")
    return StokesTuple(*_conj(d, t.matrices()))


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[tuple[str, bool, str], ...]

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

    ok0 = t.relation_holds()
    check("relation", ok0, "" if ok0 else f"violated by {t}")
    e = t.matrices()
    st, tt = _sigma(e), _tau1(e)
    check("sigma preserves relation", _relation_holds(st))
    check("tau1 preserves relation", _relation_holds(tt))
    check("actions commute", _tau1(st) == _sigma(tt))
    for name, m in zip(_NAMES * 2, st + tt):
        det = mdet(m)
        if det != 1:
            check("determinants preserved", False, f"{name} has det {det}")
            break
    else:
        check("determinants preserved", True)
    for _ in range(3):
        a, b = _nonzero_rational(rng), _nonzero_rational(rng)
        d = diagonal(a, b, 1 / (a * b))
        dt = _conj(d, e)
        equi = _conj(d, st) == _sigma(dt) and _conj(d, tt) == _tau1(dt)
        if not equi:
            check("torus equivariance", False, f"fails for d = diag({a},{b},{1/(a*b)})")
            break
    else:
        check("torus equivariance", True)
    return VerificationReport(tuple(checks))


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 2, 3])
    return Fraction(num, den)


def _shear_product(rng: random.Random, factors: int = 3) -> Mat:
    """Random determinant-1 matrix: product of elementary shears I + c E_ij."""
    m = IDENTITY
    for _ in range(factors):
        i, j = rng.sample(range(3), 2)
        rows = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
        rows[i][j] = _nonzero_rational(rng)
        m = mmul(m, mat(rows))
    return m


def random_tuple(rng: random.Random) -> StokesTuple:
    """Random exact tuple satisfying the relation, via solve_relation."""
    a, b = _nonzero_rational(rng), _nonzero_rational(rng)
    h = diagonal(a, b, 1 / (a * b))
    return solve_relation(
        h,
        _shear_product(rng),
        _shear_product(rng),
        _shear_product(rng),
        _shear_product(rng),
        _shear_product(rng),
    )
