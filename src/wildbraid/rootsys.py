"""Classical root systems and Levi-subsystem combinatorics, exactly.

Coordinate realizations (all integer covectors):

* ``A_n``   in ``C^{n+1}``: the differences ``e_i - e_j`` (Cartan elements are
  trace-free).
* ``B_n``   in ``C^n``: ``+-e_i +- e_j`` and the short roots ``+-e_i``.
* ``C_n``   in ``C^n``: ``+-e_i +- e_j`` and the long roots ``+-2e_i``.
* ``D_n``   in ``C^n``: ``+-e_i +- e_j`` only.
* ``G2``    in the sum-zero subspace of ``C^3``: short ``e_i - e_j`` and long
  ``2e_i - e_j - e_k``.

Each root is stored once, as its flat support: its nonzero (coordinate,
entry) pairs laid out flat, in the lex order of the dense vectors.  On A-D
that is ``(i, x, j, y)``, with ``y = 0`` on a one-entry root ``x e_i``; the
dense ``roots`` are a view built on demand, which no A-D route asks for.
The roots are lex-sorted and symmetric, so root ``i`` is lex-positive
exactly when ``i >= len // 2``, and its negative is the mirror index
``len - 1 - i``.  Since ``v(-alpha) = -v(alpha)``, the root side reads only
the positive half of each +- pair and mirrors the other.

A Levi subsystem (annihilator of a Cartan element) of a classical system is
described by a *signed fusion* of the coordinate set: coordinates are glued
in pairs ``x_i = +-x_j`` by the two-entry roots, and pinned to zero by the
one-entry roots of B/C or by a sign conflict (the reducible "D_2 pair"
``e_i - e_j, e_i + e_j``).  That fusion drives the induced coordinate
partitions and the classification of restricted hyperplane arrangements
against the model families A / BC / D / exotic (B_r/C_r)D_s.

``levi_chain`` computes both in one step per level (``_restrict``), up from
the empty level, whose fusion is the singletons.  It carries each
coordinate's part and sign (0: pinned) in the fusion below from step to
step, reads the level's new positive roots off them as covectors on the
kernel of the level below, each held once as its nonzero (part, entry)
pairs, and cuts the fusion below by them (``_refine``): one signed
union-find on the parts, whose classes are the new parts and, above Phi_1,
the arrangement's blocks.  Only once every level has passed the Levi test
is each block classified from its axes, pairs and balance (Zaslavsky,
"Signed graphs", 1982) and written out densely.  It returns one ``Level``
record per level (subsystem, fusion, classified blocks).

The one Levi test is ``levi_chain``, which the fission filtration,
``restricted_arrangement_blocks``, ``RootSubsystem.is_levi`` and
``fusion_of`` (one step, from the singletons) all call; ``validate``
(closure) is kept only for the tests and the benchmark.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import lt

from . import linalg

FAMILIES = ("A", "B", "C", "D", "G2")

ARRANGEMENT_KINDS = ("TypeA", "TypeBC", "TypeD", "Exotic", "G2Full")


class UnsupportedRankError(ValueError):
    """Raised by build_root_system for an unsupported family/rank combination."""


class SubsystemError(ValueError):
    """Raised when a set of roots fails root-subsystem validation."""


class ClassificationError(ValueError):
    """Raised when a restricted arrangement does not match any model family."""


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------


class RootSystem(namedtuple("RootSystem", "family rank ambient_dim")):
    """A root system by family and rank; its roots are enumerated on first use.

    Routes that only read coordinates (the fission tree) never touch
    ``supports``, so a large-rank system costs nothing until a route asks
    for its roots.  ``supports`` is the one stored form; ``roots`` and
    ``index_of`` are dense views built on demand, cached in the instance
    ``__dict__`` (no ``__slots__``).
    """

    @cached_property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Each root's flat support, lex-sorted by dense root (module docstring)."""
        return _enumerate_roots(self.family, self.ambient_dim)

    @cached_property
    def roots(self) -> tuple[tuple[int, ...], ...]:
        """The dense roots, aligned with ``supports``."""
        n, out = self.ambient_dim, []
        for s in self.supports:
            v = [0] * n
            for t in range(0, len(s), 2):
                v[s[t]] += s[t + 1]
            out.append(tuple(v))
        return tuple(out)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {r: i for i, r in enumerate(self.roots)}

    def index_of(self, root: tuple[int, ...]) -> int:
        return self._index[root]

    @cached_property
    def positive_indices(self) -> tuple[int, ...]:
        """Indices of the lexicographically positive roots: the upper half."""
        n = len(self.supports)
        return tuple(range(n // 2, n))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family}{self.rank})"


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def cartan_int(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Cartan number <a, b^vee> = 2(a,b)/(b,b); integral for roots."""
    num = 2 * dot(a, b)
    den = dot(b, b)
    q, rem = divmod(num, den)
    if rem:
        raise SubsystemError(f"non-integral Cartan number for {a}, {b}")
    return q


def reflect(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reflection s_b(a) = a - <a,b^vee> b."""
    c = cartan_int(a, b)
    return tuple(x - c * y for x, y in zip(a, b))


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system in its standard coordinate realization.

    D needs rank >= 2 (D_1 is empty and rejected); G2 forces rank 2.  No
    root is enumerated here (see ``RootSystem.supports``).
    """
    if family not in FAMILIES:
        raise UnsupportedRankError(f"unknown family {family!r}")
    if family == "G2":
        if rank != 2:
            raise UnsupportedRankError("unsupported rank: G2 requires rank 2")
        return RootSystem("G2", 2, 3)
    if rank < 1:
        raise UnsupportedRankError(f"unsupported rank {rank} for {family}")
    if family == "D" and rank < 2:
        raise UnsupportedRankError("unsupported rank: D requires rank >= 2")
    return RootSystem(family, rank, rank + 1 if family == "A" else rank)


def _enumerate_roots(family: str, dim: int) -> tuple[tuple[int, ...], ...]:
    """Every root's flat support in ``dim`` coordinates, in the lex order of
    the dense roots.

    On A-D the lex-positive roots are listed ascending: a later leading
    coordinate i comes first, and at each i, ``e_i - e_j`` (j ascending) <
    ``e_i`` (B) < ``e_i + e_j`` (j descending) < ``2e_i`` (C).  The negatives
    precede them in mirror order.  G2 sorts its twelve dense roots.
    """
    if family == "G2":
        short = [(i, j) for i in range(3) for j in range(3) if i != j]
        dense = [tuple((c == i) - (c == j) for c in range(3)) for i, j in short]
        for i in range(3):  # the long roots +-(2e_i - e_j - e_k) = +-(3e_i - (1, 1, 1))
            dense += [tuple(s * (3 * (c == i) - 1) for c in range(3)) for s in (1, -1)]
        return tuple(tuple(z for c, x in enumerate(v) if x for z in (c, x)) for v in sorted(dense))
    pos = []
    for i in range(dim - 1, -1, -1):
        pos += [(i, 1, j, -1) for j in range(i + 1, dim)]
        if family != "A":
            if family == "B":
                pos.append((i, 1, i, 0))
            pos += [(i, 1, j, 1) for j in range(dim - 1, i, -1)]
            if family == "C":
                pos.append((i, 2, i, 0))
    return tuple((i, -x, j, -y) for i, x, j, y in reversed(pos)) + tuple(pos)


# ---------------------------------------------------------------------------
# Cartan elements
# ---------------------------------------------------------------------------


class CartanElement(namedtuple("CartanElement", "rs coords")):
    """A point of the Cartan subalgebra by its coordinates.

    ``ints`` is ``coords`` cleared of denominators (times the lcm of their
    denominators), once here: every route asks of a coefficient only which
    of its root values are zero, and reads them off ``ints``.  It is an
    instance attribute, not a field, so it stays out of the repr, equality
    and hash.
    """

    def __new__(cls, rs: RootSystem, coords: tuple[Fraction, ...]):
        if len(coords) != rs.ambient_dim:
            raise ValueError(
                f"coordinate length {len(coords)} != ambient dim {rs.ambient_dim}"
            )
        ints = tuple(linalg.integer_vector(coords))
        if rs.family in ("A", "G2") and sum(ints):
            raise ValueError("trace-free coordinates required for families A and G2")
        self = super().__new__(cls, rs, coords)
        self.ints = ints
        return self


def cartan(rs: RootSystem, values) -> CartanElement:
    """Each value read by ``Fraction`` (a str too), a float or a bool refused."""
    return CartanElement(rs, tuple(
        v if type(v) is Fraction else Fraction(linalg.exact(v, "coordinate")) for v in values
    ))


def project_traceless(values) -> tuple[Fraction, ...]:
    """Project a sequence of rationals onto the sum-zero subspace (families
    A and G2), in integers: with the n values written a_c / d over their
    common denominator d, entry c is (n a_c - sum(a)) / (n d).
    """
    # One pass over values, which may be an iterator; a string goes through
    # Fraction, which reads it.
    ints, d = linalg.cleared(
        [v if hasattr(v, "as_integer_ratio") else Fraction(v) for v in values], "value"
    )
    n, total = len(ints), sum(ints)
    return tuple([Fraction(n * a - total, n * d) for a in ints])


# ---------------------------------------------------------------------------
# Root subsystems
# ---------------------------------------------------------------------------


class RootSubsystem(namedtuple("RootSubsystem", "parent members")):
    """Sorted root indices ``members`` of ``parent``."""

    def __new__(cls, parent: RootSystem, members: tuple[int, ...]):
        if not all(map(lt, members, members[1:])):  # strictly increasing
            raise SubsystemError("members must be sorted and duplicate-free")
        return super().__new__(cls, parent, members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.parent.roots[i] for i in self.members)

    @cached_property
    def rank(self) -> int:
        return linalg.matrix_rank(self.vectors)

    def validate(self) -> None:
        """Closure under negation and under reflections by its own members.

        No route calls it (a Levi set is closed); it is the tests' closure
        reference and part of the benchmark's Levi check.
        """
        rs = self.parent
        mset, last = self.member_set, len(rs.supports) - 1
        for i in self.members:
            if last - i not in mset:  # the mirror index is the negative
                raise SubsystemError("subsystem not closed under negation")
        for i in self.members:
            for j in self.members:
                image = reflect(rs.roots[i], rs.roots[j])
                if rs.index_of(image) not in mset:
                    raise SubsystemError("subsystem not closed under reflection")

    def is_levi(self) -> bool:
        """Levi property: members = span(members) /\\ parent.roots.

        True when ``levi_chain`` accepts members <= parent: the routes' one
        Levi test.  No route calls it; the tests and the benchmark do.
        """
        rest = [i for i in range(len(self.parent.supports)) if i not in self.member_set]
        try:
            levi_chain(self.parent, [self.members, rest])
        except SubsystemError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSubsystem({self.parent!r}, {len(self.members)} roots)"


def subsystem(rs: RootSystem, indices) -> RootSubsystem:
    return RootSubsystem(rs, tuple(sorted(set(indices))))


def subsystem_from_vectors(rs: RootSystem, vectors) -> RootSubsystem:
    try:
        return subsystem(rs, [rs.index_of(tuple(v)) for v in vectors])
    except KeyError as exc:
        raise SubsystemError(f"{exc.args[0]} is not a root of {rs!r}") from None


def positive_root_values(a: CartanElement) -> list[int]:
    """alpha(a) for every lex-positive root alpha, in order, times one positive int.

    Only zero/non-zero is read off these values, so they are taken on
    ``a.ints``, the coordinates cleared of denominators when a was built;
    each root is evaluated on its flat support.  The one root evaluation.
    """
    coords = a.ints
    supports = a.rs.supports
    positive = supports[len(supports) // 2 :]
    if a.rs.family == "G2":
        return [sum(coords[s[t]] * s[t + 1] for t in range(0, len(s), 2)) for s in positive]
    return [coords[i] * x + coords[j] * y for i, x, j, y in positive]


def root_values(a: CartanElement) -> list[int]:
    """alpha(a) for every root alpha, aligned with roots: ``positive_root_values``
    mirrored, since v(-alpha) = -v(alpha) at the mirror index."""
    half = positive_root_values(a)
    return [-v for v in reversed(half)] + half


def levi_of_element(rs: RootSystem, a: CartanElement) -> RootSubsystem:
    """The Levi subsystem { alpha : alpha(a) = 0 }."""
    if a.rs is not rs and a.rs != rs:
        raise ValueError("Cartan element belongs to a different root system")
    return subsystem(rs, (i for i, v in enumerate(root_values(a)) if v == 0))


# ---------------------------------------------------------------------------
# Signed coordinate fusion (families A, B, C, D)
# ---------------------------------------------------------------------------


class Fusion(namedtuple("Fusion", "parts signs zero")):
    """Coordinate relations cut out by a subsystem on the Cartan subalgebra.

    ``parts`` are the fused coordinate classes (including untouched
    singletons) on which the kernel is free, each with a sign per coordinate
    (the smallest coordinate is normalized to +1); ``zero`` are the
    coordinates pinned to 0.  Parts are sorted by smallest coordinate.
    """

    __slots__ = ()


def _find(parent: list[int], rel: list[int], x: int) -> int:
    """The root of x in a signed union-find, its path compressed: then
    ``rel[x]`` is x's sign relative to the root, whose own sign is +1."""
    path = []
    while parent[x] != x:
        path.append(x)
        x = parent[x]
    for y in reversed(path):  # nearest the root first: parent[y] is final
        if parent[y] != x:
            rel[y] *= rel[parent[y]]
            parent[y] = x
    return x


def _refine(width: int, part: list[int], sign: list[int], hyperplanes) -> tuple:
    """Cut a fusion with ``width`` parts (part k is the kernel's y_k) by
    hyperplanes, each its nonzero (part, entry) pairs, where coordinate c is
    ``sign[c]`` times y of ``part[c]`` (sign 0: pinned).

    One signed union-find on the parts: an axis pins its class, x y_a + y y_b
    glues y_b = -sign(xy) y_a, and a sign conflict (an unbalanced cycle) pins
    its class.  The unpinned classes, named by their smallest part, are the
    new parts in that order; pinned ones join the zeros.  Rewrites ``part``
    and ``sign`` in place for the refined fusion and returns it, with the
    blocks: per class that holds hyperplanes, ascending, the arguments of
    ``_classify_block`` (its hyperplanes, whether it is balanced, ``width``).
    """
    parent, rel = list(range(width)), [1] * width
    conflicts = []
    for h in hyperplanes:
        a, x = h[0]
        if len(h) == 1:
            conflicts.append(a)
        for b, y in h[1:]:
            ra = a if parent[a] == a else _find(parent, rel, a)
            rb = b if parent[b] == b else _find(parent, rel, b)
            s = (-1 if x * y > 0 else 1) * rel[a] * rel[b]  # now y_rb = s * y_ra
            if ra < rb:
                parent[rb], rel[rb] = ra, s
            elif rb < ra:
                parent[ra], rel[ra] = rb, s
            elif s != 1:
                conflicts.append(ra)
    root = [k if parent[k] == k else _find(parent, rel, k) for k in range(width)]
    pinned = {root[k] for k in conflicts}
    to: list = [None] * width  # each part's new part and sign, None if pinned
    parts, signs, zero = [], [], []
    for k, r in enumerate(root):  # r <= k, so to[r] is set when k needs it
        if r not in pinned:
            if r == k:
                to[k] = (len(parts), 1)
                parts.append([])
                signs.append([])
            else:
                to[k] = (to[r][0], rel[k])
    for c, s in enumerate(sign):  # ascending, so each new part is sorted
        if s:
            moved = to[part[c]]
            if moved:
                new, t = moved
                part[c] = new
                s = sign[c] = s * t
                parts[new].append(c)
                signs[new].append(s)
                continue
            sign[c] = 0
        zero.append(c)
    blocks: dict[int, list] = {}
    for h in hyperplanes:
        blocks.setdefault(root[h[0][0]], []).append(h)
    fus = Fusion(tuple(map(tuple, parts)), tuple(map(tuple, signs)), tuple(zero))
    return fus, tuple([(blocks[r], r not in pinned, width) for r in sorted(blocks)])


def fusion_of(sub: RootSubsystem) -> Fusion:
    """The singletons refined by the subsystem's roots; classical families only.

    This is ``levi_chain`` over the one bucket ``sub.members``, which must be
    closed under negation, as every Levi subsystem is.
    """
    if sub.parent.family == "G2":
        raise ValueError("fusion is defined for classical families only")
    return levi_chain(sub.parent, [sub.members])[0].fusion


# ---------------------------------------------------------------------------
# Restricted arrangements
# ---------------------------------------------------------------------------


class ArrangementType(namedtuple("ArrangementType", "kind d r s raw_hyperplanes")):
    """Classification of a restricted hyperplane arrangement.

    ``raw_hyperplanes`` are the deduplicated restricted covectors written on
    the canonical kernel coordinates (fused parts for A-D, the integer
    kernel basis for G2); they are the authoritative data, the kind is the
    pattern match.
    """

    __slots__ = ()

    def __new__(cls, kind: str, d: int = 0, r: int = 0, s: int = 0,
                raw_hyperplanes: tuple[tuple[int, ...], ...] = ()):
        if kind not in ARRANGEMENT_KINDS:
            raise ValueError(f"unknown arrangement kind {kind!r}")
        self = super().__new__(cls, kind, d, r, s, raw_hyperplanes)
        expected = self.expected_count()
        if expected is not None and len(raw_hyperplanes) != expected:
            raise ClassificationError(
                f"{self.describe()} expects {expected} hyperplanes, "
                f"got {len(raw_hyperplanes)}"
            )
        return self

    def expected_count(self) -> int | None:
        if self.kind == "TypeA":
            return self.d * (self.d + 1) // 2
        if self.kind == "TypeBC":
            return self.d * self.d
        if self.kind == "TypeD":
            return self.d * (self.d - 1)
        if self.kind == "Exotic":
            t = self.r + self.s
            return t * (t - 1) + self.r
        if self.kind == "G2Full":
            return 6
        return None

    @property
    def hyperplane_count(self) -> int:
        return len(self.raw_hyperplanes)

    def describe(self) -> str:
        if self.kind in ("TypeA", "TypeBC", "TypeD"):
            return f"{self.kind}({self.d})"
        if self.kind == "Exotic":
            return f"Exotic({self.r},{self.s})"
        return self.kind


class Level(namedtuple("Level", "sub fusion blocks")):
    """One level Phi_l of ``levi_chain``: its subsystem, its fusion (None on
    G2), and the blocks of Phi_l \\ Phi_{l-1} restricted to Ker(Phi_{l-1}),
    classified; none on Phi_1 or on a level that repeats the one below."""

    __slots__ = ()


def _restrict(rs: RootSystem, inner: RootSubsystem, new: list[int], fus: Fusion | None,
              part: list[int], sign: list[int]) -> tuple:
    """One step of ``levi_chain``: the level inner plus the roots ``new``,
    ascending, each restricted to Ker(inner).  Returns that level, its fusion
    and its blocks, each the arguments of its classifier.

    Only the lex-positive roots of ``new`` are read: ``new`` is closed under
    negation (``levi_chain`` checks it first), and a negative restricts to
    minus its positive's covector.  On A-D a root restricts to the signed sum
    of its entries over each part of ``fus``, read off each coordinate's
    carried ``part`` and ``sign`` (sign 0, pinned, drops out): each primitive
    covector once, in order of first appearance, as its nonzero (part,
    entry) pairs, which ``_refine`` cuts ``fus`` by.  G2 has no fusion: its
    covector is the root's values on an integer basis of the trace-free
    kernel, and the level is one block.  On A the fused value vectors are
    differences of two unit entries, never proportional modulo the trace
    relation, so deduplicating them deduplicates on the trace-free kernel.
    A root that restricts to zero lies in span(inner): ``SubsystemError``.
    """
    positive = new[bisect_left(new, len(rs.supports) // 2) :]
    zero_error = "root restricts to zero on the kernel (inner is not Levi)"
    if rs.family == "G2":
        kernel = linalg.integer_nullspace(inner.vectors + ((1, 1, 1),), 3)
        seen: dict[tuple[int, ...], None] = {}
        for i in positive:
            w = [dot(rs.roots[i], k) for k in kernel]
            if not any(w):
                raise SubsystemError(zero_error)
            seen[linalg.primitive(w)] = None
        fus, blocks = None, ((list(seen),),)
    else:
        # y_k, or y_k + t y_l with k < l, where t = +-1 as two-entry roots
        # have unit entries.
        nonzero: dict[tuple, None] = {}
        supports = rs.supports
        for r in positive:
            i, x, j, y = supports[r]
            a, b, ka, kb = x * sign[i], y * sign[j], part[i], part[j]
            if ka == kb:
                a, b = a + b, 0
            if a and b:
                nonzero[((ka, 1), (kb, a * b)) if ka < kb else ((kb, 1), (ka, a * b))] = None
            elif a or b:
                nonzero[((ka if a else kb, 1),)] = None
            else:
                raise SubsystemError(zero_error)
        fus, blocks = _refine(len(fus.parts), part, sign, list(nonzero))
    return RootSubsystem(rs, tuple(sorted(inner.members + tuple(new)))), fus, blocks


def levi_chain(rs: RootSystem, increments) -> tuple[Level, ...]:
    """Prove that Phi_1 <= ... <= Phi_k = Phi is a chain of Levi subsystems of rs.

    ``increments`` is a list of ascending lists of root indices that
    partition the roots: Phi_1 is the first, and Phi_{l+1} is Phi_l plus the
    l-th of the rest.  Returns one ``Level`` per level, Phi_1 first.

    Every increment must first be closed under negation (a root whose
    negative its level lacks lies in its span).  From the empty level and
    its singleton fusion, each nonempty increment, Phi_1's included, is one
    ``_restrict`` step from the level below, its fusion and, on A-D, each
    coordinate's part and sign in it, which the step rewrites for its level.

    This is the one Levi test; every level passes it before any block is
    classified.  It raises ``SubsystemError`` on an increment not closed
    under negation, or on a root of Phi_{l+1} \\ Phi_l that restricts to zero
    on Ker(Phi_l) (it lies in span(Phi_l)).  Else Phi_l is Levi in
    Phi_{l+1}, and Levi in Levi is Levi: every level is Levi in Phi, the top.
    """
    last, n = len(rs.supports) - 1, rs.ambient_dim
    for new in increments:
        if [last - i for i in reversed(new)] != list(new):
            raise SubsystemError("level lacks a root's negative (inner is not Levi)")
    sub = RootSubsystem(rs, ())
    fus = None if rs.family == "G2" else Fusion(tuple(zip(range(n))), ((1,),) * n, ())  # singletons
    part, sign = list(range(n)), [1] * n  # each coordinate's part of fus and sign in it
    walk = []  # per level: its subsystem, fusion and blocks, if any
    for new in increments:
        blocks = None
        if new:
            sub, fus, blocks = _restrict(rs, sub, new, fus, part, sign)
        walk.append((sub, fus, blocks if walk else None))  # Phi_1 is not classified
    classify = _classify_g2 if rs.family == "G2" else _classify_block
    return tuple([Level(s, f, tuple([classify(*b) for b in blocks]) if blocks else ())
                  for s, f, blocks in walk])


def _classify_block(block: list, balanced: bool, width: int) -> ArrangementType:
    """Pattern-match one block of restricted covectors, each given by its
    nonzero (part, entry) pairs and written out here, densely over the
    ``width`` parts of the inner fusion, as ``raw_hyperplanes``.

    Covectors are primitive and distinct, so a coordinate pair carries at
    most its difference and its sum: with k coordinates, k(k-1) pair
    covectors means every pair carries both (a lone coordinate is BC_1), and
    k(k-1)/2 in a balanced block (an axis unbalances it) means type A.
    """
    support: set[int] = set()
    axes = pairs = 0
    raw = []
    for nz in block:
        cov = [0] * width
        for part, x in nz:
            cov[part] = x
            support.add(part)
        raw.append(tuple(cov))
        if len(nz) == 1:
            axes += 1
        elif len(nz) == 2 and abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1:
            pairs += 1
        else:
            raise ClassificationError(f"covector {raw[-1]} matches no model pattern")
    k = len(support)
    raw = tuple(raw)
    if pairs == k * (k - 1):
        if axes == k:
            return ArrangementType("TypeBC", d=k, raw_hyperplanes=raw)
        if not axes:
            return ArrangementType("TypeD", d=k, raw_hyperplanes=raw)
        return ArrangementType("Exotic", r=axes, s=k - axes, raw_hyperplanes=raw)
    if pairs == k * (k - 1) // 2 and balanced:
        return ArrangementType("TypeA", d=k - 1, raw_hyperplanes=raw)
    raise ClassificationError("hyperplane set matches no model family")


def restricted_arrangement_blocks(
    rs: RootSystem, inner: RootSubsystem, outer: RootSubsystem
) -> list[ArrangementType]:
    """All support-connected blocks of the restricted arrangement, classified.

    The restriction of outer \\ inner to Ker(inner) splits as an orthogonal
    product over blocks of kernel coordinates; the fundamental group of the
    complement is the product over blocks.  Raises ``SubsystemError`` unless
    both subsystems are of rs and inner <= outer <= Phi is a chain of Levi
    subsystems (``levi_chain``).
    """
    if inner.parent != rs or outer.parent != rs:
        raise SubsystemError(f"subsystems of {inner.parent!r}, {outer.parent!r} given for {rs!r}")
    if not inner.member_set <= outer.member_set:
        raise SubsystemError("inner subsystem is not contained in the outer one")
    new = [i for i in outer.members if i not in inner.member_set]
    rest = [i for i in range(len(rs.supports)) if i not in outer.member_set]
    return list(levi_chain(rs, [inner.members, new, rest])[1].blocks)


def _classify_g2(covectors: list[tuple[int, ...]]) -> ArrangementType:
    if len(covectors) == 1:
        return ArrangementType("TypeA", d=1, raw_hyperplanes=tuple(covectors))
    if len(covectors) == 6:
        return ArrangementType("G2Full", raw_hyperplanes=tuple(covectors))
    raise ClassificationError(f"unexpected G2 restriction with {len(covectors)} classes")
