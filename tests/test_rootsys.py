"""Root systems, Levi subsystems, fusions, kernels, and restricted arrangements."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbraid import rootsys
from wildbraid.fission import (
    decompose,
    enumerate_filtration_chains,
    enumerate_levi_subsystems,
    filtration,
    irregular_type_for_chain,
    random_irregular_type,
)
from wildbraid.rootsys import (
    SubsystemError,
    UnsupportedRankError,
    build_root_system,
    cartan,
    fusion_of,
    levi_of_element,
    restricted_arrangement_blocks,
    subsystem,
    subsystem_from_vectors,
)

ALL_SYSTEMS = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(1, 7)]
    + [("C", r) for r in range(1, 7)]
    + [("D", r) for r in range(2, 7)]
    + [("G2", 2)]
)


def expected_count(family, rank):
    return {
        "A": rank * (rank + 1),
        "B": 2 * rank * rank,
        "C": 2 * rank * rank,
        "D": 2 * rank * (rank - 1),
        "G2": 12,
    }[family]


def full_subsystem(rs):
    return subsystem(rs, range(len(rs.roots)))


def empty_subsystem(rs):
    return subsystem(rs, [])


# ---------------------------------------------------------------------------
# build_root_system
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == expected_count(family, rank)
    assert len(set(rs.roots)) == len(rs.roots)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_negation_indexes_each_roots_negative(family, rank):
    # The roots are lex-sorted and symmetric: root i's negative is the
    # mirror index len - 1 - i.
    rs = build_root_system(family, rank)
    n = len(rs.roots)
    assert [rs.roots[n - 1 - i] for i in range(n)] == [tuple(-c for c in r) for r in rs.roots]


def test_a1_smallest_case():
    rs = build_root_system("A", 1)
    assert rs.ambient_dim == 2
    assert set(rs.roots) == {(1, -1), (-1, 1)}


def test_b2_roots_match_printed_set():
    rs = build_root_system("B", 2)
    expected = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert set(rs.roots) == expected


def test_d3_has_a3_cardinality():
    # Exceptional isomorphism D_3 ~ A_3: independent enumerations, equal counts.
    d3 = build_root_system("D", 3)
    a3 = build_root_system("A", 3)
    assert len(d3.roots) == 12
    assert len(d3.roots) == len(a3.roots)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_closure_and_crystallographic(family, rank):
    rs = build_root_system(family, rank)
    roots = set(rs.roots)
    for a in roots:
        assert tuple(-c for c in a) in roots
        for b in roots:
            rootsys.cartan_int(a, b)  # integrality
            assert rootsys.reflect(a, b) in roots


@pytest.mark.parametrize(
    "family,rank", [("D", 1), ("A", 0), ("B", 0), ("G2", 3), ("G2", 1), ("E", 6)]
)
def test_unsupported_combinations_rejected(family, rank):
    with pytest.raises(UnsupportedRankError):
        build_root_system(family, rank)


def test_root_ordering_deterministic():
    rs = build_root_system("B", 3)
    assert list(rs.roots) == sorted(rs.roots)


def dense_roots_reference(family, dim):
    """All roots in ``dim`` ambient coordinates as dense vectors, lex-sorted:
    the enumeration the sparse supports replaced."""
    roots = []
    if family == "G2":
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                short = [0, 0, 0]
                short[i], short[j] = 1, -1
                roots.append(tuple(short))
            lng = [-1, -1, -1]
            lng[i] = 2
            roots.append(tuple(lng))
            roots.append(tuple(-c for c in lng))
        return tuple(sorted(set(roots)))
    if family == "A":
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [0] * dim
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        return tuple(sorted(roots))
    for i in range(dim):
        for j in range(i + 1, dim):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * dim
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    if family in ("B", "C"):
        unit = 1 if family == "B" else 2
        for i in range(dim):
            for s in (unit, -unit):
                v = [0] * dim
                v[i] = s
                roots.append(tuple(v))
    return tuple(sorted(roots))


def lex_positive(r):
    return next(c for c in r if c) > 0


ORDER_SYSTEMS = (
    [(f, r) for f in "ABC" for r in range(1, 11)] + [("D", r) for r in range(2, 11)] + [("G2", 2)]
)


@pytest.mark.parametrize("family,rank", ORDER_SYSTEMS)
def test_sparse_supports_pin_the_dense_root_order(family, rank):
    rs = build_root_system(family, rank)
    reference = dense_roots_reference(family, rs.ambient_dim)
    assert rs.roots == tuple(sorted(reference))
    for support, root in zip(rs.supports, rs.roots, strict=True):
        pairs = list(zip(support[::2], support[1::2]))
        if family != "G2":  # (i, x, j, y), y = 0 only on a one-entry root at j = i
            i, x, j, y = support
            assert i < j if y else i == j
        assert [(c, x) for c, x in pairs if x] == [(c, x) for c, x in enumerate(root) if x]
    n = len(rs.roots)
    assert all(rs.roots[n - 1 - i] == tuple(-c for c in r) for i, r in enumerate(rs.roots))
    assert [i >= n // 2 for i in range(n)] == [lex_positive(r) for r in rs.roots]
    assert rs.positive_indices == tuple(i for i, r in enumerate(rs.roots) if lex_positive(r))


# ---------------------------------------------------------------------------
# Cartan elements and Levi subsystems
# ---------------------------------------------------------------------------


def test_cartan_element_traceless_enforced():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        cartan(rs, [1, 0, 0])
    with pytest.raises(ValueError):
        cartan(rs, [1, -1])  # dimension mismatch


@pytest.mark.parametrize("family", ["A", "G2"])
def test_cartan_element_trace_test_is_exact_on_fractions(family):
    rs = build_root_system(family, 2)
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert cartan(rs, [half, third, Fraction(-5, 6)]).coords == (half, third, Fraction(-5, 6))
    with pytest.raises(ValueError, match="trace-free"):
        cartan(rs, [half, third, -half])
    with pytest.raises(ValueError, match="trace-free"):
        rootsys.CartanElement(rs, (half, third, -half))


def test_cartan_keeps_fraction_inputs():
    rs = build_root_system("A", 2)
    half = Fraction(1, 2)
    coords = cartan(rs, [half, -half, 0]).coords
    assert coords[0] is half
    assert coords == (half, -half, 0) and type(coords[2]) is Fraction


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "G2"])
@pytest.mark.parametrize("bad, text", [("1", "'1'"), (1j, "1j"), (None, "None")])
def test_cartan_element_refuses_entries_without_a_ratio(family, bad, text):
    # Refused when the element is built, on every family, naming the entry;
    # cartan() still reads a string through Fraction.
    rs = build_root_system(family, 2)
    rest = rs.ambient_dim - 2
    message = f"^coordinate entry {re.escape(text)} is not an exact rational$"
    with pytest.raises(ValueError, match=message):
        rootsys.CartanElement(rs, (Fraction(1, 2), bad) + (Fraction(-1, 2),) * rest)
    assert cartan(rs, ["1/2", "-1/2"] + ["0"] * rest).ints == (1, -1) + (0,) * rest


_RATIONALS = st.one_of(
    st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=30)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_RATIONALS, min_size=1, max_size=9))
def test_project_traceless_matches_fraction_reference(values):
    vals = [Fraction(v) for v in values]
    shift = sum(vals) / len(vals)
    got = rootsys.project_traceless(values)
    assert got == tuple(v - shift for v in vals)
    assert all(type(x) is Fraction for x in got) and sum(got) == 0
    # Strings are read through Fraction, and an iterator is read once.
    assert rootsys.project_traceless(iter([str(v) for v in vals])) == got


@pytest.mark.parametrize("members", [(0, 2, 1), (0, 1, 1, 2), (3, 3), (2, 1)])
def test_root_subsystem_rejects_unsorted_or_repeated_members(members):
    rs = build_root_system("A", 2)
    with pytest.raises(SubsystemError, match="^members must be sorted and duplicate-free$"):
        rootsys.RootSubsystem(rs, members)


def test_levi_b2_short_a1():
    rs = build_root_system("B", 2)
    lev = levi_of_element(rs, cartan(rs, [1, 0]))
    assert set(lev.vectors) == {(0, 1), (0, -1)}


def test_levi_zero_element_is_everything():
    rs = build_root_system("A", 2)
    lev = levi_of_element(rs, cartan(rs, [0, 0, 0]))
    assert len(lev.members) == 6


def test_levi_sl3_leading_coefficient():
    rs = build_root_system("A", 2)
    lev = levi_of_element(rs, cartan(rs, [-1, -1, 2]))
    assert set(lev.vectors) == {(1, -1, 0), (-1, 1, 0)}


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_levi_validation_and_levi_property(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(hash((family, rank)) & 0xFFFF)
    pool = [0, 0, 1, -1, 2, Fraction(1, 2)]
    for _ in range(8):
        values = [rng.choice(pool) for _ in range(rs.ambient_dim)]
        if family in ("A", "G2"):
            values = rootsys.project_traceless(values)
        lev = levi_of_element(rs, cartan(rs, values))
        lev.validate()
        assert lev.is_levi()


def ref_root_value(a, root):
    """alpha(a) as a Fraction, summed over every entry of the root."""
    return sum((c * x for c, x in zip(root, a.coords)), Fraction(0))


@st.composite
def cartan_elements(draw):
    """Random Cartan elements over A-D (ranks up to 6) and G2, halves included."""
    family, rank = draw(st.sampled_from(ALL_SYSTEMS))
    rs = build_root_system(family, rank)
    pool = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]
    values = draw(st.lists(st.sampled_from(pool), min_size=rs.ambient_dim, max_size=rs.ambient_dim))
    if family in ("A", "G2"):
        values = rootsys.project_traceless(values)
    return cartan(rs, values)


@settings(max_examples=200, deadline=None)
@given(cartan_elements())
def test_levi_of_element_matches_fraction_reference(a):
    rs = a.rs
    ref = [ref_root_value(a, r) for r in rs.roots]
    assert levi_of_element(rs, a).members == tuple(i for i, v in enumerate(ref) if v == 0)
    # The integer values are the Fraction ones times one positive scale.
    values = rootsys.root_values(a)
    assert all(type(v) is int for v in values)
    scale = next((v / f for v, f in zip(values, ref) if f), 1)
    assert scale > 0
    assert values == [scale * f for f in ref]


@pytest.mark.parametrize("vector", [(1, 1, -2), (1, -1)])
def test_subsystem_from_vectors_names_a_non_root(vector):
    rs = build_root_system("A", 2)
    with pytest.raises(SubsystemError, match=f"^{re.escape(str(vector))} is not a root"):
        subsystem_from_vectors(rs, [(1, -1, 0), vector])


def test_subsystem_validation_rejects_unclosed():
    rs = build_root_system("A", 2)
    # {a1, -a1, a2} is not closed under negation.
    bad = subsystem(
        rs, [rs.index_of((1, -1, 0)), rs.index_of((-1, 1, 0)), rs.index_of((0, 1, -1))]
    )
    with pytest.raises(SubsystemError):
        bad.validate()
    assert not bad.is_levi()


def _rank_brute(vectors) -> int:
    """Rank by Fraction elimination."""
    basis = []  # (pivot, row) with the row scaled so its pivot entry is 1
    for v in vectors:
        w = [Fraction(x) for x in v]
        for p, b in basis:
            w = [x - w[p] * y for x, y in zip(w, b)]
        pivot = next((c for c, x in enumerate(w) if x), None)
        if pivot is not None:
            basis.append((pivot, [x / w[pivot] for x in w]))
    return len(basis)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G2", 2), ("A", 3)])
def test_is_levi_matches_brute_force_on_every_symmetric_subset(family, rank):
    rs = build_root_system(family, rank)
    pairs = [(i, len(rs.roots) - 1 - i) for i in rs.positive_indices]
    levis = 0
    for mask in range(1 << len(pairs)):
        members = [i for k, pair in enumerate(pairs) if mask >> k & 1 for i in pair]
        sub = subsystem(rs, members)
        span_rank = _rank_brute(sub.vectors)
        brute = all(
            (_rank_brute(sub.vectors + (root,)) == span_rank) == (i in sub.member_set)
            for i, root in enumerate(rs.roots)
        )
        assert sub.is_levi() == brute, members
        if brute:
            levis += 1
            sub.validate()
    # Every Levi subsystem annihilates some Cartan element, and vice versa.
    assert levis == len(enumerate_levi_subsystems(rs))


def test_long_roots_of_b2_are_closed_but_not_levi():
    rs = build_root_system("B", 2)
    long_roots = subsystem_from_vectors(rs, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    long_roots.validate()
    assert not long_roots.is_levi()


@pytest.mark.parametrize(
    "family,long_roots",
    [
        ("B", [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        ("G2", [(2, -1, -1), (-2, 1, 1), (-1, 2, -1), (1, -2, 1), (-1, -1, 2), (1, 1, -2)]),
    ],
)
def test_arrangement_rejects_closed_long_roots_inside_the_whole_system(family, long_roots):
    # Closed but not Levi: the short roots lie in the span of the long ones.
    rs = build_root_system(family, 2)
    long_roots = subsystem_from_vectors(rs, long_roots)
    long_roots.validate()
    with pytest.raises(SubsystemError, match="inner is not Levi"):
        restricted_arrangement_blocks(rs, long_roots, full_subsystem(rs))


def test_arrangement_rejects_a_closed_outer_that_is_not_levi():
    # The long roots of B2 are closed, and empty <= long roots is Levi, but
    # the long roots are not Levi in B2: the chain reaches Phi through them.
    rs = build_root_system("B", 2)
    long_roots = subsystem_from_vectors(rs, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    long_roots.validate()
    with pytest.raises(SubsystemError, match="inner is not Levi"):
        restricted_arrangement_blocks(rs, empty_subsystem(rs), long_roots)


def test_arrangement_rejects_subsystems_of_another_system():
    b3, a2 = build_root_system("B", 3), build_root_system("A", 2)
    with pytest.raises(SubsystemError, match=r"RootSystem\(A2\).*RootSystem\(B3\)"):
        restricted_arrangement_blocks(b3, empty_subsystem(a2), full_subsystem(a2))
    with pytest.raises(SubsystemError, match=r"RootSystem\(A2\).*RootSystem\(B3\)"):
        restricted_arrangement_blocks(b3, empty_subsystem(b3), full_subsystem(a2))
    # An equal system built separately is the same system.
    (arr,) = restricted_arrangement_blocks(
        a2, empty_subsystem(build_root_system("A", 2)), full_subsystem(a2)
    )
    assert (arr.kind, arr.d) == ("TypeA", 2)


@pytest.mark.parametrize("family", ["A", "B", "C", "G2"])
def test_arrangement_raises_exactly_off_levi_chains(family):
    # Every pair of symmetric root subsets: the classifier raises
    # SubsystemError exactly when inner <= outer <= Phi is not a chain of
    # Levi subsystems by the brute-force span test, and on every pair that
    # the closure check rejects; every Levi chain classifies.
    rs = build_root_system(family, 2)
    pairs = [(i, len(rs.roots) - 1 - i) for i in rs.positive_indices]
    subs = [
        subsystem(rs, [i for k, pair in enumerate(pairs) if mask >> k & 1 for i in pair])
        for mask in range(1 << len(pairs))
    ]

    def levi_in(sub, within) -> bool:
        span_rank = _rank_brute(sub.vectors)
        return all(
            (_rank_brute(sub.vectors + (rs.roots[i],)) == span_rank) == (i in sub.member_set)
            for i in within.members
        )

    def closed(sub) -> bool:
        try:
            sub.validate()
        except SubsystemError:
            return False
        return True

    full = full_subsystem(rs)
    levi = {sub.members: levi_in(sub, full) for sub in subs}
    is_closed = {sub.members: closed(sub) for sub in subs}
    chains = 0
    for inner in subs:
        for outer in subs:
            chain = (
                inner.member_set <= outer.member_set
                and levi[outer.members]
                and levi_in(inner, outer)
            )
            if not (is_closed[inner.members] and is_closed[outer.members]):
                assert not chain  # so the pair must be rejected below
            if chain:
                restricted_arrangement_blocks(rs, inner, outer)
                chains += 1
                continue
            with pytest.raises(SubsystemError):
                restricted_arrangement_blocks(rs, inner, outer)
    # The chains are the nested pairs of the Levis that Cartan elements cut out.
    levis = [sub.member_set for sub, _ in enumerate_levi_subsystems(rs)]
    assert chains == sum(a <= b for a in levis for b in levis)


@pytest.mark.parametrize(
    "outer",
    [[(-1, 1, 0)], [(1, -1, 0)], [(1, -1, 0), (-1, 1, 0), (0, -1, 1)]],
    ids=["lex-negative", "lex-positive", "pair-and-one"],
)
def test_arrangement_rejects_an_outer_not_closed_under_negation(outer):
    # A root whose negative is missing from its level is in the level's span
    # but not in the level: the level is not Levi, whichever sign it has.
    rs = build_root_system("A", 2)
    with pytest.raises(SubsystemError):
        restricted_arrangement_blocks(rs, empty_subsystem(rs), subsystem_from_vectors(rs, outer))


@pytest.mark.parametrize("family", ["A", "B", "C", "G2"])
def test_levi_chain_raises_exactly_off_levi_chains_on_every_subset(family):
    # Every pair of nested root subsets, symmetric or not (on G2, every
    # outer over a symmetric inner): the classifier raises exactly off the
    # brute-force Levi chains, and is_levi is the brute-force span test.
    rs = build_root_system(family, 2)
    subs = [
        subsystem(rs, [i for i in range(len(rs.roots)) if mask >> i & 1])
        for mask in range(1 << len(rs.roots))
    ]
    span_rank = {sub.members: _rank_brute(sub.vectors) for sub in subs}

    def levi_in(sub, within) -> bool:
        return all(
            (_rank_brute(sub.vectors + (rs.roots[i],)) == span_rank[sub.members])
            == (i in sub.member_set)
            for i in within.members
        )

    full = full_subsystem(rs)
    levi = {sub.members: levi_in(sub, full) for sub in subs}
    assert [sub.is_levi() for sub in subs] == [levi[sub.members] for sub in subs]
    symmetric = lambda sub: all(len(rs.roots) - 1 - i in sub.member_set for i in sub.members)
    for inner in subs if family != "G2" else filter(symmetric, subs):
        for outer in subs:
            if not inner.member_set <= outer.member_set:
                continue
            if levi[outer.members] and levi_in(inner, outer):
                restricted_arrangement_blocks(rs, inner, outer)
                continue
            with pytest.raises(SubsystemError):
                restricted_arrangement_blocks(rs, inner, outer)


# ---------------------------------------------------------------------------
# Coordinate components: the signed fusion of a subsystem
# ---------------------------------------------------------------------------


def test_components_qii_subsystem():
    # The A_1 + A_2 + A_2 Levi of QII fuses coordinate blocks of sizes 2, 3, 3.
    rs = build_root_system("A", 8)
    elem = cartan(rs, rootsys.project_traceless([4, 1, 1, 0, 0, 0, -2, -2, -2]))
    fus = fusion_of(levi_of_element(rs, elem))
    assert fus.parts == ((0,), (1, 2), (3, 4, 5), (6, 7, 8))
    assert fus.signs == ((1,), (1, 1), (1, 1, 1), (1, 1, 1))
    assert fus.zero == ()


def test_components_full_b3():
    rs = build_root_system("B", 3)
    fus = fusion_of(full_subsystem(rs))
    assert fus.parts == ()
    assert fus.zero == (0, 1, 2)


def test_components_d2_pair_is_two_a1():
    rs = build_root_system("D", 4)
    pair = [(1, -1, 0, 0), (1, 1, 0, 0)]
    assert rootsys.dot(*pair) == 0  # two orthogonal A_1 components
    sub = subsystem_from_vectors(rs, pair + [tuple(-x for x in v) for v in pair])
    fus = fusion_of(sub)
    # The sign conflict pins both coordinates: one two-coordinate zero block.
    assert fus.zero == (0, 1)
    assert fus.parts == ((2,), (3,))


def test_components_plus_root_a1_in_d():
    rs = build_root_system("D", 4)
    fus = fusion_of(subsystem_from_vectors(rs, [(1, 1, 0, 0), (-1, -1, 0, 0)]))
    assert fus.zero == ()
    assert fus.parts == ((0, 1), (2,), (3,))
    assert fus.signs[0] == (1, -1)


def test_components_short_long_flavours():
    b3 = build_root_system("B", 3)
    fus = fusion_of(subsystem_from_vectors(b3, [(0, 0, 1), (0, 0, -1)]))
    assert fus.zero == (2,) and fus.parts == ((0,), (1,))
    c3 = build_root_system("C", 3)
    fus = fusion_of(subsystem_from_vectors(c3, [(0, 0, 2), (0, 0, -2)]))
    assert fus.zero == (2,) and fus.parts == ((0,), (1,))


def test_components_c_family_block():
    rs = build_root_system("C", 4)
    fus = fusion_of(levi_of_element(rs, cartan(rs, [1, 1, 0, 0])))
    # e_1 - e_2 fuses (0, 1); the pinned block is a C_2 on (2, 3).
    assert fus.parts == ((0, 1),) and fus.signs == ((1, 1),)
    assert fus.zero == (2, 3)


def test_components_partition_covers_coordinates():
    rs = build_root_system("D", 5)
    fus = fusion_of(levi_of_element(rs, cartan(rs, [1, 1, -1, 0, 0])))
    coords = sorted(c for part in fus.parts + (fus.zero,) for c in part)
    assert coords == list(range(5))


def test_component_classification_weyl_invariant():
    # A Weyl reflection acts on coordinates by a signed permutation, so it
    # keeps the part sizes and the size of the pinned block.
    rng = random.Random(11)
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        pool = [0, 0, 1, -1]
        for _ in range(6):
            values = [rng.choice(pool) for _ in range(rs.ambient_dim)]
            if family == "A":
                values = rootsys.project_traceless(values)
            sub = levi_of_element(rs, cartan(rs, values))
            fus = fusion_of(sub)
            shape = (sorted(len(p) for p in fus.parts), len(fus.zero))
            mirror = rs.roots[rng.choice(range(len(rs.roots)))]
            reflected = fusion_of(
                subsystem_from_vectors(rs, [rootsys.reflect(v, mirror) for v in sub.vectors])
            )
            assert (sorted(len(p) for p in reflected.parts), len(reflected.zero)) == shape


SIGNED_CLASSES = {
    # name: (n, hyperplane supports, root, sign, pinned)
    "empty": (2, [], [0, 1], [1, 1], set()),
    "lone-pin": (3, [((1, 2),)], [0, 1, 2], [1, 1, 1], {1}),
    "difference": (2, [((0, 1), (1, -1))], [0, 0], [1, 1], set()),
    "sum": (2, [((0, 1), (1, 1))], [0, 0], [1, -1], set()),
    "glued-to-smallest": (3, [((2, 1), (1, 1))], [0, 1, 1], [1, 1, -1], set()),
    "sign-carried-along": (3, [((0, 1), (1, 1)), ((1, 1), (2, -1))], [0, 0, 0], [1, -1, -1], set()),
    "d2-conflict": (3, [((0, 1), (2, -1)), ((0, 1), (2, 1))], [0, 1, 0], [1, 1, 1], {0}),
    "pin-reaches-class": (3, [((0, 1), (1, 1)), ((1, -2),)], [0, 0, 2], [1, -1, 1], {0}),
    "balanced-triangle": (
        3, [((0, 1), (1, -1)), ((1, 1), (2, 1)), ((0, 1), (2, 1))], [0, 0, 0], [1, 1, -1], set()
    ),
    "unbalanced-triangle": (
        3, [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 1), (2, 1))], [0, 0, 0], [1, 1, 1], {0}
    ),
}


@pytest.mark.parametrize("case", SIGNED_CLASSES, ids=list(SIGNED_CLASSES))
def test_signed_classes_on_hyperplane_supports(case):
    n, hyperplanes, root, sign, pinned = SIGNED_CLASSES[case]
    assert rootsys._signed_classes(n, hyperplanes) == (root, sign, pinned)


def test_refine_glues_parts_with_their_signs():
    # Parts (0, 2) with signs (1, -1), (1,), (3,) and (4,); y_1 = -y_0 joins
    # part 1 to part 0, and an axis on y_2 pins coordinate 3.
    fus = rootsys.Fusion(((0, 2), (1,), (3,), (4,)), ((1, -1), (1,), (1,), (1,)), (5,))
    got = rootsys._refine(fus, rootsys._signed_classes(4, [((0, 1), (1, 1)), ((2, -1),)]))
    assert got == rootsys.Fusion(((0, 1, 2), (4,)), ((1, -1, -1), (1,)), (3, 5))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def cartan_kernel(rs, sub):
    """Integer basis of the common kernel of sub inside the Cartan subalgebra
    (the trace-free subspace for families A and G2)."""
    rows = list(sub.vectors)
    if rs.family in ("A", "G2"):
        rows.append((1,) * rs.ambient_dim)
    return rootsys.linalg.integer_nullspace(rows, rs.ambient_dim)


def test_kernel_a3_fused():
    rs = build_root_system("A", 3)
    sub = subsystem_from_vectors(rs, [(1, -1, 0, 0), (-1, 1, 0, 0)])
    basis = cartan_kernel(rs, sub)
    assert len(basis) == 2
    for b in basis:
        assert b[0] == b[1]  # fused pair
        assert sum(b) == 0
    assert fusion_of(sub).parts == ((0, 1), (2,), (3,))


def test_kernel_full_spanning_system_is_zero():
    for family, rank in [("B", 3), ("C", 2), ("A", 4), ("D", 4), ("G2", 2)]:
        rs = build_root_system(family, rank)
        assert cartan_kernel(rs, full_subsystem(rs)) == []


def test_kernel_empty_subsystem_full_cartan():
    rs = build_root_system("D", 3)
    assert len(cartan_kernel(rs, empty_subsystem(rs))) == 3


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_kernel_dimension_formula(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(hash((family, rank, "k")) & 0xFFFF)
    pool = [0, 0, 1, -1, 3]
    for _ in range(6):
        values = [rng.choice(pool) for _ in range(rs.ambient_dim)]
        if family in ("A", "G2"):
            values = rootsys.project_traceless(values)
        sub = levi_of_element(rs, cartan(rs, values))
        basis = cartan_kernel(rs, sub)
        assert len(basis) == rs.rank - sub.rank
        for b in basis:
            assert all(rootsys.dot(v, b) == 0 for v in sub.vectors)


LEVI_SYSTEMS = (
    [("A", r) for r in range(1, 5)]
    + [(f, r) for f in "BC" for r in range(1, 4)]
    + [("D", r) for r in range(2, 5)]
)


@pytest.mark.parametrize("family,rank", LEVI_SYSTEMS)
def test_levi_rank_is_dimension_minus_fused_parts(family, rank):
    # The pinned zero block is not a part: it contributes rank, not kernel.
    rs = build_root_system(family, rank)
    for sub, _ in enumerate_levi_subsystems(rs):
        assert sub.rank == rs.ambient_dim - len(fusion_of(sub).parts)


# ---------------------------------------------------------------------------
# Restricted arrangements
# ---------------------------------------------------------------------------


def test_arrangement_a3_levi_pair():
    rs = build_root_system("A", 3)
    inner = subsystem_from_vectors(rs, [(1, -1, 0, 0), (-1, 1, 0, 0)])
    (arr,) = restricted_arrangement_blocks(rs, inner, full_subsystem(rs))
    assert (arr.kind, arr.d) == ("TypeA", 2)
    assert arr.hyperplane_count == 3
    # Independent oracle: restrict all remaining roots to the kernel basis
    # directly and dedupe up to scalar.
    basis = cartan_kernel(rs, inner)
    classes = set()
    for root in rs.roots:
        values = tuple(rootsys.dot(root, b) for b in basis)
        if any(values):
            classes.add(rootsys.linalg.primitive(values))
    assert len(classes) == 3


def test_arrangement_d3_exotic():
    rs = build_root_system("D", 3)
    inner = subsystem_from_vectors(rs, [(1, -1, 0), (-1, 1, 0)])
    (arr,) = restricted_arrangement_blocks(rs, inner, full_subsystem(rs))
    assert (arr.kind, arr.r, arr.s) == ("Exotic", 1, 1)
    assert arr.hyperplane_count == 3


def test_arrangement_b2_full():
    rs = build_root_system("B", 2)
    (arr,) = restricted_arrangement_blocks(rs, empty_subsystem(rs), full_subsystem(rs))
    assert (arr.kind, arr.d) == ("TypeBC", 2)
    assert arr.hyperplane_count == 4


def test_arrangement_d4_two_a1_regression():
    # Frozen after confirming against the raw-hyperplane oracle: the kernel is
    # spanned by e_1+e_2 and e_3+e_4, and the restrictions of the 20 remaining
    # roots dedupe to the four covectors of the full B_2 pattern.
    rs = build_root_system("D", 4)
    inner = subsystem_from_vectors(
        rs, [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    )
    (arr,) = restricted_arrangement_blocks(rs, inner, full_subsystem(rs))
    assert (arr.kind, arr.d) == ("TypeBC", 2)
    assert sorted(arr.raw_hyperplanes) == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_arrangement_d2_pair_block_is_type_d():
    rs = build_root_system("D", 4)
    outer = subsystem_from_vectors(
        rs, [(0, 0, 1, -1), (0, 0, -1, 1), (0, 0, 1, 1), (0, 0, -1, -1)]
    )
    (arr,) = restricted_arrangement_blocks(rs, empty_subsystem(rs), outer)
    assert (arr.kind, arr.d) == ("TypeD", 2)


def test_arrangement_family_a_always_type_a():
    # Exhaustive over every Levi of A_1..A_4 against the full system.
    for rank in range(1, 5):
        rs = build_root_system("A", rank)
        for sub, _ in enumerate_levi_subsystems(rs):
            blocks = restricted_arrangement_blocks(rs, sub, full_subsystem(rs))
            if len(sub.members) == len(rs.roots):
                assert blocks == []
                continue
            (arr,) = blocks
            assert arr.kind == "TypeA"
            assert arr.d == len(cartan_kernel(rs, sub))


def test_arrangement_splits_into_orthogonal_blocks():
    rs = build_root_system("A", 8)
    outer = levi_of_element(
        rs, cartan(rs, rootsys.project_traceless([4, 1, 1, 0, 0, 0, -2, -2, -2]))
    )
    blocks = restricted_arrangement_blocks(rs, empty_subsystem(rs), outer)
    assert sorted(b.describe() for b in blocks) == ["TypeA(1)", "TypeA(2)", "TypeA(2)"]


def test_arrangement_inclusion_violation_rejected():
    rs = build_root_system("A", 2)
    inner = levi_of_element(rs, cartan(rs, [-1, -1, 2]))
    other = subsystem_from_vectors(rs, [(0, 1, -1), (0, -1, 1)])
    with pytest.raises(SubsystemError):
        restricted_arrangement_blocks(rs, inner, other)


def test_arrangement_counts_verified_on_samples():
    rng = random.Random(5)
    for family, rank in [("B", 4), ("C", 4), ("D", 4), ("A", 4)]:
        rs = build_root_system(family, rank)
        pool = [0, 0, 1, -1, 2]
        for _ in range(10):
            values = [rng.choice(pool) for _ in range(rs.ambient_dim)]
            if family == "A":
                values = rootsys.project_traceless(values)
            inner = levi_of_element(rs, cartan(rs, values))
            for arr in restricted_arrangement_blocks(rs, inner, full_subsystem(rs)):
                assert arr.hyperplane_count == arr.expected_count()


def test_g2_full_arrangement():
    rs = build_root_system("G2", 2)
    (arr,) = restricted_arrangement_blocks(rs, empty_subsystem(rs), full_subsystem(rs))
    assert arr.kind == "G2Full"
    assert arr.hyperplane_count == 6


# ---------------------------------------------------------------------------
# The classifier against a reference: per-pair difference/sum tables, a
# depth-first balance test and an unsigned union-find over supports
# ---------------------------------------------------------------------------


def ref_classify_block(covectors):
    support = sorted({c for cov in covectors for c, x in enumerate(cov) if x})
    axes = set()
    diff, summ = {}, {}
    for cov in covectors:
        nz = [(c, x) for c, x in enumerate(cov) if x]
        if len(nz) == 1:
            axes.add(nz[0][0])
        elif len(nz) == 2 and abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1:
            key = (nz[0][0], nz[1][0])
            if nz[0][1] * nz[1][1] < 0:
                diff[key] = True
            else:
                summ[key] = True
        else:
            raise rootsys.ClassificationError(f"covector {cov} matches no model pattern")
    k = len(support)
    pairs = [(a, b) for i, a in enumerate(support) for b in support[i + 1 :]]
    raw = tuple(covectors)
    if k == 1:
        return rootsys.ArrangementType("TypeBC", d=1, raw_hyperplanes=raw)
    if all(diff.get(p) and summ.get(p) for p in pairs):
        if len(axes) == k:
            return rootsys.ArrangementType("TypeBC", d=k, raw_hyperplanes=raw)
        if not axes:
            return rootsys.ArrangementType("TypeD", d=k, raw_hyperplanes=raw)
        return rootsys.ArrangementType(
            "Exotic", r=len(axes), s=k - len(axes), raw_hyperplanes=raw
        )
    single = not axes and all(bool(diff.get(p)) != bool(summ.get(p)) for p in pairs)
    if single and ref_sign_consistent(support, diff, summ):
        return rootsys.ArrangementType("TypeA", d=k - 1, raw_hyperplanes=raw)
    raise rootsys.ClassificationError("hyperplane set matches no model family")


def ref_sign_consistent(support, diff, summ):
    """Whether coordinate sign flips turn every pair covector into a difference."""
    sign = {}
    for c in support:
        if c in sign:
            continue
        sign[c] = 1
        stack = [c]
        while stack:
            a = stack.pop()
            for (x, y), _ in list(diff.items()) + list(summ.items()):
                if a not in (x, y):
                    continue
                b = y if a == x else x
                want = sign[a] * (1 if diff.get((x, y)) else -1)
                if b in sign:
                    if sign[b] != want:
                        return False
                else:
                    sign[b] = want
                    stack.append(b)
    return True


def ref_blocks(covectors):
    """Group covectors by shared support coordinates."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cov in covectors:
        supp = [c for c, x in enumerate(cov) if x]
        for c in supp:
            parent.setdefault(c, c)
        for c in supp[1:]:
            parent[find(supp[0])] = find(c)
    groups = {}
    for cov in covectors:
        groups.setdefault(find(next(c for c, x in enumerate(cov) if x)), []).append(cov)
    return list(groups.values())


def ref_arrangement_blocks(rs, inner, outer):
    """The reference blocks, smallest coordinate first."""
    new = [i for i in outer.members if i not in inner.member_set]
    covectors, _ = rootsys._restricted_covectors(rs, inner, new, fusion_of(inner))
    return ref_classified(covectors)


def ref_classified(covectors):
    """The reference blocks of restricted covectors, smallest coordinate first."""
    blocks = [ref_classify_block(b) for b in ref_blocks(covectors)]
    return sorted(
        blocks,
        key=lambda arr: min(c for cov in arr.raw_hyperplanes for c, x in enumerate(cov) if x),
    )


@pytest.mark.parametrize("family,rank", LEVI_SYSTEMS + [("B", 4), ("C", 4)])
def test_arrangement_blocks_match_reference_on_every_levi_pair(family, rank):
    rs = build_root_system(family, rank)
    levis = [sub for sub, _ in enumerate_levi_subsystems(rs)]
    pairs = 0
    for inner in levis:
        for outer in levis:
            if inner.member_set <= outer.member_set:
                want = ref_arrangement_blocks(rs, inner, outer)
                assert restricted_arrangement_blocks(rs, inner, outer) == want
                pairs += 1
    assert pairs > len(levis)


def test_arrangement_blocks_match_reference_on_random_types():
    rng = random.Random(20261019)
    systems = [(f, r) for f in "ABCD" for r in range(2 if f == "D" else 1, 8)]
    for _ in range(60):
        rs = build_root_system(*rng.choice(systems))
        q = random_irregular_type(rs, rng.randint(1, 4), rng)
        levels = filtration(q).levels
        for inner, outer in zip(levels, levels[1:]):
            want = ref_arrangement_blocks(rs, inner, outer)
            assert restricted_arrangement_blocks(rs, inner, outer) == want


def nonzero_pairs(covectors):
    """The nonzero (coordinate, entry) pairs of each covector."""
    return [tuple((c, x) for c, x in enumerate(cov) if x) for cov in covectors]


def classify(rs, covectors):
    """The classifier on covectors, handed their nonzero pairs and signed
    classes recomputed here, where ``levi_chain`` hands on its own."""
    pairs = nonzero_pairs(covectors)
    classes = rootsys._signed_classes(len(covectors[0]), pairs)
    return rootsys._arrangement_blocks(rs, covectors, pairs, classes)


@pytest.mark.parametrize(
    "covectors,message",
    [
        ([(1, 1, 1)], "matches no model pattern"),
        ([(1, -1, 0), (0, 1, -1), (1, 0, 1)], "matches no model family"),
        ([(1, 0), (1, -1)], "matches no model family"),
    ],
    ids=["three-entry", "unbalanced-triangle", "axis-with-single-pair"],
)
def test_arrangement_classifier_rejects(covectors, message):
    rs = build_root_system("B", 3)
    with pytest.raises(rootsys.ClassificationError, match=message):
        classify(rs, covectors)


def test_arrangement_balanced_triangle_is_type_a():
    # The triangle above with e_a + e_c turned into e_a - e_c is balanced.
    covectors = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    (arr,) = classify(build_root_system("B", 3), covectors)
    assert (arr.kind, arr.d) == ("TypeA", 2)


def sweep_types():
    """The exhaustive rank <= 3, p = 2 chains and seeded random rank <= 6
    types of families A-D."""
    for family, rank in [(f, r) for f in "ABCD" for r in range(2 if f == "D" else 1, 4)]:
        rs = build_root_system(family, rank)
        for chain in enumerate_filtration_chains(rs, 2):
            yield irregular_type_for_chain(rs, chain)
    rng = random.Random(20261019)
    for family in "ABCD":
        for rank in range(2 if family == "D" else 1, 7):
            rs = build_root_system(family, rank)
            for p in range(1, 5):
                yield random_irregular_type(rs, p, rng)


def test_one_signed_union_find_per_changing_level(monkeypatch):
    # decompose(q, "check") runs _signed_classes once for Phi_1 (fusion_of)
    # and once per changing level, and the classifier is handed that
    # level's own classes (the very object the union-find returned), on
    # the covectors' nonzero pairs; each changing level's blocks are the
    # reference classification of its restricted covectors.
    found, handed = [], []
    signed_classes, arrangement_blocks = rootsys._signed_classes, rootsys._arrangement_blocks

    def count(*args):
        found.append(signed_classes(*args))
        return found[-1]

    def record(rs, covectors, pairs, classes):
        handed.append((covectors, pairs, classes))
        return arrangement_blocks(rs, covectors, pairs, classes)

    monkeypatch.setattr(rootsys, "_signed_classes", count)
    monkeypatch.setattr(rootsys, "_arrangement_blocks", record)
    cases = blocks = 0
    for q in sweep_types():
        found.clear()
        handed.clear()
        decompose(q, "check")
        chain = filtration(q).chain
        changing = [(a, b) for a, b in zip(chain, chain[1:]) if a.sub != b.sub]
        assert len(found) == 1 + len(changing) == 1 + len(handed)
        for (covectors, pairs, classes), own in zip(handed, found[1:]):
            assert pairs == nonzero_pairs(covectors)
            assert classes is own
        for below, level in changing:
            assert level.blocks == tuple(ref_arrangement_blocks(q.rs, below.sub, level.sub))
            blocks += len(level.blocks)
        cases += 1
    assert cases > 400 and blocks > cases
