"""Degree profiles, filtrations, fission trees, and group decompositions."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbraid import cli, fission, rootsys, selfcheck
from wildbraid.fission import (
    BLUE,
    GREEN,
    LARGE,
    SMALL,
    DecompositionMismatchError,
    Factor,
    FissionTree,
    GroupDecomposition,
    IrregularType,
    TreeNode,
    UnsupportedFamilyError,
    check_tree_invariants,
    coordinate_fusions,
    decompose,
    decomposition_from_tree,
    decomposition_via_arrangements,
    degree_profile,
    enumerate_filtration_chains,
    enumerate_levi_subsystems,
    filtration,
    fission_tree,
    irregular_type,
    irregular_type_for_chain,
    level_factors,
    merge_decompositions,
    random_irregular_type,
)
from wildbraid.rootsys import (
    Fusion,
    build_root_system,
    cartan,
    fusion_of,
    project_traceless,
    restricted_arrangement_blocks,
)


def sl3_example():
    rs = build_root_system("A", 2)
    return rs, irregular_type(rs, [(-1, 1, 0), (-1, -1, 2)])


def a8_type(vectors):
    rs = build_root_system("A", 8)
    return irregular_type(rs, vectors)


Q_I = [
    (4, 3, 2, 1, 0, -1, -2, -3, -4),
    (4, 4, 3, 2, 1, 0, -3, -4, -7),
    (2, 2, 1, 1, 1, 0, 0, 0, -7),
]
Q_II = [
    (4, 3, 2, 1, 0, -1, -2, -3, -4),
    (4, 1, 1, 0, 0, 0, -2, -2, -2),
]
Q_III = [
    (4, 3, 2, 1, 0, -1, -2, -3, -4),
    (4, 4, 3, 2, 1, 0, -3, -4, -7),
    (2, 2, 2, 2, 1, 0, -3, -3, -3),
    (1, 1, 1, 1, 1, 1, 0, -2, -4),
]


# ---------------------------------------------------------------------------
# Degree profiles and filtrations
# ---------------------------------------------------------------------------


def test_profile_sl3():
    rs, q = sl3_example()
    prof = degree_profile(q)
    assert prof[rs.index_of((1, -1, 0))] == 1
    assert prof[rs.index_of((1, 0, -1))] == 2
    assert prof[rs.index_of((0, 1, -1))] == 2
    assert prof[rs.index_of((-1, 1, 0))] == 1  # d_alpha = d_{-alpha}


def test_profile_zero_coefficients():
    rs = build_root_system("B", 2)
    q = irregular_type(rs, [(0, 0), (0, 0)])
    assert set(degree_profile(q)) == {0}


def test_profile_generic_leading():
    rs = build_root_system("A", 3)
    q = irregular_type(rs, [(0, 0, 0, 0), project_traceless([1, 2, 4, 8])])
    assert set(degree_profile(q)) == {2}


_PROFILE_POOL = (0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(5, 7))


@st.composite
def types_with_zero_coefficients(draw):
    family = draw(st.sampled_from(("A", "B", "C", "D", "G2")))
    rank = 2 if family == "G2" else draw(st.integers(2 if family == "D" else 1, 5))
    rs = build_root_system(family, rank)
    n = rs.ambient_dim
    coeffs = []
    for _ in range(draw(st.integers(1, 5))):
        values = [0] * n  # a planted zero coefficient, unless drawn otherwise
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(_PROFILE_POOL), min_size=n, max_size=n))
            if family in ("A", "G2"):
                values = project_traceless(values)
        coeffs.append(values)
    return irregular_type(rs, coeffs)


@settings(max_examples=200, deadline=None)
@given(types_with_zero_coefficients())
def test_degree_profile_matches_fraction_reference(q):
    # max{i : alpha(A_i) != 0}, from plain Fraction sums over every entry.
    want = tuple(
        max(
            (
                i
                for i, a in enumerate(q.coefficients, start=1)
                if sum((Fraction(x) * v for x, v in zip(root, a.coords)), Fraction(0))
            ),
            default=0,
        )
        for root in q.rs.roots
    )
    assert degree_profile(q) == want


@pytest.mark.parametrize(
    "q",
    [
        a8_type([Q_I[0], (0,) * 9, Q_I[2], (0,) * 9]),
        irregular_type(build_root_system("B", 3), [(0, 0, 0), (1, Fraction(1, 2), 0), (0, 0, 0)]),
        irregular_type(build_root_system("G2", 2), [(0, 0, 0), (1, -1, 0)]),
    ],
    ids=["a8", "b3", "g2"],
)
def test_root_values_runs_once_per_nonzero_coefficient(q, monkeypatch):
    seen = []
    root_values = rootsys.root_values
    monkeypatch.setattr(rootsys, "root_values", lambda a: seen.append(a) or root_values(a))
    decompose(q, method="check")
    assert seen == [a for a in q.coefficients if any(a.coords)]


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "G2"])
def test_no_coefficient_is_cleared_again_once_built(family, monkeypatch):
    # Both routes read each coefficient's integer column ``ints``, cleared
    # of denominators when the coefficient was built, and never clear again.
    rs = build_root_system(family, 2 if family == "G2" else 4)
    rng = random.Random(23)
    qs = [random_irregular_type(rs, p, rng) for p in (1, 2, 3, 3)]
    assert any(type(x) is Fraction and x.denominator > 1 for q in qs for a in q.coefficients
               for x in a.coords)
    calls = []
    integer_vector, cleared = rootsys.linalg.integer_vector, rootsys.linalg.cleared
    monkeypatch.setattr(rootsys.linalg, "integer_vector", lambda v: calls.append(v) or integer_vector(v))
    monkeypatch.setattr(rootsys.linalg, "cleared", lambda v, name: calls.append(v) or cleared(v, name))
    for q in qs:
        decompose(q, "check")
        if family != "G2":
            fission_tree(q)
        level_factors(q)
    assert calls == []


def every_level_type(rs, p):
    """A_k = e_k for k = 1..p (on A, n e_k - (1, ..., 1), which has trace zero)."""
    n = rs.ambient_dim
    unit = [[int(c == k) for c in range(n)] for k in range(p)]
    if rs.family == "A":
        unit = [[n * x - 1 for x in row] for row in unit]
    return irregular_type(rs, unit)


@pytest.mark.parametrize("family", "ABCD")
def test_root_route_builds_no_dense_roots(family):
    # The root side of decompose(q, "check") reads only the flat supports,
    # with every level changing and on a random type.
    rng = random.Random(12)
    for q in [
        every_level_type(build_root_system(family, 12), 6),
        random_irregular_type(build_root_system(family, 12), 3, rng),
    ]:
        decompose(q, "check")
        assert "supports" in q.rs.__dict__ and "roots" not in q.rs.__dict__


@pytest.mark.parametrize("family,rank", [("A", 5), ("B", 4), ("C", 4), ("D", 5), ("G2", 2)])
def test_root_values_mirror_the_positive_half(family, rank):
    rs = build_root_system(family, rank)
    rng = random.Random(7)
    for _ in range(20):
        values = [rng.choice(_PROFILE_POOL) for _ in range(rs.ambient_dim)]
        if family in ("A", "G2"):
            values = project_traceless(values)
        a = cartan(rs, values)
        got = rootsys.root_values(a)
        assert all(got[-1 - i] == -got[i] for i in range(len(got)))
        ints = rootsys.linalg.integer_vector(a.coords)
        assert got == [rootsys.dot(root, ints) for root in rs.roots]


def test_filtration_qi():
    q = a8_type(Q_I)
    filt = filtration(q)
    assert [len(s.members) for s in filt.levels] == [0, 2, 2 + 6 + 6, 72]


def test_filtration_qiii():
    q = a8_type(Q_III)
    filt = filtration(q)
    # empty <= A_1 <= A_3 <= A_5 <= A_8 counts k(k+1)
    assert [len(s.members) for s in filt.levels] == [0, 2, 12, 30, 72]


def test_filtration_single_generic_level():
    rs = build_root_system("A", 2)
    q = irregular_type(rs, [project_traceless([1, 2, 4])])
    filt = filtration(q)
    assert [len(s.members) for s in filt.levels] == [0, 6]


def test_filtration_is_built_once_per_instance():
    q = a8_type(Q_I)
    assert filtration(q) is filtration(q)
    # An equal but separate instance gets its own, equal filtration.
    q2 = a8_type(Q_I)
    assert q2 == q and filtration(q2) is not filtration(q)
    assert filtration(q2) == filtration(q)


@pytest.mark.parametrize(
    "q",
    [
        a8_type(Q_I),
        a8_type([Q_I[0], (0,) * 9, Q_I[2], (0,) * 9]),
        irregular_type(build_root_system("G2", 2), [(1, -1, 0), (1, 1, -2)]),
    ],
    ids=["qi", "repeated-levels", "g2"],
)
def test_root_side_pass_calls_no_is_levi(q, monkeypatch):
    # The pass's restricted-covector check is its one Levi test.
    def refuse(self):
        raise AssertionError("is_levi called")

    monkeypatch.setattr(rootsys.RootSubsystem, "is_levi", refuse)
    for method in ("check", "oracle", "tree"):
        decompose(IrregularType(q.rs, q.coefficients), method=method)
    level_factors(q)
    assert len(filtration(q).levels) == q.p + 1


# Planted levels below the whole system, bottom first; each holds the ones
# below it.  Every case has a level that is not Levi in the whole system.
NON_LEVI_LEVELS = {
    "a2-not-closed": ("A", 2, [[(1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1)]]),
    "a2-missing-negative": ("A", 2, [[(1, -1, 0)]]),
    # The pair below the bad level is Levi but does not classify: every
    # pair's Levi test runs before any pair is classified.
    "a2-unclassifiable-pair-below": ("A", 2, [[], [(1, -1, 0), (-1, 1, 0), (0, 1, -1)]]),
    "a3-below-a-levi-level": (
        "A", 3,
        [
            [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 1, -1, 0), (0, -1, 1, 0)],
            [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 1, -1, 0), (0, -1, 1, 0),
             (1, 0, -1, 0), (-1, 0, 1, 0)],
        ],
    ),
    "b2-long-roots": ("B", 2, [[(1, 1), (1, -1), (-1, 1), (-1, -1)]]),
    "b2-positive-roots": ("B", 2, [[(1, 1), (1, -1), (1, 0), (0, 1)]]),
    "c3-two-long-roots": ("C", 3, [[(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0)]]),
    "d3-missing-negative": ("D", 3, [[(1, 1, 0)]]),
    "d4-two-d2-pairs": (
        "D", 4,
        [[(a, b, 0, 0) for a in (1, -1) for b in (1, -1)]
         + [(0, 0, a, b) for a in (1, -1) for b in (1, -1)]],
    ),
    "g2-short-roots": (
        "G2", 2,
        [[r for r in build_root_system("G2", 2).roots if max(map(abs, r)) == 1]],
    ),
    "g2-missing-negative": ("G2", 2, [[(1, -1, 0)]]),
}


@pytest.mark.parametrize("case", NON_LEVI_LEVELS, ids=list(NON_LEVI_LEVELS))
def test_root_side_pass_rejects_a_non_levi_level(case, monkeypatch):
    family, rank, planted = NON_LEVI_LEVELS[case]
    rs = build_root_system(family, rank)
    p = len(planted)
    degrees = tuple(
        next((level for level, roots in enumerate(planted) if root in roots), p)
        for root in rs.roots
    )
    monkeypatch.setattr(fission, "degree_profile", lambda q: degrees)
    zero = (0,) * rs.ambient_dim
    for run in (filtration, lambda q: decompose(q, "oracle"), lambda q: decompose(q, "check")):
        with pytest.raises(rootsys.SubsystemError, match="inner is not Levi"):
            run(irregular_type(rs, [zero] * p))


@pytest.mark.parametrize(
    "vectors",
    [Q_I, [Q_I[0], (0,) * 9, Q_I[2], (0,) * 9]],
    ids=["qi", "repeated-levels"],
)
def test_one_root_side_pass_per_instance(vectors, monkeypatch):
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append((name, args)) or fn(*args)

    monkeypatch.setattr(rootsys, "fusion_of", counted("fusion", fusion_of))
    restrict = rootsys._restricted_covectors
    monkeypatch.setattr(rootsys, "_restricted_covectors", counted("restrict", restrict))
    q = a8_type(vectors)
    decompose(q, method="check")
    level_factors(q)
    decomposition_via_arrangements(q)
    levels = filtration(q).levels
    pairs = list(zip(levels, levels[1:]))
    # One fusion_of per pass, on Phi_1 (every level above is refined from
    # the one below), and one restriction per changing pair, which is
    # passed the roots outer \ inner in ascending order.
    changing = [
        (a.members, sorted(set(b.members) - set(a.members)))
        for a, b in pairs
        if a.members != b.members
    ]
    assert [args[0].members for name, args in calls if name == "fusion"] == [levels[0].members]
    assert [
        (args[1].members, args[2]) for name, args in calls if name == "restrict"
    ] == changing


@pytest.mark.parametrize(
    "q",
    [
        a8_type(Q_III),
        irregular_type(build_root_system("G2", 2), [(1, -1, 0), (1, 1, -2)]),
    ],
    ids=["qiii", "g2"],
)
def test_level_factors_are_kept_and_immutable(q):
    per_level = level_factors(q)
    assert level_factors(q) is per_level
    with pytest.raises(TypeError):
        per_level[0] = (1, ())
    assert per_level == level_factors(IrregularType(q.rs, q.coefficients))


# ---------------------------------------------------------------------------
# Coordinate fusions: the tree path's analysis, with no roots
# ---------------------------------------------------------------------------


@st.composite
def classical_types(draw):
    family = draw(st.sampled_from("ABCD"))
    rank = draw(st.integers(2 if family == "D" else 1, 7))
    p = draw(st.integers(1, 4))
    rs = build_root_system(family, rank)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_irregular_type(rs, p, rng)


@settings(max_examples=300, deadline=None)
@given(classical_types())
def test_coordinate_fusions_equal_root_fusions(q):
    # Parts, signs and the pinned block of every level, Phi_1..Phi_{p+1}.
    want = tuple(fusion_of(level) for level in filtration(q).levels)
    assert coordinate_fusions(q) == want


@st.composite
def types_with_planted_levels(draw):
    """Classical types where a coefficient may be zero or repeat an earlier
    one; either leaves a degree bucket empty, so the level repeats."""
    family = draw(st.sampled_from("ABCD"))
    rs = build_root_system(family, draw(st.integers(2 if family == "D" else 1, 7)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = list(random_irregular_type(rs, draw(st.integers(1, 5)), rng).coefficients)
    for i in range(len(coeffs)):
        plant = draw(st.sampled_from(("keep", "zero", "repeat")))
        if plant == "zero":
            coeffs[i] = cartan(rs, [0] * rs.ambient_dim)
        elif plant == "repeat" and i:
            coeffs[i] = coeffs[draw(st.integers(0, i - 1))]
    return IrregularType(rs, tuple(coeffs))


def assert_chain_fusions_are_level_fusions(q):
    # Each level's fusion, refined from the level below, is the fusion built
    # from all of that level's roots; each level's blocks are the classified
    # arrangement over the level below, and none on a level that repeats it.
    chain = filtration(q).chain
    assert tuple(level.fusion for level in chain) == tuple(
        fusion_of(level.sub) for level in chain
    )
    assert chain[0].blocks == ()
    for below, level in zip(chain, chain[1:]):
        assert list(level.blocks) == restricted_arrangement_blocks(q.rs, below.sub, level.sub)
        if level.sub == below.sub:
            assert level.blocks == ()


@settings(max_examples=300, deadline=None)
@given(types_with_planted_levels())
def test_chain_fusions_equal_level_fusions(q):
    assert_chain_fusions_are_level_fusions(q)


@pytest.mark.parametrize("family", "ABCD")
def test_chain_fusions_equal_level_fusions_on_every_p3_chain(family):
    # Every weak chain of three Levi subsystems (zero and repeated levels
    # included), realised by its witnesses, at every rank up to 4.
    chains = 0
    for rank in range(2 if family == "D" else 1, 5):
        rs = build_root_system(family, rank)
        for chain in enumerate_filtration_chains(rs, 3):
            assert_chain_fusions_are_level_fusions(irregular_type_for_chain(rs, chain))
            chains += 1
    assert chains == {"A": 1484, "B": 3912, "C": 3912, "D": 2130}[family]


def test_coordinate_fusions_d_lone_zero_is_a_part():
    rs = build_root_system("D", 3)
    q = IrregularType(rs, (cartan(rs, [0, 1, -1]), cartan(rs, [0, 1, -1])))
    phi1, phi2, phi3 = coordinate_fusions(q)
    assert phi1 == phi2 == Fusion(((0,), (1, 2)), ((1,), (1, -1)), ())
    assert phi3 == Fusion((), (), (0, 1, 2))
    assert (phi1, phi2, phi3) == tuple(fusion_of(level) for level in filtration(q).levels)


def plant_wrong_level_2(monkeypatch):
    """Make the shared refinement hand on a wrong level 2 of the sl3 example:
    classes (0,) | (1, 2), where A_2 = (-1, -1, 2) gives (0, 1) | (2,)."""
    real = fission._suffix_classes

    def planted(q):
        for level, classes in zip(range(q.p + 1, 0, -1), real(q)):
            yield ([0, 1, 1], [1, 1, 1]) if level == 2 else classes

    monkeypatch.setattr(fission, "_suffix_classes", planted)


def test_tree_level_mismatch_names_the_level(monkeypatch):
    # The planted level-2 fusion gives a valid tree with the right product
    # (PB_2 x PB_2), so only the level-by-level check can catch it.
    _, q = sl3_example()
    plant_wrong_level_2(monkeypatch)
    assert coordinate_fusions(q)[1] == Fusion(((0,), (1, 2)), ((1,), (1, 1)), ())
    assert decompose(q, method="tree").canonical_string() == "PB_2 x PB_2"
    with pytest.raises(DecompositionMismatchError, match="fission tree level 2 "):
        decompose(q, method="check")


def test_sweep_records_the_level_mismatch(monkeypatch):
    # The same planted level-2 fusion: the products agree, so the sweep
    # reports it only because it runs the level-by-level check.
    rs, q = sl3_example()
    plant_wrong_level_2(monkeypatch)
    result = selfcheck.SweepResult()
    selfcheck._sweep_case(rs, q, result)
    (mismatch,) = result.mismatches
    assert mismatch.startswith("A2: fission tree level 2 ")
    assert not result.bound_violations and not result.jump_violations


def _rank_1000_doc(family):
    """A nested type on rank 1000 with repeated, opposite and zero columns."""
    n = 1001 if family == "A" else 1000
    coeffs = []
    for k, modulus in enumerate((7, 5, 3)):
        v = [(c * (k + 1)) % modulus - modulus // 2 for c in range(n)]
        if family == "A":
            v[-1] -= sum(v)
        coeffs.append(v)
    return {"lie_type": family, "rank": 1000, "coefficients": coeffs}


@pytest.fixture
def no_root_analysis(monkeypatch):
    """Count the root-side calls and make any root enumeration raise."""
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    def refuse(*args):
        raise AssertionError("roots enumerated")

    monkeypatch.setattr(rootsys, "_enumerate_roots", refuse)
    monkeypatch.setattr(fission, "degree_profile", counted("degree_profile", degree_profile))
    monkeypatch.setattr(rootsys, "fusion_of", counted("fusion_of", fusion_of))
    is_levi = rootsys.RootSubsystem.is_levi
    monkeypatch.setattr(rootsys.RootSubsystem, "is_levi", counted("is_levi", is_levi))
    return calls


@pytest.mark.parametrize("family", "ABCD")
def test_tree_route_enumerates_no_roots_at_rank_1000(family, no_root_analysis, capsys):
    doc = _rank_1000_doc(family)
    rs = build_root_system(family, 1000)
    q = fission.irregular_type(rs, doc["coefficients"])
    tree = fission_tree(q)
    assert tree.level_sizes()[-1] == 1 and len(tree.level_sizes()) == q.p + 1
    assert decompose(q) == decomposition_from_tree(tree)
    # The CLI builds its own system; the _enumerate_roots refusal covers it.
    text = json.dumps(doc)
    assert cli.main(["decompose", "--json", text]) == 0
    assert json.loads(capsys.readouterr().out)["trees"][0]["family"] == family
    assert cli.main(["tree", text]) == 0
    assert json.loads(capsys.readouterr().out)["family"] == family
    assert no_root_analysis == []
    assert "roots" not in vars(rs)


def test_irregular_type_requires_p_at_least_one():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        IrregularType(rs, ())


# ---------------------------------------------------------------------------
# Admissible equivalence: q2 lies in the universal deformation space of q
# exactly when the two degree profiles agree
# ---------------------------------------------------------------------------


def admissible(q, q2):
    return degree_profile(q) == degree_profile(q2)


def test_admissible_reflexive():
    _, q = sl3_example()
    assert admissible(q, q)


def test_admissible_printed_deformation():
    rs, q = sl3_example()
    # a=0, a'=1, b=3, b'=4, c=0 with a != a', b != b' (trace projected).
    q2 = irregular_type(
        rs, [project_traceless([3, 4, 0]), project_traceless([0, 0, 1])]
    )
    assert admissible(q, q2)


def test_admissible_violated_when_leading_eigenvalues_merge():
    rs, q = sl3_example()
    q3 = irregular_type(
        rs, [project_traceless([3, 4, 0]), project_traceless([1, 1, 1])]
    )
    assert not admissible(q, q3)


def test_admissible_pads_shorter_with_zeros():
    rs, q = sl3_example()
    padded = irregular_type(rs, [(-1, 1, 0), (-1, -1, 2), (0, 0, 0)])
    assert admissible(q, padded)
    assert admissible(padded, q)


def test_admissible_is_equivalence_on_samples():
    rng = random.Random(99)
    rs = build_root_system("B", 3)
    qs = [random_irregular_type(rs, 2, rng) for _ in range(12)]
    for a in qs:
        assert admissible(a, a)
        for b in qs:
            assert admissible(a, b) == admissible(b, a)
            for c in qs:
                if admissible(a, b) and admissible(b, c):
                    assert admissible(a, c)


# ---------------------------------------------------------------------------
# Fission trees
# ---------------------------------------------------------------------------


def test_tree_sl3_matches_figure():
    _, q = sl3_example()
    tree = fission_tree(q)
    assert len(tree.nodes) == 6
    assert tree.level_sizes() == (3, 2, 1)
    root_kids = tree.children(tree.root_id)
    assert len(root_kids) == 2
    assert sorted(tree.k(c) for c in root_kids) == [1, 2]


def test_tree_qii_level_sizes():
    tree = fission_tree(a8_type(Q_II))
    assert tree.level_sizes() == (9, 4, 1)
    assert sorted(tree.k(c) for c in tree.children(tree.root_id)) == [1, 2, 3, 3]


def test_tree_qiii_level_sizes():
    tree = fission_tree(a8_type(Q_III))
    assert tree.height == 4
    assert tree.level_sizes() == (9, 8, 6, 4, 1)


def test_tree_generic_d4():
    rs = build_root_system("D", 4)
    tree = fission_tree(irregular_type(rs, [(1, 2, 4, 8)]))
    root = tree.by_id[tree.root_id]
    assert root.colour == BLUE
    kids = [tree.by_id[c] for c in tree.children(tree.root_id)]
    assert len(kids) == 4
    assert all(k.colour == GREEN and k.diameter == SMALL for k in kids)


def test_tree_family_a_degenerate_decorations():
    tree = fission_tree(a8_type(Q_I))
    assert all(n.colour == GREEN and n.diameter == LARGE for n in tree.nodes)
    assert len(tree.leaf_order) <= 9


def test_tree_rejects_g2():
    rs = build_root_system("G2", 2)
    q = irregular_type(rs, [project_traceless([1, 2, 4])])
    with pytest.raises(UnsupportedFamilyError):
        fission_tree(q)


def test_tree_invariants_on_random_inputs():
    rng = random.Random(4)
    for family in "ABCD":
        lo = 2 if family == "D" else 1
        for _ in range(40):
            rs = build_root_system(family, rng.randint(lo, 5))
            q = random_irregular_type(rs, rng.randint(1, 4), rng)
            tree = fission_tree(q)
            check_tree_invariants(tree)  # raises on violation
            if family == "A":
                assert len(tree.leaf_order) <= rs.rank + 1


def ref_fission_tree(q):
    """The tree built from the Fusion of each level: parts and the pinned
    block sorted by first coordinate, parents looked up in an owner dict of
    the level above.  The reference for fission_tree's one-pass reading."""
    per_level = []
    for fus in coordinate_fusions(q):
        entries = [(p, GREEN) for p in fus.parts]
        if fus.zero:
            entries.append((fus.zero, BLUE))
        entries.sort(key=lambda e: e[0][0])
        per_level.append(entries)
    nodes = []
    for level0, entries in enumerate(per_level):
        above = per_level[level0 + 1] if level0 + 1 < len(per_level) else []
        first_above = len(nodes) + len(entries)
        owner = {c: first_above + k for k, (coords, _) in enumerate(above) for c in coords}
        for coords, colour in entries:
            small = q.rs.family != "A" and colour == GREEN and len(coords) < 2
            nodes.append(
                TreeNode(
                    len(nodes), level0 + 1, owner.get(coords[0]), colour,
                    SMALL if small else LARGE, coords,
                )
            )
    return FissionTree(q.rs.family, tuple(nodes))


@pytest.mark.parametrize("family", "ABCD")
def test_fission_tree_equals_ref_fission_tree_on_every_chain(family):
    # Every weak chain of two and of three Levi subsystems, at every rank up
    # to 4: zero, repeated and lone-zero (D) levels included.
    chains = 0
    for rank in range(2 if family == "D" else 1, 5):
        rs = build_root_system(family, rank)
        for p in (2, 3):
            for chain in enumerate_filtration_chains(rs, p):
                q = irregular_type_for_chain(rs, chain)
                assert fission_tree(q) == ref_fission_tree(q), (rank, chain)
                chains += 1
    assert chains == {"A": 1917, "B": 4964, "C": 4964, "D": 2724}[family]


@st.composite
def types_with_zero_coefficients(draw):
    """Classical types up to rank 40 from the degeneracy-prone pool, with some
    coefficients set to zero."""
    family = draw(st.sampled_from("ABCD"))
    rs = build_root_system(family, draw(st.integers(2 if family == "D" else 1, 40)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = list(random_irregular_type(rs, draw(st.integers(1, 5)), rng).coefficients)
    for i in range(len(coeffs)):
        if draw(st.booleans()):
            coeffs[i] = cartan(rs, [0] * rs.ambient_dim)
    return IrregularType(rs, tuple(coeffs))


@settings(max_examples=300, deadline=None)
@given(types_with_zero_coefficients())
def test_fission_tree_equals_ref_fission_tree_on_random_types(q):
    assert fission_tree(q) == ref_fission_tree(q)


@pytest.mark.parametrize("family", "ABCD")
def test_fission_tree_equals_ref_fission_tree_at_rank_1000(family):
    doc = _rank_1000_doc(family)
    q = irregular_type(build_root_system(family, 1000), doc["coefficients"])
    assert fission_tree(q) == ref_fission_tree(q)


# One hand-built tree per rule of check_tree_invariants: (family, rows of
# (id, level, parent, colour, diameter), the rule's message).
BAD_TREES = {
    "family": ("G2", [(0, 1, None, GREEN, LARGE)], "family must be one of"),
    "duplicate-ids": (
        "A",
        [(1, 2, None, GREEN, LARGE), (0, 1, 1, GREEN, LARGE), (0, 1, 1, GREEN, LARGE)],
        "node ids must be unique",
    ),
    "colour": ("B", [(0, 1, None, "purple", LARGE)], "colour must be green or blue"),
    "diameter": ("B", [(0, 1, None, GREEN, "huge")], "diameter must be small or large"),
    "missing-parent": (
        "A", [(0, 2, None, GREEN, LARGE), (1, 1, 7, GREEN, LARGE)], "parent must be the id"
    ),
    "empty": ("A", [], "unique root"),
    "two-roots": ("A", [(0, 1, None, GREEN, LARGE), (1, 1, None, GREEN, LARGE)], "unique root"),
    "root-below-top": (
        "A", [(0, 1, None, GREEN, LARGE), (1, 2, 0, GREEN, LARGE)], "root must sit at the top"
    ),
    "parent-level": (
        "A", [(0, 3, None, GREEN, LARGE), (1, 1, 0, GREEN, LARGE)], "one level above"
    ),
    "colour-dominance": (
        "B", [(0, 2, None, GREEN, LARGE), (1, 1, 0, BLUE, LARGE)], "parent colour must dominate"
    ),
    "diameter-dominance": (
        "B",
        [(0, 2, None, GREEN, SMALL), (1, 1, 0, GREEN, LARGE)],
        "parent diameter must dominate",
    ),
    "small-blue": ("C", [(0, 1, None, BLUE, SMALL)], "blue nodes must be large"),
    "two-blue-children": (
        "D",
        [(0, 2, None, BLUE, LARGE), (1, 1, 0, BLUE, LARGE), (2, 1, 0, BLUE, LARGE)],
        "at most one blue child",
    ),
    "small-two-children": (
        "B",
        [(0, 2, None, GREEN, SMALL), (1, 1, 0, GREEN, SMALL), (2, 1, 0, GREEN, SMALL)],
        "small nodes have at most one child",
    ),
    "childless-above-level-1": (
        "A",
        [
            (0, 3, None, GREEN, LARGE),
            (1, 2, 0, GREEN, LARGE),
            (2, 2, 0, GREEN, LARGE),
            (3, 1, 1, GREEN, LARGE),
        ],
        "exactly the level-1 nodes must be leaves",
    ),
    "leaf-below-level-1": (
        "A",
        [(0, 2, None, GREEN, LARGE), (1, 1, 0, GREEN, LARGE), (2, 0, 1, GREEN, LARGE)],
        "exactly the level-1 nodes must be leaves",
    ),
    "family-a-decoration": ("A", [(0, 1, None, GREEN, SMALL)], "family A trees are all"),
    "green-root": (
        "B",
        [(0, 2, None, GREEN, LARGE), (1, 1, 0, GREEN, SMALL), (2, 1, 0, GREEN, SMALL)],
        "B/C/D roots must be blue",
    ),
}


@pytest.mark.parametrize("family, rows, rule", BAD_TREES.values(), ids=BAD_TREES.keys())
def test_invalid_tree_is_rejected_at_construction(family, rows, rule):
    nodes = tuple(TreeNode(*row) for row in rows)
    with pytest.raises(ValueError, match=rule):
        FissionTree(family, nodes)


@pytest.mark.parametrize("family", "ABCD")
def test_tree_with_non_ascending_ids_sorts_each_nodes_children(family):
    # fission_tree numbers its nodes in order; a tree whose ids do not ascend
    # gets the same maps, planar order and decomposition as its nodes in id order.
    rs = build_root_system(family, 6)
    rng = random.Random(31)
    for _ in range(8):
        nodes = fission_tree(random_irregular_type(rs, 3, rng)).nodes
        ids = [n.id for n in nodes]
        new = dict(zip(ids, rng.sample(ids, len(ids))))
        nodes = tuple(
            n._replace(id=new[n.id], parent=None if n.parent is None else new[n.parent])
            for n in nodes
        )
        shuffled = FissionTree(family, nodes)
        in_order = FissionTree(family, tuple(sorted(nodes, key=lambda n: n.id)))
        want = {n.id: tuple(sorted(m.id for m in nodes if m.parent == n.id)) for n in nodes}
        assert shuffled.children_map == in_order.children_map == want
        assert shuffled.by_id == in_order.by_id == {n.id: n for n in nodes}
        assert shuffled.leaf_order == in_order.leaf_order
        assert decomposition_from_tree(shuffled) == decomposition_from_tree(in_order)


# ---------------------------------------------------------------------------
# Decompositions
# ---------------------------------------------------------------------------


def test_decomposition_sl3_tree():
    _, q = sl3_example()
    assert decomposition_from_tree(fission_tree(q)).canonical_string() == "PB_2 x PB_2"


def test_decomposition_qi_tree():
    dec = decomposition_from_tree(fission_tree(a8_type(Q_I)))
    assert dec.canonical_string() == "PB_2 x PB_3^2 x PB_4"


def test_decomposition_generic_d4_tree():
    rs = build_root_system("D", 4)
    dec = decomposition_from_tree(fission_tree(irregular_type(rs, [(1, 2, 4, 8)])))
    assert dec.factors == (Factor("PBBCD", 0, 4),)


@pytest.mark.parametrize(
    "rows, blue_levels, want",
    [
        # Three blue nodes; the exotic factor sits at the lowest, on level 2.
        ([(5, 1, 1, 0), (0, 0, 0, 4), (0, 0, 0, 0)], [2, 3, 4], "PB_BC_1 x PB_BCD(1,1) [~ PB_3]"),
        ([(1, 2, 0, 0), (0, 0, 3, 4)], [2, 3], "PB_BC_2 x PB_BCD(0,2) [~ Z^2]"),
    ],
)
def test_decomposition_reads_the_lowest_blue_node_of_a_long_chain(rows, blue_levels, want):
    q = irregular_type(build_root_system("D", 4), rows)
    tree = fission_tree(q)
    assert sorted(n.level for n in tree.nodes if n.colour == BLUE) == blue_levels
    assert decomposition_from_tree(tree).canonical_string() == want
    assert decompose(q, "check").canonical_string() == want


def test_decomposition_of_a_family_d_tree_without_blue_nodes_is_rejected():
    # Rejected at construction, so decomposition_from_tree never sees it.
    nodes = (TreeNode(0, 2, None, GREEN, LARGE), TreeNode(1, 1, 0, GREEN, LARGE),
             TreeNode(2, 1, 0, GREEN, LARGE))
    with pytest.raises(ValueError, match="B/C/D roots must be blue"):
        FissionTree("D", nodes)


def test_decomposition_via_arrangements_sl3():
    _, q = sl3_example()
    assert decomposition_via_arrangements(q).canonical_string() == "PB_2 x PB_2"


def test_decomposition_g2_generic():
    rs = build_root_system("G2", 2)
    q = irregular_type(rs, [project_traceless([1, 2, 4])])
    dec = decomposition_via_arrangements(q)
    assert dec.factors == (Factor("G2BRAID"),)
    assert dec.canonical_string() == "PBraid(G2)"


def test_decomposition_g2_two_rank_one_jumps():
    rs = build_root_system("G2", 2)
    levis = enumerate_levi_subsystems(rs)
    w_generic = next(w for s, w in levis if len(s.members) == 0)
    w_a1 = next(w for s, w in levis if len(s.members) == 2)
    q = IrregularType(rs, (w_generic, w_a1))
    dec = decompose(q)
    assert dec.canonical_string() == "Z x Z"


def test_decompose_check_agrees():
    _, q = sl3_example()
    assert decompose(q, method="check").canonical_string() == "PB_2 x PB_2"


# ---------------------------------------------------------------------------
# Metamorphic relations of the tree route, up to rank 300
# ---------------------------------------------------------------------------
#
# The group depends only on the filtration, up to automorphisms of the root
# system.  Scaling one coefficient and adding a multiple of a higher one keep
# every Phi_i, so the tree is the same; a Weyl move or D's diagram
# automorphism relabels the coordinates, so only the product is the same.
# Whole coefficients are moved, never single coordinates.

_DEGENERATE_POOL = (0, 0, 1, -1, 2, Fraction(1, 2))


@st.composite
def degenerate_types(draw, min_p=1):
    """Classical types up to rank 300 with entries from a small pool, so that
    coordinates fuse at every level; many at rank <= 8, where the root route
    checks them too."""
    family = draw(st.sampled_from("ABCD"))
    lo = 2 if family == "D" else 1
    rs = build_root_system(family, draw(st.one_of(st.integers(lo, 8), st.integers(9, 300))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [
        [rng.choice(_DEGENERATE_POOL) for _ in range(rs.ambient_dim)]
        for _ in range(draw(st.sampled_from(range(min_p, 5))))
    ]
    return irregular_type(rs, [project_traceless(r) if family == "A" else r for r in rows])


def assert_move_keeps_the_product(q, moved, same_tree):
    tree, moved_tree = fission_tree(q), fission_tree(moved)
    if same_tree:
        assert cli.emit_tree(moved_tree) == cli.emit_tree(tree)
    want = decomposition_from_tree(tree).canonical_string()
    assert decomposition_from_tree(moved_tree).canonical_string() == want
    if q.rs.rank <= 8:
        checked = decompose(q, "check").canonical_string()
        assert decompose(moved, "check").canonical_string() == checked


@settings(max_examples=100, deadline=None)
@given(degenerate_types(), st.data())
def test_scaling_one_coefficient_keeps_the_tree(q, data):
    i = data.draw(st.integers(0, q.p - 1))
    c = data.draw(st.fractions(-5, 5, max_denominator=7).filter(bool))
    rows = [a.coords for a in q.coefficients]
    rows[i] = [c * x for x in rows[i]]
    assert_move_keeps_the_product(q, irregular_type(q.rs, rows), same_tree=True)


@settings(max_examples=100, deadline=None)
@given(degenerate_types(min_p=2), st.data())
def test_adding_a_higher_coefficient_keeps_the_tree(q, data):
    # A_i += c A_j for j > i: every root of degree < j kills A_j.
    j = data.draw(st.integers(1, q.p - 1))
    i = data.draw(st.integers(0, j - 1))
    c = data.draw(st.fractions(-5, 5, max_denominator=7))
    rows = [a.coords for a in q.coefficients]
    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    assert_move_keeps_the_product(q, irregular_type(q.rs, rows), same_tree=True)


@settings(max_examples=100, deadline=None)
@given(degenerate_types(), st.integers(0, 2**32))
def test_weyl_move_keeps_the_product(q, seed):
    # A permutes the coordinates; B/C/D take a signed permutation, with any
    # number of sign changes (an odd number on D is the diagram automorphism).
    rng = random.Random(seed)
    n = q.rs.ambient_dim
    perm = rng.sample(range(n), n)
    signs = [1 if q.rs.family == "A" else rng.choice((1, -1)) for _ in range(n)]
    rows = [[s * a.coords[c] for s, c in zip(signs, perm)] for a in q.coefficients]
    assert_move_keeps_the_product(q, irregular_type(q.rs, rows), same_tree=False)


def test_equal_consecutive_levels_contribute_trivially():
    rs = build_root_system("A", 2)
    lead = project_traceless([1, 2, 4])
    q = irregular_type(rs, [(0, 0, 0), lead, (0, 0, 0)])
    per_level = level_factors(q)
    assert per_level[0][1] == ()  # Phi_1 = Phi_2
    assert [f for _, fs in per_level for f in fs] == [Factor("PB", 3)]


def test_rank_one_jump_factors_are_infinite_cyclic():
    rng = random.Random(21)
    for family in "ABCD":
        lo = 2 if family == "D" else 1
        for _ in range(30):
            rs = build_root_system(family, rng.randint(lo, 4))
            q = random_irregular_type(rs, rng.randint(1, 3), rng)
            filt = filtration(q)
            for (level, factors) in level_factors(q):
                jump = filt.levels[level].rank - filt.levels[level - 1].rank
                if jump == 0:
                    assert factors == ()
                elif jump == 1:
                    (f,) = factors
                    assert f.is_infinite_cyclic
                    if family == "A":
                        assert f == Factor("PB", 2)


def test_direct_sum_reduction_d2_vs_two_a1():
    # D_2 = A_1 + A_1: decompositions of D_2 inputs match the product of the
    # two independent A_1 runs, up to the isomorphism signature.
    rng = random.Random(31)
    d2 = build_root_system("D", 2)
    a1 = build_root_system("A", 1)
    for _ in range(60):
        q = random_irregular_type(d2, rng.randint(1, 3), rng)
        combined = decompose(q, method="check")
        halves = []
        for form in ((1, -1), (1, 1)):  # root values a-b and a+b
            vecs = []
            for coeff in q.coefficients:
                value = form[0] * coeff.coords[0] + form[1] * coeff.coords[1]
                vecs.append((value / 2, -value / 2))
            halves.append(decompose(irregular_type(a1, vecs)))
        assert combined.iso_signature() == merge_decompositions(halves).iso_signature()


def test_factor_count_bounded_by_rank():
    rng = random.Random(41)
    for family in "ABCD":
        lo = 2 if family == "D" else 1
        for _ in range(40):
            rank = rng.randint(lo, 6)
            rs = build_root_system(family, rank)
            q = random_irregular_type(rs, rng.randint(1, 4), rng)
            assert len(decompose(q).factors) <= rank


def test_mismatch_error_names_both_results(monkeypatch):
    wrong = GroupDecomposition.from_factors([Factor("PBBC", 1)])
    monkeypatch.setattr(fission, "decomposition_from_tree", lambda tree: wrong)
    _, q = sl3_example()
    assert decompose(q, method="tree") == wrong
    with pytest.raises(DecompositionMismatchError) as exc:
        decompose(q, method="check")
    assert str(exc.value) == (
        "tree path gave [PB_BC_1] but arrangement oracle gave [PB_2 x PB_2]"
    )


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def test_factor_canonicalization_rules():
    from wildbraid.fission import _canonical_factor

    assert _canonical_factor("PB", 0) is None
    assert _canonical_factor("PB", 1) is None
    assert _canonical_factor("PB", 2) == Factor("PB", 2)
    assert _canonical_factor("PBBC", 0) is None
    assert _canonical_factor("PBBCD", 3, 0) == Factor("PBBC", 3)
    assert _canonical_factor("PBBCD", 0, 1) is None
    assert _canonical_factor("PBBCD", 0, 0) is None
    assert _canonical_factor("PBBCD", 1, 1) == Factor("PBBCD", 1, 1)


def test_factor_annotations():
    assert Factor("PB", 2).annotation == "~ Z"
    assert Factor("PBBC", 1).annotation == "~ Z"
    assert Factor("PBBCD", 1, 1).annotation == "~ PB_3"
    assert Factor("PBBCD", 0, 2).annotation == "~ Z^2"
    assert Factor("PB", 3).annotation is None


def test_canonical_string_rules():
    dec = GroupDecomposition.from_factors(
        [Factor("PB", 3), Factor("PB", 2), Factor("PB", 2), Factor("PB", 3)]
    )
    # Infinite-cyclic factors stay expanded; the rest collect exponents.
    assert dec.canonical_string() == "PB_2 x PB_2 x PB_3^2"
    assert GroupDecomposition.from_factors([]).canonical_string() == "1"
    exotic = GroupDecomposition.from_factors([Factor("PBBCD", 1, 1)])
    assert exotic.canonical_string() == "PB_BCD(1,1) [~ PB_3]"


def test_merge_decompositions_concatenates():
    a = GroupDecomposition.from_factors([Factor("PB", 2)])
    b = GroupDecomposition.from_factors([Factor("PBBC", 3)])
    assert merge_decompositions([a, b]).canonical_string() == "PB_2 x PB_BC_3"


# ---------------------------------------------------------------------------
# Enumeration helpers
# ---------------------------------------------------------------------------


def test_levi_enumeration_counts():
    assert len(enumerate_levi_subsystems(build_root_system("A", 2))) == 5
    assert len(enumerate_levi_subsystems(build_root_system("G2", 2))) == 8
    b2 = enumerate_levi_subsystems(build_root_system("B", 2))
    # empty, two short A1s... for B_2: empty, {e2}, {e1}, {e1-e2}, {e1+e2}, full
    assert len(b2) == 6


def test_chains_realize_their_filtrations():
    rs = build_root_system("B", 2)
    for chain in enumerate_filtration_chains(rs, 2):
        q = irregular_type_for_chain(rs, chain)
        filt = filtration(q)
        assert [s.members for s in filt.levels[:-1]] == [s.members for s, _ in chain]
