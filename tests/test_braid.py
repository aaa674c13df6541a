"""Braid words, the Artin action oracle, the cabling operad, linking numbers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildbraid import braid, fission
from wildbraid.braid import (
    BraidWord,
    artin_action,
    block_braid,
    braids_equal,
    cabled_group_generators,
    direct_sum,
    format_word,
    gamma,
    generator,
    identity,
    is_identity_braid,
    is_pure,
    leaves_under,
    linking_matrix,
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
    b = generator(2, 1)
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
# Artin action
# ---------------------------------------------------------------------------


def test_artin_identity_word():
    imgs = artin_action(identity(3))
    assert [w.letters for w in imgs] == [(1,), (2,), (3,)]


def test_artin_single_generator():
    imgs = artin_action(generator(2, 1))
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
    assert not braids_equal(generator(2, 1), generator(2, 1, -1))


def test_strand_count_mismatch_rejected():
    with pytest.raises(ValueError):
        braids_equal(identity(2), identity(3))


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
# direct_sum and block_braid
# ---------------------------------------------------------------------------


def test_direct_sum_identities():
    assert direct_sum([identity(2), identity(3)]) == identity(5)


def test_direct_sum_shifts_indices():
    out = direct_sum([generator(2, 1), generator(2, 1)])
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
        gamma(generator(2, 1), [identity(1), identity(1)])
    with pytest.raises(ValueError):
        gamma(identity(2), [generator(2, 1), identity(1)])
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
        linking_matrix(generator(2, 1))


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
