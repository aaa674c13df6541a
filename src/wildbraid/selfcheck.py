"""Acceptance property suites, shared by the test suite and `selftest`.

Each criterion function returns (passed, detail).  The heavyweight sweeps
take size parameters; the CLI selftest shrinks them, the acceptance tests
run the full sizes.  Tree/oracle agreement is ``fission.decompose(q,
"check")`` on every sweep case, so a mismatch names the first level that
differs.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, product

from . import braid, fission, rootsys, stokes
from .fission import Factor
from .rootsys import build_root_system, cartan, project_traceless, subsystem

SL3_VECTORS = [(-1, 1, 0), (-1, -1, 2)]
Q_EXAMPLES = {
    "QI": [
        (4, 3, 2, 1, 0, -1, -2, -3, -4),
        (4, 4, 3, 2, 1, 0, -3, -4, -7),
        (2, 2, 1, 1, 1, 0, 0, 0, -7),
    ],
    "QII": [
        (4, 3, 2, 1, 0, -1, -2, -3, -4),
        (4, 1, 1, 0, 0, 0, -2, -2, -2),
    ],
    "QIII": [
        (4, 3, 2, 1, 0, -1, -2, -3, -4),
        (4, 4, 3, 2, 1, 0, -3, -4, -7),
        (2, 2, 2, 2, 1, 0, -3, -3, -3),
        (1, 1, 1, 1, 1, 1, 0, -2, -4),
    ],
}
Q_SHAPES = {"QI": (9, 8, 4, 1), "QII": (9, 4, 1), "QIII": (9, 8, 6, 4, 1)}


def _families_with_ranks(max_rank):
    for family in "ABCD":
        lo = 2 if family == "D" else 1
        for rank in range(lo, max_rank + 1):
            yield family, rank


# ---------------------------------------------------------------------------
# Criteria 1-2: paper example reproduction
# ---------------------------------------------------------------------------


def criterion_sl3() -> tuple[bool, str]:
    start = time.monotonic()
    rs = build_root_system("A", 2)
    q = fission.irregular_type(rs, SL3_VECTORS)
    tree = fission.fission_tree(q)
    dec = fission.decompose(q, method="check")
    elapsed = time.monotonic() - start
    ok = (
        len(tree.nodes) == 6
        and tree.level_sizes() == (3, 2, 1)
        and dec.canonical_string() == "PB_2 x PB_2"
        and elapsed < 1.0
    )
    return ok, f"{dec.canonical_string()} in {elapsed:.3f}s"


def criterion_presentation_triple() -> tuple[bool, str]:
    rs = build_root_system("A", 8)
    details = []
    ok = True
    for name, vectors in Q_EXAMPLES.items():
        start = time.monotonic()
        q = fission.irregular_type(rs, vectors)
        tree = fission.fission_tree(q)
        dec = fission.decompose(q, method="check")
        elapsed = time.monotonic() - start
        good = (
            dec.canonical_string() == "PB_2 x PB_3^2 x PB_4"
            and tree.level_sizes() == Q_SHAPES[name]
            and tree.height == len(Q_SHAPES[name]) - 1
            and elapsed < 1.0
        )
        ok = ok and good
        details.append(f"{name}:{'ok' if good else 'FAIL'}({elapsed:.2f}s)")
    return ok, " ".join(details)


# ---------------------------------------------------------------------------
# Criterion 3: generic-case sweep
# ---------------------------------------------------------------------------


def criterion_generic_sweep(max_rank: int = 6) -> tuple[bool, str]:
    start = time.monotonic()
    failures = []
    p = 3
    for family, rank in list(_families_with_ranks(max_rank)) + [("G2", 2)]:
        rs = build_root_system(family, rank)
        values = [2**i for i in range(rs.ambient_dim)]
        if family in ("A", "G2"):
            values = project_traceless(values)
        regular = cartan(rs, values)
        zero = cartan(rs, [0] * rs.ambient_dim)
        for d in range(1, p + 1):
            coeffs = [zero] * p
            coeffs[d - 1] = regular
            q = fission.IrregularType(rs, tuple(coeffs))
            dec = fission.decompose(q, method="check")
            expected = {
                "A": (Factor("PB", rank + 1),),
                "B": (Factor("PBBC", rank),),
                "C": (Factor("PBBC", rank),),
                "D": (Factor("PBBCD", 0, rank),),
                "G2": (Factor("G2BRAID"),),
            }[family]
            if dec.factors != expected:
                failures.append(f"{family}{rank}@d={d}: {dec.canonical_string()}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    return ok, failures[0] if failures else f"all single-factor in {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criteria 4, 5, 8: the big sweep
# ---------------------------------------------------------------------------


class SweepResult:
    """What run_sweep records for criteria 4, 5 and 8: the failures found, and
    one type-A fission tree per tree shape."""

    def __init__(self, a_trees: dict[tuple, fission.FissionTree] | None = None):
        self.cases = 0
        self.mismatches: list[str] = []
        self.bound_violations: list[str] = []
        self.jump_violations: list[str] = []
        self.rank2_violations: list[str] = []
        self.a_trees = {} if a_trees is None else a_trees
        self.elapsed = 0.0


_RANK2_ALLOWED = {
    ("A", 2): {(), (("Z",),), (("Z",), ("Z",)), (("A", 3),)},
    ("B", 2): {(), (("Z",),), (("Z",), ("Z",)), (("BC", 2),)},
    ("G2", 2): {(), (("Z",),), (("Z",), ("Z",)), (("G2",),)},
}


def _tree_shape(tree: fission.FissionTree) -> tuple:
    return tuple((n.level, n.parent, n.colour, n.diameter) for n in tree.nodes)


def _sweep_case(rs, q, result: SweepResult) -> None:
    result.cases += 1
    tree = fission.fission_tree(q) if rs.family == "A" else None
    try:
        fission.decompose(q, "check", tree)
    except fission.DecompositionMismatchError as exc:
        result.mismatches.append(f"{rs.family}{rs.rank}: {exc}")
    if tree is not None:
        result.a_trees.setdefault(_tree_shape(tree), tree)
    dec = fission.decomposition_via_arrangements(q)
    if len(dec.factors) > rs.rank:
        result.bound_violations.append(f"{rs.family}{rs.rank}: {dec}")
    levels = fission.filtration(q).levels
    for level, factors in fission.level_factors(q):
        jump = levels[level].rank - levels[level - 1].rank
        one_cyclic = len(factors) == 1 and factors[0].is_infinite_cyclic
        if (jump == 0 and factors) or (jump == 1 and not one_cyclic):
            result.jump_violations.append(f"{rs.family}{rs.rank} level {level}: {factors}")
    if (rs.family, rs.rank) in _RANK2_ALLOWED:
        if dec.iso_signature() not in _RANK2_ALLOWED[(rs.family, rs.rank)]:
            result.rank2_violations.append(f"{rs.family}: {dec}")


def run_sweep(
    exhaustive_rank: int = 4,
    exhaustive_p: int = 3,
    random_count: int = 500,
    random_rank: int = 6,
    random_p: int = 4,
    seed: int = 20240,
) -> SweepResult:
    """Criterion 4 sweep; also records the data for criteria 5 and 8."""
    result = SweepResult()
    start = time.monotonic()
    for family, rank in [*_families_with_ranks(exhaustive_rank), ("G2", 2)]:
        rs = build_root_system(family, rank)
        for chain in fission.enumerate_filtration_chains(rs, exhaustive_p):
            _sweep_case(rs, fission.irregular_type_for_chain(rs, chain), result)
    rng = random.Random(seed)
    for family in "ABCD":
        lo = 2 if family == "D" else 1
        for _ in range(random_count):
            rs = build_root_system(family, rng.randint(lo, random_rank))
            q = fission.random_irregular_type(rs, rng.randint(1, random_p), rng)
            _sweep_case(rs, q, result)
    result.elapsed = time.monotonic() - start
    return result


def criterion_oracle_agreement(result: SweepResult) -> tuple[bool, str]:
    ok = not result.mismatches and result.elapsed < 300.0
    detail = (
        result.mismatches[0]
        if result.mismatches
        else f"{result.cases} cases agree in {result.elapsed:.0f}s"
    )
    return ok, detail


def criterion_structural_bounds(result: SweepResult) -> tuple[bool, str]:
    bad = result.bound_violations + result.jump_violations + result.rank2_violations
    return (not bad, bad[0] if bad else f"bounds hold on {result.cases} cases")


def _pure_braid_relations(gens: dict):
    """(name, lhs, rhs) of Artin's PB_k relations on gens[i, j] = A_ij, in
    Birman's form (Lemma 1.8.2): A_rs^-1 A_ij A_rs = C A_ij C^-1, where C = 1
    for disjoint or nested pairs, A_rj for s = i, A_rj A_sj for i = r < s < j
    and A_rj A_sj A_rj^-1 A_sj^-1 for r < i < s < j.
    """
    for r, s in gens:
        for i, j in gens:
            if s < i or j < r or i < r < s < j:
                factors = []
            elif s == i:
                factors = [gens[r, j]]
            elif i == r < s < j:
                factors = [gens[r, j], gens[s, j]]
            elif r < i < s < j:
                factors = [gens[r, j], gens[s, j], gens[r, j].inverse(), gens[s, j].inverse()]
            else:
                continue
            c = braid.BraidWord(gens[i, j].strands, sum((f.letters for f in factors), ()))
            lhs = gens[r, s].inverse() * gens[i, j] * gens[r, s]
            yield f"A_{r}{s}^-1 A_{i}{j} A_{r}{s}", lhs, c * gens[i, j] * c.inverse()


def criterion_cabled_groups(result: SweepResult) -> tuple[bool, str]:
    """Per node: lifts pure with their pair's linking, PB_k relations, commuting."""
    failures = []
    checked = relations = 0
    for tree in result.a_trees.values():
        groups = braid.cabled_group_generators(tree)
        if [n for n, _ in groups] != [n.id for n in tree.nodes if tree.k(n.id) >= 2]:
            failures.append("generators missing for a node with two or more children")
        for node_id, words in groups:
            kids = tree.children(node_id)
            gens = dict(zip(combinations(range(1, len(kids) + 1), 2), words))
            if len(words) != len(kids) * (len(kids) - 1) // 2:
                failures.append(f"node {node_id}: {len(words)} generators, {len(kids)} children")
                continue
            for (j, m), g in gens.items():
                expect = [[0] * g.strands for _ in range(g.strands)]
                for a, b in product(*(braid.leaves_under(tree, kids[x - 1]) for x in (j, m))):
                    expect[a - 1][b - 1] = expect[b - 1][a - 1] = 1
                if not braid.is_pure(g) or braid.linking_matrix(g) != tuple(map(tuple, expect)):
                    failures.append(f"node {node_id}: A_{j}{m} breaks purity or linking")
            for name, lhs, rhs in _pure_braid_relations(gens):
                relations += 1
                if not braid.braids_equal(lhs, rhs):
                    failures.append(f"node {node_id}: relation {name} fails")
        for (n1, ws1), (n2, ws2) in combinations(groups, 2):
            for g1, g2 in product(ws1, ws2):
                checked += 1
                if not braid.braids_equal(g1 * g2, g2 * g1):
                    failures.append(f"nodes {n1},{n2} do not commute")
    shapes = len(result.a_trees)
    detail = f"{shapes} tree shapes, {relations} PB_k relations, {checked} commutation checks"
    return (not failures, failures[0] if failures else detail)


# ---------------------------------------------------------------------------
# Criterion 6: exotic type D
# ---------------------------------------------------------------------------


def criterion_exotic_d() -> tuple[bool, str]:
    d3 = build_root_system("D", 3)
    inner = rootsys.subsystem_from_vectors(d3, [(1, -1, 0), (-1, 1, 0)])
    (arr,) = rootsys.restricted_arrangement_blocks(d3, inner, subsystem(d3, range(12)))
    ok = (
        (arr.kind, arr.r, arr.s) == ("Exotic", 1, 1)
        and arr.hyperplane_count == 3
        and Factor("PBBCD", 1, 1).annotation == "~ PB_3"
    )
    q = fission.irregular_type(d3, [(1, 2, 4), (1, 1, 0)])
    dec = fission.decompose(q, method="check")
    ok = ok and "PB_BCD(1,1) [~ PB_3]" in dec.canonical_string()

    d4 = build_root_system("D", 4)
    inner4 = rootsys.subsystem_from_vectors(
        d4, [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    )
    (arr4,) = rootsys.restricted_arrangement_blocks(d4, inner4, subsystem(d4, range(24)))
    # Regression fixture confirmed by the raw-hyperplane oracle.
    ok = ok and (arr4.kind, arr4.d) == ("TypeBC", 2)
    ok = ok and sorted(arr4.raw_hyperplanes) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    return ok, f"D3/A1 -> {arr.describe()}, D4/A1+A1 -> {arr4.describe()}"


# ---------------------------------------------------------------------------
# Criterion 7: braid operad suite
# ---------------------------------------------------------------------------


def _random_pure(rng, n, length):
    out = braid.identity(n)
    while len(out.letters) < length and n >= 2:
        i = rng.randint(1, n - 1)
        s = rng.choice((1, -1))
        out = out * braid.word(n, (i, s), (i, s))
    return out


def criterion_braid_operad(
    law_tuples: int = 200, injectivity_trials: int = 10_000, seed: int = 77
) -> tuple[bool, str]:
    start = time.monotonic()
    rng = random.Random(seed)
    fig2 = braid.parse_word("s1^-1 s1^-1 s2 s1 s1 s2", 3)
    built = braid.gamma(
        braid.word(2, (1, 1), (1, 1)), [braid.word(2, (1, -1), (1, -1)), braid.identity(1)]
    )
    if built != fig2 or not braid.braids_equal(built, fig2):
        return False, "cabling figure word not reproduced"
    for _ in range(law_tuples):
        n = rng.randint(1, 4)
        sig1 = _random_pure(rng, n, rng.randint(0, 6))
        sig2 = _random_pure(rng, n, rng.randint(0, 6))
        taus1 = [_random_pure(rng, rng.randint(1, 3), rng.randint(0, 4)) for _ in range(n)]
        taus2 = [_random_pure(rng, t.strands, rng.randint(0, 4)) for t in taus1]
        lhs = braid.gamma(sig1 * sig2, [a * b for a, b in zip(taus1, taus2)])
        rhs = braid.gamma(sig1, taus1) * braid.gamma(sig2, taus2)
        if not braid.braids_equal(lhs, rhs):
            return False, "homomorphism law failed"
        if braid.gamma(sig1, [braid.identity(1)] * n) != sig1:
            return False, "unity law failed"
        rhos = [
            [_random_pure(rng, rng.randint(1, 2), rng.randint(0, 3)) for _ in range(t.strands)]
            for t in taus1
        ]
        flat = [r for group in rhos for r in group]
        assoc_lhs = braid.gamma(braid.gamma(sig1, taus1), flat)
        assoc_rhs = braid.gamma(sig1, [braid.gamma(t, g) for t, g in zip(taus1, rhos)])
        if not braid.braids_equal(assoc_lhs, assoc_rhs):
            return False, "associativity law failed"
    for _ in range(injectivity_trials):
        n = rng.randint(1, 3)
        sigma = _random_pure(rng, n, rng.randint(0, 4))
        taus = [_random_pure(rng, rng.randint(1, 3), rng.randint(0, 4)) for _ in range(n)]
        if braid.is_identity_braid(braid.gamma(sigma, taus)):
            if not all(braid.is_identity_braid(x) for x in [sigma, *taus]):
                return False, "injectivity counterexample found"
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    return ok, f"{law_tuples} law tuples + {injectivity_trials} trials in {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# Criterion 9: Stokes suite
# ---------------------------------------------------------------------------


def criterion_stokes(count: int = 100, seed: int = 4242) -> tuple[bool, str]:
    start = time.monotonic()
    rng = random.Random(seed)
    for i in range(count):
        report = stokes.verify_properties(stokes.random_tuple(rng), rng)
        if not report.passed:
            return False, f"tuple {i}: {report.failures()[0][0]}"
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    return ok, f"{count} tuples verified in {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# Entry point for the CLI
# ---------------------------------------------------------------------------


def run_all(fast: bool = True) -> list[tuple[str, bool, str]]:
    if fast:
        sweep = run_sweep(exhaustive_rank=3, exhaustive_p=2, random_count=60)
        operad = criterion_braid_operad(law_tuples=40, injectivity_trials=500)
        stk = criterion_stokes(count=20)
        generic = criterion_generic_sweep(max_rank=4)
    else:
        sweep = run_sweep()
        operad = criterion_braid_operad()
        stk = criterion_stokes()
        generic = criterion_generic_sweep()
    checks = [
        ("paper example sl3", *criterion_sl3()),
        ("presentation triple", *criterion_presentation_triple()),
        ("generic sweep", *generic),
        ("oracle agreement", *criterion_oracle_agreement(sweep)),
        ("structural bounds", *criterion_structural_bounds(sweep)),
        ("exotic type D", *criterion_exotic_d()),
        ("braid operad", *operad),
        ("cabled groups", *criterion_cabled_groups(sweep)),
        ("stokes actions", *stk),
    ]
    return [(name, ok, detail) for name, ok, detail in checks]
