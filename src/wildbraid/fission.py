"""Fission filtrations, decorated fission trees, and group decompositions.

An irregular type is a polynomial Q = sum A_i x^i with Cartan coefficients.
Evaluating Q on each root alpha gives a polynomial of degree d_alpha (the
degree profile), the sets Phi_i = {alpha : d_alpha < i} form an increasing
filtration of Levi subsystems, and the fundamental group of the space of
admissible deformations of Q splits as a product of one factor per
filtration level.  Two independent computations of that product are
implemented:

* the tree fast path: Phi_i is the centraliser of (A_i, ..., A_p), so its
  signed coordinate fusion is the grouping of coordinates by their suffix
  column (A_i, ..., A_p)_c.  ``fission_tree`` refines the coordinates by
  suffix column from level p+1 down, one scan per coefficient, and reads
  each level's nodes and parents straight off that refinement.
  ``decomposition_from_tree`` reads one factor per node, by one rule for
  every family; no root is enumerated;
* the arrangement oracle: enumerate the roots and bucket them by degree;
  Phi_1 is bucket 0 and the roots Phi_{l+1} adds to Phi_l are bucket l.
  ``rootsys.levi_chain`` walks up from the empty level once (the one Levi
  test), one restriction step per nonempty bucket, Phi_1's included:
  each step carries each coordinate's part and sign up from the level
  below and refines its fusion, and once every level has passed, each
  step above Phi_1 has its arrangement classified block by block.  One
  ``rootsys.Level`` per level, kept on the instance as a ``Filtration``.

The two must agree on families A-D; ``decompose(..., method="check")``, the
one comparison of the two, raises if they ever differ, level by level (tree
nodes against the fusion of the root-enumerated level) and in the product.
G2 is handled by the oracle only (there is no fission tree for G2), so on
G2 every method runs that one route and "check" compares nothing (see
"G2 gets a second route" in ROADMAP.md).
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from . import linalg, rootsys
from .rootsys import (
    ArrangementType,
    CartanElement,
    RootSubsystem,
    RootSystem,
    cartan,
    project_traceless,
)


class DecompositionMismatchError(AssertionError):
    """Tree fast path and root-enumerating side disagreed; the message names
    the first differing tree level, or both products."""


class UnsupportedFamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Irregular types, degree profiles, filtrations
# ---------------------------------------------------------------------------


class IrregularType(namedtuple("IrregularType", "rs coefficients")):
    """Coefficients A_1..A_p, listed by ascending power of x."""

    def __new__(cls, rs: RootSystem, coefficients: tuple[CartanElement, ...]):
        if len(coefficients) < 1:
            raise ValueError("p >= 1 required")
        for c in coefficients:
            if c.rs != rs:
                raise ValueError("coefficient belongs to a different root system")
        return super().__new__(cls, rs, coefficients)

    @property
    def p(self) -> int:
        return len(self.coefficients)

    @cached_property
    def _root_side(self) -> Filtration:
        """The ``filtration``: the whole degree profile, both signs of every
        root, bucketed by degree once (so a bucket that lacks a negative
        reaches the negation check); Phi_1 is bucket 0 and Phi_{l+1} is
        Phi_l plus bucket l, walked up by ``rootsys.levi_chain`` in one
        restriction step per nonempty bucket."""
        by_degree: list[list[int]] = [[] for _ in range(self.p + 1)]
        for j, d in enumerate(degree_profile(self)):
            by_degree[d].append(j)
        return Filtration(self.rs, rootsys.levi_chain(self.rs, by_degree))


def irregular_type(rs: RootSystem, coefficient_vectors) -> IrregularType:
    return IrregularType(rs, tuple(cartan(rs, v) for v in coefficient_vectors))


def degree_profile(q: IrregularType) -> tuple[int, ...]:
    """d_alpha = max{ i : alpha(A_i) != 0 } (0 if none), aligned with ``q.rs.roots``.

    Walks the coefficients bottom-up, skipping zero ones: each nonzero A_i
    is evaluated once on the lex-positive roots only, by
    ``rootsys.positive_root_values`` on its integer column ``A_i.ints``
    (only zero/non-zero is read), and i is written on every root it does
    not kill.  Since d_alpha = d_{-alpha}, the negatives mirror that half.
    """
    degrees = [0] * len(q.rs.positive_indices)
    for i, coeff in enumerate(q.coefficients, start=1):
        if any(coeff.coords):
            values = rootsys.positive_root_values(coeff)
            degrees = [i if v else d for d, v in zip(degrees, values)]
    return tuple(degrees[::-1] + degrees)


class Filtration(namedtuple("Filtration", "rs chain")):
    """The root side: ``chain[i]`` is the ``rootsys.Level`` of Phi_{i+1} (the
    last is the full system); ``levels`` and the immutable per-level
    ``factors`` (``level_factors``) are read off those records once."""

    @cached_property
    def levels(self) -> tuple[RootSubsystem, ...]:
        return tuple(level.sub for level in self.chain)

    @cached_property
    def factors(self) -> tuple[tuple[int, tuple[Factor, ...]], ...]:
        out = []
        for l, level in enumerate(self.chain[1:], start=1):
            factors = [_factor_of_arrangement(arr, self.rs.family) for arr in level.blocks]
            out.append((l, GroupDecomposition.from_factors(factors).factors))
        return tuple(out)


def filtration(q: IrregularType) -> Filtration:
    """Phi_1 <= ... <= Phi_{p+1} with Phi_i = {alpha : d_alpha < i}, all Levi.

    Kept on q (``IrregularType._root_side``): Phi_{l+1} \\ Phi_l is bucket l,
    the roots of degree l (both signs of each), and ``rootsys.levi_chain``
    proves every level Levi or raises ``SubsystemError``.  The tree path
    does not use it (see ``fission_tree``).
    """
    return q._root_side


# ---------------------------------------------------------------------------
# Fission trees
# ---------------------------------------------------------------------------

GREEN, BLUE = "green", "blue"
SMALL, LARGE = "small", "large"


class TreeNode(namedtuple("TreeNode", "id level parent colour diameter coords", defaults=(None,))):
    """One node: ``parent`` is None at the root; ``coords`` (its coordinate
    part) is optional."""

    __slots__ = ()


class FissionTree(namedtuple("FissionTree", "family nodes")):
    """A decorated fission tree, valid by construction (check_tree_invariants).

    ``by_id`` (each node by its id) and ``children_map`` (each node's
    children's ids, ascending) are built here, in one pass over the nodes;
    they are instance attributes, not fields.
    """

    def __new__(cls, family: str, nodes: tuple[TreeNode, ...]):
        self = super().__new__(cls, family, nodes)
        by_id: dict[int, TreeNode] = {}
        kids: dict[int, list[int]] = {}
        for n in nodes:
            node_id, _, parent, _, _, _ = n
            by_id[node_id] = n
            if parent is not None:
                if parent in kids:
                    kids[parent].append(node_id)
                else:
                    kids[parent] = [node_id]
        for v in kids.values():  # appended in node order, whatever the ids
            v.sort()
        self.by_id = by_id
        self.children_map = {i: tuple(kids[i]) if i in kids else () for i in by_id}
        check_tree_invariants(self)
        return self

    def children(self, node_id: int) -> tuple[int, ...]:
        return self.children_map[node_id]

    def k(self, node_id: int) -> int:
        return len(self.children_map[node_id])

    @cached_property
    def root_id(self) -> int:
        (rid,) = [n.id for n in self.nodes if n.parent is None]
        return rid

    @cached_property
    def leaf_order(self) -> tuple[int, ...]:
        """Leaves in planar order: depth-first, children by id.

        This is the strand order of the nested cabling; it agrees with the
        coordinate order whenever the partition parts are intervals (Levis in
        standard position) but stays consistent for interleaved parts too.
        """
        order: list[int] = []
        stack = [self.root_id]
        while stack:
            node = stack.pop()
            kids = self.children_map[node]
            if not kids:
                order.append(node)
            stack.extend(reversed(kids))
        return tuple(order)

    @cached_property
    def leaf_runs(self) -> dict[int, range]:
        """Each node's leaves as their 1-based positions in ``leaf_order``: one
        run, as that order visits children by id, read bottom-up once."""
        runs = {leaf: range(i, i + 1) for i, leaf in enumerate(self.leaf_order, start=1)}
        for node_id, _, _, _, _, _ in sorted(self.nodes, key=itemgetter(1)):
            kids = self.children_map[node_id]
            if kids:
                runs[node_id] = range(runs[kids[0]].start, runs[kids[-1]].stop)
        return runs

    @property
    def height(self) -> int:
        return max(n.level for n in self.nodes) - 1

    def level_sizes(self) -> tuple[int, ...]:
        top = max(n.level for n in self.nodes)
        counts = [0] * top
        for n in self.nodes:
            counts[n.level - 1] += 1
        return tuple(counts)


def check_tree_invariants(tree: FissionTree) -> None:
    """Structural and decoration invariants of (generalised) fission trees.

    Raises ValueError naming the first rule the tree breaks.  Every
    FissionTree runs this once, on construction.
    """
    nodes = tree.nodes
    if tree.family not in ("A", "B", "C", "D"):
        raise ValueError("family must be one of A, B, C, D")
    by_id = tree.by_id
    if len(by_id) != len(nodes):
        raise ValueError("node ids must be unique")
    roots = []
    top = nodes[0].level if nodes else None
    plain = True  # every node green and large, as family A requires
    # Each node is unpacked once: a namedtuple field read costs more than
    # its share of one tuple unpacking.
    for n in nodes:
        node_id, level, parent, colour, diameter, _ = n
        # 2.0 and True would pass as dict keys equal to 2 and 1.
        if type(node_id) is not int or type(level) is not int or (
            parent is not None and type(parent) is not int
        ):
            raise ValueError("ids, levels and parents must be ints")
        if colour != GREEN:
            if colour != BLUE:
                raise ValueError(f"colour must be {GREEN} or {BLUE}")
            plain = False
        if diameter != LARGE:
            if diameter != SMALL:
                raise ValueError(f"diameter must be {SMALL} or {LARGE}")
            plain = False
        if parent is None:
            roots.append(n)
        elif parent not in by_id:
            raise ValueError("parent must be the id of a node")
        if level > top:
            top = level
    if len(roots) != 1:
        raise ValueError("tree must have a unique root")
    if roots[0].level != top:
        raise ValueError("root must sit at the top level")
    children_map = tree.children_map
    for node_id, level, parent, colour, diameter, _ in nodes:
        if parent is not None:
            _, par_level, _, par_colour, par_diameter, _ = by_id[parent]
            if par_level != level + 1:
                raise ValueError("parent must sit one level above its child")
            if par_colour == GREEN and colour == BLUE:
                raise ValueError("parent colour must dominate child colour")
            if par_diameter == SMALL and diameter == LARGE:
                raise ValueError("parent diameter must dominate child diameter")
        if colour == BLUE and diameter != LARGE:
            raise ValueError("blue nodes must be large")
        kids = children_map[node_id]
        if len(kids) > 1 and sum(by_id[c].colour == BLUE for c in kids) > 1:
            raise ValueError("at most one blue child per node")
        if diameter == SMALL and len(kids) > 1:
            raise ValueError("small nodes have at most one child")
        if (level == 1) != (not kids):
            raise ValueError("exactly the level-1 nodes must be leaves")
    if tree.family == "A" and not plain:
        raise ValueError("family A trees are all green/large")
    if tree.family != "A" and roots[0].colour != BLUE:
        raise ValueError("B/C/D roots must be blue")


def fission_tree(q: IrregularType) -> FissionTree:
    """Decorated fission tree of an irregular type over a classical family.

    Phi_l is the centraliser of (A_l, ..., A_p): e_a - e_b lies in it when
    the suffix columns (A_l..A_p)_a and (A_l..A_p)_b agree, e_a + e_b when
    they are opposite, and a one-entry root of B/C when column a is zero.
    So level l has one node per part of the coordinates grouped by suffix
    column (type-A parts, singletons included), up to sign in B/C/D, plus
    one blue node while the pinned block of all-zero columns is nonempty
    (D has no one-entry roots, so a lone pinned coordinate is a part).
    The parts are refined from level p+1 down, one scan of each
    coefficient's integer column ``ints`` per level, keying each
    coordinate by (its part one level up, entry * sign), so a node's
    parent is the part it was made from, nodes come in first-coordinate
    order and no root is enumerated.  Family A trees carry the degenerate
    all-green/all-large decoration; in the other families green nodes of
    singleton parts are small.
    """
    rs = q.rs
    if rs.family == "G2":
        raise UnsupportedFamilyError("no fission tree for G2; use the arrangement path")
    family = rs.family
    # From level p+1 down, each coordinate's part one level up (an index
    # into that level's entries) and its sign relative to the part's first
    # coordinate.  A level is kept as its entries (coordinate lists), each
    # entry's parent (the part it was made from) and the index of the
    # pinned block (None in family A or once it is empty).
    n = rs.ambient_dim
    part, sign = [0] * n, [1] * n
    pinned = None if family == "A" else 0
    levels = [([list(range(n))], [None], pinned)]
    for coeff in reversed(q.coefficients):
        col = coeff.ints
        ids: dict[tuple[int, int], int] = {}
        entries: list[list[int]] = []
        parents: list[int] = []
        flips: list[int] = []
        for c in range(n):
            k = part[c]
            x = col[c] * sign[c]
            # A pinned coordinate has sign 1; one whose entry is nonzero
            # leaves the block with that entry's sign.
            if x < 0 and k == pinned:
                sign[c], x = -1, -x
            e = ids.get((k, x))
            if e is None:
                e = ids[k, x] = len(entries)
                entries.append([c])
                parents.append(k)
                flips.append(sign[c])
            else:
                entries[e].append(c)
            part[c] = e
            sign[c] *= flips[e]
        pinned = ids.get((pinned, 0))
        levels.append((entries, parents, pinned))

    # Ids run level by level from level 1, so the level above starts after
    # this one.
    nodes: list[TreeNode] = []
    for level, (entries, parents, pinned) in enumerate(reversed(levels), start=1):
        first_above = len(nodes) + len(entries)
        for e, coords in enumerate(entries):
            # D has no one-entry roots, so a lone pinned coordinate is a part.
            if e == pinned and (family != "D" or len(coords) > 1):
                colour, diameter = BLUE, LARGE
            elif family != "A" and len(coords) < 2:
                colour, diameter = GREEN, SMALL
            else:
                colour, diameter = GREEN, LARGE
            parent = parents[e]
            nodes.append(
                TreeNode(
                    len(nodes), level, None if parent is None else first_above + parent,
                    colour, diameter, tuple(coords),
                )
            )
    return FissionTree(family, tuple(nodes))


# ---------------------------------------------------------------------------
# Group decompositions
# ---------------------------------------------------------------------------

_KIND_ORDER = {"Z": 0, "PB": 1, "PBBC": 2, "PBBCD": 3, "G2BRAID": 4}


class Factor(namedtuple("Factor", "kind a b", defaults=(0, 0))):
    __slots__ = ()

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_ORDER[self.kind], self.a, self.b)

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.kind == "Z" or (self.kind, self.a) in (("PB", 2), ("PBBC", 1))

    @property
    def annotation(self) -> str | None:
        if self.kind in ("PB", "PBBC") and self.is_infinite_cyclic:
            return "~ Z"
        if self.kind == "PBBCD":
            if (self.a, self.b) == (1, 1):
                return "~ PB_3"
            if (self.a, self.b) == (0, 2):
                return "~ Z^2"
            if self.a == 0:
                return f"~ PBD_{self.b}"
        return None

    def __str__(self) -> str:
        if self.kind == "PB":
            return f"PB_{self.a}"
        if self.kind == "PBBC":
            return f"PB_BC_{self.a}"
        if self.kind == "PBBCD":
            return f"PB_BCD({self.a},{self.b})"
        if self.kind == "G2BRAID":
            return "PBraid(G2)"
        return "Z"


def _canonical_factor(kind: str, a: int = 0, b: int = 0) -> Factor | None:
    """Canonicalization: trivial factors drop out, degenerate kinds collapse."""
    if kind == "PB":
        return Factor("PB", a) if a >= 2 else None
    if kind == "PBBC":
        return Factor("PBBC", a) if a >= 1 else None
    if kind == "PBBCD":
        if a == 0 and b <= 1:
            return None
        if b == 0:
            return _canonical_factor("PBBC", a)
        return Factor("PBBCD", a, b)
    if kind in ("Z", "G2BRAID"):
        return Factor(kind)
    raise ValueError(f"unknown factor kind {kind!r}")


class GroupDecomposition(namedtuple("GroupDecomposition", "factors")):
    """``factors``: canonical, sorted, no trivial entries."""

    __slots__ = ()

    @staticmethod
    def from_factors(raw: list[Factor | None]) -> "GroupDecomposition":
        factors = sorted((f for f in raw if f is not None), key=Factor.sort_key)
        return GroupDecomposition(tuple(factors))

    def canonical_string(self) -> str:
        """Sorted factors with exponents collected, e.g. ``PB_2 x PB_3^2 x PB_4``.

        Infinite-cyclic factors are listed one by one (``PB_2 x PB_2``,
        ``Z x Z``) rather than collected; exotic factors carry their
        identification annotations in brackets.
        """
        if not self.factors:
            return "1"
        pieces = []
        for f, group in itertools.groupby(self.factors):
            count = len(list(group))
            name = str(f)
            if f.kind == "PBBCD" and f.annotation:
                name = f"{name} [{f.annotation}]"
            if count >= 2 and not f.is_infinite_cyclic:
                pieces.append(f"{name}^{count}")
            else:
                pieces.extend([name] * count)
        return " x ".join(pieces)

    def iso_signature(self) -> tuple[tuple, ...]:
        """Multiset of isomorphism-class labels, splitting decomposable factors."""
        labels: list[tuple] = []
        for f in self.factors:
            if f.is_infinite_cyclic:
                labels.append(("Z",))
            elif f.kind == "PB":
                labels.append(("A", f.a))
            elif f.kind == "PBBC":
                labels.append(("BC", f.a))
            elif f.kind == "PBBCD":
                if (f.a, f.b) == (1, 1):
                    labels.append(("A", 3))
                elif (f.a, f.b) == (0, 2):
                    labels.extend([("Z",), ("Z",)])
                elif f.a == 0:
                    labels.append(("D", f.b))
                else:
                    labels.append(("X", f.a, f.b))
            else:
                labels.append(("G2",))
        return tuple(sorted(labels))

    def __str__(self) -> str:  # pragma: no cover
        return self.canonical_string()


def merge_decompositions(parts) -> GroupDecomposition:
    """Product across independent runs (the many-point case)."""
    return GroupDecomposition.from_factors([f for d in parts for f in d.factors])


def decomposition_from_tree(tree: FissionTree) -> GroupDecomposition:
    """The product of ``_node_factors``, one factor per node."""
    return GroupDecomposition.from_factors(_node_factors(tree))


def _node_factors(tree: FissionTree) -> list[Factor | None]:
    """Read one factor off each node, aligned with ``tree.nodes``: PB_k at a
    green node with k children, PB_BC_d at a blue node with d green children
    and, in family D only, PB_BCD(r, s) at the lowest blue node, with r large
    and s small children.  That node exists and is unique: the root is blue,
    no green node has a blue child and no node has two blue children
    (check_tree_invariants), so the blue nodes are one chain down from the
    root, one per level.
    """
    exotic = None
    if tree.family == "D":
        exotic = min(n.level for n in tree.nodes if n.colour == BLUE)
    by_id, children_map = tree.by_id, tree.children_map
    factors: list[Factor | None] = []
    for node_id, level, _, colour, _, _ in tree.nodes:
        if colour == GREEN:
            factors.append(_canonical_factor("PB", len(children_map[node_id])))
            continue
        kids = [by_id[c] for c in children_map[node_id]]
        if level == exotic:
            r = sum(c.diameter == LARGE for c in kids)
            factors.append(_canonical_factor("PBBCD", r, len(kids) - r))
        else:
            factors.append(_canonical_factor("PBBC", sum(c.colour == GREEN for c in kids)))
    return factors


def _factor_of_arrangement(arr: ArrangementType, family: str) -> Factor | None:
    if arr.kind == "TypeA":
        if family == "G2":
            # Rank-1 kernels in G2: the factor is infinite cyclic.
            return _canonical_factor("Z")
        return _canonical_factor("PB", arr.d + 1)
    if arr.kind == "TypeBC":
        return _canonical_factor("PBBC", arr.d)
    if arr.kind == "TypeD":
        return _canonical_factor("PBBCD", 0, arr.d)
    if arr.kind == "Exotic":
        return _canonical_factor("PBBCD", arr.r, arr.s)
    return _canonical_factor("G2BRAID")


def level_factors(q: IrregularType) -> tuple[tuple[int, tuple[Factor, ...]], ...]:
    """Canonical factors contributed by each filtration level (oracle path),
    read off the classified ``Level`` records of ``filtration(q)``."""
    return filtration(q).factors


def decomposition_via_arrangements(q: IrregularType) -> GroupDecomposition:
    """Oracle path: classify the restricted arrangement of every level."""
    return GroupDecomposition.from_factors(
        [f for _, fs in level_factors(q) for f in fs]
    )


def decompose(
    q: IrregularType, method: str = "tree", tree: FissionTree | None = None
) -> GroupDecomposition:
    """Group decomposition of the pure local wild mapping class group of q.

    method="tree" uses the fission-tree fast path; method="oracle" forces
    the arrangement path; method="check" runs both and raises
    DecompositionMismatchError on disagreement: first level by level, the
    tree's nodes against the root side's fusion of that level
    (``rootsys.levi_chain``), then the two products.  G2 has no tree, so
    every method returns the arrangement path there and "check" compares
    nothing (see "G2 gets a second route" in ROADMAP.md).  A caller that
    already holds fission_tree(q) passes it as ``tree``.
    """
    if method not in ("tree", "oracle", "check"):
        raise ValueError(f"unknown method {method!r}")
    if q.rs.family == "G2" or method == "oracle":
        return decomposition_via_arrangements(q)
    if tree is None:
        tree = fission_tree(q)
    via_tree = decomposition_from_tree(tree)
    if method == "tree":
        return via_tree
    _check_tree_levels(tree, filtration(q).chain)
    via_arr = decomposition_via_arrangements(q)
    if via_tree != via_arr:
        raise DecompositionMismatchError(
            f"tree path gave [{via_tree}] but arrangement oracle gave [{via_arr}]"
            + _first_differing_level(tree, q)
        )
    return via_tree


def _first_differing_level(tree: FissionTree, q: IrregularType) -> str:
    """Name the first level l whose tree factors (the nodes at tree level
    l+1) differ from entry l of ``level_factors(q)``, with both lists; read
    only once the two products differ."""
    per_node = list(zip(tree.nodes, _node_factors(tree)))
    for l, factors in level_factors(q):
        at_tree = GroupDecomposition.from_factors([f for n, f in per_node if n.level == l + 1])
        if at_tree.factors != factors:
            at_nodes, at_roots = (", ".join(map(str, fs)) for fs in (at_tree.factors, factors))
            return (f"; level {l} differs first: the tree nodes at level {l + 1} give "
                    f"[{at_nodes}] and its arrangements [{at_roots}]")
    return ""


def _check_tree_levels(tree: FissionTree, chain: tuple[rootsys.Level, ...]) -> None:
    """Raise unless each tree level's (coords, colour) nodes are the parts
    (green) and the pinned block (blue) of that level's root fusion."""
    nodes: dict[int, set] = {}
    for n in tree.nodes:
        nodes.setdefault(n.level, set()).add((n.coords, n.colour))
    for level, record in enumerate(chain, start=1):
        expected = {(part, GREEN) for part in record.fusion.parts}
        if record.fusion.zero:
            expected.add((record.fusion.zero, BLUE))
        got = nodes.get(level, set())
        if got != expected:
            raise DecompositionMismatchError(
                f"fission tree level {level} has nodes {sorted(got)} but the "
                f"root-enumerated level fuses {sorted(expected)}"
            )


# ---------------------------------------------------------------------------
# Enumeration and sampling of irregular types
# ---------------------------------------------------------------------------


def enumerate_levi_subsystems(
    rs: RootSystem,
) -> list[tuple[RootSubsystem, CartanElement]]:
    """All Levi subsystems of rs, each with a witness Cartan element.

    The witness annihilates exactly the subsystem, so chains of Levis can be
    realized as degree profiles by using witnesses as coefficients.
    """
    seen: dict[tuple[int, ...], tuple[RootSubsystem, CartanElement]] = {}

    def record(values):
        elem = cartan(rs, values)
        sub = rootsys.levi_of_element(rs, elem)
        seen.setdefault(sub.members, (sub, elem))

    n = rs.ambient_dim
    if rs.family == "G2":
        record(project_traceless([1, 2, 4]))
        record([0, 0, 0])
        for i in rs.positive_indices:
            (v,) = linalg.integer_nullspace([rs.roots[i], (1, 1, 1)], 3)
            record(v)
        return sorted(seen.values(), key=lambda t: t[0].members)
    if rs.family == "A":
        for part in _set_partitions(list(range(n))):
            values = [0] * n
            for k, block in enumerate(part):
                for c in block:
                    values[c] = k + 1
            record(project_traceless(values))
        return sorted(seen.values(), key=lambda t: t[0].members)
    coords = list(range(n))
    for zero_size in range(n + 1):
        for zero in itertools.combinations(coords, zero_size):
            rest = [c for c in coords if c not in zero]
            for part in _set_partitions(rest):
                for signs in itertools.product(
                    *[[(1,) + s for s in itertools.product((1, -1), repeat=len(b) - 1)] for b in part]
                ):
                    values = [0] * n
                    for k, (block, sgn) in enumerate(zip(part, signs)):
                        for c, s in zip(block, sgn):
                            values[c] = s * (k + 1)
                    record(values)
    return sorted(seen.values(), key=lambda t: t[0].members)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_filtration_chains(rs: RootSystem, p: int):
    """All weak chains L_1 <= ... <= L_p of Levi subsystems, as witness tuples.

    Yields tuples of (subsystem, witness) of length p; the corresponding
    irregular type with coefficients = witnesses realizes exactly this
    filtration.
    """
    levis = enumerate_levi_subsystems(rs)
    contains: dict[int, list[int]] = {}
    for i, (a, _) in enumerate(levis):
        contains[i] = [
            j for j, (b, _) in enumerate(levis) if a.member_set <= b.member_set
        ]

    def rec(prefix: list[int]):
        if len(prefix) == p:
            yield tuple(levis[i] for i in prefix)
            return
        for j in contains[prefix[-1]] if prefix else range(len(levis)):
            yield from rec(prefix + [j])

    yield from rec([])


def irregular_type_for_chain(rs: RootSystem, chain) -> IrregularType:
    return IrregularType(rs, tuple(witness for _, witness in chain))


_VALUE_POOL = (0, 0, 1, 1, -1, 2, -2, 3, Fraction(1, 2))


def random_irregular_type(rs: RootSystem, p: int, rng: random.Random) -> IrregularType:
    """Random irregular type with a degeneracy-prone coefficient pool."""
    coeffs = []
    for _ in range(p):
        values = [rng.choice(_VALUE_POOL) for _ in range(rs.ambient_dim)]
        if rs.family in ("A", "G2"):
            values = project_traceless(values)
        coeffs.append(cartan(rs, values))
    return IrregularType(rs, tuple(coeffs))
