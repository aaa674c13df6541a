"""Expected answers computed apart from wildbraid.

Nothing here imports the package under test.  The functions work on plain
integers, tuples and factor strings (``PB_3``, ``PB_BC_2``, ``PB_BCD(1,2)``,
``Z``, ``PBraid(G2)``), so a check never compares the program with itself.
"""

from __future__ import annotations

import re

_FACTOR = re.compile(r"PB_(\d+)|PB_BC_(\d+)|PB_BCD\((\d+),(\d+)\)|Z|PBraid\(G2\)")


def _parse_factor(text: str) -> tuple:
    m = _FACTOR.fullmatch(text)
    if m is None:
        raise ValueError(f"unknown factor {text!r}")
    if m.group(1):
        return ("PB", int(m.group(1)))
    if m.group(2):
        return ("PBBC", int(m.group(2)))
    if m.group(3):
        return ("PBBCD", int(m.group(3)), int(m.group(4)))
    return ("Z",) if text == "Z" else ("G2",)


def essential_rank(text: str) -> int:
    """Rank of the factor's model arrangement: PB_k -> k-1, PB_BC_d -> d,
    PB_BCD(r,s) -> r+s, Z -> 1, PBraid(G2) -> 2."""
    f = _parse_factor(text)
    if f[0] == "PB":
        return f[1] - 1
    if f[0] == "PBBC":
        return f[1]
    if f[0] == "PBBCD":
        return f[1] + f[2]
    return 1 if f[0] == "Z" else 2


def iso_labels(factors) -> tuple:
    """Isomorphism-class labels, splitting the decomposable factors."""
    labels = []
    for text in factors:
        f = _parse_factor(text)
        if f in (("PB", 2), ("PBBC", 1), ("Z",)):
            labels.append(("Z",))
        elif f[0] == "PB":
            labels.append(("A", f[1]))
        elif f[0] == "PBBC":
            labels.append(("BC", f[1]))
        elif f == ("PBBCD", 1, 1):
            labels.append(("A", 3))
        elif f == ("PBBCD", 0, 2):
            labels.extend([("Z",), ("Z",)])
        elif f[0] == "PBBCD" and f[1] == 0:
            labels.append(("D", f[2]))
        elif f[0] == "PBBCD":
            labels.append(("X", f[1], f[2]))
        else:
            labels.append(("G2",))
    return tuple(sorted(labels))


# The groups a rank-2 decomposition may be, up to isomorphism.
RANK2_ALLOWED = {
    ("A", 2): {(), (("Z",),), (("Z",), ("Z",)), (("A", 3),)},
    ("B", 2): {(), (("Z",),), (("Z",), ("Z",)), (("BC", 2),)},
    ("G2", 2): {(), (("Z",),), (("Z",), ("Z",)), (("G2",),)},
}


# ---------------------------------------------------------------------------
# Root systems and ranks, from scratch
# ---------------------------------------------------------------------------


def positive_roots(family: str, rank: int) -> list[tuple[int, ...]]:
    """One root of each +- pair, in the package's coordinates."""
    out = []
    if family == "G2":
        for i in range(3):
            for j in range(i + 1, 3):
                v = [0, 0, 0]
                v[i], v[j] = 1, -1
                out.append(tuple(v))
            out.append(tuple(2 if k == i else -1 for k in range(3)))
        return out
    n = rank + 1 if family == "A" else rank
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (-1,) if family == "A" else (-1, 1):
                v = [0] * n
                v[i], v[j] = 1, sj
                out.append(tuple(v))
        if family in ("B", "C"):
            v = [0] * n
            v[i] = 1 if family == "B" else 2
            out.append(tuple(v))
    return out


def int_rank(rows) -> int:
    """Rank of integer vectors by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def level_ranks(family: str, rank: int, coefficients) -> list[int]:
    """rank(Phi_i) for i = 1..p+1, where Phi_i = {alpha : alpha(A_k) = 0 for k >= i}.

    ``coefficients`` are the coordinate vectors of A_1..A_p (any exact
    numbers).  The last entry is the rank of the whole system.
    """
    roots = positive_roots(family, rank)
    p = len(coefficients)
    # deg[alpha] = the largest k with alpha(A_k) != 0, or 0.
    deg = []
    for r in roots:
        d = 0
        for k, a in enumerate(coefficients, start=1):
            if sum(x * y for x, y in zip(r, a)) != 0:
                d = k
        deg.append(d)
    return [int_rank([r for r, d in zip(roots, deg) if d < i]) for i in range(1, p + 2)]


# ---------------------------------------------------------------------------
# Planted nested irregular types (families A-D)
# ---------------------------------------------------------------------------


def _chunks(items: list, k: int) -> list[list]:
    """k contiguous pieces of near-equal size."""
    size, extra = divmod(len(items), k)
    out, start = [], 0
    for j in range(k):
        end = start + size + (1 if j < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def planted_type(family: str, rank: int, p: int, rng) -> dict:
    """An irregular type whose fission filtration is planted level by level.

    The shape (how many pieces every part splits into, how much of the zero
    block survives) depends only on (family, rank, p); the seed chooses the
    coordinate order, the values and the signs.  Returns the coefficient
    vectors (integers, trace-free for A) and, per level 1..p+1, the green
    parts and the zero block.
    """
    n = rank + 1 if family == "A" else rank
    coords = list(range(n))
    rng.shuffle(coords)
    parts, zero = ([tuple(coords)], ()) if family == "A" else ([], tuple(coords))
    sign = {c: 1 for c in coords}
    coefficients = [None] * p
    levels = [None] * (p + 1)
    levels[p] = (parts, zero)
    for lvl in range(p, 0, -1):
        values = {c: 0 for c in coords}
        new_parts = []
        for part in parts:
            k = min(len(part), 2 + (lvl + len(part)) % 2)
            for piece, w in zip(_chunks(list(part), k), rng.sample(range(-9, 10), k)):
                for c in piece:
                    values[c] = sign[c] * w
                new_parts.append(tuple(piece))
        if zero:
            keep = len(zero) // 2
            if family == "D" and keep == 1:
                keep = 0  # a lone zero coordinate of D is a free part, not a block
            rest = list(zero[keep:])
            m = min(len(rest), 1 + lvl % 2)
            for piece, u in zip(_chunks(rest, m), rng.sample(range(1, 10), m)):
                for c in piece:
                    sign[c] = rng.choice((1, -1))
                    values[c] = sign[c] * u
                new_parts.append(tuple(piece))
            zero = zero[:keep]
        parts = new_parts
        levels[lvl - 1] = (parts, zero)
        vec = [values[c] for c in range(n)]
        if family == "A":
            total = sum(vec)
            vec = [n * x - total for x in vec]
        coefficients[lvl - 1] = vec
    return {"coefficients": coefficients, "levels": levels}


def planted_tree(family: str, levels) -> list[dict]:
    """The decorated fission tree of a planted filtration, node by node.

    Every green part is a node (small when a singleton outside family A),
    plus one blue node per nonempty zero block; a node's parent is the node
    one level up that contains its coordinates.
    """
    nodes = []
    owner = {}  # (level, coordinate) -> node index
    for lvl, (parts, zero) in enumerate(levels, start=1):
        blocks = [(part, "green") for part in parts]
        if zero:
            blocks.append((zero, "blue"))
        for coords, colour in blocks:
            small = colour == "green" and len(coords) == 1 and family != "A"
            nodes.append(
                {"level": lvl, "colour": colour, "diameter": "small" if small else "large",
                 "coords": coords, "children": []}
            )
            for c in coords:
                owner[(lvl, c)] = len(nodes) - 1
    for i, node in enumerate(nodes):
        up = owner.get((node["level"] + 1, node["coords"][0]))
        if up is not None:
            nodes[up]["children"].append(i)
    return nodes


def tree_factors(family: str, nodes) -> list[str]:
    """Factors read off a decorated tree by the paper's rules.

    A green node with k children gives PB_k; a blue node gives PB_BC_d with d
    its green children; in family D the deepest blue node gives
    PB_BCD(r, s) with r large and s small children.  Trivial factors drop
    out, PB_BCD(r, 0) is PB_BC_r.
    """
    out = []
    for node in nodes:
        kids = [nodes[c] for c in node["children"]]
        if node["colour"] == "green":
            if len(kids) >= 2:
                out.append(f"PB_{len(kids)}")
        elif family == "D" and all(k["colour"] == "green" for k in kids):
            r = sum(1 for k in kids if k["diameter"] == "large")
            s = len(kids) - r
            if s == 0 and r >= 1:
                out.append(f"PB_BC_{r}")
            elif s >= 1 and (r, s) != (0, 1):
                out.append(f"PB_BCD({r},{s})")
        else:
            greens = sum(1 for k in kids if k["colour"] == "green")
            if greens:
                out.append(f"PB_BC_{greens}")
    return sorted(out)


def tree_shape(nodes) -> list[tuple]:
    """Sorted (level, colour, diameter, child count) of every node."""
    return sorted(
        (n["level"], n["colour"], n["diameter"], len(n["children"])) for n in nodes
    )


def planted_rank_phi1(family: str, rank: int, levels) -> int:
    """rank(Phi_1) from the level-1 partition: ambient dim minus free parts."""
    n = rank + 1 if family == "A" else rank
    return n - len(levels[0][0])


# ---------------------------------------------------------------------------
# Braid words and 3x3 matrices
# ---------------------------------------------------------------------------


def pure_generator(n: int, j: int, k: int) -> list[tuple[int, int]]:
    """Letters of A_jk = (s_{k-1}..s_{j+1}) s_j^2 (s_{j+1}^-1..s_{k-1}^-1)."""
    return (
        [(m, 1) for m in range(k - 1, j, -1)]
        + [(j, 1), (j, 1)]
        + [(m, -1) for m in range(j + 1, k)]
    )


def inverse(letters) -> list[tuple[int, int]]:
    return [(g, -s) for g, s in reversed(letters)]


def rewrite(letters, strands: int, moves: int, rng) -> list[tuple[int, int]]:
    """Apply braid relations at random places; the braid does not change.

    Moves: insert s s^-1, delete s s^-1, swap far commuting letters, and the
    braid relation s_i s_j s_i = s_j s_i s_j for |i-j| = 1 (same signs).
    """
    w = list(letters)
    for _ in range(moves):
        kind = rng.randrange(4)
        if kind == 0 or len(w) < 3:
            pos = rng.randint(0, len(w))
            g = rng.randint(1, strands - 1)
            s = rng.choice((1, -1))
            w[pos:pos] = [(g, s), (g, -s)]
            continue
        i = rng.randrange(len(w) - 2)
        (a, sa), (b, sb), (c, sc) = w[i], w[i + 1], w[i + 2]
        if kind == 1 and a == b and sa == -sb:
            del w[i : i + 2]
        elif kind == 2 and abs(a - b) >= 2:
            w[i], w[i + 1] = w[i + 1], w[i]
        elif kind == 3 and a == c and abs(a - b) == 1 and sa == sb == sc:
            w[i : i + 3] = [(b, sa), (a, sa), (b, sa)]
    return w


def matmul(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = tuple(
            tuple(sum(out[i][k] * m[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
    return out


def is_identity(m) -> bool:
    return all(m[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3))
