"""Exact pure-braid-word algebra: Artin generators, cabling, linking numbers.

Words in the Artin generators s_1..s_{n-1} compose left to right.  Equality
is decided by the Garside left normal form Delta^k A_1 ... A_r over simple
(permutation) braids, on windows only.  The longest common prefix and then
suffix of the two raw words are cut off, an exact step since P x S = P y S
exactly when x = y; only the two windows left are reduced freely (every
adjacent s_i^e s_i^-e dropped, in one stack pass), and their common ends
are cut off again.  A cancellation across a cut only leaves a longer
window.  When both windows are then empty, the freely reduced windows agree
letter for letter and the braids are equal, with no pass or normal form.
Otherwise one linear pass per window compares the permutations and the row
vector (1, ..., n) times the unreduced Burau image of the window at t = 3
over F_P, P = 2^61 - 1.
Evaluating at t = 3 mod P is a ring homomorphism Z[t^+-1] -> F_P, so equal
braids have equal vectors and a difference proves the braids differ; Burau
is not faithful for n >= 5, so equal vectors prove nothing, and the normal
forms of the windows decide every other "equal".  On words of l letters on
n strands the cuts and the reduction cost O(l) and the pass O(l + n).

For the normal form the word is cut into simple factors, letters of either
sign extending a factor while it stays simple; only an inverse letter that
opens a factor owes a Delta^-1, and moving the owed Delta^-1 to the front
twists by tau each factor with an odd number of owing factors after it.
The factors are then left-weighted, in O(l^2 n).

The operad composition gamma(sigma; tau_1..tau_n) is the block braid of
sigma (each strand fattened to the width of its tau) preceded in word order
by the direct sum of the taus; with this convention
gamma(s1^2; s1^-2, Id_1) is letter-for-letter the word s1^-1 s1^-1 s2 s1 s1 s2,
which pins down the composition order once and for all.  Every test that
depends on the order cites this convention.
"""

from __future__ import annotations

from collections import namedtuple

from .fission import FissionTree


class BraidWord(namedtuple("BraidWord", "strands letters")):
    """A word in signed Artin generators on ``strands`` strands; ``letters``
    are (generator index 1..n-1, sign +-1) pairs."""

    __slots__ = ()

    def __new__(cls, strands: int, letters: tuple[tuple[int, int], ...]):
        if strands < 0:
            raise ValueError("strand count must be nonnegative")
        for g, s in letters:
            if not 1 <= g <= strands - 1:
                raise ValueError(f"generator s{g} needs at least {g + 1} strands")
            if s not in (1, -1):
                raise ValueError("signs must be +-1")
        return super().__new__(cls, strands, letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("strand-count mismatch")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.strands, tuple((g, -s) for g, s in reversed(self.letters))
        )

    def __len__(self) -> int:
        return len(self.letters)


def identity(n: int) -> BraidWord:
    return BraidWord(n, ())


def word(n: int, *letters: tuple[int, int]) -> BraidWord:
    return BraidWord(n, tuple(letters))


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<i>`` and ``s<i>^-1``."""
    letters = []
    for tok in text.split():
        sign = 1
        body = tok
        if tok.endswith("^-1"):
            sign = -1
            body = tok[:-3]
        digits = body[1:]
        if not body.startswith("s") or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad braid token {tok!r}")
        letters.append((int(digits), sign))
    return BraidWord(strands, tuple(letters))


def format_word(b: BraidWord) -> str:
    return " ".join(f"s{g}" if s > 0 else f"s{g}^-1" for g, s in b.letters)


# ---------------------------------------------------------------------------
# Permutations and linking numbers
# ---------------------------------------------------------------------------


def permutation(b: BraidWord) -> tuple[int, ...]:
    """Image in the symmetric group: entry j (1-based) is the end position of
    the strand starting at position j."""
    current = list(range(1, b.strands + 1))
    for g, _ in b.letters:
        current[g - 1], current[g] = current[g], current[g - 1]
    out = [0] * b.strands
    for pos, strand in enumerate(current, start=1):
        out[strand - 1] = pos
    return tuple(out)


def is_pure(b: BraidWord) -> bool:
    return permutation(b) == tuple(range(1, b.strands + 1))


def linking_matrix(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Half the signed crossing count between each strand pair (pure braids)."""
    n = b.strands
    counts = [[0] * n for _ in range(n)]
    current = list(range(n))
    for g, s in b.letters:
        u, v = current[g - 1], current[g]
        counts[u][v] += s
        counts[v][u] += s
        current[g - 1], current[g] = v, u
    if current != list(range(n)):
        raise ValueError("linking matrix is only defined for pure braids")
    return tuple(tuple(c // 2 for c in row) for row in counts)


# ---------------------------------------------------------------------------
# Garside left normal form (the word-problem engine)
# ---------------------------------------------------------------------------


def _left_weight(ca, pa, cb, pb) -> bool:
    """Make the simple pair (A, B) left-weighted, S(B) in F(A); True if it moved.

    c[p] is the start of the strand ending at p, p[s] the end of the one
    starting at s.  While s_i starts B but does not finish A, A <- A s_i and
    B <- s_i^-1 B, a swap in each list; the scan then steps back one place.
    """
    moved = False
    i, last = 0, len(ca) - 1
    while i < last:
        if pb[i] > pb[i + 1] and ca[i] < ca[i + 1]:
            x, y = ca[i], ca[i + 1]
            ca[i], ca[i + 1] = y, x
            pa[x], pa[y] = pa[y], pa[x]
            x, y = pb[i], pb[i + 1]
            pb[i], pb[i + 1] = y, x
            cb[x], cb[y] = cb[y], cb[x]
            moved = True
            i = i - 1 if i else 0
        else:
            i += 1
    return moved


def normal_form(b: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Garside left normal form Delta^k A_1 ... A_r as (k, (A_1, ..., A_r)).

    Each A_j is simple, neither Delta nor the identity, given by its p list
    (entry s: 0-based end position of the strand starting at s); each pair
    (A_j, A_j+1) is left-weighted.  Equal braids have equal forms.

    First the word is cut into simple factors: a letter s_i^e extends the
    current factor while the product stays simple (s_i: strands i, i+1 not
    yet crossed; s_i^-1: they are, so the factor ends in s_i and the letter
    cancels it).  Otherwise a new factor starts, s_i or Delta s_i^-1; only
    the latter owes a Delta^-1 = Delta^-1 (Delta s_i^-1).  The m owed
    Delta^-1 move to the front by tau: s_j -> s_(n-j), which maps simple
    braids to simple braids, so a factor is conjugated by tau when an odd
    number of owing factors follow it.  Then each factor is appended and
    the pairs left-weighted walking left, up to the first pair that does
    not change; k is the number of leading Deltas minus m.
    """
    n = b.strands
    ident, delta = list(range(n)), list(range(n - 1, -1, -1))
    cuts, c, owes = [], ident[:], 0  # closed factors as (c list, owes Delta^-1)
    for g, s in b.letters:
        i = g - 1
        if (c[i] < c[i + 1]) != (s > 0):
            cuts.append((c, owes))
            c, owes = (ident[:], 0) if s > 0 else (delta[:], 1)
        c[i], c[i + 1] = c[i + 1], c[i]
    cuts.append((c, owes))
    m = right = sum(o for _, o in cuts)
    cs, ps = [], []  # the left-weighted factors so far, as c and p lists
    for c, owes in cuts:
        right -= owes  # now the owing factors after this one
        if right & 1:
            c = [n - 1 - x for x in reversed(c)]
        if c == ident:
            continue
        p = [0] * n
        for at, strand in enumerate(c):
            p[strand] = at
        cs.append(c)
        ps.append(p)
        j = len(cs) - 1
        while j and _left_weight(cs[j - 1], ps[j - 1], cs[j], ps[j]):
            j -= 1
        while cs[-1] == ident:
            cs.pop()
            ps.pop()
    lead = cs.count(delta)  # in a left-weighted form every Delta leads
    return lead - m, tuple(tuple(p) for p in ps[lead:])


_P = (1 << 61) - 1  # a Mersenne prime; t = 3 is a unit mod _P
_T, _T_INV = 3, pow(3, -1, _P)


def _burau_pass(b: BraidWord) -> tuple[list[int], list[int]]:
    """One walk over the letters: (c, v) with c[j] the strand ending at
    position j, and v the row vector (1, ..., n) times the unreduced Burau
    image of b at t = 3 mod _P, s_i acting on entries i, i+1 by the block
    [[1-t, t], [1, 0]] and s_i^-1 by its inverse [[0, 1], [t^-1, 1-t^-1]].
    Equal braids give equal pairs; unequal ones may too."""
    c, v = list(range(b.strands)), list(range(1, b.strands + 1))
    p, t, u = _P, _T, _T_INV
    for g, s in b.letters:
        i = g - 1
        x, y = v[i], v[g]
        if s > 0:
            z = t * x % p
            v[i] = (x + y - z) % p
            v[g] = z
        else:
            z = u * y % p
            v[i] = z
            v[g] = (x + y - z) % p
        c[i], c[g] = c[g], c[i]
    return c, v


def _free_reduce(letters: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """The letters with every adjacent s_i^e s_i^-e cancelled, in one stack pass."""
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


def _cut(x, y):
    """x and y without their longest common prefix and then their longest
    common suffix, which never reaches into the prefix."""
    lo, hx, hy = 0, len(x), len(y)
    while lo < hx and lo < hy and x[lo] == y[lo]:
        lo += 1
    while lo < hx and lo < hy and x[hx - 1] == y[hy - 1]:
        hx -= 1
        hy -= 1
    return x[lo:hx], y[lo:hy]


def braids_equal(a: BraidWord, b: BraidWord) -> bool:
    """Word problem on the windows where the two words differ.

    P x S = P y S exactly when x = y, so the common ends of the raw letters
    are cut off, the two windows reduced freely and their common ends cut
    off again.  Two empty windows mean the freely reduced windows agree
    letter for letter: True at once.  Otherwise the permutation and Burau
    pass of the windows can only say "different", and True comes from their
    normal forms."""
    if a.strands != b.strands:
        raise ValueError("strand-count mismatch")
    x, y = _cut(a.letters, b.letters)
    x, y = _cut(_free_reduce(x), _free_reduce(y))
    if not x and not y:
        return True
    # The letters come from valid words on a.strands, so they are not re-checked.
    a = tuple.__new__(BraidWord, (a.strands, tuple(x)))
    b = tuple.__new__(BraidWord, (b.strands, tuple(y)))
    return _burau_pass(a) == _burau_pass(b) and normal_form(a) == normal_form(b)


def is_identity_braid(b: BraidWord) -> bool:
    """braids_equal against the empty word."""
    return braids_equal(b, identity(b.strands))


# ---------------------------------------------------------------------------
# Cabling operad
# ---------------------------------------------------------------------------


def direct_sum(parts: list[BraidWord]) -> BraidWord:
    """Juxtaposition: generator indices shift by the cumulative strand counts."""
    letters: list[tuple[int, int]] = []
    offset = 0
    for part in parts:
        letters.extend((g + offset, s) for g, s in part.letters)
        offset += part.strands
    return BraidWord(offset, tuple(letters))


def _block_crossing(offset: int, a: int, b: int, sign: int) -> list[tuple[int, int]]:
    """Cable word swapping a width-a block over a width-b block at ``offset``."""
    if sign > 0:
        out = []
        for t in range(a):
            start = offset + a - 1 - t
            out.extend((start + u, 1) for u in range(b))
        return out
    return [(g, -1) for g, _ in reversed(_block_crossing(offset, b, a, 1))]


def block_braid(b: BraidWord, widths: list[int]) -> BraidWord:
    """Replace strand i of b by widths[i] parallel copies (width 0 deletes it)."""
    if len(widths) != b.strands:
        raise ValueError("widths length must equal the strand count")
    if any(w < 0 for w in widths):
        raise ValueError("widths must be nonnegative")
    order = list(range(b.strands))
    letters: list[tuple[int, int]] = []
    for g, s in b.letters:
        i = g - 1
        left, right = order[i], order[i + 1]
        offset = 1 + sum(widths[order[k]] for k in range(i))
        letters.extend(_block_crossing(offset, widths[left], widths[right], s))
        order[i], order[i + 1] = right, left
    return BraidWord(sum(widths), tuple(letters))


def gamma(sigma: BraidWord, taus: list[BraidWord]) -> BraidWord:
    """Operadic composition: insert tau_i into the i-th strand of sigma.

    Word order: the tau block first, then the blocked sigma (the convention
    fixed by the cabling example in the module docstring).
    """
    if len(taus) != sigma.strands:
        raise ValueError("arity mismatch: need one tau per strand of sigma")
    if not is_pure(sigma) or any(not is_pure(t) for t in taus):
        raise ValueError("gamma is defined on pure braids only")
    widths = [t.strands for t in taus]
    summed = direct_sum(taus)
    blocked = block_braid(sigma, widths)
    return BraidWord(blocked.strands, summed.letters + blocked.letters)


# ---------------------------------------------------------------------------
# Pure cabled braid groups from fission trees
# ---------------------------------------------------------------------------


def pure_generator(n: int, j: int, k: int) -> BraidWord:
    """Standard pure braid generator A_{jk} = (s_{k-1}..s_{j+1}) s_j^2 (..inverse..)."""
    if not 1 <= j < k <= n:
        raise ValueError("need 1 <= j < k <= n")
    letters = [(m, 1) for m in range(k - 1, j, -1)]
    letters += [(j, 1), (j, 1)]
    letters += [(m, -1) for m in range(j + 1, k)]
    return BraidWord(n, tuple(letters))


def cabled_group_generators(
    tree: FissionTree,
) -> list[tuple[int, tuple[BraidWord, ...]]]:
    """(node id, generators) for each node with k >= 2 children: the k(k-1)/2
    generators A_jm of PB_k on its children, cabled through the tree to pure
    braids on one strand per leaf.

    Cabling identities adds no letters, so a lift is the node's block braid
    (one block per child, as wide as its leaves) at the node's first leaf;
    leaf_order visits children by id, so a node's leaves are one run.
    """
    if tree.family != "A":
        raise ValueError("cabled generators are defined for family A trees")
    strands = len(tree.leaf_order)
    out = []
    for node in tree.nodes:
        kids = tree.children(node.id)
        k = len(kids)
        if k < 2:
            continue
        under = leaves_under(tree, node.id)
        before, after = identity(under[0] - 1), identity(strands - under[-1])
        widths = [len(leaves_under(tree, c)) for c in kids]
        gens = [
            direct_sum([before, block_braid(pure_generator(k, j, m), widths), after])
            for j in range(1, k + 1)
            for m in range(j + 1, k + 1)
        ]
        out.append((node.id, tuple(gens)))
    return out


def leaves_under(tree: FissionTree, node_id: int) -> tuple[int, ...]:
    """Leaf strand positions (1-based) below a node, in leaf order."""
    reach, stack = set(), [node_id]
    while stack:
        node = stack.pop()
        reach.add(node)
        stack.extend(tree.children_map[node])
    return tuple(
        pos + 1 for pos, leaf in enumerate(tree.leaf_order) if leaf in reach
    )
