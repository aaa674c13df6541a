"""Small exact linear algebra on integer rows.

Every row and covector here is a sequence of ints: root vectors, their
restrictions to a kernel, and the G2 trace row.  Matrices are sized for
root-system computations: at most a few hundred rows and a few dozen
columns.  Rank, span and kernel questions must be decided exactly because
they encode discrete invariants; they only ask whether a quantity is zero,
so the elimination runs fraction-free.  ``cleared`` (and its
``integer_vector``) clears the denominators of a rational vector, the one
place here where ``fractions.Fraction`` input is accepted, and refuses an
entry that is not an exact rational.  ``rootsys.CartanElement`` calls it
once per coefficient, when the coefficient is built, the parser once per
parsed A/G2 vector for its trace check, ``rootsys.project_traceless`` once
per projection and ``stokes`` once per matrix it reads as a pair.
"""

from __future__ import annotations

from math import gcd, lcm


def cleared(v, name: str) -> tuple[list[int], int]:
    """The sequence v (ints or Fractions) times the lcm d of its
    denominators, and d.

    An entry without ``as_integer_ratio`` (a str, a complex, None) raises
    a ValueError that names it, as "<name> entry ...".
    """
    try:
        ratios = [x.as_integer_ratio() for x in v]
    except AttributeError:
        bad = next(x for x in v if not hasattr(x, "as_integer_ratio"))
        raise ValueError(f"{name} entry {bad!r} is not an exact rational") from None
    # A list, not a generator: unpacking a generator builds an oversized
    # tuple and shrinks it, which fills CPython's tuple free list.
    d = lcm(*[q for _, q in ratios])
    return [a * (d // q) for a, q in ratios], d


def integer_vector(v) -> list[int]:
    """The coordinate sequence v cleared of denominators (``cleared``)."""
    return cleared(v, "coordinate")[0]


def _normalized(v, pivot: int) -> list[int]:
    """v divided by the gcd of its entries, with v[pivot] > 0."""
    g = gcd(*v)
    if v[pivot] < 0:
        g = -g
    return [x // g for x in v]


def _echelon(rows) -> list[tuple[int, list[int]]]:
    """Fraction-free Gauss-Jordan elimination.

    Returns (pivot column, row) pairs sorted by pivot column.  The rows are
    primitive integer vectors with a positive pivot, every pivot column is
    zero outside its own row, and the rows span the row space of ``rows``:
    dividing each row by its pivot gives the reduced row echelon form.
    """
    basis: list[tuple[int, list[int]]] = []
    for v in rows:
        for p, b in basis:
            if v[p]:
                f, g = v[p], b[p]
                v = [g * x - f * y for x, y in zip(v, b)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        v = _normalized(v, pivot)
        for k, (p, b) in enumerate(basis):
            if b[pivot]:
                f, g = b[pivot], v[pivot]
                basis[k] = (p, _normalized([g * x - f * y for x, y in zip(b, v)], p))
        basis.append((pivot, v))
    basis.sort()
    return basis


def matrix_rank(rows) -> int:
    return len(_echelon(rows))


def integer_nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : M x = 0}, one vector per free column.

    Each vector is positive on its own free column and 0 on the other free
    columns: a positive multiple of the rational basis vector that is 1
    there.
    """
    basis = _echelon(rows)
    pivots = {p for p, _ in basis}
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        scale = lcm(*(b[p] for p, b in basis if b[fc]))
        x = [0] * ncols
        x[fc] = scale
        for p, b in basis:
            x[p] = -b[fc] * (scale // b[p])
        out.append(tuple(x))
    return out


def primitive(v) -> tuple[int, ...]:
    """Scale a nonzero integer covector to be primitive, first nonzero > 0.

    This is the canonical representative of a hyperplane: the gcd divided
    out and the overall sign fixed.
    """
    lead = next((c for c, a in enumerate(v) if a), None)
    if lead is None:
        raise ValueError("primitive() called on the zero covector")
    return tuple(_normalized(v, lead))
