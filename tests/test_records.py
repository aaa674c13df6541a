"""The package's immutable records, and what importing the package loads.

Every record is listed with its field names spelled out, so these tests
pin the record contract itself: read-only fields, the hash of the tuple of
the fields, construction by position and by keyword, the repr, and each
constructor check with its message.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wildbraid
from wildbraid import fission, stokes
from wildbraid.braid import BraidWord
from wildbraid.fission import Factor, FissionTree, IrregularType, TreeNode
from wildbraid.linalg import integer_vector
from wildbraid.rootsys import (
    ArrangementType,
    CartanElement,
    ClassificationError,
    Fusion,
    RootSubsystem,
    SubsystemError,
    build_root_system,
    cartan,
)


def _sl3():
    rs = build_root_system("A", 2)
    return fission.irregular_type(rs, [(-1, 1, 0), (-1, -1, 2)])


def _stokes_tuple():
    return stokes.random_tuple(random.Random(5))


RECORDS = {
    "RootSystem": ("family rank ambient_dim", lambda: build_root_system("B", 3)),
    "CartanElement": ("rs coords", lambda: _sl3().coefficients[1]),
    "RootSubsystem": ("parent members", lambda: fission.filtration(_sl3()).levels[1]),
    "Fusion": ("parts signs zero", lambda: fission.filtration(_sl3()).chain[1].fusion),
    "ArrangementType": (
        "kind d r s raw_hyperplanes",
        lambda: fission.filtration(_sl3()).chain[1].blocks[0],
    ),
    "Level": ("sub fusion blocks", lambda: fission.filtration(_sl3()).chain[1]),
    "IrregularType": ("rs coefficients", _sl3),
    "Filtration": ("rs chain", lambda: fission.filtration(_sl3())),
    "TreeNode": (
        "id level parent colour diameter coords",
        lambda: fission.fission_tree(_sl3()).nodes[-1],
    ),
    "FissionTree": ("family nodes", lambda: fission.fission_tree(_sl3())),
    "Factor": ("kind a b", lambda: Factor("PBBCD", 1, 1)),
    "GroupDecomposition": ("factors", lambda: fission.decompose(_sl3())),
    "BraidWord": ("strands letters", lambda: BraidWord(3, ((1, 1), (2, -1)))),
    "StokesTuple": ("h b11 b31 b12 b22 b32 b42", _stokes_tuple),
    "VerificationReport": ("checks", lambda: stokes.verify_properties(_stokes_tuple())),
}


def _record(name):
    fields, build = RECORDS[name]
    r = build()
    assert type(r).__name__ == name
    return r, fields.split()


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(name):
    r, fields = _record(name)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, getattr(r, f))


@pytest.mark.parametrize("name", RECORDS)
def test_record_hashes_as_the_tuple_of_its_fields(name):
    r, fields = _record(name)
    values = tuple(getattr(r, f) for f in fields)
    assert hash(r) == hash(values)
    assert type(r)(*values) == r
    assert type(r)(**dict(zip(fields, values))) == r


@pytest.mark.parametrize(
    "record, text",
    [
        (
            TreeNode(3, 2, 0, "green", "large", (0, 2)),
            "TreeNode(id=3, level=2, parent=0, colour='green', diameter='large', coords=(0, 2))",
        ),
        (
            TreeNode(0, 3, None, "blue", "large"),
            "TreeNode(id=0, level=3, parent=None, colour='blue', diameter='large', coords=None)",
        ),
        (Factor("PB", 3), "Factor(kind='PB', a=3, b=0)"),
        (
            Fusion(((0, 2), (1,)), ((1, -1), (1,)), ()),
            "Fusion(parts=((0, 2), (1,)), signs=((1, -1), (1,)), zero=())",
        ),
        (
            ArrangementType("TypeA", 2, raw_hyperplanes=((1, 0), (0, 1), (1, 1))),
            "ArrangementType(kind='TypeA', d=2, r=0, s=0, raw_hyperplanes=((1, 0), (0, 1), (1, 1)))",
        ),
        (BraidWord(3, ((1, 1), (2, -1))), "BraidWord(strands=3, letters=((1, 1), (2, -1)))"),
    ],
    ids=["tree-node", "tree-root", "factor", "fusion", "arrangement", "braid-word"],
)
def test_record_repr_is_pinned(record, text):
    assert repr(record) == text


def _a2():
    return build_root_system("A", 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CartanElement(_a2(), (0, 0)), ValueError, "coordinate length 2 != ambient dim 3"),
        (lambda: cartan(_a2(), (1, 0, 0)), ValueError, "trace-free coordinates required"),
        (
            lambda: CartanElement(build_root_system("B", 2), ("1", "2")),
            ValueError,
            "coordinate entry '1' is not an exact rational",
        ),
        (lambda: RootSubsystem(_a2(), (2, 1)), SubsystemError, "sorted and duplicate-free"),
        (lambda: ArrangementType("TypeE"), ValueError, "unknown arrangement kind 'TypeE'"),
        (
            lambda: ArrangementType("TypeA", 2, raw_hyperplanes=((1, 0),)),
            ClassificationError,
            r"TypeA\(2\) expects 3 hyperplanes, got 1",
        ),
        (lambda: IrregularType(_a2(), ()), ValueError, "p >= 1 required"),
        (
            lambda: IrregularType(build_root_system("A", 3), _sl3().coefficients),
            ValueError,
            "coefficient belongs to a different root system",
        ),
        (
            lambda: FissionTree("A", (TreeNode(0, 2, None, "green", "large"),) * 2),
            ValueError,
            "node ids must be unique",
        ),
        (lambda: BraidWord(-1, ()), ValueError, "strand count must be nonnegative"),
        (lambda: BraidWord(3, ((3, 1),)), ValueError, "generator s3 needs at least 4 strands"),
        (lambda: BraidWord(3, ((0, 1),)), ValueError, "generator s0 needs at least 1 strands"),
        (lambda: BraidWord(3, ((1, 2),)), ValueError, r"signs must be \+-1"),
        (
            lambda: stokes.StokesTuple(*[((2, 0, 0), (0, 1, 0), (0, 0, 1))] * 7),
            ValueError,
            "determinant of h must be 1",
        ),
        (
            lambda: stokes.StokesTuple(*[((1, 1, 0), (0, 1, 0), (0, 0, 1))] * 7),
            ValueError,
            "h must be diagonal",
        ),
    ],
    ids=[
        "cartan-length", "cartan-trace", "cartan-entry", "subsystem-order", "arrangement-kind",
        "arrangement-count", "irregular-p", "irregular-root-system", "tree-invariants",
        "braid-strands", "braid-generator-above", "braid-generator-below", "braid-sign",
        "stokes-determinant", "stokes-diagonal",
    ],
)
def test_record_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_stokes_pairs_stay_out_of_equality():
    t = _stokes_tuple()
    u = stokes.StokesTuple(*(getattr(t, f) for f in RECORDS["StokesTuple"][0].split()))
    vars(u)["pairs"] = ()
    assert u == t and hash(u) == hash(t)


def test_cartan_ints_are_the_cleared_coordinates():
    third, half = Fraction(1, 3), Fraction(1, 2)
    b2 = build_root_system("B", 2)
    elements = [
        _sl3().coefficients[1],
        CartanElement(_a2(), (half, third, Fraction(-5, 6))),
        CartanElement(b2, (Fraction(-3, 4), Fraction(5, 6))),
        CartanElement(b2, (0, 0)),
    ]
    for c in elements:
        assert type(c.ints) is tuple
        assert c.ints == tuple(integer_vector(c.coords))
    assert elements[1].ints == (3, 2, -5) and elements[2].ints == (-9, 10)


def test_cartan_ints_stay_out_of_repr_and_equality():
    c = CartanElement(_a2(), (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)))
    d = CartanElement(_a2(), c.coords)
    vars(d)["ints"] = ()
    assert d == c and hash(d) == hash(c) == hash((c.rs, c.coords))
    assert repr(c) == f"CartanElement(rs={c.rs!r}, coords={c.coords!r})"
    assert "ints" not in repr(c)


GUARDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_package_import_loads_no_code_generation_modules():
    # The difference of sys.modules ignores whatever site loaded first.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import wildbraid, wildbraid.cli, wildbraid.selfcheck\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wildbraid.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = result.stdout.split()
    assert "wildbraid.selfcheck" in loaded
    assert [m for m in GUARDED if m in loaded] == []
