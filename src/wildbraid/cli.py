"""Command-line pipeline: irregular-type specs in, trees/decompositions out.

Input format (JSON): a single block

    {"lie_type": "A", "rank": 2, "p": 2,
     "coefficients": [["-1", "1", "0"], ["-1", "-1", "2"]]}

with coefficient i the vector of the x^i coefficient, entries integers or
exact rational strings: an optional sign and ASCII digits, as "num/den" or
a decimal such as "1.5", surrounding whitespace ignored (exponent notation,
"_" separators and non-ASCII digits are rejected); or {"points": [block,
...]} for the many-point product.  A block accepts only the keys lie_type,
rank, p and coefficients ("p" is optional and pads with zero coefficients);
a many-point document accepts only "points".  p may be at most MAX_P.  rank
may be at most MAX_TREE_RANK on the routes that read only coordinates
(decompose without --oracle/--check, tree) and at most MAX_RANK on the
routes that enumerate roots (decompose --oracle/--check) or whose output
grows with the tree (cable).
Family A (and G2) vectors are given in eigenvalue coordinates and are
projected onto trace zero with a warning whenever the input trace is
nonzero.

parse_blocks is the one parse entry point: a path or a JSON text in, one
(RootSystem, IrregularType) pair per point out.

Subcommands: decompose (--oracle or --check, not both), tree (--format
json|dot), cable, stokes-verify, selftest, all in one grammar table,
_COMMANDS.  _read_argv reads a well-formed call (a command, its exact flags
at most once each, and its one input) from that table without loading
argparse; help, usage errors and any other command line go to the argparse
parser that build_parser builds from the same table.  Each fission tree has
one JSON document, {"family", "leaf_order", "nodes"}: tree --format json
prints it, and decompose --json puts the same document in its "trees"
list.  Trees are checked once, when they are built.  Exit codes: 0
success, 1 check failure, 2 parse/validation error, 141 stdout closed by
its reader (as on SIGPIPE).  Error messages, input paths included, echo at
most ECHO_LIMIT characters of an offending value.  Every indented JSON
document (decompose --json, tree --format json, cable --json,
stokes-verify --json) is written by _dumps; a fission tree in it is
written by _tree_json, straight from the tree.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from . import braid, fission, rootsys, stokes
from .fission import FissionTree


# Input bounds.  Enumerating the roots costs O(rank^2) roots of rank + 1
# entries each, and the filtration has p + 1 levels, so the routes that
# enumerate roots (and cable, whose output grows with the tree) take rank up
# to MAX_RANK.  The tree path reads coordinates only, in O(p * rank), and
# takes rank up to MAX_TREE_RANK.
MAX_RANK = 32
MAX_TREE_RANK = 1000
MAX_P = 16
ECHO_LIMIT = 40

BLOCK_KEYS = ("lie_type", "rank", "p", "coefficients")


class InputError(ValueError):
    """Malformed input document; carries field context in the message."""


class TraceProjectionWarning(UserWarning):
    pass


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _echo(value) -> str:
    """repr(value), cut to ECHO_LIMIT characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"{where}: entry {_echo(value)} is not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = "e" in text or "E" in text
        # Decided on the form alone: the number is never built.
        if exponent and re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)[eE][+-]?[0-9]+", text):
            raise InputError(f"{where}: exponent notation {_echo(value)} is not accepted")
        try:
            # Fraction alone also reads exponents, non-ASCII digits and "_" (3.11+).
            if text.isascii() and "_" not in text and not exponent:
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            if limit and any(len(run) > limit for run in re.findall("[0-9]+", text)):
                raise InputError(f"{where}: entry {_echo(value)} exceeds the interpreter's"
                                 f" limit of {limit} digits")
        raise InputError(f"{where}: invalid rational {_echo(value)}")
    raise InputError(f"{where}: entry {_echo(value)} is not an exact rational")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The name of each non-list value json.loads returns.
_JSON_TYPES = {dict: "an object", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _reject_unknown_keys(doc: dict, accepted, where: str) -> None:
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise InputError(
            f"{where}: unknown key {_echo(unknown[0])} (accepted: {', '.join(accepted)})"
        )


def _parse_block(
    block: dict, where: str, max_rank: int
) -> tuple[rootsys.RootSystem, fission.IrregularType]:
    if not isinstance(block, dict):
        raise InputError(f"{where}: expected an object")
    _reject_unknown_keys(block, BLOCK_KEYS, where)
    for key in ("lie_type", "rank", "coefficients"):
        if key not in block:
            raise InputError(f"{where}: missing field {key!r}")
    family = block["lie_type"]
    if family not in rootsys.FAMILIES:
        raise InputError(f"{where}.lie_type: unknown family {_echo(family)}")
    rank = block["rank"]
    if not _is_int(rank):
        raise InputError(f"{where}.rank: expected an integer")
    if rank > max_rank:
        raise InputError(f"{where}.rank: {_echo(rank)} exceeds the bound {max_rank}")
    try:
        rs = rootsys.build_root_system(family, rank)
    except rootsys.UnsupportedRankError as exc:
        raise InputError(f"{where}: {exc}") from exc
    vectors = block["coefficients"]
    if not isinstance(vectors, list):
        raise InputError(f"{where}.coefficients: expected a list of coefficient vectors")
    if not vectors and "p" not in block:
        raise InputError(f"{where}.coefficients: p >= 1 required")
    p = block.get("p", len(vectors))
    if not _is_int(p):
        raise InputError(f"{where}.p: expected an integer")
    if p < 1:
        raise InputError(f"{where}.p: p >= 1 required")
    if p > MAX_P:
        raise InputError(f"{where}.p: {_echo(p)} exceeds the bound {MAX_P}")
    if len(vectors) > p:
        raise InputError(f"{where}: {len(vectors)} coefficients exceed p = {p}")
    coeffs = []
    for i, vecdata in enumerate(vectors, start=1):
        loc = f"{where}.coefficients[{i}]"
        if not isinstance(vecdata, list):
            raise InputError(f"{loc}: expected a list, not {_JSON_TYPES[type(vecdata)]}")
        if len(vecdata) != rs.ambient_dim:
            raise InputError(
                f"{loc}: expected {rs.ambient_dim} entries for {family}_{rank}"
            )
        values = [_parse_rational(v, loc) for v in vecdata]
        try:
            coeffs.append(rootsys.cartan(rs, values))
        except ValueError:
            # Length and entries are checked above, so the A/G2 trace rule
            # is the one refusal left.
            warnings.warn(
                f"{loc}: nonzero trace projected out", TraceProjectionWarning
            )
            coeffs.append(rootsys.cartan(rs, rootsys.project_traceless(values)))
    if p > len(coeffs):
        coeffs.extend([rootsys.cartan(rs, [0] * rs.ambient_dim)] * (p - len(coeffs)))
    return rs, fission.IrregularType(rs, tuple(coeffs))


def parse_blocks(
    source, max_rank: int = MAX_RANK
) -> list[tuple[rootsys.RootSystem, fission.IrregularType]]:
    """Parse a spec document from a path or a JSON text.

    Returns one (RootSystem, IrregularType) pair per point: a list of one
    for a single block.  A rank above ``max_rank`` is an input error,
    raised before any root is built.
    """
    if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
        text = source
    elif isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")  # JSON is UTF-8
        except FileNotFoundError as exc:
            raise InputError(f"no such input file: {_echo(str(source))}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 at byte {exc.start}"
            raise InputError(f"cannot read input file {_echo(str(source))}: {why}") from exc
    else:
        raise InputError("expected a path or a JSON text")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError("JSON nested too deeply") from exc
    except ValueError as exc:  # an int past the digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"a JSON number exceeds the interpreter's limit of {limit} digits") from exc
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    if "points" not in data:
        return [_parse_block(data, "input", max_rank)]
    _reject_unknown_keys(data, ("points",), "input")
    if not isinstance(data["points"], list) or not data["points"]:
        raise InputError("points: expected a nonempty list of blocks")
    return [_parse_block(b, f"points[{i}]", max_rank) for i, b in enumerate(data["points"])]


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------

_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda b: "true" if b else "false"}


def _dumps(doc, depth: int = 0) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), byte for byte, on CLI documents.

    json drops to its pure-Python encoder when indent is set; this walks dicts,
    lists and tuples, one comprehension per container (a dict's over its
    sorted items), and encodes scalars by exact type (a bool is never an int)
    with json's C encoders, in place.  A FissionTree is written as its
    document by _tree_json.  Any other value goes to plain json.dumps.
    """
    encode = _SCALARS.get(type(doc))
    if encode is not None:
        return encode(doc)
    if type(doc) is dict:
        if not doc:
            return "{}"
        brackets = "{}"
        items = [
            encode_basestring_ascii(k) + ": "
            + (e(v) if (e := _SCALARS.get(type(v))) else _dumps(v, depth + 1))
            for k, v in sorted(doc.items())
        ]
    elif type(doc) in (list, tuple):
        if not doc:
            return "[]"
        brackets = "[]"
        items = [e(v) if (e := _SCALARS.get(type(v))) else _dumps(v, depth + 1) for v in doc]
    elif type(doc) is FissionTree:
        return _tree_json(doc, depth)
    else:
        return json.dumps(doc)
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _tree_json(tree: FissionTree, depth: int) -> str:
    """_dumps of a fission tree's document at ``depth``, written from the tree.

    The document is {"family", "leaf_order", "nodes"}, each node an object
    of its colour, diameter, id, level and parent.  Every node goes through
    one %-template whose keys are in sorted order.  Ids, levels and parents
    are exact ints (check_tree_invariants), and colours and diameters are
    plain words, so no value needs escaping.
    """
    pad = "\n" + "  " * depth
    pad1, pad2, pad3 = pad + "  ", pad + "    ", pad + "      "
    keys = ('"colour": "%s"', '"diameter": "%s"', '"id": %d', '"level": %d', '"parent": %s')
    node = "{" + pad3 + ("," + pad3).join(keys) + pad2 + "}"
    nodes = ("," + pad2).join([
        node % (colour, diameter, node_id, level, "null" if parent is None else parent)
        for node_id, level, parent, colour, diameter, _ in tree.nodes
    ])
    leaves = ("," + pad2).join(map(str, tree.leaf_order))
    return (
        "{" + pad1 + '"family": ' + encode_basestring_ascii(tree.family) + ","
        + pad1 + '"leaf_order": [' + pad2 + leaves + pad1 + "],"
        + pad1 + '"nodes": [' + pad2 + nodes + pad1 + "]" + pad + "}"
    )


def emit_tree(tree: FissionTree, format: str = "json") -> str:
    """Serialize a fission tree; byte-deterministic for a fixed input."""
    if format == "json":
        return _dumps(tree) + "\n"
    if format == "dot":
        return _emit_dot(tree)
    raise ValueError(f"unknown tree format {format!r}")


def _emit_dot(tree: FissionTree) -> str:
    lines = ["digraph fission_tree {", "  rankdir=BT;"]
    levels: list[list] = [[] for _ in range(max(n.level for n in tree.nodes))]
    for n in tree.nodes:
        levels[n.level - 1].append(n)
    leaf_pos = {leaf: i + 1 for i, leaf in enumerate(tree.leaf_order)}
    for level, members in enumerate(levels, start=1):
        lines.append("  { rank=same;")
        for n in members:
            label = leaf_pos[n.id] if level == 1 else ""
            shape = "point" if n.diameter == fission.SMALL else "circle"
            fill = ", style=filled, fillcolor=lightblue" if n.colour == fission.BLUE else ""
            lines.append(f'    n{n.id} [label="{label}", shape={shape}{fill}];')
        lines.append("  }")
    for n in tree.nodes:
        if n.parent is not None:
            lines.append(f"  n{n.id} -> n{n.parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_decomposition(d: fission.GroupDecomposition) -> str:
    return d.canonical_string()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse(source, max_rank: int):
    """parse_blocks, with the warnings it raised collected as strings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        blocks = parse_blocks(source, max_rank)
    return blocks, [str(w.message) for w in caught]


def _print_warnings(notes) -> None:
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)


def _single_block(args, max_rank: int):
    """The one (RootSystem, IrregularType) of a single-point spec."""
    blocks, notes = _parse(args.input, max_rank)
    if len(blocks) != 1:
        raise InputError(f"{args.command} requires a single-point spec")
    _print_warnings(notes)
    return blocks[0]


def _cmd_decompose(args) -> int:
    method = "oracle" if args.oracle else ("check" if args.check else "tree")
    blocks, notes = _parse(args.input, MAX_TREE_RANK if method == "tree" else MAX_RANK)
    trees = [
        fission.fission_tree(q) if args.json and rs.family != "G2" else None
        for rs, q in blocks
    ]
    decs = [fission.decompose(q, method, tree) for (_, q), tree in zip(blocks, trees)]
    merged = fission.merge_decompositions(decs)
    if args.json:
        payload = {
            "decomposition": merged.canonical_string(),
            "factors": [str(f) for f in merged.factors],
            "method": method,
            "trees": trees,
            "warnings": notes,
        }
        print(_dumps(payload))
    else:
        _print_warnings(notes)
        print(merged.canonical_string())
    return 0


def _cmd_tree(args) -> int:
    _, q = _single_block(args, MAX_TREE_RANK)
    sys.stdout.write(emit_tree(fission.fission_tree(q), args.format))
    return 0


def _cmd_cable(args) -> int:
    rs, q = _single_block(args, MAX_RANK)
    if rs.family != "A":
        raise InputError("cable is defined for family A only")
    tree = fission.fission_tree(q)
    groups = braid.cabled_group_generators(tree)
    strands = len(tree.leaf_order)
    if args.json:
        payload = {
            "strands": strands,
            "groups": [
                {
                    "node": node_id,
                    "level": tree.by_id[node_id].level,
                    "children": tree.k(node_id),
                    "generators": [braid.format_word(g) for g in gens],
                }
                for node_id, gens in groups
            ],
        }
        print(_dumps(payload))
        return 0
    print(f"strands {strands}")
    for node_id, gens in groups:
        node = tree.by_id[node_id]
        print(f"node {node_id} (level {node.level}, k={tree.k(node_id)}):")
        for g in gens:
            print(f"  {braid.format_word(g)}")
    return 0


def _cmd_stokes_verify(args) -> int:
    if args.count < 0:
        raise InputError("--count must be nonnegative")
    rng = random.Random(args.seed)
    failures = []
    for i in range(args.count):
        t = stokes.random_tuple(rng)
        report = stokes.verify_properties(t, rng)
        if not report.passed:
            failures.append((i, report.failures()))
    if args.json:
        failed = [{"tuple": i, "checks": [n for n, _ in cs]} for i, cs in failures]
        print(_dumps({"tuples": args.count, "passed": not failures, "failures": failed}))
    else:
        print(f"stokes-verify: {args.count} tuples, {len(failures)} failures")
        for i, checks in failures:
            for name, detail in checks:
                print(f"  tuple {i}: {name} failed {detail}")
    return 1 if failures else 0


def _cmd_selftest(args) -> int:
    from . import selfcheck

    results = selfcheck.run_all(fast=not args.full)
    width = max(len(name) for name, _, _ in results)
    ok = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        ok = ok and passed
        line = f"{name.ljust(width)}  {status}"
        if detail:
            line += f"  {detail}"
        print(line)
    return 0 if ok else 1


# The CLI's grammar: each command's help line, handler and arguments, in
# the order its help lists them.  "input" is the one positional argument;
# a flag maps to its value kind (bool: a switch, False unless given; int;
# or a tuple of choices), its default and its help.  _read_argv and
# build_parser both read it.
_COMMANDS = {
    "decompose": ("decomposition of the local WMCG", _cmd_decompose, {
        "input": (str, None, "spec file path or inline JSON"),
        "--oracle": (bool, False, "force the arrangement path"),
        "--check": (bool, False, "run both paths and compare"),
        "--json": (bool, False, None),
    }),
    "tree": ("emit the fission tree", _cmd_tree, {
        "input": (str, None, None),
        "--format": (("json", "dot"), "json", None),
    }),
    "cable": ("emit cabled generators (family A)", _cmd_cable, {
        "input": (str, None, None),
        "--json": (bool, False, None),
    }),
    "stokes-verify": ("run the Stokes braiding verifier", _cmd_stokes_verify, {
        "--count": (int, 100, None),
        "--seed": (int, 2024, None),
        "--json": (bool, False, None),
    }),
    "selftest": ("run the acceptance property suites", _cmd_selftest, {
        "--full": (bool, False, "full-size sweeps"),
    }),
}
# decompose's two routes besides the tree: at most one per call.
_EXCLUSIVE = {"--oracle", "--check"}


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace of a well-formed command line, or None.

    Well-formed is a command, then its exact flags, each at most once and
    at most one of _EXCLUSIVE, each valued flag followed by a value that
    does not start with "-" (read with argparse's int() and choices), and
    the command's one input if it takes one.  Anything else (help, "--",
    a prefix of a flag, "--flag=value", ...) is left to build_parser, whose
    namespace equals this one wherever this one is given.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    _, fn, grammar = _COMMANDS[command]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name = token if token.startswith("-") else "input"
        if name not in grammar or name in given:
            return None
        kind = grammar[name][0]
        if kind is str:
            value = token
        elif kind is bool:
            value = True
        else:
            value = next(tokens, "-")  # no value left reads as "-"
            if value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif value not in kind:
                return None
        given[name] = value
    if len(_EXCLUSIVE & given.keys()) > 1 or ("input" in grammar) != ("input" in given):
        return None
    args = {name: default for name, (_, default, _) in grammar.items()} | given
    return SimpleNamespace(command=command, fn=fn, **{k.lstrip("-"): v for k, v in args.items()})


@functools.cache
def build_parser():
    """The whole CLI's argparse parser, read from _COMMANDS: built once per
    process, for help, usage errors and whatever _read_argv leaves to it,
    and keeping no state between calls."""
    import argparse

    parser = argparse.ArgumentParser(prog="wildbraid", description="fission trees, wild "
                                     "mapping class group decompositions, cabled braids")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, fn, grammar) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        route = p.add_mutually_exclusive_group() if _EXCLUSIVE & grammar.keys() else None
        for name, (kind, default, text) in grammar.items():
            if kind is str:
                p.add_argument(name, help=text)
            elif kind is bool:
                (route if name in _EXCLUSIVE else p).add_argument(
                    name, action="store_true", help=text)
            elif kind is int:
                p.add_argument(name, type=int, default=default, help=text)
            else:
                p.add_argument(name, choices=kind, default=default, help=text)
        p.set_defaults(command=command, fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv)
        if args is None:  # help, usage errors and unusual argv: argparse
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:  # help is printed to stdout: a closed pipe fails here
                sys.stdout.flush()
                raise
        try:
            code = args.fn(args)
        except (fission.DecompositionMismatchError, ValueError) as exc:  # InputError is a ValueError
            code, kind = (2, "input-error") if isinstance(exc, ValueError) else (1, "check-failure")
            if getattr(args, "json", False):
                print(json.dumps({"error": str(exc), "kind": kind}))
            else:
                print(f"error: {exc}", file=sys.stderr)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # quiet the interpreter's last flush; exit as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
