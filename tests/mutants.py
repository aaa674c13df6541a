"""Mutation gate: each mutant breaks one piece of the root side, the tree
reading, the braid engine, the Stokes verifier, its tuple generator, the
command line or a record's constructor check, and a narrow selection of the
tests must catch it.

Run from anywhere, with pytest installed:

    python tests/mutants.py

For each mutant, ``src/`` and ``tests/`` are copied to a fresh temporary
directory, the mutant's old text, which must occur exactly once in its file,
is replaced by its new text, and the mutant's pytest selection runs on the
copy under the hypothesis profile ``mutants`` (``tests/conftest.py``), which
skips shrinking: a property that catches a mutant reports at its first
failing example.  Before any mutant, every selection must pass on an unmutated copy.
The gate passes (exit 0) when every mutant's selection fails; a mutant whose
old text does not match once, or whose selection still passes, fails the
gate (exit 1).

Standard library only; pytest does not collect this file (its name does not
start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, run from the copy's root


MUTANTS = (
    Mutant(
        "levi_chain without the negation-closure check",
        "src/wildbraid/rootsys.py",
        "        if [last - i for i in reversed(new)] != list(new):\n",
        "        if False:\n",
        ("tests/test_rootsys.py", "-k", "not_closed_under_negation"),
    ),
    Mutant(
        "_refine drops each part's sign",
        "src/wildbraid/rootsys.py",
        "                to[k] = (to[r][0], rel[k])\n",
        "                to[k] = (to[r][0], 1)\n",
        ("tests/test_rootsys.py", "-k", "refine_glues_parts"),
    ),
    Mutant(
        "_refine keeps a pinned coordinate's old part and sign for the next level",
        "src/wildbraid/rootsys.py",
        "            sign[c] = 0\n",
        "",
        ("tests/test_rootsys.py", "-k", "refine_glues_parts or reference_walk_on_every_p3_chain"),
    ),
    Mutant(
        "levi_chain classifies Phi_1's step from the empty level",
        "src/wildbraid/rootsys.py",
        "        walk.append((sub, fus, blocks if walk else None))",
        "        walk.append((sub, fus, blocks))",
        ("tests/test_fission.py", "-k", "chain_fusions_equal_level_fusions_on_every_p3_chain"),
    ),
    Mutant(
        "_classify_block writes each entry one part to the left",
        "src/wildbraid/rootsys.py",
        "            cov[part] = x\n",
        "            cov[part - 1] = x\n",
        ("tests/test_rootsys.py", "-k", "balanced_triangle or reference_on_every_levi_pair"),
    ),
    Mutant(
        "_classify_block reads balanced backwards",
        "src/wildbraid/rootsys.py",
        "    if pairs == k * (k - 1) // 2 and balanced:\n",
        "    if pairs == k * (k - 1) // 2 and not balanced:\n",
        ("tests/test_rootsys.py", "-k", "classifier_rejects or balanced_triangle"),
    ),
    Mutant(
        "_check_tree_levels swaps GREEN and BLUE",
        "src/wildbraid/fission.py",
        "        expected = {(part, GREEN) for part in record.fusion.parts}\n"
        "        if record.fusion.zero:\n"
        "            expected.add((record.fusion.zero, BLUE))\n",
        "        expected = {(part, BLUE) for part in record.fusion.parts}\n"
        "        if record.fusion.zero:\n"
        "            expected.add((record.fusion.zero, GREEN))\n",
        ("tests/test_fission.py", "-k", "tree_level_mismatch or calls_no_is_levi"),
    ),
    Mutant(
        "the Burau pass reads t for t^-1 on s_i^-1",
        "src/wildbraid/braid.py",
        "            z = u * y % p\n",
        "            z = t * y % p\n",
        ("tests/test_braid.py", "-k", "burau_pass_respects_the_relations"),
    ),
    Mutant(
        "normal_form skips the owed Delta^-1",
        "src/wildbraid/braid.py",
        "            c, owes = (ident[:], 0) if s > 0 else (delta[:], 1)\n",
        "            c, owes = (ident[:], 0) if s > 0 else (delta[:], 0)\n",
        ("tests/test_braid.py", "-k", "delta_powers"),
    ),
    Mutant(
        "free reduction also cancels s_i^e s_i^e",
        "src/wildbraid/braid.py",
        "        if out and out[-1] == (g, -s):\n",
        "        if out and out[-1][0] == g:\n",
        ("tests/test_braid.py", "-k", "windows"),
    ),
    Mutant(
        "the suffix scan runs into the stripped prefix",
        "src/wildbraid/braid.py",
        "    while lo < hx and lo < hy and x[hx - 1] == y[hy - 1]:\n",
        "    while hx and hy and x[hx - 1] == y[hy - 1]:\n",
        ("tests/test_braid.py", "-k", "windows"),
    ),
    Mutant(
        "one empty window settles the pair as equal",
        "src/wildbraid/braid.py",
        "    if not x and not y:\n",
        "    if not x or not y:\n",
        ("tests/test_braid.py", "-k", "windows"),
    ),
    Mutant(
        "_dumps keeps the keys in insertion order",
        "src/wildbraid/cli.py",
        "            for k, v in sorted(doc.items())\n",
        "            for k, v in doc.items()\n",
        ("tests/test_cli.py", "-k", "dumps_is_json_dumps_indented"),
    ),
    Mutant(
        "_tree_json writes a node's level before its id",
        "src/wildbraid/cli.py",
        """'"id": %d', '"level": %d'""",
        """'"level": %d', '"id": %d'""",
        ("tests/test_cli.py", "-k", "dumps_writes_a_tree"),
    ),
    Mutant(
        "CartanElement keeps the unscaled numerators as ints",
        "src/wildbraid/rootsys.py",
        "        ints = tuple(linalg.integer_vector(coords))\n",
        "        ints = tuple(x.as_integer_ratio()[0] for x in coords)\n",
        ("tests/test_records.py", "-k", "cartan_ints"),
    ),
    Mutant(
        "degree_profile evaluates the roots on every coefficient",
        "src/wildbraid/fission.py",
        "        if any(coeff.coords):\n",
        "        if True:\n",
        ("tests/test_fission.py", "-k", "root_values_runs_once_per_nonzero_coefficient"),
    ),
    Mutant(
        "the reader accepts --oracle with --check",
        "src/wildbraid/cli.py",
        "    if len(_EXCLUSIVE & given.keys()) > 1 or",
        "    if len(_EXCLUSIVE & given.keys()) > 2 or",
        ("tests/test_cli.py", "-k", "agrees_with_argparse_on_any_argv"),
    ),
    Mutant(
        "the reader takes a second input",
        "src/wildbraid/cli.py",
        "        if name not in grammar or name in given:\n",
        '        if name not in grammar or name in given and name != "input":\n',
        ("tests/test_cli.py", "-k", "agrees_with_argparse_on_any_argv"),
    ),
    Mutant(
        "conjugates of one torus scalar reused for the next",
        "src/wildbraid/stokes.py",
        "        image = _conj(_torus(a, b), distinct)\n",
        "        image = image if _ else _conj(_torus(a, b), distinct)\n",
        ("tests/test_stokes.py", "-k", "failure_from_a_later_scalar"),
    ),
    Mutant(
        "_mul's inline product reads a wrong column for entry (0, 1)",
        "src/wildbraid/stokes.py",
        "a0 * b1 + a1 * b4 + a2 * b7,",
        "a0 * b1 + a1 * b4 + a2 * b8,",
        ("tests/test_stokes.py", "-k", "minv_exact or integer_arithmetic_matches_fraction_reference"),
    ),
    Mutant(
        "_shear_product adds column j to column i",
        "src/wildbraid/stokes.py",
        "            m[r + j] += num * n[r + i]\n",
        "            m[r + i] += num * n[r + j]\n",
        ("tests/test_stokes.py", "-k", "shear_product_matches_fraction_reference"),
    ),
    Mutant(
        "the exotic D node is the highest blue node",
        "src/wildbraid/fission.py",
        "        exotic = min(n.level for n in tree.nodes if n.colour == BLUE)\n",
        "        exotic = max(n.level for n in tree.nodes if n.colour == BLUE)\n",
        ("tests/test_fission.py", "-k", "lowest_blue_node_of_a_long_chain"),
    ),
    Mutant(
        "fission_tree colours D's lone pinned coordinate blue",
        "src/wildbraid/fission.py",
        '            if e == pinned and (family != "D" or len(coords) > 1):\n',
        "            if e == pinned:\n",
        ("tests/test_fission.py", "-k", "equals_ref_fission_tree"),
    ),
    Mutant(
        "fission_tree keys a part by its entry without the sign",
        "src/wildbraid/fission.py",
        "            x = col[c] * sign[c]\n",
        "            x = col[c]\n",
        ("tests/test_fission.py", "-k", "equals_ref_fission_tree"),
    ),
    Mutant(
        "check_tree_invariants accepts a green B/C/D root",
        "src/wildbraid/fission.py",
        '    if tree.family != "A" and roots[0].colour != BLUE:\n',
        "    if False:\n",
        ("tests/test_fission.py", "-k", "invalid_tree_is_rejected or without_blue_nodes"),
    ),
    Mutant(
        "check_tree_invariants accepts ids, levels and parents that are not ints",
        "src/wildbraid/fission.py",
        "        if type(node_id) is not int or type(level) is not int or (\n"
        "            parent is not None and type(parent) is not int\n"
        "        ):\n",
        "        if False:\n",
        ("tests/test_fission.py", "-k", "invalid_tree_is_rejected"),
    ),
    Mutant(
        "FissionTree.__new__ leaves each node's children in node order",
        "src/wildbraid/fission.py",
        "            v.sort()\n",
        "            pass\n",
        ("tests/test_fission.py", "-k", "non_ascending_ids"),
    ),
    Mutant(
        "FissionTree.__new__ skips check_tree_invariants",
        "src/wildbraid/fission.py",
        "        check_tree_invariants(self)\n",
        "",
        ("tests/test_fission.py", "-k", "rejected_at_construction"),
    ),
    Mutant(
        "BraidWord.__new__ skips the generator-range check",
        "src/wildbraid/braid.py",
        "            if not 1 <= g <= strands - 1:\n"
        '                raise ValueError(f"generator s{g} needs at least {g + 1} strands")\n',
        "",
        ("tests/test_records.py", "-k", "braid-generator"),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def run_pytest(copy: Path, args: tuple[str, ...]) -> int:
    """Pytest's exit code on the copy, importing wildbraid from the copy's
    src only: 0 when every selected test passed, 1 when some failed, and 5
    when the selection is empty."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run(
        [sys.executable, "-c", "import wildbraid; print(wildbraid.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True, check=True,
    )
    if not Path(probe.stdout.strip()).resolve().is_relative_to(copy.resolve()):
        raise SystemExit(f"wildbraid imports from {probe.stdout.strip()}, not the copy")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-profile=mutants", *args,
    ]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="wildbraid-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for mutant in MUTANTS:
            code = run_pytest(clean, mutant.tests)
            if code != 0:
                failures.append(f"{mutant.name}: its tests exit {code} without the mutant")
        for k, mutant in enumerate(MUTANTS):
            count = (ROOT / mutant.path).read_text().count(mutant.old)
            if count != 1:
                failures.append(f"{mutant.name}: old text matches {count} times, not once")
                continue
            copy = Path(tmp) / f"mutant{k}"
            copy_tree(copy)
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            caught = run_pytest(copy, mutant.tests) == 1  # a test failed
            print(f"{'caught' if caught else 'SURVIVED'}: {mutant.name}")
            if not caught:
                failures.append(f"{mutant.name}: survived {' '.join(mutant.tests)}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
