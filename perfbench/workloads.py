"""The four workloads: inputs from a seed, ops, traced ops and checks.

Each workload has four steps:

* ``plan(seed, quick)`` makes the inputs with the benchmark's own code and
  derives the expected answers; it runs before the set-up clock starts and
  never touches wildbraid.
* ``setup(wb, plan, tr)`` is the program-side set-up the ops need (for
  example cases built by the package's own enumerators); it is timed as
  part of ``setup_s``.
* ``run(wb, op)`` is one op as a user would make it; ``run_traced(wb, op,
  tr)`` makes the same op as a sequence of public calls, one span each.
* ``check(op, out)`` compares the output with the expected answer and
  returns an error message, or None; ``corrupt(op)`` makes the expected
  answer wrong, so the smoke test can show that the check bites.

``wb`` is a namespace holding the package modules; ``tr`` records spans
(see run.py).
"""

from __future__ import annotations

import io
import json
import random
import sys

import oracle

FAMILY_RANKS = {"A": (1, 16), "B": (1, 10), "C": (1, 10), "D": (2, 10)}
QUICK_FAMILY_RANKS = {"A": (1, 5), "B": (1, 3), "C": (1, 3), "D": (2, 3)}


def _check_all(errors) -> str | None:
    errors = [e for e in errors if e]
    return "; ".join(errors) if errors else None


# ---------------------------------------------------------------------------
# decompose_ranks: one cold `wildbraid decompose --json` per root system
# ---------------------------------------------------------------------------


class DecomposeRanks:
    name = "decompose_ranks"
    modules = ("wildbraid", "wildbraid.cli")

    def plan(self, seed: int, quick: bool) -> list[dict]:
        rng = random.Random(seed)
        ops = []
        for family, (lo, hi) in (QUICK_FAMILY_RANKS if quick else FAMILY_RANKS).items():
            for rank in range(lo, hi + 1):
                p = 1 + rank % 4
                planted = oracle.planted_type(family, rank, p, rng)
                levels = planted["levels"]
                nodes = oracle.planted_tree(family, levels)
                text = json.dumps(
                    {"lie_type": family, "rank": rank, "p": p,
                     "coefficients": planted["coefficients"]}
                )
                ops.append({
                    "label": f"{family}{rank} p={p}",
                    "argv": ["decompose", "--json", text],
                    "family": family,
                    "rank": rank,
                    "factors": oracle.tree_factors(family, nodes),
                    "shape": oracle.tree_shape(nodes),
                    "jump": rank - oracle.planted_rank_phi1(family, rank, levels),
                })
        return ops

    def setup(self, wb, plan, tr) -> list[dict]:
        return plan

    def run(self, wb, op):
        saved, sys.stdout = sys.stdout, io.StringIO()
        try:
            rc = wb.cli.main(op["argv"])
            return rc, sys.stdout.getvalue()
        finally:
            sys.stdout = saved

    def run_traced(self, wb, op, tr):
        tr.call("rootsys.build_root_system", wb.rootsys.build_root_system, op["family"], op["rank"])
        ((rs, q),) = tr.call("cli.parse", wb.cli.parse_blocks, op["argv"][-1])
        tr.call("fission.degree_profile", wb.fission.degree_profile, q)
        filt = tr.call("fission.filtration", wb.fission.filtration, q)
        tree = tr.call("fission.fission_tree", wb.fission.fission_tree, q)
        dec = tr.call("fission.tree_factors", wb.fission.decomposition_from_tree, tree)
        tr.count("fission.levels", len(filt.levels))
        tr.count("fission.tree_nodes", len(tree.nodes))
        _trace_levels(wb, rs, filt.levels, tr)
        tree_json = tr.call("cli.emit", wb.cli.emit_tree, tree)
        tr.call("cli.emit", wb.cli.emit_decomposition, dec)
        payload = {"factors": [str(f) for f in dec.factors], "trees": [json.loads(tree_json)]}
        return 0, json.dumps(payload)

    def check(self, op, out) -> str | None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}: {text.strip()[:200]}"
        payload = json.loads(text)
        factors = sorted(payload["factors"])
        nodes = payload["trees"][0]["nodes"]
        kids = {}
        for n in nodes:
            kids[n["parent"]] = kids.get(n["parent"], 0) + 1
        shape = sorted((n["level"], n["colour"], n["diameter"], kids.get(n["id"], 0)) for n in nodes)
        total = sum(oracle.essential_rank(f) for f in factors)
        return _check_all([
            factors != op["factors"] and f"factors {factors} != planted {op['factors']}",
            shape != op["shape"] and "tree differs from the planted tree",
            total != op["jump"] and f"essential rank {total} != rank - rank(Phi_1) = {op['jump']}",
        ])


    def corrupt(self, op) -> None:
        op["factors"] = sorted(op["factors"] + ["PB_2"])

def _trace_levels(wb, rs, levels, tr) -> None:
    """Levi check, fusion and rank of each filtration level, one span each."""
    for level in levels:
        tr.call("rootsys.levi_check", _levi_check, level)
        tr.count("rootsys.levels_checked")
        if rs.family != "G2":
            tr.call("rootsys.fusion", wb.rootsys.fusion_of, level)
        tr.call("linalg.matrix_rank", wb.linalg.matrix_rank, level.vectors)


def _levi_check(level) -> bool:
    level.validate()
    return level.is_levi()


# ---------------------------------------------------------------------------
# check_sweep: the acceptance sweep, tree path and oracle side by side
# ---------------------------------------------------------------------------


class CheckSweep:
    name = "check_sweep"
    modules = ("wildbraid",)

    def plan(self, seed: int, quick: bool) -> dict:
        return {
            "exhaustive_rank": 2 if quick else 3,
            "exhaustive_p": 1 if quick else 2,
            "random_rank": 3 if quick else 6,
            "per_stratum": 1 if quick else 3,
            "rng": random.Random(seed),
        }

    def setup(self, wb, plan, tr) -> list[dict]:
        fission, build = wb.fission, wb.rootsys.build_root_system
        systems = [
            (family, rank)
            for family in "ABCD"
            for rank in range(2 if family == "D" else 1, plan["exhaustive_rank"] + 1)
        ] + [("G2", 2)]
        cases = []
        for family, rank in systems:
            rs = tr.call("rootsys.build_root_system", build, family, rank)
            chains = tr.call(
                "fission.enumerate_filtration_chains",
                lambda: list(fission.enumerate_filtration_chains(rs, plan["exhaustive_p"])),
            )
            cases += [fission.irregular_type_for_chain(rs, chain) for chain in chains]
        # Random types, stratified: the same count for every (family, rank, p).
        rng = plan["rng"]
        for family in "ABCD":
            for rank in range(2 if family == "D" else 1, plan["random_rank"] + 1):
                rs = tr.call("rootsys.build_root_system", build, family, rank)
                for p in range(1, 5):
                    for _ in range(plan["per_stratum"]):
                        cases.append(fission.random_irregular_type(rs, p, rng))
        return [{"label": f"{q.rs.family}{q.rs.rank} p={q.p}", "q": q, "rank": q.rs.rank}
                for q in cases]

    def run(self, wb, op):
        q = op["q"]
        return wb.fission.decompose(q, method="check"), wb.fission.level_factors(q)

    def run_traced(self, wb, op, tr):
        fission, q = wb.fission, op["q"]
        tr.call("fission.degree_profile", fission.degree_profile, q)
        filt = tr.call("fission.filtration", fission.filtration, q)
        tr.count("fission.levels", len(filt.levels))
        per_level = tr.call("fission.level_factors", fission.level_factors, q)
        oracle_dec = fission.GroupDecomposition.from_factors(
            [f for _, fs in per_level for f in fs]
        )
        dec = oracle_dec
        if q.rs.family != "G2":
            tree = tr.call("fission.fission_tree", fission.fission_tree, q)
            tr.count("fission.tree_nodes", len(tree.nodes))
            dec = tr.call("fission.tree_factors", fission.decomposition_from_tree, tree)
            if dec != oracle_dec:
                raise fission.DecompositionMismatchError(f"tree [{dec}] vs oracle [{oracle_dec}]")
        _trace_levels(wb, q.rs, filt.levels, tr)
        for inner, outer in zip(filt.levels, filt.levels[1:]):
            if inner.members != outer.members:
                blocks = tr.call(
                    "rootsys.arrangement", wb.rootsys.restricted_arrangement_blocks,
                    q.rs, inner, outer,
                )
                tr.count("rootsys.blocks", len(blocks))
        return dec, per_level

    def check(self, op, out) -> str | None:
        dec, per_level = out
        q = op["q"]
        family, rank = q.rs.family, op["rank"]
        factors = sorted(str(f) for f in dec.factors)
        ranks = oracle.level_ranks(family, rank, [c.coords for c in q.coefficients])
        errors = [
            ranks[-1] != rank and f"rank of the full system {ranks[-1]} != {rank}",
            sum(map(oracle.essential_rank, factors)) != rank - ranks[0]
            and f"{factors}: essential rank != rank - rank(Phi_1) = {rank - ranks[0]}",
            len(factors) > rank and f"{len(factors)} factors exceed rank {rank}",
            sorted(str(f) for _, fs in per_level for f in fs) != factors
            and "level factors do not multiply to the decomposition",
        ]
        for level, fs in per_level:
            jump = ranks[level] - ranks[level - 1]
            if sum(oracle.essential_rank(str(f)) for f in fs) != jump:
                errors.append(f"level {level}: {fs} do not account for a rank jump of {jump}")
        allowed = oracle.RANK2_ALLOWED.get((family, rank))
        if allowed is not None and oracle.iso_labels(factors) not in allowed:
            errors.append(f"rank-2 decomposition {factors} is not an allowed group")
        return _check_all(errors)

    def corrupt(self, op) -> None:
        op["rank"] += 1


# ---------------------------------------------------------------------------
# braid_words: equality decisions with answers known by construction
# ---------------------------------------------------------------------------


def _random_letters(rng, strands, length):
    return [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)]


def _random_pure_letters(rng, strands, length):
    out = []
    while len(out) < length and strands >= 2:
        g, s = rng.randint(1, strands - 1), rng.choice((1, -1))
        out += [(g, s), (g, s)]
    return out


def _planted_a_tree(rng, leaves: int) -> list[tuple[int, int | None]]:
    """(level, parent) rows of a random 3-level family-A tree, root last."""
    mids = rng.randint(2, max(2, leaves - 2))
    cuts = sorted(rng.sample(range(1, leaves), mids - 1))
    groups = [range(a, b) for a, b in zip([0] + cuts, cuts + [leaves])]
    root = leaves + mids
    rows = [(1, leaves + m) for m, g in enumerate(groups) for _ in g]
    rows += [(2, root)] * mids
    rows.append((3, None))
    return rows


class BraidWords:
    name = "braid_words"
    modules = ("wildbraid",)
    # (strands, length) schedule for the random-word pairs.
    SCHEDULE = [(n, length) for n in (3, 4, 5) for length in (12, 16, 20, 24)]

    def plan(self, seed: int, quick: bool) -> dict:
        rng = random.Random(seed)
        reps = 1 if quick else 480
        schedule = self.SCHEDULE[:2] if quick else self.SCHEDULE
        plan = {"trees": [], "operad": [], "words": []}
        for leaves in (4, 5) if quick else (4, 5, 6, 7) * 2:
            plan["trees"].append((_planted_a_tree(rng, leaves), rng.random()))
        for _ in range(2 if quick else 24):
            n = rng.randint(1, 3)
            sig = [_random_pure_letters(rng, n, rng.randint(0, 6)) for _ in range(2)]
            widths = [rng.randint(1, 3) for _ in range(n)]
            taus = [[_random_pure_letters(rng, w, rng.randint(0, 4)) for w in widths] for _ in range(2)]
            rho_widths = [[rng.randint(1, 2) for _ in range(w)] for w in widths]
            rhos = [[_random_pure_letters(rng, v, rng.randint(0, 3)) for v in row] for row in rho_widths]
            plan["operad"].append((n, sig, widths, taus, rho_widths, rhos))
        for _ in range(reps):
            for n, length in schedule:
                w = _random_letters(rng, n, length)
                plan["words"].append(("relations", n, w, oracle.rewrite(w, n, 6, rng), True))
                comm = (
                    oracle.pure_generator(n, 1, 2) + oracle.pure_generator(n, 2, 3)
                    + oracle.inverse(oracle.pure_generator(n, 1, 2))
                    + oracle.inverse(oracle.pure_generator(n, 2, 3))
                )
                w = _random_letters(rng, n, length)
                plan["words"].append(("commutator", n, w, w + comm, False))
            n, length = schedule[rng.randrange(len(schedule))]
            w = _random_pure_letters(rng, n, length)
            j = rng.randint(1, n - 1)
            plan["words"].append(("linking", n, w, w + oracle.pure_generator(n, j, n), False))
        return plan

    def setup(self, wb, plan, tr) -> list[dict]:
        braid, fission = wb.braid, wb.fission
        bw = braid.BraidWord
        ops = []
        for rows, pick in plan["trees"]:
            nodes = tuple(
                fission.TreeNode(i, level, parent, fission.GREEN, fission.LARGE)
                for i, (level, parent) in enumerate(rows)
            )
            tree = fission.FissionTree("A", nodes)
            groups = tr.call("braid.cabled_generators", braid.cabled_group_generators, tree)
            rng = random.Random(pick)
            for _ in range(6):
                (n1, ws1), (n2, ws2) = rng.sample(groups, 2)
                g1, g2 = rng.choice(ws1), rng.choice(ws2)
                ops.append({"label": f"commute nodes {n1},{n2}", "pair": (g1 * g2, g2 * g1), "equal": True})
        for n, sig, widths, taus, rho_widths, rhos in plan["operad"]:
            s1, s2 = (bw(n, tuple(s)) for s in sig)
            t1, t2 = ([bw(w, tuple(t)) for w, t in zip(widths, ts)] for ts in taus)
            lhs = tr.call("braid.gamma", braid.gamma, s1 * s2, [a * b for a, b in zip(t1, t2)])
            rhs = tr.call("braid.gamma", braid.gamma, s1, t1) * tr.call("braid.gamma", braid.gamma, s2, t2)
            ops.append({"label": f"operad homomorphism n={n}", "pair": (lhs, rhs), "equal": True})
            r = [[bw(v, tuple(x)) for v, x in zip(vs, xs)] for vs, xs in zip(rho_widths, rhos)]
            flat = [x for row in r for x in row]
            inner = tr.call("braid.gamma", braid.gamma, s1, t1)
            lhs = tr.call("braid.gamma", braid.gamma, inner, flat)
            rhs = tr.call(
                "braid.gamma", braid.gamma, s1,
                [tr.call("braid.gamma", braid.gamma, t, row) for t, row in zip(t1, r)],
            )
            ops.append({"label": f"operad associativity n={n}", "pair": (lhs, rhs), "equal": True})
        words = plan.pop("words")
        for i, (kind, n, a, b, equal) in enumerate(words):
            words[i] = None  # free the plan's copy as the op takes over
            ops.append({"label": f"{kind} n={n} len={len(a)}",
                        "pair": (bw(n, tuple(a)), bw(n, tuple(b))), "equal": equal})
        return ops

    def run(self, wb, op):
        return wb.braid.braids_equal(*op["pair"])

    def run_traced(self, wb, op, tr):
        braid, (a, b) = wb.braid, op["pair"]
        result = tr.call("braid.braids_equal", braid.braids_equal, a, b)
        tr.count("braid.decisions")
        tr.count("braid.letters", len(a) + len(b))
        settled = braid.permutation(a) != braid.permutation(b) or (
            braid.is_pure(a) and braid.linking_matrix(a) != braid.linking_matrix(b)
        )
        tr.count("braid.prefiltered", int(settled))
        return result

    def check(self, op, out) -> str | None:
        if out is not op["equal"]:
            return f"braids_equal returned {out}, expected {op['equal']}"
        return None

    def corrupt(self, op) -> None:
        op["equal"] = not op["equal"]


# ---------------------------------------------------------------------------
# stokes_verify: the SL3 Stokes verifier, with corrupted negative controls
# ---------------------------------------------------------------------------


class StokesVerify:
    name = "stokes_verify"
    modules = ("wildbraid",)

    def plan(self, seed: int, quick: bool) -> dict:
        good, bad = (2, 1) if quick else (48, 16)
        rng = random.Random(seed)
        kinds = [True] * good + [False] * bad
        rng.shuffle(kinds)
        return {"rng": rng, "kinds": kinds, "verify_seeds": [rng.random() for _ in kinds],
                "shears": [(rng.choice((0, 1, 2)), rng.choice((-2, -1, 1, 2))) for _ in kinds]}

    def setup(self, wb, plan, tr) -> list[dict]:
        stokes = wb.stokes
        ops = []
        for good, vseed, (pos, c) in zip(plan["kinds"], plan["verify_seeds"], plan["shears"]):
            t = tr.call("stokes.random_tuple", stokes.random_tuple, plan["rng"])
            if not good:
                # Determinant 1, but B^2_4 no longer closes the relation.
                rows = [[int(i == j) for j in range(3)] for i in range(3)]
                rows[pos][(pos + 1) % 3] = c
                entries = [m for _, m in t.entries()]
                entries[-1] = stokes.mmul(entries[-1], stokes.mat(rows))
                t = stokes.StokesTuple(*entries)
            ops.append({"label": "tuple" if good else "corrupted tuple", "tuple": t,
                        "rng": random.Random(vseed), "good": good})
        return ops

    def run(self, wb, op):
        return wb.stokes.verify_properties(op["tuple"], op["rng"])

    def run_traced(self, wb, op, tr):
        report = tr.call("stokes.verify", wb.stokes.verify_properties, op["tuple"], op["rng"])
        tr.count("stokes.tuples")
        return report

    def check(self, op, out) -> str | None:
        failed = [name for name, _ in out.failures()]
        t = op["tuple"]
        holds = oracle.is_identity(oracle.matmul(t.h, t.b31, t.b11, t.b42, t.b32, t.b22, t.b12))
        return _check_all([
            op["good"] and failed and f"valid tuple failed {failed}",
            not op["good"] and (out.passed or "relation" not in failed)
            and f"corrupted tuple not caught (failed checks: {failed})",
            holds != op["good"] and "the relation does not match how the tuple was built",
        ])

    def corrupt(self, op) -> None:
        op["good"] = not op["good"]


WORKLOADS = {w.name: w for w in (DecomposeRanks(), CheckSweep(), BraidWords(), StokesVerify())}
