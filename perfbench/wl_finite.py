"""The `finite-small` workload: thousands of library calls on carriers of
2^2 to 2^10 elements, where per-call overhead, not bandwidth, dominates, and
a slice of one-off CLI queries on squared frames of 2^8 to 2^12 elements,
each of which re-parses its input files and rebuilds its frame.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product

import numpy as np

import oracle
from ops import Op, OpList

# ---------------------------------------------------------------------------
# Seeded inputs


def kripke_edges(rng: random.Random, n: int, reflexive_symmetric: bool):
    """Random serial relation on worlds 0..n-1 (every world has a successor,
    so f(1) = 1 and the four corners of a square form a subalgebra)."""
    p = rng.uniform(0.08, 0.3)
    edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
    if reflexive_symmetric:
        edges |= {(i, i) for i in range(n)} | {(j, i) for i, j in edges}
    for i in range(n):
        if not any(a == i for a, _ in edges):
            edges.add((i, rng.randrange(n)))
    return sorted(edges)


def normal_table(rng: random.Random, n: int) -> np.ndarray:
    """Random operation table with f(0) = 0 and f(1) = 1."""
    size = 1 << n
    t = np.array([rng.randrange(size) for _ in range(size)], dtype=np.uint32)
    t[0], t[size - 1] = 0, size - 1
    return t


def random_table(rng: random.Random, n: int) -> np.ndarray:
    return np.array([rng.randrange(1 << n) for _ in range(1 << n)],
                    dtype=np.uint32)


def write_kripke(path: str, n: int, edges) -> None:
    lines = ["worlds: " + " ".join(f"w{i}" for i in range(n))]
    lines += [f"edge: w{a} w{b}" for a, b in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(path: str, table: np.ndarray) -> None:
    n = len(table).bit_length() - 1
    lines = [f"atoms: {n}"] + [f"f {x:x} {int(y):x}" for x, y in enumerate(table)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


ONE_VAR = [text for text, names, _ in oracle.IDENTITIES if names == "x"]
TWO_VAR = [text for text, names, _ in oracle.IDENTITIES if names == "xy"]
UNARY_PROPS = ("extensive", "contractive", "idempotent", "semi_complemented",
               "symmetric")
SQUARES = {"flat": oracle.flat_table, "star": oracle.star_table,
           "sharp": oracle.sharp_table}


def _least_failure(ok: np.ndarray):
    """Least failing assignment, in the order the exhaustive scans use
    (earlier variables vary slowest)."""
    bad = np.argwhere(~np.broadcast_to(ok, ok.shape))
    return None if bad.size == 0 else [int(v) for v in bad[0]]


def _verdict(v) -> dict:
    witness = None if v.witness is None else {
        k: getattr(w, "bits", w) for k, w in sorted(v.witness.items())}
    return {"status": v.status, "witness": witness}


def _check_scan(status: str, witness, ok: np.ndarray, names) -> bool:
    """A full-carrier verdict: holds iff no assignment fails, and a failure
    names the least failing assignment."""
    least = _least_failure(ok)
    if least is None:
        return status == "holds" and witness is None
    return status == "fails" and witness == dict(zip(names, least))


# ---------------------------------------------------------------------------
# finite-small's CLI queries

# base atoms -> squared frames built on them (2^8, 2^10 and 2^12 elements;
# a 2^16 frame made peak RSS vary by 1.5% with the seed).
# The plan is fixed and only the relations and tables come from the seed,
# so that every seed asks for the same amount of work.
CLI_PLAN = {
    4: ("flat-complex", "sharp-table", "star-product"),
    5: ("star-complex", "flat-table"),
    6: ("sharp-complex", "flat-product"),
}


def cli_queries(rng: random.Random, workdir: str) -> list[Op]:
    """One-off CLI queries (`cep refute` at the four corners, a unary
    `check props`, a one-variable `check identity` and `cong simple`) on
    `flat`, `star` and `sharp` of seeded serial Kripke files, normal tables
    and products; each query re-parses its files and rebuilds its frame, as
    a user's command does."""
    import cep_lab.cli as cli

    ops = []
    refs = {}  # expr -> (reference table, whether cep_lab builds the same one)

    def reference(expr, build):
        if expr not in refs:
            table = build()
            refs[expr] = (table, bool(np.array_equal(
                cli.parse_frame_expr(expr).table, table)))
        return refs[expr]

    def cli_op(label, argv, check, build, expr):
        report = os.path.join(workdir, f"report{len(ops)}.json")

        def run():
            code = cli.run(argv + ["--report", report])
            with open(report, encoding="utf-8") as fh:
                return {"code": code, "report": json.load(fh)}

        def checked(res):
            table, agrees = reference(expr, build)
            return agrees and res["code"] == 0 and check(res["report"], table)

        ops.append(Op(label, run, checked))

    queries = 0
    for atoms, kinds in CLI_PLAN.items():
        for k, kind in enumerate(kinds):
            square, base = kind.split("-")
            stem = os.path.join(workdir, f"b{atoms}_{k}")
            if base == "complex":
                edges = kripke_edges(rng, atoms, rng.random() < 0.5)
                write_kripke(stem + ".krp", atoms, edges)
                inner = f"complex {stem}.krp"
                base_ref = (lambda n=atoms, e=edges: oracle.complex_table(n, e))
            elif base == "table":
                table = normal_table(rng, atoms)
                write_table(stem + ".tbl", table)
                inner = f"table {stem}.tbl"
                base_ref = (lambda t=table: t)
            else:
                half = atoms // 2
                e1 = kripke_edges(rng, half, rng.random() < 0.5)
                e2 = kripke_edges(rng, half, rng.random() < 0.5)
                write_kripke(stem + "a.krp", half, e1)
                write_kripke(stem + "b.krp", half, e2)
                inner = f"product(complex {stem}a.krp,complex {stem}b.krp)"
                base_ref = (lambda h=half, a=e1, b=e2: oracle.product_table(
                    oracle.complex_table(h, a), oracle.complex_table(h, b)))
            expr = f"{square}({inner})"
            build = (lambda sq=SQUARES[square], b=base_ref: sq(b()))
            lo = (1 << atoms) - 1
            element = (lo, lo << atoms)[queries % 2]
            prop = UNARY_PROPS[queries % len(UNARY_PROPS)]
            text = ONE_VAR[queries % len(ONE_VAR)]
            queries += 1
            tag = f"{atoms * 2}b {expr}"
            cli_op(f"cep refute {tag}",
                   ["cep", "refute", "--frame", expr, "--gens", f"{lo:x}",
                    "--element", f"{element:x}"],
                   lambda rep, t, lo=lo, a=element: _check_refute(rep, t, lo, a),
                   build, expr)
            cli_op(f"check props {prop} {tag}",
                   ["check", "props", "--frame", expr, "--prop", prop],
                   lambda rep, t, p=prop: _check_property(rep, t, p),
                   build, expr)
            cli_op(f"check identity {text!r} {tag}",
                   ["check", "identity", "--frame", expr, "--identity", text],
                   lambda rep, t, e=text: _check_identity(rep, t, e),
                   build, expr)
            cli_op(f"cong simple {tag}",
                   ["cong", "simple", "--frame", expr],
                   lambda rep, t: rep["simple"] == oracle.is_simple(t),
                   build, expr)
    return ops


def _check_refute(rep: dict, t: np.ndarray, gen: int, a: int) -> bool:
    sub = oracle.closure(t, [gen])
    a_star = oracle.largest_congruential_below(t, a)
    breaks = [b for b in sub if b & a_star == a_star and b & a != a]
    if not breaks:
        return rep["refuted"] is False and rep["witness"] is None
    return rep["refuted"] is True and rep["witness"] in breaks


def _check_property(rep: dict, t: np.ndarray, prop: str) -> bool:
    arity, pred = oracle.PROPERTIES[prop]
    xs = np.arange(len(t), dtype=np.uint32)
    ok = np.asarray(pred(oracle.BitOps(t), *([xs] if arity else [])))
    return _check_scan(rep["status"], rep["witness"], ok, ["x"][:arity])


def _check_identity(rep: dict, t: np.ndarray, text: str) -> bool:
    xs = np.arange(len(t), dtype=np.uint32)
    ok = np.asarray(oracle.identity_holds_at(oracle.BitOps(t), text, {"x": xs}))
    return _check_scan(rep["status"], rep["witness"], ok, ["x"])


# ---------------------------------------------------------------------------
# finite-small

SMALL_COUNTS = {"cep_full": 160, "lattice": 220, "subalgebra": 160,
                "identity": 700, "clause": 216, "relativized": 432}
BRUTE_CAP = 1 << 8  # holds verdicts are re-derived by brute force up to here
KINDS = ("random", "complex")


def plan(count: int, *choices) -> list[tuple]:
    """`count` combinations of the choices, cycling through all of them, so
    the mix of sizes and kinds does not depend on the seed."""
    combos = list(product(*choices))
    return [combos[i % len(combos)] for i in range(count)]


def _frame(table: np.ndarray, name: str):
    from cep_lab import FiniteAlgebra, FiniteFrame

    return FiniteFrame(FiniteAlgebra(len(table).bit_length() - 1), table, name)


def _small_table(rng: random.Random, n: int, kind: str) -> np.ndarray:
    if kind == "random":
        return random_table(rng, n)
    return oracle.complex_table(n, kripke_edges(rng, n, rng.random() < 0.3))


def finite_small(seed: int, workdir: str) -> OpList:
    import cep_lab as L

    rng = random.Random(seed)
    ops = []

    for i, (n, kind) in enumerate(plan(SMALL_COUNTS["cep_full"], (2, 3, 4, 4), KINDS)):
        t = _small_table(rng, n, kind)
        fr = _frame(t, f"cep{i}")
        ops.append(Op(f"cep_check_full {len(t)}",
                      lambda fr=fr: L.cep_check_full(fr),
                      lambda v, t=t: _check_cep(v, t), _cep_summary))

    for i, (n, kind) in enumerate(plan(SMALL_COUNTS["lattice"],
                                       (3, 4, 5, 6, 7, 8, 9, 10), KINDS)):
        t = _small_table(rng, n, kind)
        fr = _frame(t, f"lat{i}")
        ops.append(Op(f"congruence_lattice {len(t)}",
                      lambda fr=fr: L.congruence_lattice(fr),
                      lambda lat, t=t: [e.bits for e in lat.elements]
                      == oracle.congruential_elements(t),
                      lambda lat: [e.bits for e in lat.elements]))

    for i, (n, kind, k) in enumerate(plan(SMALL_COUNTS["subalgebra"],
                                          (3, 4, 5, 6), KINDS, (1, 2))):
        t = _small_table(rng, n, kind)
        fr = _frame(t, f"sub{i}")
        gens = sorted({rng.randrange(len(t)) for _ in range(k)})

        def run(fr=fr, gens=gens):
            sub = L.generate_subalgebra(fr, tuple(fr.alg.element(g) for g in gens))
            return sub, L.subalgebra_frame(fr, sub)
        ops.append(Op(f"generate_subalgebra {len(t)}", run,
                      lambda res, t=t, g=gens: _check_subalgebra(res, t, g),
                      _subalgebra_summary))

    for i, (n, kind, text) in enumerate(plan(SMALL_COUNTS["identity"],
                                             (2, 3, 4, 5, 6, 7, 8), KINDS,
                                             TWO_VAR + ONE_VAR)):
        t = _small_table(rng, n, kind)
        fr = _frame(t, f"id{i}")
        ops.append(Op(f"check_identity {len(t)} {text!r}",
                      lambda fr=fr, e=text: L.check_identity(fr, L.parse_identity(e)),
                      lambda v, t=t, e=text: _check_pool_identity(_verdict(v), t, e),
                      _verdict))

    # squares of seeded normal 4- and 5-atom frames: 2^8 and 2^10 elements
    squares = []
    for i, (atoms, square) in enumerate(plan(6, (4, 4, 5), ("sharp", "star"))):
        base = (normal_table(rng, atoms) if i % 2
                else oracle.complex_table(atoms, kripke_edges(rng, atoms, False)))
        t = SQUARES[square](base)
        squares.append((t, _frame(t, f"{square}{i}")))
    # with a second variable a clause search costs 0.1-0.3 s and depends on
    # where the data put the first counterexample; keep these calls small
    texts = [text for text, names, _ in oracle.IDENTITIES if len(names) < 2]

    for i, (mode, text) in enumerate(plan(SMALL_COUNTS["clause"], ("psi", "phi"), texts)):
        t, fr = squares[i % len(squares)]

        def run(fr=fr, mode=mode, e=text):
            return L.check_clause(fr, L.make_clause(mode, L.parse_identity(e), 2))
        ops.append(Op(f"check_clause {mode} {len(t)} {text!r}", run,
                      lambda v, t=t, m=mode, e=text: _check_clause(_verdict(v), t, m, e),
                      _verdict))

    for i, (text, high) in enumerate(plan(SMALL_COUNTS["relativized"], texts, (0, 1))):
        t, fr = squares[i % len(squares)]
        half = (len(t).bit_length() - 1) // 2
        corner = ((1 << half) - 1) << (half * high)

        def run(fr=fr, e=text, c=corner):
            rel = L.relativize_identity(L.parse_identity(e), "relv")
            return L.check_identity(fr, L.fix_variable(rel, "relv", fr.alg.element(c)))
        ops.append(Op(f"relativized identity {len(t)} {text!r}", run,
                      lambda v, t=t, e=text, c=corner:
                      _check_pool_identity(_verdict(v), t, e, c),
                      _verdict))

    ops += cli_queries(rng, workdir)
    rng.shuffle(ops)
    return OpList(ops)


def _cep_summary(v) -> dict:
    if v.holds:
        return {"holds": True}
    return {"holds": False, "subalgebra": [e.bits for e in v.subalgebra.sorted_elements()],
            "element": v.element.bits, "witness": v.witness.bits}


def _check_cep(v, t: np.ndarray) -> bool:
    if v.holds:
        return oracle.cep_holds(t)
    sub = frozenset(e.bits for e in v.subalgebra.elements)
    a = v.element.bits
    return (oracle.is_subalgebra(t, sub) and a in sub
            and oracle.relatively_congruential(t, sub, a)
            and oracle.restriction_breaks(t, sub, a, v.witness.bits))


def _subalgebra_summary(res) -> dict:
    sub, (small, iso) = res
    return {"elements": [e.bits for e in sub.sorted_elements()],
            "table": small.table.tolist(),
            "iso": sorted((e.bits, s.bits) for e, s in iso.items())}


def _check_subalgebra(res, t: np.ndarray, gens) -> bool:
    """The closure is the least subalgebra containing gens, and the small
    frame is isomorphic to it through the returned map."""
    sub, (small, iso) = res
    elems = frozenset(e.bits for e in sub.elements)
    if not sub.complete or elems != oracle.closure(t, gens):
        return False
    mask = len(t) - 1
    m = {e.bits: s.bits for e, s in iso.items()}
    smask = small.alg.mask
    return (set(m) == elems and sorted(m.values()) == list(range(len(elems)))
            and all(m[mask ^ u] == smask ^ m[u] and int(small.table[m[u]]) == m[int(t[u])]
                    for u in elems)
            and all(m[u & v] == m[u] & m[v] for u in elems for v in elems))


def _check_pool_identity(rep: dict, t: np.ndarray, text: str, w=None) -> bool:
    """Absolute, or relativized at the element w."""
    names = oracle.IDENTITY_TEXT[text][0]
    if not names:
        o = oracle.BitOps(t) if w is None else oracle.RelOps(t, w)
        ok = bool(oracle.identity_holds_at(o, text, {}))
        return rep == {"status": "holds" if ok else "fails",
                       "witness": None if ok else {}}
    o = oracle.BitOps(t) if w is None else oracle.RelOps(t, w)
    xs = np.arange(len(t), dtype=np.uint32)
    grid = ({names[0]: xs[:, None], names[1]: xs[None, :]} if len(names) == 2
            else {names[0]: xs})
    ok = np.asarray(oracle.identity_holds_at(o, text, grid))
    return _check_scan(rep["status"], rep["witness"], ok, sorted(names))


def _check_clause(rep: dict, t: np.ndarray, mode: str, text: str) -> bool:
    if rep["status"] == "fails":
        w = rep["witness"]
        if sorted(w) != oracle.clause_variables(text):
            return False
        asgn = {k: np.uint32(v) for k, v in w.items()}
        return not bool(oracle.clause_holds_at(t, mode, text, 2, asgn))
    if rep["status"] != "holds":
        return False
    return len(t) > BRUTE_CAP or oracle.clause_holds_everywhere(t, mode, text, 2)
