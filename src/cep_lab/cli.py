"""Command-line front end and all textual formats.

Subcommands: check props|identity|clause, cong lattice|simple,
cep full|refute, trace replay, verify, export dot.  Frame construction
expressions compose like `flat(product(wheel 5,wheel 5))`; set literals
cover E, O, 2E, N, empty, {1,2,3}, co{3}, and the general
`periodic m=.. r=.. except=..` form.  Exit codes: 0 all checks as
expected, 1 a verification item deviated, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .congruence import (BUILTIN_TRACES, TraceStep, cep_check_full,
                         cep_refute, congruence_lattice, four_block_predicate,
                         generate_subalgebra, infinite_odds_filter, is_simple,
                         replay_trace)
from .core import (CepLabError, Element, FiniteAlgebra, ParseError,
                   UsageError, ValidationError)
from .frames import (EXHAUSTIVE, FiniteFrame, KripkeFrame, PROPERTIES, Sampled,
                     SymbolicFrame, check_property, complex_algebra,
                     family_frame, flat, frame_product, neg_op, sharp, star,
                     wheel)
from .periodic import (EMPTY, EVENS, MULT4, NATS, ODDS, EPSet, finite_set,
                       make_periodic)
from .terms import check_clause, check_identity, make_clause, parse_identity
from .verification import REGISTRY, run_all, run_item

_NAMED_SETS = {"E": EVENS, "O": ODDS, "2E": MULT4, "N": NATS, "empty": EMPTY}


def _int(text: str, what: str, base: int = 10, path: str | None = None) -> int:
    """`int(text, base)` for a numeric field of user input.  A bad field
    raises `ParseError` in an expression or literal, and `ValidationError`
    naming the file when it comes from `path`."""
    try:
        return int(text, base)
    except ValueError:
        message = f"bad {what} {text!r}"
        if path is None:
            raise ParseError(message, 0) from None
        raise ValidationError(f"{path}: {message}") from None


def _ints(body: str, what: str) -> list[int]:
    return [_int(p, what) for p in body.split(",") if p.strip()]


def parse_epset_literal(text: str) -> EPSet:
    """Set literal: E | O | 2E | N | empty | {1,2,3} | co{3} |
    periodic m=<nat> r=<n,n,...> except=<+i,-j,...>."""
    text = text.strip()
    if text in _NAMED_SETS:
        return _NAMED_SETS[text]
    if text.startswith("{") and text.endswith("}"):
        return finite_set(_ints(text[1:-1], "set member"))
    if text.startswith("co{") and text.endswith("}"):
        members = _ints(text[3:-1], "set member")
        return make_periodic(1, (0,), {n: False for n in members})
    if text.startswith("periodic"):
        modulus, residues, exceptions = 0, [], {}
        seen_m = False
        for field in text[len("periodic"):].split():
            if field.startswith("m="):
                modulus = _int(field[2:], "modulus")
                seen_m = True
            elif field.startswith("r="):
                residues = _ints(field[2:], "residue")
            elif field.startswith("except="):
                for part in field[len("except="):].split(","):
                    part = part.strip()
                    if not part:
                        continue
                    if part[0] not in "+-":
                        raise ParseError("exception entries start with + or -", 0)
                    exceptions[_int(part[1:], "exception")] = part[0] == "+"
            else:
                raise ParseError(f"unknown periodic field {field!r}", 0)
        if not seen_m:
            raise ParseError("periodic literal needs m=<nat>", 0)
        return make_periodic(modulus, residues, exceptions)
    raise ParseError(f"not a set literal: {text!r}", 0)


# ---------------------------------------------------------------------------
# Frame files


def load_kripke(path: str) -> KripkeFrame:
    """Line 1: `worlds: a b c`; following lines: `edge: a b`."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("worlds:"):
        raise ValidationError(f"{path}: first line must be `worlds: ...`")
    worlds = tuple(lines[0][len("worlds:"):].split())
    relation = set()
    for ln in lines[1:]:
        if not ln.startswith("edge:"):
            raise ValidationError(f"{path}: expected `edge: a b`, got {ln!r}")
        parts = ln[len("edge:"):].split()
        if len(parts) != 2:
            raise ValidationError(f"{path}: edge needs two worlds, got {ln!r}")
        relation.add((parts[0], parts[1]))
    return KripkeFrame(worlds, frozenset(relation))


def load_table_frame(path: str) -> FiniteFrame:
    """Line 1: `atoms: n`; following lines: `f <hex-in> <hex-out>`, one per
    carrier element."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("atoms:"):
        raise ValidationError(f"{path}: first line must be `atoms: n`")
    alg = FiniteAlgebra(_int(lines[0][len("atoms:"):].strip(), "atom count", path=path))
    mapping = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "f":
            raise ValidationError(f"{path}: expected `f <hex> <hex>`, got {ln!r}")
        x, y = (_int(p, "hex element", 16, path) for p in parts[1:])
        mapping[alg.element(x)] = alg.element(y)
    from .frames import finite_frame

    return finite_frame(alg, mapping, path)


# ---------------------------------------------------------------------------
# Frame expressions: wheel N | complex <file> | table <file> |
# family A|B|C x=<set> | product(e1,e2) | star(e) | sharp(e) | flat(e) |
# neg-op(e)


def parse_frame_expr(text: str):
    expr = text.strip()
    for head, build in (("star", star), ("sharp", sharp), ("flat", flat),
                        ("neg-op", neg_op)):
        if expr.startswith(head + "(") and expr.endswith(")"):
            return build(parse_frame_expr(expr[len(head) + 1:-1]))
    if expr.startswith("product(") and expr.endswith(")"):
        body = expr[len("product("):-1]
        depth = 0
        for i, c in enumerate(body):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 0:
                return frame_product(parse_frame_expr(body[:i]),
                                     parse_frame_expr(body[i + 1:]))
        raise ParseError("product needs two comma-separated frames", 0)
    parts = expr.split(None, 1)
    if not parts:
        raise ParseError("empty frame expression", 0)
    head = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if head == "wheel":
        return wheel(_int(rest, "wheel size"))
    if head == "complex":
        return complex_algebra(load_kripke(rest.strip()))
    if head == "table":
        return load_table_frame(rest.strip())
    if head == "family":
        sub = rest.split(None, 1)
        if len(sub) != 2 or not sub[1].startswith("x="):
            raise ParseError("family syntax: family A|B|C x=<set>", 0)
        return family_frame(sub[0], parse_epset_literal(sub[1][2:]))
    raise ParseError(f"unknown frame expression {expr!r}", 0)


# ---------------------------------------------------------------------------
# Trace files: one step per line, 1-based step references.
#   gen <elem> <elem> | below <elem> from <step#> | fstep <step#>
#   | bool <op> <step#...> | trans <step#> <step#> | conclude
# Element literals on gen/below lines must be whitespace-free
# (named sets, {..}, or co{..}).


def load_trace(path: str) -> tuple:
    def ref(text):
        return _int(text, "step reference", path=path)

    steps = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind == "gen" and len(parts) == 3:
                steps.append(TraceStep("gen", (parse_epset_literal(parts[1]),
                                               parse_epset_literal(parts[2]))))
            elif kind == "below" and len(parts) == 4 and parts[2] == "from":
                steps.append(TraceStep("below", (parse_epset_literal(parts[1]),),
                                       (ref(parts[3]),)))
            elif kind == "fstep" and len(parts) == 2:
                steps.append(TraceStep("fstep", (), (ref(parts[1]),)))
            elif kind == "bool" and len(parts) >= 3:
                steps.append(TraceStep("bool", (),
                                       tuple(ref(p) for p in parts[2:]),
                                       op=parts[1]))
            elif kind == "trans" and len(parts) == 3:
                steps.append(TraceStep("trans", (),
                                       (ref(parts[1]), ref(parts[2]))))
            elif kind == "conclude" and len(parts) == 1:
                steps.append(TraceStep("conclude"))
            else:
                raise ValidationError(f"{path}: bad trace line {line!r}")
    return tuple(steps)


# ---------------------------------------------------------------------------
# DOT export


def export_lattice(frame, path: str | None) -> str:
    """DOT digraph of the congruence order: nodes are congruential elements
    (hex), edges the covering relation from smaller to larger congruence."""
    if not isinstance(frame, FiniteFrame):
        raise UsageError("lattice export needs a finite frame")
    lat = congruence_lattice(frame)
    elems = [e.bits for e in lat.elements]
    width = max(1, (frame.alg.atom_count + 3) // 4)

    def leq_cong(a, b):  # congruence of a contained in congruence of b
        return b & a == b and a != b

    edges = []
    for a in elems:
        for b in elems:
            if leq_cong(a, b) and not any(
                    leq_cong(a, c) and leq_cong(c, b) for c in elems):
                edges.append((a, b))
    lines = ["digraph congruences {", "  rankdir=BT;"]
    for e in elems:
        lines.append(f'  "{e:0{width}x}";')
    for a, b in edges:
        lines.append(f'  "{a:0{width}x}" -> "{b:0{width}x}";')
    lines.append("}")
    doc = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return doc


# ---------------------------------------------------------------------------
# Command implementations


def _strategy(args):
    if getattr(args, "strategy", "exhaustive") == "sampled":
        return Sampled(args.samples, args.seed)
    return EXHAUSTIVE


def _auto_strategy(frame, args):
    if isinstance(frame, SymbolicFrame) and \
            getattr(args, "strategy", None) != "exhaustive":
        return Sampled(args.samples, args.seed)
    return _strategy(args)


def _print_verdict(v, args=None):
    print(v.status if v.witness is None else f"{v.status} {_fmt_witness(v.witness)}")
    if args is not None:
        _stash_report(args, {"status": v.status,
                             "witness": None if v.witness is None
                             else _json_witness(v.witness)})
    return 0


def _json_witness(witness):
    return {k: (v.bits if isinstance(v, Element) else repr(v))
            for k, v in sorted(witness.items())}


def _stash_report(args, payload):
    payload["command"] = args.command
    args._report_payload = payload


def _fmt_witness(witness):
    parts = []
    for key in sorted(witness):
        val = witness[key]
        parts.append(f"{key}={val.bits:#x}" if isinstance(val, Element)
                     else f"{key}={val!r}")
    return "[" + ", ".join(parts) + "]"


def _cmd_check(args) -> int:
    frame = parse_frame_expr(args.frame)
    if args.what == "props":
        return _print_verdict(check_property(frame, args.prop,
                                             _auto_strategy(frame, args)), args)
    identity = parse_identity(args.identity)
    if args.what == "identity":
        return _print_verdict(check_identity(frame, identity,
                                             _auto_strategy(frame, args)), args)
    clause = make_clause(args.mode, identity, args.k)
    return _print_verdict(check_clause(frame, clause), args)


def _finite_frame(args) -> FiniteFrame:
    frame = parse_frame_expr(args.frame)
    if not isinstance(frame, FiniteFrame):
        raise UsageError(f"{args.command} {args.what} needs a finite frame")
    return frame


def _cmd_cong(args) -> int:
    frame = _finite_frame(args)
    if args.what == "simple":
        simple = is_simple(frame)
        print("simple" if simple else "not simple")
        _stash_report(args, {"simple": simple})
        return 0
    lat = congruence_lattice(frame)
    print(f"{len(lat)} congruences, {len(lat.nontrivial())} non-trivial")
    for e in lat.elements:
        print(f"  {e.bits:#x}")
    _stash_report(args, {"congruences": [e.bits for e in lat.elements],
                         "nontrivial": len(lat.nontrivial())})
    return 0


def _hex_element(frame, text):
    return frame.alg.element(_int(text, "hex element", 16))


def _cmd_cep(args) -> int:
    frame = _finite_frame(args)
    if args.what == "full":
        verdict = cep_check_full(frame)
        if verdict.holds:
            print("holds")
            _stash_report(args, {"holds": True})
        else:
            elems = ",".join(f"{e.bits:#x}"
                             for e in verdict.subalgebra.sorted_elements())
            print(f"fails at subalgebra {{{elems}}} element "
                  f"{verdict.element.bits:#x} witness {verdict.witness.bits:#x}")
            _stash_report(args, {"holds": False,
                                 "subalgebra": [e.bits for e in
                                                verdict.subalgebra.sorted_elements()],
                                 "element": verdict.element.bits,
                                 "witness": verdict.witness.bits})
        return 0
    gens = tuple(_hex_element(frame, p) for p in args.gens.split(",") if p.strip())
    sub = generate_subalgebra(frame, gens)
    verdict = cep_refute(frame, sub, _hex_element(frame, args.element))
    if verdict.refuted:
        print(f"refuted witness {verdict.witness.bits:#x}")
    else:
        print("not refuted")
    _stash_report(args, {"refuted": verdict.refuted,
                         "witness": None if verdict.witness is None
                         else verdict.witness.bits})
    return 0


def _cmd_trace(args) -> int:
    if args.builtin:
        family, mk = BUILTIN_TRACES[args.builtin]
        trace = mk()
        frame = family_frame(family, parse_epset_literal(args.x))
    else:
        if not args.file or not args.frame:
            raise UsageError("trace replay needs --builtin or --file with --frame")
        trace = load_trace(args.file)
        frame = parse_frame_expr(args.frame)
    report = replay_trace(frame, four_block_predicate, infinite_odds_filter,
                          trace)
    if report.valid:
        print("valid")
    else:
        where = "" if report.step is None else f" at step {report.step}"
        print(f"invalid{where}: {report.reason}")
    _stash_report(args, {"valid": report.valid, "step": report.step,
                         "reason": report.reason})
    return 0


def _cmd_verify(args) -> int:
    results = ([run_item(args.item, args.seed, args.samples)] if args.item
               else run_all(args.seed, args.samples))
    for r in results:
        print(f"[{'PASS' if r.ok else 'FAIL'}] {r.item}: {r.summary}")
    all_ok = all(r.ok for r in results)
    if args.report:
        doc = {
            "seed": args.seed,
            "samples": args.samples,
            "all_ok": all_ok,
            "items": [{"item": r.item, "ok": r.ok, "summary": r.summary,
                       "details": r.details} for r in results],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all_ok else 1


def _cmd_export(args) -> int:
    frame = parse_frame_expr(args.frame)
    export_lattice(frame, args.out)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cep-lab",
        description="Boolean frames, congruence lattices, and congruence "
                    "extension checking")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=None,
                        help="write a machine-readable JSON report here")
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument("--seed", type=int, default=0, help="sampling seed")
    sampling.add_argument("--samples", type=int, default=10000,
                          help="sample count for sampled strategies")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[sampling],
                           help="check a property, identity, or clause")
    check.add_argument("what", choices=("props", "identity", "clause"))
    check.add_argument("--frame", required=True)
    check.add_argument("--prop", choices=PROPERTIES)
    check.add_argument("--identity")
    check.add_argument("--strategy", choices=("exhaustive", "sampled"),
                       default=None)
    check.add_argument("--mode", choices=("phi", "psi"), default="psi")
    check.add_argument("--k", type=int, default=2)

    # `eval` is shorthand for `check identity`
    ev = sub.add_parser("eval", parents=[sampling], help="evaluate an identity on a frame")
    ev.add_argument("--frame", required=True)
    ev.add_argument("--identity", required=True)
    ev.add_argument("--strategy", choices=("exhaustive", "sampled"), default=None)

    cong = sub.add_parser("cong", parents=[common], help="congruence lattice or simplicity")
    cong.add_argument("what", choices=("lattice", "simple"))
    cong.add_argument("--frame", required=True)

    cep = sub.add_parser("cep", parents=[common], help="congruence extension checks")
    cep.add_argument("what", choices=("full", "refute"))
    cep.add_argument("--frame", required=True)
    cep.add_argument("--gens", default="",
                     help="comma-separated hex generators of the subalgebra")
    cep.add_argument("--element", default="0",
                     help="hex element generating the subalgebra congruence")

    trace = sub.add_parser("trace", parents=[common], help="replay a forcing trace")
    trace.add_argument("what", choices=("replay",))
    trace.add_argument("--builtin", choices=tuple(sorted(BUILTIN_TRACES)))
    trace.add_argument("--x", default="{1,3}",
                       help="family parameter set (with --builtin)")
    trace.add_argument("--file", help="trace file (with --frame)")
    trace.add_argument("--frame", help="symbolic frame expression (with --file)")

    verify = sub.add_parser("verify", parents=[sampling], help="run the verification suite")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--item", choices=tuple(sorted(REGISTRY)))

    export = sub.add_parser("export", parents=[common], help="export a congruence lattice")
    export.add_argument("what", choices=("dot",))
    export.add_argument("--frame", required=True)
    export.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "cong": _cmd_cong,
    "cep": _cmd_cep,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "check" and args.what == "props" and not args.prop:
        print("check props needs --prop", file=sys.stderr)
        return 2
    if args.command == "check" and args.what != "props" and not args.identity:
        print(f"check {args.what} needs --identity", file=sys.stderr)
        return 2
    if args.command == "eval":
        args.command, args.what = "check", "identity"
    try:
        code = _COMMANDS[args.command](args)
    except (CepLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = getattr(args, "_report_payload", None)
    if args.report and payload is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
