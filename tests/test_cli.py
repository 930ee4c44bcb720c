"""Command-line surface: expressions, file formats, exit codes, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cep_lab.cli import (export_lattice, load_kripke, load_table_frame,
                         load_trace, parse_epset_literal, parse_frame_expr, run)
from cep_lab.core import ParseError, ValidationError
from cep_lab.frames import FiniteFrame, SymbolicFrame
from cep_lab.periodic import (EMPTY, EVENS, MULT4, NATS, ODDS, cofinite_set,
                              finite_set, make_periodic)


def test_epset_literals():
    assert parse_epset_literal("E") == EVENS
    assert parse_epset_literal("O") == ODDS
    assert parse_epset_literal("2E") == MULT4
    assert parse_epset_literal("N") == NATS
    assert parse_epset_literal("empty") == EMPTY
    assert parse_epset_literal("{1,2,3}") == finite_set((1, 2, 3))
    assert parse_epset_literal("co{3}") == cofinite_set((3,))
    assert parse_epset_literal("periodic m=2 r=0 except=+5,-2") == \
        make_periodic(2, (0,), {5: True, 2: False})
    with pytest.raises(ParseError):
        parse_epset_literal("Q")
    with pytest.raises(ParseError):
        parse_epset_literal("periodic r=0")


def test_frame_expressions():
    assert parse_frame_expr("wheel 5").alg.size == 64
    st = parse_frame_expr("star(wheel 5)")
    assert st.alg.size == 4096
    prod = parse_frame_expr("product(wheel 5,wheel 5)")
    assert prod.alg.size == 4096
    nested = parse_frame_expr("sharp(wheel 5)")
    assert nested.alg.size == 4096
    fam = parse_frame_expr("family A x={1,3}")
    assert isinstance(fam, SymbolicFrame)
    assert fam.params["x"] == finite_set((1, 3))
    anti = parse_frame_expr("neg-op(wheel 5)")
    assert isinstance(anti, FiniteFrame)
    with pytest.raises(ParseError):
        parse_frame_expr("cube 3")


def test_kripke_and_table_files(tmp_path):
    kf = tmp_path / "frame.kripke"
    kf.write_text("worlds: a b\nedge: a b\nedge: b b\n")
    k = load_kripke(str(kf))
    assert k.worlds == ("a", "b")
    frame = parse_frame_expr(f"complex {kf}")
    assert frame.alg.size == 4

    tf = tmp_path / "op.tbl"
    lines = ["atoms: 2"] + [f"f {x:x} {x:x}" for x in range(4)]
    tf.write_text("\n".join(lines) + "\n")
    frame = parse_frame_expr(f"table {tf}")
    assert list(frame.table) == [0, 1, 2, 3]

    tf.write_text("atoms: 2\nf 0 0\n")
    with pytest.raises(ValidationError):
        load_table_frame(str(tf))
    kf.write_text("edges first\n")
    with pytest.raises(ValidationError):
        load_kripke(str(kf))


def test_trace_file_roundtrip(tmp_path):
    path = tmp_path / "collapse.trace"
    path.write_text(
        "# collapse derivation\n"
        "gen E empty\n"
        "below 2E from 1\n"
        "fstep 2\n"
        "gen {0} empty\n"
        "trans 3 4\n"
        "conclude\n")
    trace = load_trace(str(path))
    assert len(trace) == 6
    assert run(["trace", "replay", "--file", str(path),
                "--frame", "family A x={1,3}"]) == 0
    path.write_text("jump 3\n")
    with pytest.raises(ValidationError):
        load_trace(str(path))


def test_cli_check_commands(capsys):
    assert run(["check", "props", "--frame", "wheel 5", "--prop", "additive"]) == 0
    assert capsys.readouterr().out.strip() == "holds"

    assert run(["eval", "--frame", "family A x={2}",
                "--identity", "f(-(f(f(f(0))))) = 1"]) == 0
    assert capsys.readouterr().out.strip() == "holds"

    assert run(["check", "identity", "--frame", "wheel 5",
                "--identity", "f(x) = x"]) == 0
    assert capsys.readouterr().out.startswith("fails")

    assert run(["check", "clause", "--frame", "sharp(wheel 5)",
                "--identity", "x & f(x) = x", "--mode", "psi", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "holds"

    assert run(["check", "props", "--frame", "family C x=N",
                "--prop", "subadditive"]) == 0
    assert capsys.readouterr().out.strip() == "holds_on_sample"


def test_cli_cong_and_cep(capsys):
    assert run(["cong", "simple", "--frame", "sharp(wheel 5)"]) == 0
    assert capsys.readouterr().out.strip() == "simple"

    assert run(["cong", "lattice", "--frame", "sharp(wheel 7)"]) == 2
    assert "error" in capsys.readouterr().err

    assert run(["cep", "full", "--frame", "wheel 5"]) == 2
    capsys.readouterr()

    assert run(["cep", "refute", "--frame", "sharp(wheel 5)",
                "--gens", "fc0", "--element", "3f"]) == 0
    assert capsys.readouterr().out.startswith("refuted witness 0xfc0")


def test_cli_trace_builtins(capsys):
    for builtin in ("ext2", "cont", "subadd"):
        assert run(["trace", "replay", "--builtin", builtin, "--x", "{1,3}"]) == 0
        assert capsys.readouterr().out.strip() == "valid"


def test_cli_verify_item_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["verify", "--item", "figure1", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "4 congruences, 2 non-trivial" in out
    doc = json.loads(report.read_text())
    assert doc["all_ok"] is True
    assert doc["items"][0]["item"] == "figure1"


def test_cli_usage_errors(tmp_path, capsys):
    assert run(["check", "props", "--frame", "wheel 5"]) == 2
    assert run(["check", "identity", "--frame", "wheel 5"]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["check", "props", "--frame", "wheel 4", "--prop", "normal"]) == 2
    capsys.readouterr()
    table = tmp_path / "bad.tbl"
    table.write_text("atoms: 1\nf 0 zz\nf 1 1\n")
    trace = tmp_path / "bad.trace"
    trace.write_text("below E from x\n")
    symbolic = "family A x={1}"
    for argv in (["check", "props", "--frame", "family B x={2,4}",
                  "--prop", "extensive", "--samples", "0"],
                 ["verify", "--all", "--samples", "0"],
                 ["cong", "simple", "--frame", "wheel abc"],
                 ["cep", "refute", "--frame", "wheel 5", "--gens", "zz"],
                 ["cep", "refute", "--frame", "wheel 5", "--gens", "3f",
                  "--element", "zz"],
                 ["check", "props", "--frame", "family A x={a}", "--prop", "normal"],
                 ["check", "props", "--frame", "family A x=periodic m=a",
                  "--prop", "normal"],
                 ["check", "props", "--frame", f"table {table}", "--prop", "normal"],
                 ["trace", "replay", "--file", str(trace), "--frame", symbolic],
                 ["cong", "simple", "--frame", symbolic],
                 ["cong", "lattice", "--frame", symbolic],
                 ["cep", "full", "--frame", symbolic],
                 ["cep", "refute", "--frame", symbolic]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    # --seed and --samples exist only on the commands that sample
    for argv in (["cong", "simple", "--frame", "wheel 5", "--seed", "3"],
                 ["cep", "full", "--frame", "wheel 5", "--samples", "10"],
                 ["trace", "replay", "--builtin", "ext2", "--seed", "3"],
                 ["export", "dot", "--frame", "wheel 5", "--out", "x.dot",
                  "--samples", "10"]):
        assert run(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_module_entry_points():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = python_m("cep_lab", "verify", "--item", "figure1")
    assert done.returncode == 0
    assert "[PASS] figure1" in done.stdout
    done = python_m("cep_lab.cli", "verify", "--item", "nonexistent")
    assert done.returncode == 2
    assert "invalid choice" in done.stderr


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "lattice.dot"
    assert run(["export", "dot", "--frame", "table " + _identity_table(tmp_path),
                "--out", str(out)]) == 0
    doc = out.read_text()
    assert doc.startswith("digraph congruences")
    assert doc.count("->") == 4  # diamond Hasse shape on four congruences

    simple_doc = export_lattice(parse_frame_expr("sharp(wheel 5)"), None)
    assert simple_doc.count("->") == 1
    nodes = [ln for ln in simple_doc.splitlines()
             if ln.endswith('";') and "->" not in ln]
    assert len(nodes) == 2


def _identity_table(tmp_path):
    path = tmp_path / "id2.tbl"
    lines = ["atoms: 2"] + [f"f {x:x} {x:x}" for x in range(4)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


GOLDEN_REPORT = Path(__file__).parent / "data" / "verify_all_seed11.json"


def _report_diff(expected: bytes, got: bytes) -> str:
    want = {i["item"]: i for i in json.loads(expected)["items"]}
    have = {i["item"]: i for i in json.loads(got)["items"]}
    lines = [f"{name}: expected {json.dumps(want.get(name), sort_keys=True)}, "
             f"got {json.dumps(have.get(name), sort_keys=True)}"
             for name in sorted(want.keys() | have.keys())
             if want.get(name) != have.get(name)]
    return "\n".join(lines) or "items equal; the top-level fields or the formatting differ"


def test_verify_all_deterministic_reports(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["verify", "--all", "--seed", "11", "--samples", "2000",
                "--report", str(r1)]) == 0
    golden = GOLDEN_REPORT.read_bytes()
    assert r1.read_bytes() == golden, _report_diff(golden, r1.read_bytes())
    assert run(["verify", "--all", "--seed", "11", "--samples", "2000",
                "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
