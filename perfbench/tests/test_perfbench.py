"""The benchmark's own tests: its checkers reject wrong outputs, its tracer
nests spans correctly, verify-suite refuses a warm interpreter, its
reference code agrees with cep_lab, and its metric names match
BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cep_lab as L
import oracle
import run
import tracer as tr
import wl_finite
import wl_symbolic
import wl_verify
from ops import Op, OpList

ROOT = os.path.dirname(run.HERE)


def failures(workload: OpList, ops=None) -> int:
    rows = OpList(ops or workload.ops).timed()
    return sum(not OpList(ops or workload.ops).check(i, res)
               for i, (_, _, res) in enumerate(rows))


def test_correct_outputs_pass_the_checkers(tmp_path):
    wl = wl_finite.finite_small(3, str(tmp_path))
    assert failures(wl, wl.ops[:150]) == 0
    sym = wl_symbolic.symbolic(3, str(tmp_path))
    assert failures(sym, sym.ops[:300]) == 0


CLI_QUERIES = ("cep refute", "check props", "check identity ", "cong simple")


def test_cli_queries_pass_the_checkers_and_a_wrong_one_fails(tmp_path, monkeypatch):
    import cep_lab.cli as cli

    wl = wl_finite.finite_small(2, str(tmp_path))
    queries = [op for op in wl.ops if op.label.startswith(CLI_QUERIES)]
    assert len(queries) == 4 * sum(map(len, wl_finite.CLI_PLAN.values()))
    assert failures(wl, queries) == 0
    honest = cli.is_simple
    monkeypatch.setattr(cli, "is_simple", lambda frame: not honest(frame))
    simple = [op for op in queries if op.label.startswith("cong simple")]
    assert failures(wl, simple) == len(simple)


def fake_pass(ops: int, checked: bool = False) -> dict:
    """A worker's result for a pass of `ops` operations that all succeed."""
    out = {"records": [f"r{i}" for i in range(ops)], "artifact": None,
           "labels": [f"op{i}" for i in range(ops)], "latency_s": [0.01] * ops,
           "wall_s": 0.01 * ops + 0.5, "setup_s": 0.2, "peak_rss_mb": 30.0,
           "numpy": np.__version__, "cost_s": 1.0}
    if checked:
        out.update(ok=[True] * ops, check_s=0.0)
    return out


def test_a_wrong_verdict_fails_in_every_pass(tmp_path, monkeypatch):
    ops = 50
    plain = [fake_pass(ops, checked=True), fake_pass(ops), fake_pass(ops)]
    plain[0]["ok"][7] = False      # one wrong verdict, reproduced by every pass
    plain[1]["latency_s"][3] = 0.004
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run.Runner, "passes", lambda self, *args: (plain, []))
    monkeypatch.setattr(run.Runner, "spawn", lambda self, **kw: {"setup_s": 0.2})
    _, result = run.measure("finite-small", 1, 30, False, str(tmp_path))
    assert result["attempted"] == 3 * ops and result["failed"] == 3
    metrics = result["metrics"]
    assert metrics["ok_rate"]["value"] == pytest.approx(1 - 1 / ops)
    # the fastest latency of each operation, plus the time between them
    assert metrics["wall_s"]["value"] == pytest.approx(0.01 * ops - 0.006 + 0.5)

    plain[2]["records"][3] = "changed"   # a pass that does not reproduce a result
    _, result = run.measure("finite-small", 1, 30, False, str(tmp_path))
    assert result["failed"] == 4 and not result["correct"]


def test_wrong_identity_verdict_counts_as_failed(tmp_path, monkeypatch):
    wl = wl_finite.finite_small(3, str(tmp_path))
    picked = [op for op in wl.ops if op.label.startswith("check_identity")][:40]
    honest = L.check_identity

    def flipped(frame, e, strategy=L.EXHAUSTIVE):
        v = honest(frame, e, strategy)
        if v.status == "fails":
            return L.Verdict("holds")
        return L.Verdict("fails", {k: frame.alg.zero for k in e.variables()})

    monkeypatch.setattr(L, "check_identity", flipped)
    assert failures(wl, picked) == len(picked)


def test_wrong_witness_counts_as_failed(tmp_path, monkeypatch):
    wl = wl_finite.finite_small(5, str(tmp_path))
    picked = [op for op in wl.ops if op.label.startswith("check_clause")]
    honest = L.check_clause

    def zeroed(frame, c):
        # every probe clause holds at 0 on these normal, unit-preserving squares
        v = honest(frame, c)
        if v.witness:
            return L.Verdict("fails", {k: frame.alg.zero for k in v.witness})
        return v

    monkeypatch.setattr(L, "check_clause", zeroed)
    rows = OpList(picked).timed()
    bad = [i for i, (_, _, res) in enumerate(rows)
           if res.witness and not OpList(picked).check(i, res)]
    assert len(bad) == sum(1 for _, _, res in rows if res.witness) > 0


def test_wrong_epset_and_raising_call_count_as_failed(tmp_path, monkeypatch):
    sym = wl_symbolic.symbolic(4, str(tmp_path))
    picked = [op for op in sym.ops if op.label in ("ep_meet", "ep_join")][:30]
    monkeypatch.setattr(L, "ep_boolean_op",
                        lambda op, *sets: L.ep_neg(sets[0]))
    assert failures(sym, picked) == len(picked)

    def broken(*args, **kwargs):
        raise L.ResourceLimitError("refused")

    boom = Op("refused", broken, lambda res: True)
    assert failures(OpList([boom])) == 1


def test_tracer_nests_spans_and_self_times_add_up():
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        frame = L.star(L.wheel(5))
        L.is_simple(frame)
        fam = L.family_frame("A", L.finite_set((1, 3)))
        L.generate_subalgebra(fam, (L.EVENS,), 12)
    finally:
        tr.uninstall(undo)
    assert L.is_simple.__name__ == "is_simple" and not hasattr(L.is_simple, "__wrapped__")
    names = [t.names[i] for i in t.name_id]
    parent = list(t.parent)
    start, end = list(t.start), list(t.end)
    assert names[0] == "frames.wheel" and parent[0] == -1
    assert parent[names.index("frames.complex_algebra")] == 0
    simple = names.index("congruence.is_simple")
    below = [i for i, n in enumerate(names)
             if n == "congruence.largest_congruential_below"]
    assert below and all(parent[i] == simple for i in below)
    applies = [i for i, n in enumerate(names) if n == "frames.SymbolicFrame.apply"]
    gen = names.index("congruence.generate_subalgebra")
    assert applies and all(parent[i] == gen for i in applies)
    assert any(names[parent[i]] == "frames.SymbolicFrame.apply"
               for i, n in enumerate(names) if n == "periodic.classify")
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
    wall = end[-1] - start[0] + 0.5
    m = tr.aggregate(t, wall)
    total = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(wall)
    assert m["congruence.is_simple.calls"][0] == 1
    assert m["congruence.largest_congruential_below.calls"][0] == len(below)
    assert m["frames.construct.out_elems"][0] == 64 + 4096
    assert m["periodic.ep_op.calls"][0] > 0


def test_span_cost_is_a_small_positive_time():
    assert 0 < tr.span_cost(calls=2000, repeats=3) < 1e-4


def test_recursive_calls_stay_inside_one_span():
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        L.nbar(4)
    finally:
        tr.uninstall(undo)
    assert [t.names[i] for i in t.name_id].count("terms.nbar") == 1


def test_verify_suite_rejects_a_warm_interpreter(tmp_path):
    from cep_lab import verification

    for obj in vars(verification).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    assert wl_verify.warm_caches() == []
    verification._wheel(5)
    suite = wl_verify.verify_suite(0, str(tmp_path))
    with pytest.raises(wl_verify.WarmInterpreterError):
        suite.timed()
    verification._wheel.cache_clear()


def test_reference_constructions_match_the_library():
    rng = random.Random(0)
    for n in (3, 4):
        edges = wl_finite.kripke_edges(rng, n, False)
        table = oracle.complex_table(n, edges)
        frame = L.complex_algebra(L.KripkeFrame(tuple(range(n)), frozenset(edges)))
        assert np.array_equal(frame.table, table)
        for build, ref in ((L.star, oracle.star_table), (L.flat, oracle.flat_table),
                           (L.sharp, oracle.sharp_table)):
            assert np.array_equal(build(frame).table, ref(table))
        prod = L.frame_product(frame, frame)
        assert np.array_equal(prod.table, oracle.product_table(table, table))


def test_reference_congruences_and_cep_match_the_library():
    rng = random.Random(1)
    for n in (2, 3, 4):
        t = wl_finite.random_table(rng, n)
        frame = L.FiniteFrame(L.FiniteAlgebra(n), t)
        assert [e.bits for e in L.congruence_lattice(frame).elements] == \
            oracle.congruential_elements(t)
        assert {frozenset(e.bits for e in s.elements)
                for s in L.congruence.all_subalgebras(frame)} == \
            set(oracle.subalgebras(t))
        assert L.cep_check_full(frame).holds == oracle.cep_holds(t)


def test_reference_epsets_and_rules_match_the_library():
    sampler = L.EPSetSampler(7)
    for _ in range(200):
        a, b = sampler.sample_pair()
        x, y = oracle.lasso(a), oracle.lasso(b)
        assert oracle.ep_eq(oracle.lasso(L.ep_meet(a, b)), oracle.ep_meet(x, y))
        assert oracle.ep_eq(oracle.lasso(L.ep_bicond(a, b)), oracle.ep_bicond(x, y))
        assert oracle.ep_eq(oracle.lasso(L.ep_neg(a)), oracle.ep_neg(x))
    for family in "ABC":
        param = sampler.sample()
        frame = L.family_frame(family, param)
        ref = oracle.LassoOps(family, oracle.lasso(param))
        for _ in range(100):
            s = sampler.sample()
            assert oracle.ep_eq(oracle.lasso(frame.apply(s)), ref.f(oracle.lasso(s)))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    from cep_lab import verification

    assert list(run.ITEMS) == sorted(verification.REGISTRY)
    per_layer = run.per_layer_template()
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in per_layer.values()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "symbolic", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
