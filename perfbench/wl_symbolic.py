"""The `symbolic` workload: exact arithmetic on eventually periodic sets.

It covers the three infinite families with sampler-drawn parameter sets,
sampled property and open identity checks, ground separation grids, forcing
trace replay (valid built-in traces and mutations that fail at a known
step), bounded symbolic subalgebra closure, and a stream of Boolean
operations on pairs of EPSets drawn during set-up.  The finite workloads
never touch `periodic`; here it does most of the work, both pointwise (the
op stream, the rules) and through closure.
"""

from __future__ import annotations

import random

import oracle
from ops import Op, OpList

# family -> the property that defines it and the pool identity stating it
# (both hold for every parameter, so their sampled checks run every trial),
# and properties it lacks for every parameter (their checks stop early)
FAMILIES = {
    "A": ("extensive", "x & f(x) = x", ("contractive", "idempotent")),
    "B": ("contractive", "f(x) & x = f(x)", ("extensive", "idempotent")),
    "C": ("subadditive", "f(x | y) & (f(x) | f(y)) = f(x | y)",
          ("additive", "idempotent")),
}
FALSE_IDENTITY = "f(f(x)) = f(x)"
TRACE_OF = {"A": "ext2", "B": "cont", "C": "subadd"}
SAMPLES = {1: 500, 2: 200}  # trials per sampled check, by arity
GRID = 8                    # separation grid indices 0..GRID-1
SUB_BOUND = 40
BOOLEAN_OPS = 12000         # on pairs from a pool of POOL sampler draws
POOL = 400
OP_CYCLE = ("meet", "join", "bicond", "neg", "leq")


def ground_identity(family: str, n: int) -> str:
    """Separation identity at index n: it holds iff n is in the parameter."""
    if family == "A":
        return "f(-" + "f(" * (n + 1) + "0" + ")" * (n + 1) + ") = 1"
    if family == "B":
        return "f(-" + "f(" * (n + 1) + "1" + ")" * (n + 1) + ") = 0"
    return f"g(-(nbar {n})) = -(nbar {n})"


def _ground_reference(o, family: str, n: int) -> bool:
    if family == "A":
        return o.eq(o.f(o.neg(oracle.fpow(o, n + 1, o.zero))), o.one)
    if family == "B":
        return o.eq(o.f(o.neg(oracle.fpow(o, n + 1, o.one))), o.zero)
    bar = oracle.nbar(o, n)
    return o.eq(o.f(o.neg(bar)), o.neg(bar))


def _library_trials(L, seed: int, count: int, arity: int, first=()) -> list:
    """The argument tuples a Sampled(count, seed) check evaluates: `first`
    (the subadditive case pairs), then seeded EPSetSampler draws, one per
    variable in sorted order."""
    sampler = L.EPSetSampler(seed)
    trials = list(first)
    while len(trials) < count:
        trials.append(tuple(sampler.sample() for _ in range(arity)))
    return trials


def _check_sampled(v, ops, pred, names, trials) -> bool:
    """A failure's witness falsifies the predicate; `holds_on_sample` means
    no sampled argument falsifies it, which the reference re-evaluates."""
    if v.status == "fails":
        if sorted(v.witness) != sorted(names):
            return False
        return not pred(ops, *(oracle.lasso(v.witness[k]) for k in names))
    return v.status == "holds_on_sample" and all(
        pred(ops, *(oracle.lasso(s) for s in args)) for args in trials())


def _verdict_summary(v) -> dict:
    witness = None if v.witness is None else {
        k: repr(s) for k, s in sorted(v.witness.items())}
    return {"status": v.status, "witness": witness}


def _mutations(L, C, trace):
    """(trace, expected step) pairs, each invalid at a known step."""
    steps = list(trace)
    out = [(tuple(steps[:-1]), None),
           (tuple(steps + [C.TraceStep("conclude")]), len(steps) + 1)]
    first = steps[0]
    out.append(((C.TraceStep("gen", (L.MULT4, first.elements[1])),
                 *steps[1:]), 1))
    below = next(i for i, s in enumerate(steps) if s.kind == "below")
    out.append((tuple(steps[:below]
                      + [C.TraceStep("below", (L.ODDS,), steps[below].refs)]
                      + steps[below + 1:]), below + 1))
    return out


def symbolic(seed: int, workdir: str) -> OpList:
    import cep_lab as L
    from cep_lab import congruence as C
    from cep_lab import periodic

    rng = random.Random(seed)
    sampler = L.EPSetSampler(seed)
    ops = []

    for family in "ABC":
        for k in range(2):
            x = (L.finite_set(sorted(rng.sample(range(GRID), rng.randrange(1, 4))))
                 if k == 0 else sampler.sample())
            frame = L.family_frame(family, x)
            ref = oracle.LassoOps(family, oracle.lasso(x))
            tag = f"{family} x={x!r}"

            own, identity, lacks = FAMILIES[family]
            for prop in (own, *lacks):
                arity, pred = oracle.PROPERTIES[prop]
                strategy = L.Sampled(SAMPLES[arity], seed + k)

                def trials(x=x, p=prop, a=arity, s=strategy):
                    first = (periodic.subadditive_case_pairs(x)
                             if p == "subadditive" else ())
                    return _library_trials(L, s.seed, s.count, a, first)
                ops.append(Op(
                    f"sampled {prop} {tag}",
                    lambda fr=frame, p=prop, s=strategy: L.check_property(fr, p, s),
                    lambda v, pr=pred, a=arity, r=ref, t=trials:
                    _check_sampled(v, r, pr, ["x", "y"][:a], t),
                    _verdict_summary))

            for text in (identity, FALSE_IDENTITY):
                names = sorted(oracle.IDENTITY_TEXT[text][0])

                def pred(o, *args, e=text, names=names):
                    return oracle.identity_holds_at(o, e, dict(zip(names, args)))
                strategy = L.Sampled(SAMPLES[len(names)], seed + k)
                ops.append(Op(
                    f"sampled identity {text!r} {tag}",
                    lambda fr=frame, e=text, s=strategy:
                    L.check_identity(fr, L.parse_identity(e), s),
                    lambda v, pr=pred, r=ref, n=names, s=strategy:
                    _check_sampled(v, r, pr, n, lambda: _library_trials(
                        L, s.seed, s.count, len(n))),
                    _verdict_summary))

            for n in range(GRID):
                text = ground_identity(family, n)
                ops.append(Op(
                    f"grid {n} {tag}",
                    lambda fr=frame, e=text: L.check_identity(fr, L.parse_identity(e)),
                    lambda v, r=ref, fam=family, n=n: v.status == (
                        "holds" if _ground_reference(r, fam, n) else "fails"),
                    _verdict_summary))

            builtin = C.BUILTIN_TRACES[TRACE_OF[family]][1]()
            cases = [(builtin, True, None)] + [
                (t, False, step) for t, step in _mutations(L, C, builtin)]
            for trace, valid, step in cases:
                ops.append(Op(
                    f"replay {TRACE_OF[family]} valid={valid} step={step} {tag}",
                    lambda fr=frame, tr=trace: L.replay_trace(
                        fr, L.four_block_predicate, L.infinite_odds_filter, tr),
                    lambda rep, valid=valid, step=step:
                    rep.valid is valid and rep.step == step,
                    lambda rep: [rep.valid, rep.step, rep.reason]))

            # an infinite chain of segments: the closure always stops at
            # the bound, whatever the parameter
            gens = ((L.co_initial_segment_set(0),) if family == "B"
                    else (L.finite_set((0,)),))
            ops.append(Op(
                f"bounded subalgebra {tag}",
                lambda fr=frame, g=gens: L.generate_subalgebra(fr, g, SUB_BOUND),
                lambda sub, r=ref, g=gens: _check_symbolic_subalgebra(sub, r, g),
                lambda sub: {"complete": sub.complete,
                             "elements": sorted(repr(e) for e in sub.elements)}))

    pool = [sampler.sample() for _ in range(POOL)]
    for i in range(BOOLEAN_OPS):
        a, b = rng.choice(pool), rng.choice(pool)
        name = OP_CYCLE[i % len(OP_CYCLE)]
        if name == "leq":
            ops.append(Op("ep_leq", lambda a=a, b=b: L.ep_leq(a, b),
                          lambda got, a=a, b=b: got is _leq(a, b)))
            continue
        if name == "neg":
            run = (lambda a=a: L.ep_boolean_op("neg", a))
        else:
            run = (lambda a=a, b=b, n=name: L.ep_boolean_op(n, a, b))
        ops.append(Op(f"ep_{name}", run,
                      lambda got, a=a, b=b, n=name: _check_boolean(got, n, a, b),
                      repr))

    rng.shuffle(ops)
    return OpList(ops)


def _leq(a, b) -> bool:
    x = oracle.lasso(a)
    return oracle.ep_eq(oracle.ep_meet(x, oracle.lasso(b)), x)


def _check_boolean(got, name: str, a, b) -> bool:
    x, y = oracle.lasso(a), oracle.lasso(b)
    want = {"meet": lambda: oracle.ep_meet(x, y),
            "join": lambda: oracle.ep_join(x, y),
            "bicond": lambda: oracle.ep_bicond(x, y),
            "neg": lambda: oracle.ep_neg(x)}[name]()
    return oracle.ep_eq(oracle.lasso(got), want)


def _check_symbolic_subalgebra(sub, ref, gens) -> bool:
    """Contains 0, 1 and the generators; a complete closure is closed under
    complement, f and meet, an incomplete one stopped at the bound."""
    elems = [oracle.lasso(e) for e in sub.elements]

    def inside(s):
        return any(oracle.ep_eq(s, e) for e in elems)

    if not all(inside(s) for s in (oracle.EMPTY, oracle.NATS,
                                   *(oracle.lasso(g) for g in gens))):
        return False
    if not sub.complete:
        return len(elems) == SUB_BOUND
    return (all(inside(ref.neg(e)) and inside(ref.f(e)) for e in elems)
            and all(inside(ref.meet(e, g)) for e in elems for g in elems))
