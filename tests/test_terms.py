"""Term language: parsing, evaluation, relativization, clause transfer."""

import random

import pytest

from cep_lab.core import Element, ParseError, UsageError
from cep_lab.frames import (Sampled, complex_algebra, family_frame,
                            frame_product, identity_frame, sharp, star, wheel,
                            wheel_kripke)
from cep_lab.periodic import EMPTY, finite_set
from cep_lab.terms import (ONE, ZERO, Clause, ConstBits, FApp, Identity, Meet,
                           Neg, Var, check_clause, check_identity, eval_term,
                           fix_variable, fpow, free_vars, iota, join_t,
                           make_clause, nbar, parse_identity, parse_term,
                           relativize, relativize_identity, substitute)


def test_parse_identity_example():
    e = parse_identity("f(-f(x)) = 1")
    assert e.lhs == FApp(Neg(FApp(Var("x"))))
    assert e.rhs == ONE


def test_parse_precedence():
    assert parse_term("x & y | z") == join_t(Meet(Var("x"), Var("y")), Var("z"))
    assert parse_term("-x & y") == Meet(Neg(Var("x")), Var("y"))
    assert parse_term("x -> y -> z") == parse_term("x -> (y -> z)")
    assert parse_term("f(x)&f(y)") == Meet(FApp(Var("x")), FApp(Var("y")))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_term("f(")
    assert "offset 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("x & ")
    with pytest.raises(ParseError):
        parse_identity("x")
    with pytest.raises(ParseError):
        parse_term("3")


def test_operation_symbol_aliases():
    assert parse_term("g(x)") == parse_term("f(x)")
    assert parse_term("h(0)") == parse_term("f(0)")
    # bare g remains an ordinary variable
    assert parse_term("g & x") == Meet(Var("g"), Var("x"))


def test_eval_term_examples():
    w5 = wheel(5)
    assert eval_term(w5, ONE, {}) == w5.alg.one
    assert eval_term(w5, parse_term("f(x)"),
                     {"x": w5.alg.element(1)}).bits == 0b110011
    fa = family_frame("A", finite_set((2,)))
    assert eval_term(fa, parse_term("f(f(0))"), {}) == finite_set((0, 1))
    with pytest.raises(UsageError, match="unbound"):
        eval_term(w5, parse_term("x"), {})


def test_check_identity_definite_on_ground_symbolic():
    fc = family_frame("C", finite_set((3,)))
    assert eval_term(fc, nbar(3), {}) == finite_set((3,))
    assert check_identity(fc, parse_identity("g(-(nbar 3)) = -(nbar 3)")).status == "holds"
    assert check_identity(fc, parse_identity("g(-(nbar 2)) = -(nbar 2)")).status == "fails"


def test_check_identity_exhaustive():
    ident = identity_frame(2)
    assert check_identity(ident, parse_identity("f(x) = x")).status == "holds"
    v = check_identity(wheel(5), parse_identity("f(x) = x"))
    assert v.status == "fails"
    assert v.witness["x"].bits == 1  # least counterexample


def test_check_identity_symbolic_open_needs_sampling():
    fa = family_frame("A", EMPTY)
    with pytest.raises(UsageError):
        check_identity(fa, parse_identity("f(x) = x"))
    v = check_identity(fa, parse_identity("x & f(x) = x"), Sampled(500, 3))
    assert v.status == "holds_on_sample"


def test_relativize_clauses():
    assert relativize(FApp(Var("x")), "y") == FApp(Meet(Var("x"), Var("y")))
    assert relativize(Neg(Var("x")), "y") == \
        Meet(Neg(Meet(Var("x"), Var("y"))), Var("y"))
    assert relativize(ZERO, "y") == ZERO
    with pytest.raises(UsageError):
        relativize(Var("y"), "y")


def test_substitute_and_free_vars():
    t = Meet(Var("x"), FApp(Var("y")))
    assert free_vars(t) == {"x", "y"}
    assert free_vars(substitute(t, "y", ZERO)) == {"x"}
    e = fix_variable(Identity(Var("x"), Var("y")), "y", Element(2, 2))
    assert e.rhs == ConstBits(2)


def test_iota_examples():
    assert iota("<>p") == FApp(Var("p"))
    assert iota("bot") == ZERO
    assert iota("~(p & q)") == Neg(Meet(Var("p"), Var("q")))
    assert iota("[]p") == Neg(FApp(Neg(Var("p"))))
    assert iota("p -> q") == parse_term("p -> q")
    for text in ("p & & q", "p q", "1", "<>", "p <-> q"):
        with pytest.raises(ParseError):
            iota(text)


# --- independent modal oracle -------------------------------------------

FORMS = ("bot", "letter", "not", "and", "dia", "or", "imp", "box", "top")


def random_formula(rng, depth):
    if depth == 0:
        return rng.choice([("bot",), ("top",), ("letter", rng.choice("pqr"))])
    form = rng.choice(FORMS)
    if form == "bot":
        return ("bot",)
    if form == "top":
        return ("top",)
    if form == "letter":
        return ("letter", rng.choice("pqr"))
    if form in ("not", "dia", "box"):
        return (form, random_formula(rng, depth - 1))
    return (form, random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def render(phi):
    head = phi[0]
    if head == "bot":
        return "bot"
    if head == "top":
        return "top"
    if head == "letter":
        return phi[1]
    if head == "not":
        return f"~({render(phi[1])})"
    if head == "dia":
        return f"<>({render(phi[1])})"
    if head == "box":
        return f"[]({render(phi[1])})"
    sym = {"and": "&", "or": "|", "imp": "->"}[head]
    return f"({render(phi[1])} {sym} {render(phi[2])})"


def modal_eval(phi, worlds, relation, valuation):
    head = phi[0]
    if head == "bot":
        return frozenset()
    if head == "top":
        return frozenset(worlds)
    if head == "letter":
        return valuation[phi[1]]
    if head == "not":
        return frozenset(worlds) - modal_eval(phi[1], worlds, relation, valuation)
    if head == "and":
        return modal_eval(phi[1], worlds, relation, valuation) & \
            modal_eval(phi[2], worlds, relation, valuation)
    if head == "or":
        return modal_eval(phi[1], worlds, relation, valuation) | \
            modal_eval(phi[2], worlds, relation, valuation)
    if head == "imp":
        return (frozenset(worlds) -
                modal_eval(phi[1], worlds, relation, valuation)) | \
            modal_eval(phi[2], worlds, relation, valuation)
    if head == "dia":
        inner = modal_eval(phi[1], worlds, relation, valuation)
        return frozenset(x for x in worlds
                         if any((x, y) in relation for y in inner))
    inner = modal_eval(phi[1], worlds, relation, valuation)
    return frozenset(x for x in worlds
                     if all(y in inner for y in worlds if (x, y) in relation))


def test_iota_matches_direct_modal_semantics():
    kripke = wheel_kripke(5)
    frame = complex_algebra(kripke)
    idx = {w: i for i, w in enumerate(kripke.worlds)}
    rng = random.Random(1234)
    for _ in range(100):
        phi = random_formula(rng, 4)
        valuation = {p: frozenset(w for w in kripke.worlds if rng.random() < 0.4)
                     for p in "pqr"}
        assignment = {p: frame.alg.element(sum(1 << idx[w] for w in ws))
                      for p, ws in valuation.items()}
        got = eval_term(frame, iota(render(phi)), assignment)
        want = modal_eval(phi, kripke.worlds, kripke.relation, valuation)
        assert got.bits == sum(1 << idx[w] for w in want)


# --- clauses --------------------------------------------------------------


def test_clause_shapes_and_trivial_cases():
    taut = make_clause("psi", parse_identity("x = x"), 2)
    assert len(taut.disjuncts) == 3
    assert check_clause(wheel(5), taut).status == "holds"
    with pytest.raises(UsageError):
        Clause(())
    with pytest.raises(UsageError):
        make_clause("chi", parse_identity("x = x"))
    with pytest.raises(UsageError):
        check_clause(family_frame("A", EMPTY), taut)


def test_phi_clause_on_star():
    base = identity_frame(2)
    st = star(base)
    assert check_clause(st, make_clause("phi", parse_identity("f(x) = x"))).holds
    # an identity failing on the base fails as a transfer clause on the star
    w5 = wheel(5)
    stw = star(frame_product(identity_frame(1), identity_frame(1)))
    assert not check_clause(stw, make_clause("phi", parse_identity("f(x) = 0"))).holds
    del w5


def test_psi_clause_failure_transfers():
    sh = sharp(wheel(5))
    bad = make_clause("psi", parse_identity("f(x) = x"), 2)
    v = check_clause(sh, bad)
    assert v.status == "fails"
    assert set(v.witness) == {"x", "y0"} if "y0" in v.witness else True


def test_phi_encoding_matches_direct_conjunction():
    """The single-identity encoding of the conjunction disjunct agrees with
    evaluating the three conjuncts separately."""
    base = identity_frame(2)
    st = star(base)
    e = parse_identity("f(x) = x")
    clause = make_clause("phi", e)
    rel = relativize_identity(e, "y")
    for xb in range(st.alg.size):
        for yb in range(st.alg.size):
            asgn = {"x": st.alg.element(xb), "y": st.alg.element(yb)}
            y = asgn["y"]
            fy = st.apply(y)
            fny = st.apply(~y)
            direct = (fy == st.alg.one or fny == st.alg.one or
                      (fy == y and fny == ~y and
                       eval_term(st, rel.lhs, asgn) == eval_term(st, rel.rhs, asgn)))
            encoded = any(
                eval_term(st, d.lhs, asgn) == eval_term(st, d.rhs, asgn)
                for d in clause.disjuncts)
            assert direct == encoded


def test_relativization_equivalence_small_frames():
    frames = [identity_frame(2), complex_algebra(wheel_kripke(5))]
    pool = ["f(x) = x", "f(0) = 0", "x & f(x) = x", "f(-x) = -f(x)",
            "f(f(x)) = f(x)", "f(x | y) = f(x) | f(y)"]
    for base in frames:
        st = star(base)
        half = st.alg.atom_count // 2
        corners = (st.alg.element((1 << half) - 1),
                   st.alg.element(((1 << half) - 1) << half))
        for text in pool:
            e = parse_identity(text)
            expected = check_identity(base, e).holds
            for corner in corners:
                rel = fix_variable(relativize_identity(e, "relv"), "relv", corner)
                assert check_identity(st, rel).holds == expected, (base.name, text)


def test_flat_relativization_equivalence():
    pool = ["f(x) = x", "f(0) = 0", "x & f(x) = x", "f(-x) = -f(x)",
            "f(f(x)) = f(x)"]
    from cep_lab.frames import flat

    for base in (identity_frame(2), wheel(5)):
        fl = flat(base)
        half = fl.alg.atom_count // 2
        corner = fl.alg.element(((1 << half) - 1) << half)
        for text in pool:
            e = parse_identity(text)
            rel = fix_variable(relativize_identity(e, "relv"), "relv", corner)
            assert check_identity(fl, rel).holds == check_identity(base, e).holds


def test_clause_on_generated_subalgebras():
    """Clauses survive passing to subalgebras."""
    from cep_lab.congruence import all_subalgebras, subalgebra_frame

    base = star(frame_product(identity_frame(1), identity_frame(1)))
    clauses = [make_clause("phi", parse_identity("f(x) = x")),
               make_clause("psi", parse_identity("x = x"), 1)]
    for clause in clauses:
        if not check_clause(base, clause).holds:
            continue
        for sub in all_subalgebras(base):
            small, _ = subalgebra_frame(base, sub)
            assert check_clause(small, clause).holds


def test_nbar_macro_parse_matches_builder():
    assert parse_term("nbar 0") == nbar(0)
    assert parse_term("-(nbar 2)") == Neg(nbar(2))
    assert fpow(3, ZERO) == FApp(FApp(FApp(ZERO)))
