"""Tests for two-block code algebra: lifts, compactification, profiles."""

import random
import time

import pytest

from polyqec.codes import (
    BoundReport,
    CodeError,
    FamilyTag,
    HGPCode,
    LiftError,
    TwistError,
    TwoBlockCode,
    bound_report,
    compactify,
    decomposition_profile,
    family_tree,
    hgp_split,
    is_indecomposable,
    is_indecomposable_finite,
    lift_to_parent,
    monomial_group_vectors,
    parent_hgp,
    two_block,
)
from polyqec import codes as codes_mod
from polyqec.lattice import GroupPresentation, hermite_basis
from polyqec.poly import LaurentPoly, VarContext, parse_poly

# the central worked example used throughout: cubic/quadratic pair on x,y,z
CUBIC_PAIR = ("x y z", "1 + x*y + x^2*y + y^3", "1 + x*z + z^2")


def _rand_poly(rng: random.Random, ctx: VarContext, terms: int, span: int = 2) -> LaurentPoly:
    picked = set()
    for _ in range(terms):
        picked.add(tuple(rng.randint(-span, span) for _ in range(ctx.dim)))
    return LaurentPoly(ctx, frozenset(picked))


# -- constructors ----------------------------------------------------------


def test_two_block_requires_matching_context():
    ctx = VarContext(("x", "y"))
    other = VarContext(("x",))
    with pytest.raises(CodeError):
        TwoBlockCode(ctx, parse_poly("1 + x", other), parse_poly("1 + y", ctx))


def test_hgp_builds_disjoint_union_context():
    code = parent_hgp(("x",), ("y",))
    assert code.context.names == ("x", "y")
    assert code.f_vars == ("x",) and code.g_vars == ("y",)
    assert str(code.f) == "1 + x" and str(code.g) == "1 + y"


def test_hgp_rejects_shared_variables():
    with pytest.raises(ValueError, match="duplicate variable names"):
        parent_hgp(("x", "y"), ("y",))
    ctx = VarContext(("a", "b", "c"))
    f, g = parse_poly("1 + a", ctx), parse_poly("1 + b + c", ctx)
    with pytest.raises(CodeError, match="^hypergraph-product variable blocks must be disjoint$"):
        HGPCode(ctx, f, g, f_vars=("a", "b"), g_vars=("b", "c"))
    with pytest.raises(CodeError, match="^f strays outside its variable block$"):
        HGPCode(ctx, parse_poly("1 + a + b", ctx), parse_poly("1 + c", ctx),
                f_vars=("a",), g_vars=("b", "c"))
    with pytest.raises(CodeError, match="^g strays outside its variable block$"):
        HGPCode(ctx, f, g, f_vars=("a", "b"), g_vars=("c",))


def test_hgp_split_detects_blocks():
    assert hgp_split(two_block("x y", "1 + x", "1 + y")) == (("x",), ("y",))
    assert hgp_split(two_block("x y", "1 + x + y", "1 + y")) is None


def test_normalized_divides_out_leading_terms():
    code = two_block("x y", "x + x^2", "y^-1 + 1")
    norm = code.normalized()
    assert str(norm.f) == "1 + x"
    assert str(norm.g) == "1 + y"
    # a hypergraph product stays one, with its blocks
    ctx = VarContext(("a", "b", "c"))
    hgp = HGPCode(ctx, parse_poly("a + a^2", ctx), parse_poly("b^-1 + c", ctx),
                  f_vars=("a",), g_vars=("b", "c"))
    norm = hgp.normalized()
    assert type(norm) is HGPCode
    assert (norm.f_vars, norm.g_vars) == (("a",), ("b", "c"))
    assert (str(norm.f), str(norm.g)) == ("1 + a", "1 + b*c")


def test_normalized_rejects_zero_generator():
    code = two_block("x y", "x + x", "1 + y")
    with pytest.raises(CodeError):
        code.normalized()


def test_hgp_normalized_rejects_zero_generator():
    ctx = VarContext(("a", "b"))
    hgp = HGPCode(ctx, LaurentPoly.zero(ctx), parse_poly("1 + b", ctx),
                  f_vars=("a",), g_vars=("b",))
    with pytest.raises(CodeError, match="^cannot normalize a code with a zero generator$"):
        hgp.normalized()


# -- indecomposability -----------------------------------------------------


def test_monomial_vectors_normalize_and_dedupe():
    code = two_block("x y", "x + x^2 + x*y", "1 + y")
    # f normalizes to 1 + x + y ; shared/constant terms dropped, sorted
    assert monomial_group_vectors(code) == ((0, 1), (1, 0))


def test_rank_deficient_pair_is_decomposable():
    code = two_block("x y z", "1 + x^-1*y + x^-1*z", "1 + z^-1*y")
    assert not is_indecomposable(code)
    assert decomposition_profile(code) == (1, (), None)


def test_torsion_pair_has_finite_sublattice_index():
    code = two_block("x y", "1 + x^2", "1 + y^2")
    assert decomposition_profile(code) == (0, (2, 2), 4)
    assert not is_indecomposable(code)


def test_full_lattice_pair_is_indecomposable():
    code = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    assert is_indecomposable(code)
    assert decomposition_profile(code) == (0, (), 1)


def test_finite_group_can_restore_indecomposability():
    code = two_block("x y z", "1 + x^-1*y + x^-1*z", "1 + z^-1*y")
    ctx = code.context
    even = GroupPresentation(ctx, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    odd = GroupPresentation(ctx, ((3, 0, 0), (0, 5, 0), (0, 0, 7)))
    assert not is_indecomposable_finite(code, even)
    assert is_indecomposable_finite(code, odd)


def test_finite_check_requires_same_context():
    code = two_block("x y", "1 + x", "1 + y")
    pres = GroupPresentation(VarContext(("x",)), ((4,),))
    with pytest.raises(CodeError):
        is_indecomposable_finite(code, pres)


# -- parent lift: frozen worked examples -----------------------------------


def test_cubic_pair_lift_substitution_and_labels():
    lift = lift_to_parent(two_block(*CUBIC_PAIR))
    assert lift.labels == ("a1", "a2", "a3", "b1", "b2")
    assert lift.substitution_text() == {
        "a1": "x*y",
        "a2": "x^2*y",
        "a3": "y^3",
        "b1": "x*z",
        "b2": "z^2",
    }


def witness_vectors(lift):
    """Each child variable's witness as an exponent vector over the labels."""
    return {
        var: tuple(dict(factors).get(label, 0) for label in lift.labels)
        for var, factors in lift.witnesses.items()
    }


def test_cubic_pair_lift_witnesses():
    lift = lift_to_parent(two_block(*CUBIC_PAIR))
    assert lift.witness_text() == {
        "x": "a1^-1*a2",
        "y": "a1^2*a2^-1",
        "z": "a1*a2^-1*b1",
    }
    assert witness_vectors(lift) == {
        "x": (-1, 1, 0, 0, 0),
        "y": (2, -1, 0, 0, 0),
        "z": (1, -1, 0, 1, 0),
    }


def test_cubic_pair_lift_twists():
    lift = lift_to_parent(two_block(*CUBIC_PAIR))
    assert [t.vector for t in lift.twists] == [(6, -3, -1, 0, 0), (2, -2, 0, 2, -1)]
    assert lift.twist_text() == [
        "a3 = (a1^2*a2^-1)^3",
        "b2 = (a1*a2^-1*b1)^2",
    ]
    # canonical basis comparison: same lattice as the raw twist vectors
    assert lift.twist_basis == hermite_basis([(6, -3, -1, 0, 0), (2, -2, 0, 2, -1)], 5)


def test_cubic_pair_lift_roundtrip():
    code = two_block(*CUBIC_PAIR)
    lift = lift_to_parent(code)
    back = compactify(lift.parent, lift.substitution, [t.vector for t in lift.twists])
    assert back.normalized() == code.normalized()


def test_three_dim_cube_pair_lift():
    # weight-(4,4) pair whose parent needs six fresh variables
    lift = lift_to_parent(two_block("x y z", "1 + x + y + z", "1 + x*y + x*z + y*z"))
    assert lift.substitution_text() == {
        "a1": "x",
        "a2": "y",
        "a3": "z",
        "b1": "x*y",
        "b2": "x*z",
        "b3": "y*z",
    }
    assert lift.witness_text() == {"x": "a1", "y": "a2", "z": "a3"}
    assert lift.twist_text() == [
        "b1 = (a1)*(a2)",
        "b2 = (a1)*(a3)",
        "b3 = (a2)*(a3)",
    ]


def test_surface_pair_lift_has_no_twists():
    lift = lift_to_parent(two_block("x y", "1 + x", "1 + y"))
    assert lift.substitution_text() == {"a1": "x", "b1": "y"}
    assert lift.twists == ()
    assert lift.twist_basis == ()


def test_label_order_prefers_low_degree_then_descending_lex():
    # degree 2 first, then among degree 3: x^2*y before y^3
    lift = lift_to_parent(two_block(*CUBIC_PAIR))
    subs = lift.substitution_text()
    assert subs["a1"] == "x*y" and subs["a2"] == "x^2*y" and subs["a3"] == "y^3"


def test_lift_parent_is_hypergraph_product():
    lift = lift_to_parent(two_block(*CUBIC_PAIR))
    assert hgp_split(lift.parent) == (("a1", "a2", "a3"), ("b1", "b2"))
    pctx = lift.parent.context
    assert lift.parent.f == parse_poly("1 + a1 + a2 + a3", pctx)
    assert lift.parent.g == parse_poly("1 + b1 + b2", pctx)


def test_lift_avoids_child_name_collisions():
    lift = lift_to_parent(two_block("a1 b1", "1 + a1 + b1^3", "1 + b1 + a1^3"))
    assert lift.labels[0].startswith("aa")
    assert all(lbl not in ("a1", "b1") for lbl in lift.labels)


def test_lift_rejects_decomposable_code():
    with pytest.raises(LiftError, match="decomposable"):
        lift_to_parent(two_block("x y z", "1 + x^-1*y + x^-1*z", "1 + z^-1*y"))


def test_lift_rejects_degenerate_generator():
    with pytest.raises(LiftError, match="degenerate"):
        lift_to_parent(two_block("x y", "x^2", "1 + y"))


def test_lift_refuses_more_terms_than_its_cap():
    # f has two non-constant terms and g as many z powers as the rest of the
    # cap allows; one power more is refused before any parent is built
    assert codes_mod._LIFT_TERM_CAP == 128
    powers = " + ".join(f"z^{e}" for e in range(1, 127))
    lift = lift_to_parent(two_block("x y z", "1 + x + y", f"1 + {powers}"))
    assert len(lift.labels) == 128
    with pytest.raises(LiftError) as err:
        lift_to_parent(two_block("x y z", "1 + x + y", f"1 + {powers} + z^127"))
    assert str(err.value) == (
        "lift needs one parent variable per non-constant term: 129 terms exceed the cap 128"
    )


# two 32-term g in 4 variables (2 cores, Python 3.11.7): the greedy witness
# search took 0.7 s on the first and 10.7 s on the second; with Hermite
# witnesses, the twist basis took 3.6 s on the first while it inserted its rows
# one by one.  The test below pads each with seeded monomials up to the cap
SLOW_ONCE_G = [
    "1 + x^-6*y^2*z^-3*w^6 + x^-5*y^-2*z^-5*w + x^-5*y^5*z^-1*w^5 + x^-4*y^3*z^6*w^6"
    " + x^-4*y^4*z^5*w^-2 + x^-2*y^5*z^3*w^3 + x^-1*y^-6*z^-6*w^-6 + x^-1*y^-5*z*w^4"
    " + x^-1*y^-3*z^4*w^-3 + y^2*z^4*w^-5 + y^6*z^-3*w^-5 + x*y^-6 + x*y*z^2*w^-3"
    " + x^2*y^-5*z^6*w^-4 + x^2*z^-1*w + x^3*y^-6*z*w^-3 + x^3*y*z^2 + x^3*y^6*z^6*w^-6"
    " + x^4*y^-4*z^-1*w^2 + x^4*y^-3*z^-2*w^-2 + x^4*y^-3*w^5 + x^4*y^2*z^-6"
    " + x^5*y^-6*z*w^-6 + x^5*y*z^-2*w^5 + x^5*y^2*w^2 + x^5*y^6 + x^5*y^6*z^4*w^5"
    " + x^6*y^-3*z^3*w^-5 + x^6*y*z^-2*w^-6 + x^6*y*z*w^4",
    "1 + x^-6*y^-2*z^3*w^4 + x^-6*y^3*z^3*w^6 + x^-5*y^-1*z^6*w^-5 + x^-5*y*z^4*w"
    " + x^-4*y^-3*z^4*w^-4 + x^-3*y^3*z^2*w^-4 + x^-3*y^5*z*w^2 + x^-1*y^-5*z^-6*w^-4"
    " + x^-1*y^2*z^3 + x^-1*y^3*z*w^4 + y^-4*z^-6*w^-2 + y^2*w^3 + y^6*w^-5"
    " + y^6*z^4*w^-2 + x*y^-3*z^-2*w^4 + x*y^-2*z^2*w^-3 + x^2*z^5*w^-6 + x^2*y*w^4"
    " + x^2*y^3*z^3*w^-5 + x^3*y^-5*z^3*w^-6 + x^3*y^-3*z^-1*w^4 + x^3*y^-2*z^-2*w^-5"
    " + x^3*y^5*w^5 + x^4*y^6*z^-5*w^-4 + x^5*y^-4*z^5*w^-1 + x^5*y^4*z^-3*w^4"
    " + x^6*y^-6*z^-2*w + x^6*w^5 + x^6*y^3*z^-6*w^-2 + x^6*y^3*z*w^-4",
]


@pytest.mark.parametrize("g", SLOW_ONCE_G, ids=["twist-basis", "greedy-search"])
def test_lift_at_the_cap_answers_at_once(g):
    # g grows by seeded monomials, exponents in [-6, 6], until f = 1 + x + y
    # and g have 128 non-constant terms together; one more term is refused
    ctx = VarContext(tuple("xyzw"))
    f, terms = parse_poly("1 + x + y", ctx), set(parse_poly(g, ctx).terms)
    rng = random.Random(len(terms))
    while len(terms) < codes_mod._LIFT_TERM_CAP - 1:
        terms.add(tuple(rng.randint(-6, 6) for _ in range(4)))
    code = TwoBlockCode(ctx, f, LaurentPoly(ctx, frozenset(terms)))
    t0 = time.perf_counter()
    lift = lift_to_parent(code)
    assert time.perf_counter() - t0 < 1.0
    assert len(lift.labels) == 128 and len(lift.twist_basis) == 124
    back = compactify(lift.parent, lift.substitution, [t.vector for t in lift.twists])
    assert back.normalized() == code.normalized()
    over = TwoBlockCode(ctx, f, LaurentPoly(ctx, frozenset(terms | {(7, 0, 0, 0)})))
    with pytest.raises(LiftError, match="129 terms exceed the cap 128"):
        lift_to_parent(over)


def test_lift_roundtrip_on_random_indecomposable_codes():
    rng = random.Random(77)
    found = 0
    while found < 60:
        dim = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:dim]))
        f = _rand_poly(rng, ctx, rng.randint(2, 4))
        g = _rand_poly(rng, ctx, rng.randint(2, 4))
        if f.is_zero or g.is_zero or f.is_monomial or g.is_monomial:
            continue
        code = TwoBlockCode(ctx, f, g)
        if not is_indecomposable(code):
            continue
        found += 1
        lift = lift_to_parent(code)
        # every witness really evaluates to its child variable
        for var, vec in witness_vectors(lift).items():
            acc = (0,) * dim
            for lbl, e in zip(lift.labels, vec):
                img = lift.substitution[lbl].single_term()
                acc = tuple(a + e * m for a, m in zip(acc, img))
            expected = tuple(int(n == var) for n in ctx.names)
            assert acc == expected
        # twist count spans the substitution kernel
        assert len(lift.twist_basis) == len(lift.labels) - dim
        back = compactify(lift.parent, lift.substitution, [t.vector for t in lift.twists])
        assert back.normalized() == code.normalized()


# -- compactify validation -------------------------------------------------


def _surface_parent():
    return parent_hgp(("a1",), ("b1",))


def test_compactify_rejects_non_product_parent():
    child_ctx = VarContext(("x",))
    sub = {"x": LaurentPoly.variable(child_ctx, "x")}
    with pytest.raises(CodeError, match="hypergraph-product"):
        compactify(two_block("x y", "1 + x + y", "1 + y"), sub)


def test_compactify_rejects_missing_substitution():
    with pytest.raises(CodeError, match="misses"):
        compactify(_surface_parent(), {"a1": parse_poly("x", VarContext(("x",)))})


def test_compactify_rejects_non_monomial_image():
    ctx = VarContext(("x",))
    sub = {"a1": parse_poly("1 + x", ctx), "b1": parse_poly("x", ctx)}
    with pytest.raises(ValueError):
        compactify(_surface_parent(), sub)


def test_compactify_rejects_inconsistent_twist():
    ctx = VarContext(("x",))
    sub = {"a1": parse_poly("x", ctx), "b1": parse_poly("x^2", ctx)}
    # a1^2 b1^-1 -> trivial: fine ; a1 b1 -> x^3: inconsistent
    ok = compactify(_surface_parent(), sub, [(2, -1)])
    assert str(ok.f) == "1 + x"
    with pytest.raises(
        TwistError,
        match=r"^twist 0 does not map to the trivial monomial \(image exponent \[3\]\)$",
    ):
        compactify(_surface_parent(), sub, [(1, 1)])
    with pytest.raises(TwistError, match="arity"):
        compactify(_surface_parent(), sub, [(1, 1, 0)])


def test_compactify_refuses_images_in_different_contexts():
    # the twist is checked only once the images share one context
    sub = {
        "a1": parse_poly("x", VarContext(("x",))),
        "b1": parse_poly("u*v", VarContext(("u", "v"))),
    }
    with pytest.raises(ValueError, match="^substitute: images live in different contexts$"):
        compactify(_surface_parent(), sub, [(1, -1)])


def test_compactify_merges_colliding_images():
    ctx = VarContext(("x",))
    sub = {"a1": parse_poly("x", ctx), "b1": parse_poly("x", ctx)}
    out = compactify(_surface_parent(), sub, [(1, -1)])
    assert str(out.f) == "1 + x" and str(out.g) == "1 + x"


# -- family tree -----------------------------------------------------------


def test_family_tag_is_unordered():
    assert FamilyTag.of("odd", "even") == FamilyTag.of("even", "odd")
    assert str(FamilyTag.of("odd", "even")) == "(even, odd)"
    with pytest.raises(ValueError):
        FamilyTag.of("odd", "strange")


def test_family_tree_of_known_codes():
    assert family_tree(two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")) == FamilyTag.of("odd", "odd")
    assert family_tree(two_block("x y", "1 + x + y", "1 + x")) == FamilyTag.of("odd", "even")
    assert family_tree(two_block("x y", "1 + x", "1 + y")) == FamilyTag.of("even", "even")


def test_family_tree_preserved_by_compactification():
    rng = random.Random(46)
    checked = 0
    while checked < 80:
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        parent = parent_hgp(
            tuple(f"a{i}" for i in range(1, k1 + 1)), tuple(f"b{i}" for i in range(1, k2 + 1))
        )
        dim = rng.randint(1, 3)
        ctx = VarContext(tuple("xyz"[:dim]))
        sub = {
            n: LaurentPoly.monomial(ctx, tuple(rng.randint(-2, 2) for _ in range(dim)))
            for n in parent.context.names
        }
        child = compactify(parent, sub)
        if child.f.is_zero or child.g.is_zero:
            continue  # fully collapsed generator: no code to classify
        checked += 1
        assert family_tree(child) == family_tree(parent)


# -- bound report ----------------------------------------------------------


def test_bound_report_square_lattice_pair():
    code = two_block("x y", "x^3 + y + y^2", "y^3 + x + x^2")
    rep = bound_report(code, 288)
    assert isinstance(rep, BoundReport)
    assert rep.check_weight == 6
    assert rep.variable_count == 2
    assert rep.locality_dimension == 2
    assert rep.indecomposable
    assert abs(rep.distance_upper_scaling - 288 ** 0.5) < 1e-9
    assert abs(rep.distance_lower_scaling - 288 ** 0.5) < 1e-9
    assert any("D = min(v, w-2) = 2" in line for line in rep.lines)
    assert any("n^0.5" in line for line in rep.lines)


def test_bound_report_weight_caps_dimension():
    code = two_block("v w x y z", "1 + v*w*x*y*z", "1 + v + w")
    rep = bound_report(code, 100)
    assert rep.check_weight == 5
    assert rep.variable_count == 5
    assert rep.locality_dimension == 3
    assert not rep.variables_within_weight_cap
    assert any("exceeds" in line for line in rep.lines)


def test_bound_report_flags_decomposable():
    rep = bound_report(two_block("x y", "1 + x^2", "1 + y^2"), 64)
    assert not rep.indecomposable
    assert any("decomposable" in line for line in rep.lines)


def test_bound_report_degenerate_dimension_one():
    rep = bound_report(two_block("x", "1 + x", "1 + x"), 16)
    assert rep.locality_dimension == 1
    assert any("degenerate" in line for line in rep.lines)
    assert rep.distance_upper_scaling == 1.0


def test_bound_report_input_validation():
    with pytest.raises(CodeError):
        bound_report(two_block("x y", "1 + x", "1 + y"), 0)
    with pytest.raises(CodeError):
        bound_report(two_block("x", "1", "1"), 9)
