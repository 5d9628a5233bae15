import random

import pytest

import polyqec.poly as poly_mod
from polyqec.poly import (
    LaurentPoly,
    PolyParseError,
    VarContext,
    mono_inv,
    mono_mul,
    mono_one,
    parse_poly,
)

XY = VarContext(("x", "y"))
XYZ = VarContext(("x", "y", "z"))


def p(text, ctx=XY):
    return parse_poly(text, ctx)


def rand_poly(rng, ctx, max_terms=5, span=3):
    terms = {
        tuple(rng.randint(-span, span) for _ in range(ctx.dim))
        for _ in range(rng.randint(0, max_terms))
    }
    return LaurentPoly(ctx, frozenset(terms))


# -- frozen arithmetic examples -------------------------------------------


def test_add_cancels():
    assert p("1 + x") + p("x + y") == p("1 + y")


def test_square_is_frobenius():
    assert p("1 + x") * p("1 + x") == p("1 + x^2")


def test_self_cancellation_to_zero():
    q = p("1 + x + y")
    assert (q + q).is_zero
    assert str(q + q) == "0"


def test_antipode_example():
    assert p("1 + x*y + x^2").antipode() == p("1 + x^-1*y^-1 + x^-2")


def test_zero_polynomial_representable():
    z = LaurentPoly.zero(XY)
    assert z.is_zero and z.weight == 0
    assert z + p("1") == p("1")
    assert (z * p("1 + x")).is_zero


def test_weight():
    assert p("1 + x^-1*y + x^2*y").weight == 3
    assert LaurentPoly.one(XY).weight == 1


# -- normalization ---------------------------------------------------------


def test_normalize_already_contains_one():
    q = p("1 + x + y")
    nq, m = q.normalize_to_one()
    assert nq == q and m == (0, 0)


def test_normalize_tie_break_example():
    ctx = VarContext(("x",))
    q = parse_poly("x^-1 + 1", ctx)
    nq, m = q.normalize_to_one()
    assert nq == parse_poly("1 + x", ctx)
    assert m == (-1,)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.zero(XY).normalize_to_one()


def test_normalize_lex_oracle():
    # independent oracle: try dividing by every monomial of q; the canonical
    # choice must be the unique divisor that is lex-smallest.
    rng = random.Random(11)
    for _ in range(300):
        q = rand_poly(rng, XYZ)
        if q.is_zero:
            continue
        candidates = {m: q.scale(mono_inv(m)) for m in q.terms}
        lex_min = sorted(candidates)[0]
        nq, m = q.normalize_to_one()
        assert m == lex_min
        assert nq == candidates[lex_min]
        assert mono_one(XYZ.dim) in nq.terms
        assert nq.weight == q.weight


# -- algebraic laws (randomized, seeded) ----------------------------------


def test_ring_laws():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_poly(rng, XY) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + a).is_zero


def test_mul_commutes_on_random_pairs():
    # HX HZ^T of a two-block code is f g + g f, so commutation is what makes
    # every such code a CSS code
    rng = random.Random(20260823)
    for _ in range(50):
        f = rand_poly(rng, XYZ, max_terms=4, span=2)
        g = rand_poly(rng, XYZ, max_terms=4, span=2)
        assert (f * g + g * f).is_zero


def test_pow_matches_repeated_multiplication():
    rng = random.Random(29)
    for _ in range(200):
        a = rand_poly(rng, XY)
        k = rng.randint(0, 24)
        want = LaurentPoly.one(XY)
        for _ in range(k):
            want = want * a
        assert a**k == want, (a, k)


def test_pow_of_a_large_power_is_cheap():
    q = p("(1 + x + y)^127")
    assert p("((1 + x + y)^127)^1") == q
    assert p("((1 + x + y)^127)^2") == p("(1 + x + y)^254")


def test_antipode_is_ring_involution():
    rng = random.Random(13)
    for _ in range(200):
        a, b = rand_poly(rng, XYZ), rand_poly(rng, XYZ)
        assert a.antipode().antipode() == a
        assert (a * b).antipode() == a.antipode() * b.antipode()
        assert (a + b).antipode() == a.antipode() + b.antipode()


def test_substitute_is_ring_homomorphism():
    rng = random.Random(17)
    target = VarContext(("u", "v", "w"))
    for _ in range(200):
        a, b = rand_poly(rng, XY), rand_poly(rng, XY)
        images = {
            n: LaurentPoly.monomial(
                target, [rng.randint(-2, 2) for _ in range(target.dim)]
            )
            for n in XY.names
        }
        sa, sb = a.substitute(images), b.substitute(images)
        assert (a + b).substitute(images) == sa + sb
        assert (a * b).substitute(images) == sa * sb
    assert LaurentPoly.one(XY).substitute(
        {n: LaurentPoly.variable(target, "u") for n in XY.names}
    ) == LaurentPoly.one(target)


def test_substitute_collision_cancels():
    # x and y both map to u: x + y must vanish
    target = VarContext(("u",))
    images = {"x": LaurentPoly.variable(target, "u"), "y": LaurentPoly.variable(target, "u")}
    assert p("x + y").substitute(images).is_zero
    assert p("1 + x + y").substitute(images) == parse_poly("1", target)


def test_mono_image_agrees_with_substitute():
    rng = random.Random(45)
    zeros = 0
    for _ in range(300):
        src = VarContext(tuple("abcd"[: rng.randint(1, 4)]))
        dst = VarContext(tuple("uvw"[: rng.randint(1, 3)]))
        vecs = [tuple(rng.randint(-3, 3) for _ in range(dst.dim)) for _ in src.names]
        t = tuple(rng.choice((0, rng.randint(-4, 4))) for _ in src.names)
        images = {n: LaurentPoly.monomial(dst, v) for n, v in zip(src.names, vecs)}
        # the image at a zero exponent is never read
        passed = [None if e == 0 else v for e, v in zip(t, vecs)]
        zeros += passed.count(None)
        assert LaurentPoly.monomial(src, t).substitute(images) == LaurentPoly.monomial(
            dst, poly_mod.mono_image(t, passed, dst.dim)
        )
    assert zeros > 100


def test_substitute_requires_total_monomial_map():
    target = VarContext(("u",))
    with pytest.raises(ValueError):
        p("1 + x").substitute({"x": LaurentPoly.variable(target, "u")})
    with pytest.raises(ValueError):
        p("1 + x").substitute(
            {"x": parse_poly("1 + u", target), "y": LaurentPoly.variable(target, "u")}
        )


def test_extend_to_context():
    # a polynomial moves to a larger context by substituting that context's
    # variables for its own
    q = parse_poly("1 + x", VarContext(("x",)))
    ext = q.substitute({"x": LaurentPoly.variable(XYZ, "x")})
    assert ext == p("1 + x", XYZ)


# -- parser / printer ------------------------------------------------------


@pytest.mark.parametrize(
    "text,want_terms",
    [
        ("1 + x^-1*y + x^2*y", {(0, 0), (-1, 1), (2, 1)}),
        ("1+x", {(0, 0), (1, 0)}),
        ("x*y", {(1, 1)}),
        ("xy", {(1, 1)}),  # juxtaposition against a declared context
        ("x^2y", {(2, 1)}),
        ("(1 + x)*y", {(0, 1), (1, 1)}),
        ("(1 + x)y", {(0, 1), (1, 1)}),
        ("(x*y^-1)^3", {(3, -3)}),
        ("(x)^-2", {(-2, 0)}),
        ("(1 + x)^2", {(0, 0), (2, 0)}),
        ("x + x", set()),
        ("0", set()),
    ],
)
def test_parse_examples(text, want_terms):
    assert p(text).terms == frozenset(want_terms)


def test_parse_whitespace_insensitive():
    assert p(" 1 +  x ^ -1 * y ") == p("1+x^-1*y")


def test_parse_inferred_context_order():
    q = parse_poly("1 + y + x*y")
    assert q.context.names == ("y", "x")


def test_parse_longest_match_names():
    ctx = VarContext(("a1", "a2"))
    q = parse_poly("a1*a2 + a1a2", ctx)
    assert q.is_zero  # both spellings denote the same monomial


def test_parse_rejects_coefficients():
    with pytest.raises(PolyParseError):
        p("2 + x")
    with pytest.raises(PolyParseError):
        p("3x")


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError):
        p("1 + q")


def test_parse_rejects_nonmonomial_inverse():
    with pytest.raises(PolyParseError):
        p("(1 + x)^-1")


def test_parse_rejects_garbage():
    for bad in ("", "+", "x +", "x ^", "x^y", "(1 + x", "x & y"):
        with pytest.raises(PolyParseError):
            p(bad)


def test_parse_error_messages():
    with pytest.raises(PolyParseError, match=r"expected '\)'"):
        p("(x^2 ^3)")
    with pytest.raises(PolyParseError, match=r"trailing input '\)' at position 1"):
        p("x)")


def test_parse_error_reports_position():
    with pytest.raises(PolyParseError, match="position"):
        p("1 + x & y")


# -- plain monomial sums are read without the recursive descent --------


full_grammar = poly_mod._read_grammar  # the recursive descent, without the flat reader


def rand_monomial_sum(rng, names):
    """'+'-sum of '1' and '*'-products of name^int factors, spaced at random."""
    space = lambda: rng.choice(("", "", " ", "  "))
    terms = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.15:
            terms.append(f"{space()}1{space()}")
            continue
        factors = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(names)  # the same name may repeat, as in x*x
            if rng.random() < 0.3:
                factors.append(f"{space()}{name}{space()}")
            else:
                sign = rng.choice(("", "-" + space()))
                factors.append(f"{space()}{name}{space()}^{space()}{sign}{rng.randint(0, 12)}")
        terms.append("*".join(factors))
    if rng.random() < 0.4:
        terms.append(rng.choice(terms))  # a repeated term cancels
    rng.shuffle(terms)
    return "+".join(terms)


@pytest.mark.parametrize(
    "seed, names",
    [(1, ("x", "y")), (2, ("x", "x1", "y")), (3, ("a1", "a10", "a2", "b1")), (4, ("x_", "_y", "z"))],
)
def test_monomial_sum_fast_path_matches_full_grammar(seed, names):
    ctx = VarContext(names)
    rng = random.Random(seed)
    cancelled = 0
    for _ in range(400):
        text = rand_monomial_sum(rng, names)
        fast = poly_mod._read_flat(text, ctx)
        assert fast is not None, text
        assert fast == full_grammar(text, ctx) == parse_poly(text, ctx), text
        cancelled += fast.weight < text.count("+") + 1
    assert cancelled


def test_fast_path_inferred_context_matches_full_grammar():
    rng = random.Random(61)
    for _ in range(100):
        text = rand_monomial_sum(rng, ("u", "v", "w"))
        if not any(ch.isalpha() for ch in text):
            continue  # constant-only text has no context to infer
        q = parse_poly(text)
        assert q == full_grammar(text, q.context)


def test_fast_path_declines_other_grammar():
    one_x = VarContext(("x",))
    for text, ctx in [("x1", one_x), ("xy", XY), ("x + 0", XY), ("(x+y)^2", XY),
                      ("x y", XY), ("", XY), ("x +", XY), ("x^²", XY), ("x^2²", XY)]:
        assert poly_mod._read_flat(text, ctx) is None, text
    # '1' is a factor like any other
    assert poly_mod._read_flat("1*x", XY) == full_grammar("1*x", XY) == p("x")
    # with only x declared, x1 is juxtaposition: x times 1
    assert parse_poly("x1", one_x) == parse_poly("x", one_x)
    assert parse_poly("x1", VarContext(("x", "x1"))).single_term() == (0, 1)
    for text in ["x + 0", "x*x + x^2", "1 + 1 + x", "(x+y)^2", "xy", "x^2y + y"]:
        assert parse_poly(text, XY) == full_grammar(text, XY), text


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty polynomial text"),
        ("   ", "empty polynomial text"),
        ("+", "unexpected token '+'"),
        ("x +", "unexpected end of polynomial text"),
        ("x + + y", "unexpected token '+'"),
        ("x^", "unexpected end of polynomial text"),
        ("x ^ -", "unexpected end of polynomial text"),
        ("2x", "coefficient 2 not supported (only implicit 1 over GF(2))"),
        ("x*(y", "unexpected end of polynomial text"),
        ("xy + q", "unknown variable 'q' at position 5"),
        ("x^-y", "expected integer exponent after '^' at position 3"),
        ("x**y", "unexpected token '*'"),
        ("x*", "unexpected end of polynomial text"),
        ("x^2^3", "trailing input '^' at position 3"),
        ("1 + x & y", "unexpected character '&' at position 6"),
        ("(x+y)^-1", "negative powers are only defined for single monomials (position 7)"),
        ("x^1.5", "unexpected character '.' at position 3"),
        ("x ^ - - 1", "expected integer exponent after '^' at position 6"),
        ("x^\u00b2", "invalid literal for int() with base 10: '\u00b2' (position 2)"),
        ("2\u00b2", "coefficient 2\u00b2 not supported (only implicit 1 over GF(2))"),
        ("x^2\u00b2", "invalid literal for int() with base 10: '2\u00b2' (position 2)"),
        ("x^-\u00b2", "invalid literal for int() with base 10: '\u00b2' (position 3)"),
        ("x + \u00e9", "unknown variable '\u00e9' at position 4"),
    ],
)
def test_malformed_text_keeps_its_message(text, message):
    with pytest.raises(PolyParseError) as exc:
        p(text)
    assert str(exc.value) == message
    with pytest.raises(PolyParseError) as slow:
        full_grammar(text, XY)
    assert str(slow.value) == message


def test_exponent_past_the_digit_limit_matches_full_grammar():
    # whether int() refuses 5000 digits depends on the interpreter
    text = "x^" + "9" * 5000
    outcomes = []
    for parse in (p, lambda t: full_grammar(t, XY)):
        try:
            outcomes.append(parse(text))
        except PolyParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_oversized_product_or_power_is_refused(monkeypatch):
    with pytest.raises(PolyParseError) as exc:
        p("(1 + x + y)^4095")
    assert str(exc.value) == (
        "power 4095 of a 3-term polynomial passes the 262144-term limit at position 12"
    )
    assert p("(1 + x)^511 * (1 + y)^511").weight == 1 << 18  # at the limit
    monkeypatch.setattr(poly_mod, "_TERM_CAP", 9)
    assert p("(1 + x + y)^3").weight == 9  # bound 3^2 = 9
    assert p("(1 + x + y)^-0").weight == 1
    assert p("(x*y)^12345").weight == 1
    for text, message in [
        ("(1 + x + y)^7", "power 7 of a 3-term polynomial passes the 9-term limit at position 12"),
        ("(1 + x)^3*(1 + x + y)", "product of 4 and 3 terms passes the 9-term limit at position 9"),
        ("(1 + x + y)(1 + x + y)^3", "product of 3 and 9 terms passes the 9-term limit at position 11"),
        ("(1 + x + y)^-3", "negative powers are only defined for single monomials (position 13)"),
    ]:
        with pytest.raises(PolyParseError) as exc:
            p(text)
        assert str(exc.value) == message


def test_print_parse_roundtrip():
    rng = random.Random(23)
    for _ in range(300):
        q = rand_poly(rng, XYZ)
        assert parse_poly(str(q), XYZ) == q


def test_print_canonical_order():
    assert str(p("x + 1 + x^-1*y")) == "x^-1*y + 1 + x"
    assert str(p("y^3 + x*y + x^2*y")) == "y^3 + x*y + x^2*y"


def test_large_exponents_exact():
    ctx = VarContext(("x",))
    big = 10**30
    q = LaurentPoly.monomial(ctx, [big])
    assert (q * q).single_term() == (2 * big,)
    assert q.antipode().single_term() == (-big,)


def test_context_validation():
    with pytest.raises(ValueError):
        VarContext(())
    with pytest.raises(ValueError):
        VarContext(("x", "x"))
    with pytest.raises(ValueError):
        VarContext(("x", "2y"))
    with pytest.raises(ValueError):
        LaurentPoly(XY, frozenset({(1, 2, 3)}))
    with pytest.raises(KeyError, match="unknown variable 'z'"):
        XY.index("z")
    with pytest.raises(PolyParseError, match="constant-only text"):
        parse_poly("1 + 1")
    xz = VarContext(("x", "z"))
    p, q = parse_poly("1 + x", XY), parse_poly("1 + z", xz)
    with pytest.raises(ValueError, match="^monomial arity mismatch$"):
        p.scale((1, 0, 0))
    for op in (lambda: p + q, lambda: p * q):
        with pytest.raises(ValueError, match=r"^context mismatch: \('x', 'y'\) vs \('x', 'z'\)$"):
            op()
    images = {"x": parse_poly("x", xz), "y": parse_poly("y", XY)}
    with pytest.raises(ValueError, match="^substitute: images live in different contexts$"):
        p.substitute(images)
