"""Tests for the line-oriented code-file parser."""

import pytest

from polyqec.codes import CodeError, compactify
from polyqec.fixtures import (
    FAMILY_TABLE_ROWS,
    fixture_names,
    fixture_path,
    load_fixture,
)
from polyqec.lattice import quotient
from polyqec.poly import parse_poly
from polyqec.specfile import (
    SpecError,
    parse_spec_file,
    parse_spec_text,
)

GROSS_TEXT = """
[meta]
name = gross
note = demo

[code]
variables = x y
f = x^3 + y + y^2
g = y^3 + x + x^2

[boundary]
x^12 = 1
y^6 = 1

[lift]
parent_f = a b
parent_g = c d
a = d^3*b^-1
b = y
c = b^3*d^-1
d = x
"""


def test_parse_full_spec():
    spec = parse_spec_text(GROSS_TEXT)
    assert spec.name == "gross"  # the note is accepted and not kept
    assert spec.context.names == ("x", "y")
    assert spec.f == parse_poly("x^3 + y + y^2", spec.context)
    assert spec.g == parse_poly("y^3 + x + x^2", spec.context)
    assert spec.boundary == ((12, 0), (0, 6))
    assert not spec.is_classical
    assert spec.lift is not None
    assert spec.lift.parent.f_vars == ("a", "b")
    assert spec.lift.parent.g_vars == ("c", "d")
    assert {label: str(image) for label, image in spec.lift.substitution.items()} == {
        "a": "x^3*y^-1",
        "b": "y",
        "c": "x^-1*y^3",
        "d": "x",
    }


def test_lift_resolves_forward_references():
    lift = parse_spec_text(GROSS_TEXT).lift
    ctx = parse_spec_text(GROSS_TEXT).context
    assert lift.substitution["a"] == parse_poly("x^3*y^-1", ctx)
    assert lift.substitution["b"] == parse_poly("y", ctx)
    assert lift.substitution["c"] == parse_poly("x^-1*y^3", ctx)
    assert lift.substitution["d"] == parse_poly("x", ctx)
    # each pure-parent right-hand side contributes one relation that
    # substitutes to the trivial monomial, in assignment order
    assert lift.twist_vectors == ((1, 1, 0, -3), (0, -3, 1, 1))


LIFT_HEAD = "[code]\nvariables = x y\nf = 1 + x + y\ng = 1 + x*y\n\n[lift]\n"


def test_lift_settles_a_chain_of_references():
    spec = parse_spec_text(
        LIFT_HEAD + "parent_f = a b\nparent_g = c\nc = a*b\na = b^-1*x*y\nb = y\n"
    )
    images = {label: str(image) for label, image in spec.lift.substitution.items()}
    assert images == {"a": "x", "b": "y", "c": "x*y"}
    assert spec.lift.twist_vectors == ((-1, -1, 1),)


def test_lift_twists_come_in_assignment_order():
    spec = parse_spec_text(
        LIFT_HEAD + "parent_f = a b\nparent_g = c d\nd = c^2\nc = a*b\na = x\nb = y\n"
    )
    assert str(spec.lift.substitution["d"]) == "x^2*y^2"
    # d is assigned first and settles last
    assert spec.lift.twist_vectors == ((0, 0, -2, 1), (-1, -1, 1, 0))


def test_lift_parent_polynomials():
    lift = parse_spec_text(GROSS_TEXT).lift
    assert str(lift.parent.f) == "1 + b + a"
    assert str(lift.parent.g) == "1 + d + c"
    assert lift.parent.f_vars == ("a", "b")
    assert lift.parent.g_vars == ("c", "d")


def test_boundary_vector_difference():
    spec = parse_spec_text(
        "[code]\nvariables = x y\nf = 1 + x\n\n[boundary]\nx^3 = y\n"
    )
    assert spec.boundary == ((3, -1),)


def test_classical_spec():
    spec = parse_spec_text("[code]\nvariables = x y\nf = 1 + x + y\n")
    assert spec.is_classical
    assert spec.g is None
    assert spec.classical_generator() == parse_poly("1 + x + y", spec.context)
    with pytest.raises(SpecError, match="not a two-block"):
        spec.two_block()
    zero = parse_spec_text("[code]\nvariables = x y\nf = x + x\n")
    with pytest.raises(CodeError, match="^classical generator must be nonzero$"):
        zero.classical_generator()


def test_two_block_accessors():
    spec = parse_spec_text(GROSS_TEXT)
    code = spec.two_block()
    assert code.f == spec.f
    with pytest.raises(SpecError, match="not a classical"):
        spec.classical_generator()


def test_presentation_none_without_boundary():
    spec = parse_spec_text("[code]\nvariables = x\nf = 1 + x\n")
    assert spec.presentation() is None
    torus = parse_spec_text("[code]\nvariables = x\nf = 1 + x\n\n[boundary]\nx^5 = 1\n")
    pres = torus.presentation()
    assert pres is not None and quotient(pres).order == 5


def test_mixed_right_hand_side_gives_no_twist():
    spec = parse_spec_text(
        "[code]\nvariables = x y\nf = 1 + x\ng = 1 + y\n\n"
        "[lift]\nparent_f = a b\nparent_g = c\na = x\nb = x*a\nc = y\n"
    )
    lift = spec.lift
    assert lift.substitution["b"] == parse_poly("x^2", spec.context)
    assert lift.twist_vectors == ()


# -- error reporting -------------------------------------------------------


def _expect_error(text: str, fragment: str):
    with pytest.raises(SpecError, match=fragment):
        parse_spec_text(text)


def test_malformed_polynomial_reports_line():
    text = "[code]\nvariables = x\nf = 1 ++ x\n"
    with pytest.raises(SpecError, match=r"<string>:3"):
        parse_spec_text(text)


def test_error_messages_carry_positions():
    _expect_error("[nope]\n", r":1: unknown section")
    _expect_error("[code]\nvariables = x\nf = 1\n[code]\n", r":4: duplicate section")
    _expect_error("variables = x\n", r":1: content before any section")
    _expect_error("[meta]\nname = a\n", r"missing required section \[code\]")
    _expect_error("[code]\nf = 1 + x\n", r"must declare variables")
    _expect_error("[code]\nvariables = x\n", r"must declare f")
    _expect_error("[code]\nvariables = x\nbogus = 1\n", r":3: unknown key 'bogus'")
    _expect_error("[code]\nvariables = x\nf = 1\nf = x\n", r":4: duplicate key 'f'")
    _expect_error("[code]\nvariables = x x\nf = 1\n", r":2")
    _expect_error("[code]\nvariables =\nf = 1\n", r"variables list is empty")
    _expect_error("[code]\nvariables = x\nf\n", r":3: expected 'key = value', got 'f'")


def test_boundary_errors():
    head = "[code]\nvariables = x y\nf = 1 + x\n\n[boundary]\n"
    _expect_error(head + "x + y = 1\n", r":6: .*not a single monomial")
    _expect_error(head + "x = x\n", r":6: .*trivial")
    _expect_error(head + "x^2\n", r":6: boundary line must be")


def test_lift_errors():
    head = "[code]\nvariables = x y\nf = 1 + x\ng = 1 + y\n\n[lift]\n"
    _expect_error(
        "[code]\nvariables = x\nf = 1 + x\n\n[lift]\nparent_f = a\nparent_g = b\na = x\nb = x\n",
        r"requires a two-block code",
    )
    _expect_error(head + "a = x\n", r"must declare parent_f and parent_g")
    _expect_error(
        head + "parent_f = a\nparent_f = b\nparent_g = c\n", r":8: duplicate parent_f"
    )
    _expect_error(
        head + "parent_f = a\nparent_g = b\nparent_g = c\n", r":9: duplicate parent_g"
    )
    _expect_error(
        head + "parent_f = a x\nparent_g = c\na = x\nx = y\nc = y\n",
        r"shadow child variables",
    )
    _expect_error(
        head + "parent_f = a a\nparent_g = c\na = x\nc = y\n", r"repeat across"
    )
    _expect_error(
        head + "parent_f = a\nparent_g = c\na = x\nc = y\nq = x\n",
        r"undeclared parent variable 'q'",
    )
    _expect_error(
        head + "parent_f = a\nparent_g = c\na = x\na = y\nc = y\n",
        r"assigned more than once",
    )
    _expect_error(head + "parent_f = a\nparent_g = c\na = x\n", r"never assigned")
    _expect_error(
        head + "parent_f = a b\nparent_g = c\na = b\nb = a\nc = y\n", r"circular"
    )
    # a label that depends on a cycle is held back with it
    _expect_error(
        head + "parent_f = a b\nparent_g = c d\na = x\nb = c*d\nc = d\nd = c\n",
        r"circular parent-variable assignments: \['b', 'c', 'd'\]$",
    )
    _expect_error(
        head + "parent_f = a\nparent_g = c\na = 1 + x\nc = y\n",
        r"not a single monomial",
    )


# -- fixtures --------------------------------------------------------------


def test_fixture_inventory():
    names = fixture_names()
    assert set(FAMILY_TABLE_ROWS) <= set(names)
    for extra in ("toric", "ising", "newman_moore", "decomposable_example"):
        assert extra in names


def test_unknown_fixture():
    with pytest.raises(FileNotFoundError, match="no bundled code"):
        fixture_path("does_not_exist")


@pytest.mark.parametrize("name", FAMILY_TABLE_ROWS)
def test_fixture_lift_reproduces_child(name):
    spec = load_fixture(name)
    lift = spec.lift
    child = compactify(lift.parent, lift.substitution, lift.twist_vectors)
    assert child.normalized() == spec.two_block().normalized()
    # twisted relations exist exactly when the parent has more variables
    # than the substitution image needs
    labels = lift.parent.f_vars + lift.parent.g_vars
    assert len(lift.twist_vectors) == len(labels) - spec.context.dim


def test_parse_spec_file_uses_filename_in_errors(tmp_path):
    bad = tmp_path / "broken.code"
    bad.write_text("[code]\nvariables = x\nf = 1 ++ x\n", encoding="utf-8")
    with pytest.raises(SpecError, match=r"broken\.code:3"):
        parse_spec_file(bad)
