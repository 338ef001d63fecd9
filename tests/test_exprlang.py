import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradetwo.exprlang import (
    Bin,
    Call,
    DomainError,
    ExprSyntaxError,
    Num,
    Unary,
    Var,
    evaluate,
    parse,
)


def test_basic_eval():
    assert evaluate(parse("sin(pi*x)*y"), 0.5, 2.0) == pytest.approx(2.0)
    assert evaluate(parse("exp(0)"), 0, 0) == 1.0
    assert evaluate(parse("1 + 2*3"), 0, 0) == 7.0
    assert evaluate(parse("abs(-3) + sqrt(4)"), 0, 0) == 5.0


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0, 0) == 512.0
    assert evaluate(parse("(2^3)^2"), 0, 0) == 64.0
    assert evaluate(parse("2^-2"), 0, 0) == 0.25


def test_unary_minus_binds_below_power():
    # the declared precedence makes -x^2 parse as -(x^2)
    assert evaluate(parse("-2^2"), 0, 0) == -4.0
    assert evaluate(parse("(-2)^2"), 0, 0) == 4.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y")
    assert err.value.offset == 4
    assert len(err.value.expected) > 0


def test_syntax_error_cases():
    for text in ("", "sin", "sin(", "(1+2", "1 2", "x y", "foo(3)", "1..2"):
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0, 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -1.0, 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)"), 1e9, 0.0)  # overflow to non-finite


def test_commutator_is_zero():
    expr = parse("x*y - y*x")
    for x, y in [(0.1, 3.4), (-2.0, 5.5), (7.0, -0.25)]:
        assert evaluate(expr, x, y) == 0.0


# -- random AST machinery ------------------------------------------------------

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_source(expr, parent=0):
    """Source text of ``expr`` with the fewest parentheses the grammar
    needs (levels: + - 1, * / 2, unary minus 3, ^ 4, atoms 5)."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({to_source(expr.arg)})"
    if isinstance(expr, Unary):
        level, text = 3, "-" + to_source(expr.arg, 3)
    elif expr.op == "^":
        # right-associative; the right operand may be a unary minus
        level = 4
        text = f"{to_source(expr.left, 5)}^{to_source(expr.right, 3)}"
    else:
        # left-associative: the right operand must bind strictly tighter
        level = _LEVEL[expr.op]
        text = (f"{to_source(expr.left, level)}{expr.op}"
                f"{to_source(expr.right, level + 1)}")
    return f"({text})" if level < parent else text


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False).map(
        lambda v: Num(round(v, 3))),
    st.sampled_from([Var("x"), Var("y"), Var("pi")]),
)


def _expr_strategy():
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: Bin(t[0], t[1], t[2])),
            children.map(lambda e: Unary("-", e)),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                      children).map(lambda t: Call(t[0], t[1])),
        ),
        max_leaves=25,
    )


@given(_expr_strategy())
@settings(max_examples=300, deadline=None)
def test_print_parse_roundtrip(expr):
    assert parse(to_source(expr)) == expr


@given(_expr_strategy(),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_eval_matches_reference(expr, x, y):
    """Differential oracle: evaluate the printed source through Python's
    own parser/eval over the math module and compare."""
    source = to_source(expr).replace("^", "**")

    def real_abs(v):
        if isinstance(v, complex):
            raise TypeError("complex left the real domain")
        return abs(v)

    namespace = {"x": x, "y": y, "pi": math.pi, "sin": math.sin,
                 "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt,
                 "abs": real_abs}
    try:
        mine = evaluate(expr, x, y)
    except DomainError:
        # the reference must leave the finite reals too (python's ** goes
        # complex where the real-only language reports a domain error)
        try:
            ref = eval(source, {"__builtins__": {}}, namespace)
        except (ZeroDivisionError, ValueError, OverflowError, TypeError):
            return
        assert isinstance(ref, complex) or not math.isfinite(ref)
        return
    ref = eval(source, {"__builtins__": {}}, namespace)
    assert mine == pytest.approx(ref, rel=1e-14, abs=1e-300)


_coords = st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                   min_size=6, max_size=6)


@given(_expr_strategy(), _coords, _coords)
@settings(max_examples=300, deadline=None)
def test_array_eval_matches_per_point(expr, xs, ys):
    """One array evaluation raises iff some point does, and otherwise
    equals the per-point evaluations bit for bit."""
    x = np.array(xs).reshape(2, 3)
    y = np.array(ys).reshape(2, 3)
    per_point = []
    for a, b in zip(xs, ys):
        try:
            per_point.append(evaluate(expr, a, b))
        except DomainError:
            per_point = None
            break
    if per_point is None:
        with pytest.raises(DomainError):
            evaluate(expr, x, y)
        return
    out = evaluate(expr, x, y)
    assert out.shape == (2, 3)
    assert out.tobytes() == np.array(per_point).reshape(2, 3).tobytes()


@pytest.mark.parametrize("text, bad_x", [
    ("1/x", 0.0), ("sqrt(x)", -1.0), ("exp(x)", 1e9), ("sin(exp(x))", 800.0),
    ("x^0.5", -2.0),
    # the product overflows to inf only at the bad point, where sin(inf)
    # raises although nan^0 would be a finite 1
    ("sin((x-0.5)*(x-1.5)*(x-2.5)*1e300*1e300)^0", 4.0),
])
def test_one_bad_point_in_an_array_raises(text, bad_x):
    x = np.array([0.5, 1.5, bad_x, 2.5])
    evaluate(parse(text), x[[0, 1, 3]], x[[0, 1, 3]])
    with pytest.raises(DomainError):
        evaluate(parse(text), x, np.zeros_like(x))


@given(st.text(max_size=60))
@settings(max_examples=500, deadline=None)
def test_parser_never_crashes(text):
    try:
        parse(text)
    except ExprSyntaxError:
        pass
