import math
import sys

import numpy as np
import pytest

from mtcontrol.expr import (MAX_TOKENS, BinOp, Call, ExprDomainError, ExprError,
                            Neg, Num, Var, differentiate, parse)
from mtcontrol.system import MatrixFunction


def test_parse_exp_neg_product():
    e = parse("exp(-2*t1)", 1)
    assert isinstance(e, Call) and e.name == "exp"
    assert e(np.array([0.0])) == 1.0


def test_parse_unknown_variable_out_of_range():
    with pytest.raises(ExprError):
        parse("t1 + t2*t2", 1)


def test_constant_power_folds():
    e = parse("3^2", 1)
    assert isinstance(e, Num)
    assert e(np.array([0.0])) == 9.0


def test_precedence_and_associativity():
    t = np.array([2.0])
    assert parse("2+3*4", 1)((t)) == 14.0
    assert parse("2*3^2", 1)((t)) == 18.0
    assert parse("-t1^2", 1)((t)) == -4.0
    assert parse("8-3-2", 1)((t)) == 3.0
    assert parse("8/4/2", 1)((t)) == 1.0
    assert parse("(2+3)*4", 1)((t)) == 20.0


def test_parse_error_reports_position():
    with pytest.raises(ExprError) as exc:
        parse("t1 + $", 2)
    assert exc.value.position == 5


def test_parse_rejects_fractional_exponent():
    with pytest.raises(ExprError):
        parse("t1^0.5", 1)
    with pytest.raises(ExprError):
        parse("t1^(-1)", 1)


def test_parse_empty():
    with pytest.raises(ExprError):
        parse("   ", 1)


def test_parse_unknown_identifier():
    with pytest.raises(ExprError):
        parse("tan(t1)", 1)


def test_eval_product():
    assert parse("t1*t2", 2)((2, 3)) == 6.0


def test_eval_exponential():
    value = parse("exp(-2*t1)", 2)((1, 0))
    assert value == pytest.approx(math.exp(-2), rel=1e-12)


def test_eval_division_by_zero():
    with pytest.raises(ExprDomainError):
        parse("1/t1", 2)((0, 1))


def test_eval_log_of_nonpositive():
    with pytest.raises(ExprDomainError):
        parse("log(t1)", 1)((-1,))
    with pytest.raises(ExprDomainError):
        parse("log(t1)", 1)((0,))


def test_eval_overflow_is_domain_error():
    with pytest.raises(ExprDomainError):
        parse("exp(t1)", 1)((1e6,))


def test_derivative_of_square():
    d = differentiate(parse("t1*t1", 1), 1)
    for x in (0.0, 1.5, -2.0):
        assert d((x,)) == pytest.approx(2 * x, abs=1e-14)


def test_derivative_wrt_absent_variable():
    d = differentiate(parse("exp(t1)", 2), 2)
    assert d((1.0, 2.0)) == 0.0


def test_derivative_of_sin_product():
    d = differentiate(parse("sin(t1*t2)", 2), 1)
    assert d((1.0, 2.0)) == pytest.approx(2 * math.cos(2), rel=1e-12)


def test_derivative_chain_rules():
    cases = [
        ("exp(3*t1)", lambda x: 3 * math.exp(3 * x)),
        ("cos(t1)", lambda x: -math.sin(x)),
        ("log(t1)", lambda x: 1 / x),
        ("t1^3", lambda x: 3 * x * x),
        ("1/t1", lambda x: -1 / (x * x)),
    ]
    for text, truth in cases:
        d = differentiate(parse(text, 1), 1)
        for x in (0.5, 1.0, 2.5):
            assert d((x,)) == pytest.approx(truth(x), rel=1e-12)


def _random_expr(rng, m, depth):
    """Random expression tree avoiding singularities on [-1, 1]^m."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(rng.uniform(-2, 2)))
        return Var(int(rng.integers(1, m + 1)))
    choice = rng.integers(0, 6)
    a = _random_expr(rng, m, depth - 1)
    b = _random_expr(rng, m, depth - 1)
    from mtcontrol.expr import BinOp, Pow
    if choice == 0:
        return BinOp("+", a, b)
    if choice == 1:
        return BinOp("-", a, b)
    if choice == 2:
        return BinOp("*", a, b)
    if choice == 3:
        return Pow(a, int(rng.integers(0, 4)))
    if choice == 4:
        return Call("sin", a)
    return Call("cos", a)


def _central_difference(e, t, alpha, h=1e-6):
    tp = t.copy()
    tm = t.copy()
    tp[alpha - 1] += h
    tm[alpha - 1] -= h
    return (e(tp) - e(tm)) / (2 * h)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        m = int(rng.integers(1, 4))
        e = _random_expr(rng, m, depth=4)
        alpha = int(rng.integers(1, m + 1))
        d = differentiate(e, alpha)
        t = rng.uniform(-1, 1, size=m)
        exact = d(t)
        approx = _central_difference(e, t, alpha)
        scale = max(1.0, abs(exact))
        assert abs(exact - approx) <= 1e-6 * scale, str(e)
        checked += 1


def test_print_parse_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        e = _random_expr(rng, m, depth=4)
        reparsed = parse(str(e), m)
        for _ in range(5):
            t = rng.uniform(-1, 1, size=m)
            assert reparsed(t) == pytest.approx(e(t), abs=1e-14, rel=1e-14)


def test_negative_literal_prints_reparseable():
    e = Neg(Num(2.0))
    assert parse(str(e), 1)((0.0,)) == -2.0


def _pad(size: int) -> str:
    """A leading minus, one token, when `size` is even."""
    return "-" * (size % 2 == 0)


# Expressions of exactly `size` tokens.
SIZED = {
    "quotients": lambda size: _pad(size) + "/".join(["t1"] * ((size + 1) // 2)),
    "sum": lambda size: _pad(size) + "+".join(["t1"] * ((size + 1) // 2)),
    "parentheses": lambda size: (_pad(size) + "(" * ((size - 1) // 2) + "t1"
                                 + ")" * ((size - 1) // 2)),
    "minus": lambda size: "-" * (size - 1) + "t1",
}


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", SIZED)
def test_size_limit_is_a_named_error(shape):
    with pytest.raises(ExprError, match=f"more than {MAX_TOKENS} tokens"):
        parse(SIZED[shape](MAX_TOKENS + 1), 1)
    # the largest accepted expression parses, evaluates, differentiates and
    # prints, derivative included, within 650 of the default 1000 levels
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 650)
    try:
        e = parse(SIZED[shape](MAX_TOKENS), 1)
        d = differentiate(e, 1)
        points = np.full((3, 1), 0.5)
        assert np.all(np.isfinite(e.eval(points))) and np.all(np.isfinite(d.eval(points)))
        assert str(e) and str(d)
        # MatrixFunction takes the largest parsed tree as it is
        f = MatrixFunction([[e]], 1)
        assert len(f._varying) == 1 and f._varying[0][2] is e
        assert f(points)[:, 0, 0].tobytes() == e.eval(points).tobytes()
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("leaves", [MAX_TOKENS // 2 + 1, 2001])
def test_matrix_function_refuses_an_oversized_tree(leaves):
    # a left-associative sum of `leaves` variables: 2 * leaves - 1 nodes
    e = Var(1)
    for _ in range(leaves - 1):
        e = BinOp("+", e, Var(1))
    with pytest.raises(ExprError, match=f"more than {MAX_TOKENS} nodes"):
        MatrixFunction([[e]], 1)
