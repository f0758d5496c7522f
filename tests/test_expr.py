import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcontrol.expr import (MAX_TOKENS, BinOp, Call, Expr, ExprDomainError,
                            ExprError, Neg, Num, Pow, Var, _fold, differentiate,
                            parse, variables)
from mtcontrol.system import LinearSystem, MatrixFunction


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


@pytest.mark.parametrize("entry, value", [
    (Neg(Num(1.0)), -1.0),
    (BinOp("+", Num(1.0), Num(2.0)), 3.0),
    (BinOp("*", Neg(Num(2.0)), BinOp("-", Num(1.0), Call("exp", Num(0.0)))), -0.0),
], ids=["neg", "binop", "nested"])
def test_hand_built_variable_free_tree_is_a_constant_entry(entry, value):
    # no domain box: a time-varying system would be refused without one
    system = LinearSystem.from_data(1, 1, 1, [[[entry]]], [[[1]]])
    assert entry.is_constant() and system.is_constant
    assert system.M[0]((0.0,)).tobytes() == np.array([[value]]).tobytes()


def test_hand_built_constant_singularity_raises_when_the_matrix_is_built():
    with pytest.raises(ExprDomainError, match="division by zero"):
        parse("1/0", 1)
    with pytest.raises(ExprDomainError, match="division by zero"):
        MatrixFunction([[BinOp("/", Num(1.0), Num(0.0))]], 1)


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


# Operands at the edges of binary64: signed zeros, the extreme subnormals and
# normals, values whose products and sums overflow, infinities (inf - inf is
# nan) and nan itself.
FOLD_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5,
              1.7976931348623157e308, -1.7976931348623157e308, 1e200, 1e-200,
              math.inf, -math.inf, math.nan]


# Independent of `_ARITHMETIC`, which both the fold and the evaluation read.
NUMPY_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply,
                    "/": np.true_divide}


# 300 examples, about 0.4 s on a shared 2-vCPU host
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from("+-*/"),
       st.sampled_from(FOLD_EDGES) | st.floats(),
       st.sampled_from(FOLD_EDGES) | st.floats(-1e-300, 1e-300) | st.floats())
def test_folded_arithmetic_is_the_numpy_evaluation_bit_for_bit(op, a, b):
    # a fold of two constants in Python floats and the batched evaluation of
    # the same node give the bits of numpy's ufunc on float64 operands; / 0
    # raises in both
    node = BinOp(op, Num(a), Num(b))
    if op == "/" and b == 0.0:
        for evaluate in (_fold, lambda e: e.eval(np.empty((1, 0)))):
            with pytest.raises(ExprDomainError, match="division by zero"):
                evaluate(node)
        return
    with np.errstate(all="ignore"):
        reference = NUMPY_ARITHMETIC[op](np.float64(a), np.float64(b)).tobytes()
    folded = _fold(node).value
    assert type(folded) is float
    assert np.float64(folded).tobytes() == reference
    assert node.eval(np.empty((1, 0))).tobytes() == reference


@pytest.mark.parametrize("entry, m, message", [
    (Var(0), 2, "variable t0 out of range for dimension m=2"),
    (Var(3), 2, "variable t3 out of range for dimension m=2"),
    (BinOp("%", Var(1), Num(2.0)), 1, "unknown operator '%'"),
    (BinOp("**", Var(1), Num(2.0)), 1, "unknown operator '**'"),
    (Pow(Num(2), 70), 1, "constant must be a float, got 2"),
    (BinOp("*", Var(1), Num(True)), 1, "constant must be a float, got True"),
    (Call("tan", Var(1)), 1, "unknown identifier 'tan'"),
    (BinOp("+", Var(1), 2), 1, "not an expression node: 2"),
    (Neg(Expr()), 1, "not an expression node: <mtcontrol.expr.Expr object"),
    (Pow(Var(1), -1), 1, "exponent must be a non-negative integer literal"),
    (Pow(Var(1), 2.5), 1, "exponent must be a non-negative integer literal"),
], ids=["t0", "t3", "modulo", "power_op", "int_constant", "bool_constant", "tan",
        "int_operand", "base_node", "negative_exponent", "float_exponent"])
def test_a_tree_parse_could_not_build_is_a_named_error(entry, m, message):
    with pytest.raises(ExprError) as exc:
        MatrixFunction([[entry]], m)
    assert str(exc.value).startswith(message)


@st.composite
def ready_made_trees(draw):
    """(m, a tree over t1..tm, 2 points): a stack machine builds the tree
    from at most 64 drawn tokens, so it has at most 128 nodes, and two
    constants it joins, as in (t1 * (1.0 + 1.0)), stay unfolded."""
    m = draw(st.integers(1, 3))
    numbers = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-2, 2)
    stack, size = [], draw(st.integers(1, 64))
    for token in draw(st.lists(st.sampled_from(
            ["num", "var", "neg", "pow", "call", "binop", "binop"]),
            min_size=size, max_size=size)):
        if token == "num":
            stack.append(Num(draw(numbers)))
        elif token == "var":
            stack.append(Var(draw(st.integers(1, m))))
        elif token == "binop" and len(stack) >= 2:
            right, left = stack.pop(), stack.pop()
            stack.append(BinOp(draw(st.sampled_from("+-*/")), left, right))
        elif token == "neg" and stack:
            stack.append(Neg(stack.pop()))
        elif token == "pow" and stack:
            stack.append(Pow(stack.pop(), draw(st.integers(0, 3))))
        elif token == "call" and stack:
            stack.append(Call(draw(st.sampled_from(["exp", "sin", "cos", "log"])),
                              stack.pop()))
    e = stack.pop() if stack else Num(draw(numbers))
    for operand in stack:
        e = BinOp("+", e, operand)
    points = draw(st.lists(st.floats(-2, 2), min_size=2 * m, max_size=2 * m))
    return m, e, np.array(points).reshape(2, m)


def _recursive_nodes(e: Expr) -> list:
    """Every node of `e`, by recursion on the node classes."""
    if isinstance(e, (Num, Var)):
        return [e]
    if isinstance(e, BinOp):
        return [e, *_recursive_nodes(e.left), *_recursive_nodes(e.right)]
    return [e, *_recursive_nodes(e.base if isinstance(e, Pow) else e.arg)]


def _values_or_raise(evaluate):
    """Bytes of the values `evaluate()` gives, or None when it raises or a
    value is not finite (a matrix refuses such an entry)."""
    try:
        values = evaluate()
    except (ExprDomainError, ValueError):
        return None
    return values.tobytes() if np.all(np.isfinite(values)) else None


# 100 examples, about 0.5 s on a shared 2-vCPU host
@settings(derandomize=True, max_examples=100, deadline=None)
@given(ready_made_trees())
def test_the_walk_reads_every_node_of_a_ready_made_tree(case):
    m, e, points = case
    nodes = _recursive_nodes(e)
    assert len(nodes) <= MAX_TOKENS
    axes = frozenset(node.index for node in nodes if isinstance(node, Var))
    assert variables(e) == axes and e.is_constant() == (not axes)
    want = _values_or_raise(lambda: e.eval(points))
    try:
        f = MatrixFunction([[e]], m)
    except (ExprDomainError, ValueError):  # a constant entry singular at build
        assert not axes and want is None
        return
    # constant exactly when it names no axis; a varying entry is kept as it is
    assert f.is_constant == (not axes)
    assert f._varying == ([] if not axes else [(0, 0, e, axes)])
    assert _values_or_raise(lambda: f(points)[:, 0, 0]) == want
    for beta in range(1, m + 1):
        if beta not in axes:  # skipped: an exact +0.0
            assert f.diff(beta)(points).tobytes() == bytes(8 * len(points))
            continue
        want = _values_or_raise(lambda: e.diff(beta).eval(points))
        assert _values_or_raise(lambda: f.diff(beta)(points)[:, 0, 0]) == want
