"""A tiny expression language for scalar functions of t1..tm.

Supports literals, variables t1..tm, the binary operators + - * / ^
(^ only with a literal non-negative integer exponent), unary minus and
the functions exp, sin, cos, log.  Expressions differentiate exactly;
derivatives come back as folded but otherwise unsimplified trees, so
equality of expressions is always tested by evaluation, never
syntactically.
Two constants fold under +, -, * and / by a nonzero one in Python floats
(IEEE binary64, the bits numpy gives); a power, a call and / 0 fold through
`eval`.  A matrix differentiates only the entries whose `variables` include
the axis: every other derivative entry is an exact zero (see `system`).

One operator table, `_ARITHMETIC`, serves both the fold and `BinOp`'s
evaluation.  One iterative walk, `_nodes`, is the only reader of what a
tree holds: `variables`, `Expr.is_constant` (no variables) and
`check_tree` read it.  A ready-made tree given to a matrix must be one
`parse` could have built over t1..tm: at most MAX_TOKENS nodes of the six
node classes, float constants, variables in range, the four operators,
the four functions and non-negative int exponents; `check_tree` names
anything else as an ExprError.

Evaluation is batched: `Expr.eval` takes a (P, m) array of multitime
points and walks the tree once, with one numpy operation per node over
all P points.  Calling an expression on a single point is the P = 1 case
of the same pass.  A singularity at any point of the batch (division by
zero, log of a non-positive value, overflow of exp) raises
ExprDomainError naming the offending value.

Grammar (precedence low to high, left-associative):

    sum     := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' integer)?
    atom    := number | variable | func '(' sum ')' | '(' sum ')'
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ExprError", "ExprDomainError", "parse", "differentiate"]

# `parse` refuses longer expressions, and `check_tree` trees of more nodes (a
# parsed tree has at most one node per token): printing the derivative of a
# chain of quotients this long, the deepest recursion here, takes < 600 of
# 1000 levels.
MAX_TOKENS = 128

_FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "log": np.log,
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


class ExprError(ValueError):
    """Syntax or validation error, with a character position when parsing."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ExprDomainError(ArithmeticError):
    """Evaluation hit a singularity (division by zero, log of x <= 0, overflow)."""


class Expr:
    """Base class for AST nodes."""

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values at a (P, m) batch of points, as a (P,) array.

        Raises ExprDomainError when any point hits a singularity; values
        that merely overflow to inf or nan are returned as they are.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._eval(points)

    def _eval(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diff(self, alpha: int) -> "Expr":
        raise NotImplementedError

    def is_constant(self) -> bool:
        return not variables(self)

    def __call__(self, t) -> float:
        """Value at one point t of shape (m,): the P = 1 case of `eval`."""
        value = float(self.eval(np.asarray(t, dtype=float).reshape(1, -1))[0])
        if not math.isfinite(value):
            raise ExprDomainError(f"expression evaluated to {value}")
        return value

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def _eval(self, points):
        return np.full(len(points), self.value)

    def diff(self, alpha):
        return Num(0.0)

    def __str__(self):
        if self.value < 0:
            return f"({self.value!r})"
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based: t1, t2, ...

    def _eval(self, points):
        return points[:, self.index - 1]

    def diff(self, alpha):
        return Num(1.0 if alpha == self.index else 0.0)

    def __str__(self):
        return f"t{self.index}"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def _eval(self, points):
        return -self.arg._eval(points)

    def diff(self, alpha):
        return _neg(self.arg.diff(alpha))

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # a key of _ARITHMETIC: + - * /
    left: Expr
    right: Expr

    def _eval(self, points):
        a = self.left._eval(points)
        b = self.right._eval(points)
        if self.op == "/" and np.any(b == 0.0):
            raise ExprDomainError(f"division by zero in {self}")
        return _ARITHMETIC[self.op](a, b)

    def diff(self, alpha):
        da = self.left.diff(alpha)
        db = self.right.diff(alpha)
        if self.op in "+-":
            return _binop(self.op, da, db)
        if self.op == "*":
            return _binop("+", _binop("*", da, self.right), _binop("*", self.left, db))
        # (u/v)' = (u'v - uv') / v^2
        num = _binop("-", _binop("*", da, self.right), _binop("*", self.left, db))
        return _binop("/", num, _binop("*", self.right, self.right))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int  # non-negative integer literal, keeps differentiation total

    def _eval(self, points):
        return self.base._eval(points) ** self.exponent

    def diff(self, alpha):
        if self.exponent == 0:
            return Num(0.0)
        inner = self.base.diff(alpha)
        if self.exponent == 1:
            return inner
        return _binop(
            "*",
            _binop("*", Num(float(self.exponent)), Pow(self.base, self.exponent - 1)),
            inner,
        )

    def __str__(self):
        return f"({self.base} ^ {self.exponent})"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr

    def _eval(self, points):
        x = self.arg._eval(points)
        if self.name == "log" and np.any(x <= 0.0):
            raise ExprDomainError(f"log of non-positive value {float(x[x <= 0.0][0])}")
        y = _FUNCTIONS[self.name](x)
        if self.name == "exp":
            overflow = np.isinf(y) & np.isfinite(x)
            if np.any(overflow):
                raise ExprDomainError(f"overflow in exp({float(x[overflow][0])})")
        return y

    def diff(self, alpha):
        inner = self.arg.diff(alpha)
        if self.name == "exp":
            outer: Expr = Call("exp", self.arg)
        elif self.name == "sin":
            outer = Call("cos", self.arg)
        elif self.name == "cos":
            outer = _neg(Call("sin", self.arg))
        else:  # log
            return _binop("/", inner, self.arg)
        return _binop("*", outer, inner)

    def __str__(self):
        return f"{self.name}({self.arg})"


# The fields of each node class that hold its operands.
_OPERANDS = {Num: (), Var: (), Neg: ("arg",), BinOp: ("left", "right"),
             Pow: ("base",), Call: ("arg",)}


def _fold(e: Expr) -> Num:
    """The constant node with the value of a variable-free expression: +, -,
    * of two constants, or / by a nonzero one, in Python float arithmetic,
    and any other node (a power, a call, a division by zero) by `eval`."""
    if (isinstance(e, BinOp) and isinstance(e.left, Num) and isinstance(e.right, Num)
            and (e.op != "/" or e.right.value != 0.0)):
        return Num(_ARITHMETIC[e.op](float(e.left.value), float(e.right.value)))
    return Num(float(e.eval(np.empty((1, 0)))[0]))


def _const_value(e: Expr) -> float | None:
    if isinstance(e, Num):
        return e.value
    return None


def _neg(e: Expr) -> Expr:
    v = _const_value(e)
    if v is not None:
        return Num(-v)
    return Neg(e)


def _binop(op: str, a: Expr, b: Expr) -> Expr:
    """Build a binary node with constant folding of the easy cases."""
    va, vb = _const_value(a), _const_value(b)
    if va is not None and vb is not None:
        return _fold(BinOp(op, a, b))
    if op == "+":
        if va == 0.0:
            return b
        if vb == 0.0:
            return a
    elif op == "-":
        if vb == 0.0:
            return a
        if va == 0.0:
            return _neg(b)
    elif op == "*":
        if va == 0.0 or vb == 0.0:
            return Num(0.0)
        if va == 1.0:
            return b
        if vb == 1.0:
            return a
    elif op == "/":
        if va == 0.0 and vb != 0.0:
            return Num(0.0)
        if vb == 1.0:
            return a
    return BinOp(op, a, b)


# --- parser ---------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _TOKEN_CHARS:
            tokens.append(("op", c, i))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprError(f"malformed number {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ExprError(f"unexpected character {c!r}", i)
    if len(tokens) > MAX_TOKENS:
        raise ExprError(f"expression has more than {MAX_TOKENS} tokens",
                        tokens[MAX_TOKENS][2])
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, position = self.advance()
        if kind != "op" or value != symbol:
            raise ExprError(f"expected {symbol!r}", position)

    def parse(self) -> Expr:
        e = self.sum()
        kind, value, position = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected token {value!r}", position)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                e = _binop(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                e = _binop(value, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return _neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, position = self.advance()
            if kind != "num" or value != int(value) or value < 0:
                raise ExprError("exponent must be a non-negative integer literal",
                                position)
            if isinstance(base, Num):
                return _fold(Pow(base, int(value)))
            return Pow(base, int(value))
        return base

    def atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                if isinstance(arg, Num):
                    return _fold(Call(value, arg))
                return Call(value, arg)
            if value.startswith("t") and value[1:].isdigit():
                index = int(value[1:])
                if not 1 <= index <= self.m:
                    raise ExprError(
                        f"variable {value} out of range for dimension m={self.m}",
                        position)
                return Var(index)
            raise ExprError(f"unknown identifier {value!r}", position)
        if kind == "op" and value == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ExprError(f"unexpected token {value!r}", position)


def parse(text: str, m: int) -> Expr:
    """Parse `text` into an expression over variables t1..tm."""
    if not isinstance(text, str) or not text.strip():
        raise ExprError("empty expression")
    return _Parser(text, m).parse()


def _nodes(e: Expr):
    """Every node of `e`, parent before operands, by an iterative walk: a
    recursive one would overflow the stack on the deep trees `check_tree`
    refuses.  The only reader of what a tree holds; an operand that is not
    a node is yielded as it is, for `check_tree` to name."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        for name in _OPERANDS.get(type(node), ()):
            stack.append(getattr(node, name))


def check_tree(e: Expr, m: int) -> None:
    """Raise ExprError, naming the first fault, unless `e` is a tree `parse`
    could have built over t1..tm; the walk stops past MAX_TOKENS nodes."""
    for count, node in enumerate(_nodes(e), 1):
        if count > MAX_TOKENS:
            raise ExprError(f"expression has more than {MAX_TOKENS} nodes")
        kind = type(node)
        if kind not in _OPERANDS:
            raise ExprError(f"not an expression node: {node!r}")
        if kind is Num and not isinstance(node.value, float):
            raise ExprError(f"constant must be a float, got {node.value!r}")
        if kind is Var and not (type(node.index) is int and 1 <= node.index <= m):
            raise ExprError(f"variable t{node.index} out of range for dimension m={m}")
        if kind is BinOp and not (isinstance(node.op, str) and node.op in _ARITHMETIC):
            raise ExprError(f"unknown operator {node.op!r}")
        if kind is Pow and not (type(node.exponent) is int and node.exponent >= 0):
            raise ExprError("exponent must be a non-negative integer literal")
        if kind is Call and not (isinstance(node.name, str) and node.name in _FUNCTIONS):
            raise ExprError(f"unknown identifier {node.name!r}")


def variables(e: Expr) -> frozenset[int]:
    """The indices alpha of the t^alpha that `e` mentions."""
    return frozenset(node.index for node in _nodes(e) if isinstance(node, Var))


def differentiate(e: Expr, alpha: int) -> Expr:
    """Exact partial derivative with respect to t^alpha (1-based)."""
    if alpha < 1:
        raise ValueError(f"axis index must be >= 1, got {alpha}")
    return e.diff(alpha)
