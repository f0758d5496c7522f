"""A tiny expression language for scalar functions of t1..tm.

Supports literals, variables t1..tm, the binary operators + - * / ^
(^ only with a literal non-negative integer exponent), unary minus and
the functions exp, sin, cos, log.  Expressions differentiate exactly;
derivatives come back as folded but otherwise unsimplified trees, so
equality of expressions is always tested by evaluation, never
syntactically.

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
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ExprError", "ExprDomainError", "parse", "differentiate"]

# `parse` refuses longer expressions, and `check_size` trees of more nodes (a
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
        return False

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

    def is_constant(self):
        return True

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
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def _eval(self, points):
        a = self.left._eval(points)
        b = self.right._eval(points)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if np.any(b == 0.0):
            raise ExprDomainError(f"division by zero in {self}")
        return a / b

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

    def is_constant(self):
        return self.base.is_constant()

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

    def is_constant(self):
        return self.arg.is_constant()

    def __str__(self):
        return f"{self.name}({self.arg})"


def _fold(e: Expr) -> Num:
    """The constant node with the value of a variable-free expression."""
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
            if base.is_constant():
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
                if arg.is_constant():
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


def check_size(e: Expr) -> None:
    """Raise ExprError when `e` has more than MAX_TOKENS nodes, the most a
    parsed expression can have.

    The walk is iterative and stops past the limit: a recursive count
    would overflow the stack on exactly the deep trees it refuses."""
    stack, count = [e], 0
    while stack:
        count += 1
        if count > MAX_TOKENS:
            raise ExprError(f"expression has more than {MAX_TOKENS} nodes")
        stack.extend(v for v in vars(stack.pop()).values() if isinstance(v, Expr))


def differentiate(e: Expr, alpha: int) -> Expr:
    """Exact partial derivative with respect to t^alpha (1-based)."""
    if alpha < 1:
        raise ValueError(f"axis index must be >= 1, got {alpha}")
    return e.diff(alpha)
