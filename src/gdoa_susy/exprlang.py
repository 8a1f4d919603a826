"""A tiny arithmetic language for structure and weight functions of n.

Grammar (whitespace insensitive, byte offsets reported on errors):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | primary
    primary := base ('^' uint)?
    base    := uint | 'n' | ident | '(' expr ')' | builtin '(' expr ')'

``n`` is the level variable, any other identifier is a named rational
parameter supplied at evaluation time.  Builtins: ``parity(e) = (-1)^e`` for
integer ``e``; ``sqrt(e)`` (float evaluation only); ``bracket(e)``, sugar that
expands at parse time to ``e + (kappa/2)*(1 - parity(e))`` and therefore
requires the parameter ``kappa`` to be bound.  Exponents are single unsigned
integer literals; unary minus binds looser than '^', so ``-n^2 == -(n^2)``.
Literals are unsigned integers; rationals are written ``3/2`` (division).
The source nests at most ``MAX_DEPTH`` parentheses, builtin calls and unary
minuses, and the parsed tree is at most ``MAX_DEPTH // 2`` levels deep, so the
evaluator and :func:`has_sqrt`, which recurse once per level, stay well within
the interpreter's recursion limit; deeper input, and literals too long for
``int``, are syntax errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .numerics import Backend


class ExprError(ValueError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failure (unbound parameter, domain error, zero division)."""


@dataclass(frozen=True, slots=True)
class Number:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Var:
    """The level variable n."""


@dataclass(frozen=True, slots=True)
class Param:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True, slots=True)
class Call:
    func: str  # 'parity' or 'sqrt'
    arg: "Expr"


Expr = Union[Number, Var, Param, Neg, BinOp, Pow, Call]

_BUILTINS = ("parity", "sqrt", "bracket")
_OPS = set("+-*/^()")
MAX_DEPTH = 100
# Bits in 4300 decimal digits, the interpreter's default int-to-str limit: an
# exact power with a longer numerator or denominator could not be printed.
MAX_POWER_BITS = int(4300 * math.log2(10))


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z" or ch == "_"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if _is_digit(ch):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if _is_letter(ch):
            j = i
            while j < n and (_is_letter(text[j]) or _is_digit(text[j])):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0  # open parentheses, builtin arguments and unary minuses

    def descend(self, token: _Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", token.pos)

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise ExprSyntaxError(f"expected {op!r}", token.pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tail.text!r}", tail.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            self.descend(token)
            node = Neg(self.factor())
            self.nesting -= 1
            return node
        return self.primary()

    def primary(self) -> Expr:
        node = self.base()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            exponent = self.peek()
            if exponent.kind != "num":
                raise ExprSyntaxError("exponent must be an unsigned integer literal", exponent.pos)
            self.advance()
            node = Pow(node, _integer(exponent))
        return node

    def base(self) -> Expr:
        token = self.advance()
        if token.kind == "num":
            return Number(Fraction(_integer(token)))
        if token.kind == "ident":
            follows_call = self.peek().kind == "op" and self.peek().text == "("
            if token.text == "n" and not follows_call:
                return Var()
            if follows_call:
                if token.text not in _BUILTINS:
                    raise ExprSyntaxError(f"unknown builtin {token.text!r}", token.pos)
                self.expect_op("(")
                self.descend(token)
                arg = self.expr()
                self.nesting -= 1
                self.expect_op(")")
                if token.text == "bracket":
                    return _expand_bracket(arg)
                return Call(token.text, arg)
            return Param(token.text)
        if token.kind == "op" and token.text == "(":
            self.descend(token)
            node = self.expr()
            self.nesting -= 1
            self.expect_op(")")
            return node
        if token.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", token.pos)
        raise ExprSyntaxError(f"unexpected token {token.text!r}", token.pos)


def _integer(token: _Token) -> int:
    try:
        return int(token.text)
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise ExprSyntaxError(f"integer literal of {len(token.text)} digits", token.pos) from exc


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _height(expr: Expr) -> int:
    """Levels of the tree, counted without recursion."""
    height, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in _children(node))
    return height


def _expand_bracket(arg: Expr) -> Expr:
    # bracket(e) = e + (kappa/2)*(1 - parity(e))
    half_kappa = BinOp("/", Param("kappa"), Number(Fraction(2)))
    step = BinOp("-", Number(Fraction(1)), Call("parity", arg))
    return BinOp("+", arg, BinOp("*", half_kappa, step))


def parse_expr(text: str) -> Expr:
    """Parse source text into an expression tree."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tree = _Parser(text).parse()
    if _height(tree) > MAX_DEPTH // 2:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH // 2} operations", 0)
    return tree


def eval_expr(
    expr: Expr,
    n: int,
    env: Mapping[str, Fraction] | None = None,
    backend: Backend = Backend.EXACT,
) -> Fraction | float:
    """Evaluate at level n with parameters bound from env.

    The exact backend computes in Fraction arithmetic and rejects sqrt and
    any power beyond ``MAX_POWER_BITS``; the float backend computes in
    doubles, where a literal or power beyond the double range raises
    :class:`ExprEvalError` (a product that overflows is inf, which no
    verification check passes).
    """
    bindings = env or {}
    exact = backend is Backend.EXACT

    def ev(node: Expr) -> Fraction | float:
        if isinstance(node, Number):
            return node.value if exact else float(node.value)
        if isinstance(node, Var):
            return Fraction(n) if exact else float(n)
        if isinstance(node, Param):
            if node.name not in bindings:
                raise ExprEvalError(f"unbound parameter {node.name!r}")
            value = Fraction(bindings[node.name])
            return value if exact else float(value)
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, BinOp):
            left, right = ev(node.left), ev(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if right == 0:
                raise ExprEvalError(f"division by zero at n={n}")
            return left / right
        if isinstance(node, Pow):
            base = ev(node.base)
            # a cheap upper bound on the bits of the power; only a power it
            # does not clear is measured exactly
            if exact and (
                base.numerator.bit_length() + base.denominator.bit_length()
            ) * node.exponent > MAX_POWER_BITS:
                _require_short_power(base, node.exponent, n)
            return base ** node.exponent
        if isinstance(node, Call):
            value = ev(node.arg)
            if node.func == "parity":
                if exact:
                    if value.denominator != 1:  # type: ignore[union-attr]
                        raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
                    k = int(value)
                else:
                    k = round(value)
                    if abs(value - k) > 1e-9:
                        raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
                result = -1 if k % 2 else 1
                return Fraction(result) if exact else float(result)
            if node.func == "sqrt":
                if exact:
                    raise ExprEvalError("sqrt requires the float backend")
                if value < 0:
                    raise ExprEvalError(f"sqrt of negative value {value} at n={n}")
                return math.sqrt(value)
            raise ExprEvalError(f"unknown builtin {node.func!r}")
        raise ExprEvalError(f"unknown node {node!r}")

    try:
        return ev(expr)
    except OverflowError as exc:  # float conversion or power beyond the double range
        raise ExprEvalError(f"float overflow at n={n}: {exc}") from exc


def printable(value: Fraction | float) -> str:
    """``str(value)``, or a placeholder beyond the int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return "(too many digits to print)"


def _require_short_power(base: Fraction, exponent: int, n: int) -> None:
    """Raise unless base**exponent has at most MAX_POWER_BITS bits in its
    numerator and denominator.

    A b-bit integer's power has (b - 1) * exponent + 1 to b * exponent bits, so
    the power is computed only when the lower bound clears the limit, and is
    then at most twice as long as the limit.
    """
    def bits(value: Fraction) -> int:
        return max(value.numerator.bit_length(), value.denominator.bit_length())

    if (bits(base) - 1) * exponent >= MAX_POWER_BITS or bits(base**exponent) > MAX_POWER_BITS:
        raise ExprEvalError(f"power beyond {MAX_POWER_BITS} bits at n={n}")


def has_sqrt(expr: Expr) -> bool:
    """True if any subexpression requires float evaluation."""
    if isinstance(expr, Call) and expr.func == "sqrt":
        return True
    return any(map(has_sqrt, _children(expr)))


@dataclass(frozen=True)
class StructureViolation:
    """One failed constraint of a structure function."""

    n: int
    value: Fraction
    constraint: str


@dataclass(frozen=True)
class StructureReport:
    """Validation outcome for a structure function on levels 0..dim."""

    ok: bool
    violations: tuple[StructureViolation, ...]
    values: tuple[Fraction, ...]


def validate_structure_function(
    expr: Expr, env: Mapping[str, Fraction] | None, dim: int
) -> StructureReport:
    """Check F(0) = 0 and F(n) > 0 for 1 <= n <= dim, in exact arithmetic."""
    if dim < 1:
        raise ExprError("dim must be >= 1")
    values: list[Fraction] = []
    violations: list[StructureViolation] = []
    for level in range(dim + 1):
        value = eval_expr(expr, level, env, Backend.EXACT)
        if not isinstance(value, Fraction):
            raise ExprError(f"F({level}) = {value!r} is not an exact rational")
        values.append(value)
        if level == 0 and value != 0:
            violations.append(StructureViolation(0, value, "F(0) = 0"))
        elif level > 0 and value <= 0:
            violations.append(StructureViolation(level, value, "F(n) > 0"))
    return StructureReport(not violations, tuple(violations), tuple(values))
