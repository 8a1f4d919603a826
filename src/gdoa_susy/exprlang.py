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

:func:`_level_parts` evaluates an expression over a whole range of levels in
one walk of the tree, as the int numerators and denominators a spec's level
record keeps; :func:`eval_expr` is the one-level case, as a Fraction or a
double.  Exact values of ``n`` form a column over one denominator
until a node that can fail at one level (division by a column, a power the
bit bound does not clear, ``parity`` of a non-integer column, ``sqrt``) goes
level by level.  A walk raises at the first error it meets; a bisection then
names the first failing level, as a walk of one level at a time would.

The source nests at most ``MAX_DEPTH`` parentheses, builtin calls and unary
minuses, and the parsed tree is at most ``MAX_DEPTH // 2`` levels deep, so the
evaluator and :func:`has_sqrt`, which recurse once per tree level, stay within
the interpreter's recursion limit; deeper input, and literals too long for
``int``, are syntax errors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
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


def _level_parts(expr: Expr, start: int, stop: int, env: Mapping[str, Fraction] | None,
                 backend: Backend = Backend.EXACT) -> tuple[list, list[int] | None]:
    """The values at the levels start <= n < stop as exact int numerators and
    positive denominators, not in lowest terms, or as doubles and None.

    The walk is post-order.  Each node yields one list of values over the
    levels, or one scalar when its subtree does not read ``n``, so a
    constant is evaluated once.  The exact backend keeps a list as a column
    until a node that can fail at one level takes per-level values, and
    rejects sqrt and any power beyond ``MAX_POWER_BITS``.  The float backend
    runs the same double operations, in the same order, as a walk of one
    level: a literal or power beyond the double range raises
    :class:`ExprEvalError` (a product that overflows is inf, and a float
    build refuses an inf or NaN weight's energy as beyond the double range).

    Errors are those of the first failing level, visited level by level.
    The walk raises at the first error it meets, which may be at a later
    level than another node's; since a level's value and error depend on
    that level alone, a bisection then finds the first failing level by
    re-walking the half of the range still open, and a walk of that one
    level raises its error.
    """
    if stop <= start:
        return [], [] if backend is Backend.EXACT else None
    bindings, exact = env or {}, backend is Backend.EXACT
    try:
        return _walk(expr, start, stop, bindings, exact)
    except (ExprEvalError, OverflowError):
        pass
    low, high = start, stop - 1  # the first failing level is in [low, high]
    while low < high:
        middle = (low + high) // 2
        try:
            _walk(expr, low, middle + 1, bindings, exact)
            low = middle + 1
        except (ExprEvalError, OverflowError):
            high = middle
    try:
        _walk(expr, low, low + 1, bindings, exact)
    except OverflowError as exc:  # float conversion or power beyond the double range
        raise ExprEvalError(f"float overflow at n={low}: {exc}") from exc
    # unreachable while a level's value and error depend on that level alone
    raise ExprEvalError(f"no failing level in [{start}, {stop})")


def _walk(expr: Expr, start: int, stop: int, bindings: Mapping[str, Fraction], exact: bool):
    """The parts of :func:`_level_parts` from one post-order walk, raising
    the first error that the walk meets."""

    def per_level(op, *args):
        """op(*values, n) at each level n; scalars give a scalar at the
        first level."""
        if any(isinstance(arg, (list, _Column)) for arg in args):
            return list(map(op, *_columns(args), range(start, stop)))
        return op(*args, start)

    def constant(value: Fraction) -> int | Fraction | float:
        if exact:
            return value.numerator if value.denominator == 1 else value
        return float(value)

    def divide(left, right, n: int):
        if right == 0:
            raise ExprEvalError(f"division by zero at n={n}")
        if exact and type(left) is int and type(right) is int:
            quotient, remainder = divmod(left, right)
            return Fraction(left, right) if remainder else quotient
        return left / right

    def power(base, exponent: int, n: int):
        # a cheap upper bound on the bits of the power; only a power it does
        # not clear is measured exactly
        if exact and (
            base.numerator.bit_length() + base.denominator.bit_length()
        ) * exponent > MAX_POWER_BITS:
            _require_short_power(base, exponent, n)
        return base ** exponent

    def parity(value, n: int):
        if exact:
            if value.denominator != 1:
                raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
            return -1 if value.numerator % 2 else 1
        # nan lies off every integer; round(inf) overflows
        if value != value or abs(value - round(value)) > 1e-9:
            raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
        return -1.0 if round(value) % 2 else 1.0

    def root(value, n: int):
        if exact:
            raise ExprEvalError("sqrt requires the float backend")
        if value < 0:
            raise ExprEvalError(f"sqrt of negative value {value} at n={n}")
        return math.sqrt(value)

    builtins = {"parity": parity, "sqrt": root}

    def ev(node: Expr):
        if isinstance(node, Number):
            return constant(node.value)
        if isinstance(node, Var):
            levels = range(start, stop)
            return _Column(list(levels), 1) if exact else list(map(float, levels))
        if isinstance(node, Param):
            if node.name not in bindings:
                raise ExprEvalError(f"unbound parameter {node.name!r}")
            return constant(Fraction(bindings[node.name]))
        if isinstance(node, Neg):
            arg = ev(node.arg)
            if isinstance(arg, _Column):
                return _Column(list(map(operator.neg, arg.numerators)), arg.denominator)
            return _elementwise(operator.neg, arg)
        if isinstance(node, BinOp):
            left, right = ev(node.left), ev(node.right)
            kinds = {type(left), type(right)}
            if _Column in kinds and list not in kinds and (node.op != "/" or (
                    type(right) is not _Column and right != 0)):
                return _column_arithmetic(node.op, left, right)
            if node.op == "/":
                return per_level(divide, left, right)
            return _elementwise(_ARITHMETIC[node.op], left, right)
        if isinstance(node, Pow):
            base = ev(node.base)
            if isinstance(base, _Column) and (  # no level can pass the bit bound
                max(map(abs, base.numerators)).bit_length() + base.denominator.bit_length()
            ) * node.exponent <= MAX_POWER_BITS:
                powers = list(map(pow, base.numerators, repeat(node.exponent)))
                return _Column(powers, base.denominator ** node.exponent)
            return per_level(power, base, node.exponent)
        if isinstance(node, Call):
            arg = ev(node.arg)
            if node.func not in builtins:
                raise ExprEvalError(f"unknown builtin {node.func!r}")
            if node.func == "parity" and isinstance(arg, _Column) and arg.denominator == 1:
                return _Column([-1 if k % 2 else 1 for k in arg.numerators], 1)
            return per_level(builtins[node.func], arg)
        raise ExprEvalError(f"unknown node {node!r}")

    values, count = ev(expr), stop - start
    if isinstance(values, _Column):
        return values.numerators, [values.denominator] * count
    if not isinstance(values, list):  # a constant, the same at every level
        values = [values] * count
    if not exact:
        return values, None
    return [value.numerator for value in values], [value.denominator for value in values]


def eval_expr(
    expr: Expr,
    n: int,
    env: Mapping[str, Fraction] | None = None,
    backend: Backend = Backend.EXACT,
) -> Fraction | float:
    """Evaluate at level n with parameters bound from env: the one-level case
    of :func:`_level_parts`, as a Fraction or a double."""
    (value,), denominators = _level_parts(expr, n, n + 1, env, backend)
    return value if denominators is None else Fraction(value, denominators[0])


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass(frozen=True, slots=True)
class _Column:
    """Exact values over the live levels: int numerators over one positive
    int denominator, not reduced to lowest terms."""

    numerators: list[int]
    denominator: int

    def levels(self):
        """The values level by level: the ints, or Fractions in lowest terms."""
        if self.denominator == 1:
            return self.numerators
        return map(Fraction, self.numerators, repeat(self.denominator))


def _columns(args: tuple) -> list:
    """Each argument as an iterable over the levels: a list, a column's
    values, or a scalar repeated."""
    return [arg if isinstance(arg, list) else arg.levels() if isinstance(arg, _Column)
            else repeat(arg) for arg in args]


def _elementwise(op, *args):
    """op at each level of an operation that cannot fail; scalars give a scalar."""
    if any(isinstance(arg, (list, _Column)) for arg in args):
        return list(map(op, *_columns(args)))
    return op(*args)


def _over(value, denominator: int):
    """A column's numerators, or a scalar's one repeated, over a multiple of
    its denominator."""
    factor = denominator // value.denominator
    if not isinstance(value, _Column):
        return repeat(value.numerator * factor)
    return value.numerators if factor == 1 else [k * factor for k in value.numerators]


def _column_arithmetic(op: str, left, right) -> _Column:
    """left op right for '+', '-', '*' and '/' by a nonzero scalar, where at
    least one side is a column and the other a column or an exact scalar."""
    if op == "/":  # times the reciprocal, whose denominator is positive
        op, right = "*", Fraction(right.denominator, right.numerator)
    if op == "*":
        numerators = map(operator.mul, _over(left, left.denominator),
                         _over(right, right.denominator))
        return _Column(list(numerators), left.denominator * right.denominator)
    denominator = math.lcm(left.denominator, right.denominator)
    numerators = map(_ARITHMETIC[op], _over(left, denominator), _over(right, denominator))
    return _Column(list(numerators), denominator)


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


def _structure_violations(numerators: list[int], denominators: list[int]) -> list:
    """The violations of F(0) = 0 and F(n) > 0 on F(0..dim), dim >= 1, from
    int parts over positive denominators: a level's sign is its numerator's."""
    if len(numerators) < 2:
        raise ExprError("dim must be >= 1")
    p0, q0 = numerators[0], denominators[0]
    violations = [StructureViolation(0, Fraction(p0, q0), "F(0) = 0")] if p0 else []
    if min(numerators[1:]) <= 0:  # a valid F is cleared by one pass in C
        violations += (
            StructureViolation(n, Fraction(p, denominators[n]), "F(n) > 0")
            for n, p in enumerate(numerators) if n and p <= 0
        )
    return violations


def validate_structure_function(
    expr: Expr, env: Mapping[str, Fraction] | None, dim: int
) -> StructureReport:
    """Check F(0) = 0 and F(n) > 0 for 1 <= n <= dim, in exact arithmetic."""
    numerators, denominators = _level_parts(expr, 0, dim + 1, env)
    violations = _structure_violations(numerators, denominators)
    values = tuple(map(Fraction, numerators, denominators))
    return StructureReport(not violations, tuple(violations), values)
