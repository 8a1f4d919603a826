"""Tests for the expression language: parsing, evaluation, validation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy import exprlang, fock
from gdoa_susy.cli import MAX_DIM
from gdoa_susy.exprlang import (
    MAX_DEPTH,
    MAX_POWER_BITS,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Number,
    Param,
    Pow,
    Var,
    _level_parts,
    _require_short_power,
    eval_expr,
    has_sqrt,
    parse_expr,
    printable,
    validate_structure_function,
)
from gdoa_susy.fock import OscillatorSpec
from gdoa_susy.numerics import Backend
from gdoa_susy.realizations import gdoa_realization, spectrum_H

EXACT = Backend.EXACT
FLOAT = Backend.FLOAT


def bracket_oracle(n, kappa):
    """Independent recursion: F(0) = 0, F(k+1) = F(k) + 1 + kappa*(-1)^k."""
    value = Fraction(0)
    for k in range(n):
        value += 1 + Fraction(kappa) * (1 if k % 2 == 0 else -1)
    return value


class TestParsing:
    def test_variable(self):
        assert parse_expr("n") == Var()

    def test_power_binds_tightest(self):
        assert parse_expr("-n^2") == Neg(Pow(Var(), 2))
        assert eval_expr(parse_expr("-n^2"), 3) == -9

    def test_precedence(self):
        assert eval_expr(parse_expr("2*n - 3"), 1) == -1
        assert eval_expr(parse_expr("2 + 3*4"), 0) == 14
        assert eval_expr(parse_expr("(2 + 3)*4"), 0) == 20

    def test_rational_literals_via_division(self):
        assert eval_expr(parse_expr("3/2"), 0) == Fraction(3, 2)

    def test_nested_parens_and_unary(self):
        e = parse_expr("-(n - 2)*(n - 3)")
        assert eval_expr(e, 1) == -2

    def test_double_unary_minus(self):
        assert eval_expr(parse_expr("--n"), 5) == 5

    def test_exponent_must_be_literal(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("n^x")
        assert err.value.offset == 2
        with pytest.raises(ExprSyntaxError):
            parse_expr("n^(2)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("n^-2")

    def test_unknown_builtin_with_offset(self):
        with pytest.raises(ExprSyntaxError, match="unknown builtin 'foo'") as err:
            parse_expr("n + foo(n)")
        assert err.value.offset == 4

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("n $ 2")
        assert err.value.offset == 2

    def test_empty_expression(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("   ")
        assert err.value.offset == 0

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("n )")
        assert err.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(n + 1")

    def test_chained_power_requires_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("2^3^2")
        assert eval_expr(parse_expr("(2^3)^2"), 0) == 64


class TestInputLimits:
    def test_nesting_at_the_limit_parses_evaluates_and_round_trips(self):
        half = MAX_DEPTH // 2
        for source, value in (("(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH, 3),
                              ("-" * (half - 1) + "n", 3 * (-1) ** (half - 1)),
                              ("n" + " + n" * (half - 1), 3 * half)):
            expr = parse_expr(source)
            assert eval_expr(expr, 3) == value

    @pytest.mark.parametrize(
        "source",
        ["(" * 3000 + "n" + ")" * 3000, "-" * 5000 + "n", "sqrt(" * 200 + "n" + ")" * 200,
         "n" + " + n" * (MAX_DEPTH // 2), "-" * (MAX_DEPTH // 2) + "n",
         "(" * (MAX_DEPTH + 1) + "n" + ")" * (MAX_DEPTH + 1)],
    )
    def test_deeper_nesting_is_a_syntax_error(self, source):
        with pytest.raises(ExprSyntaxError, match="nests deeper than"):
            parse_expr(source)

    @pytest.mark.parametrize("source", ["n^" + "1" * 4400, "1" * 4400, "2*" + "9" * 5000])
    def test_literal_beyond_digit_limit_is_a_syntax_error(self, source):
        with pytest.raises(ExprSyntaxError, match="digits"):
            parse_expr(source)

    @pytest.mark.parametrize("source", ["((n^12)^12)^12", "1" + "0" * 400])
    def test_float_overflow_is_an_evaluation_error(self, source):
        with pytest.raises(ExprEvalError, match="float overflow"):
            eval_expr(parse_expr(source), 2, backend=FLOAT)


    @pytest.mark.parametrize("source, n", [("n^99999999", 3), ("2^14284", 0), ("3^9013", 0),
                                           ("(n^7000)^3", 2), ("(1/n)^99999999", 5)])
    def test_power_beyond_bit_bound_is_an_evaluation_error(self, source, n):
        # refused before the power is computed (the first two) or right after
        with pytest.raises(ExprEvalError, match=f"power beyond {MAX_POWER_BITS} bits"):
            eval_expr(parse_expr(source), n)

    def test_powers_at_the_bit_bound_evaluate_and_print(self):
        for source in ("2^14283", "3^9012", "1^99999999", "0^99999999", "n^2"):
            value = eval_expr(parse_expr(source), 1)
            assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= 14284
            assert len(str(value)) <= 4300


class TestEvaluation:
    def test_square(self):
        assert eval_expr(parse_expr("n^2"), 3) == 9

    def test_parameters(self):
        e = parse_expr("kappa*n + lam")
        env = {"kappa": Fraction(1, 2), "lam": Fraction(3)}
        assert eval_expr(e, 4, env) == 5

    def test_unbound_parameter(self):
        with pytest.raises(ExprEvalError, match="unbound parameter 'kappa'"):
            eval_expr(parse_expr("bracket(n)"), 1)

    def test_bracket_against_recursion_oracle(self):
        e = parse_expr("bracket(n)")
        for kappa in (Fraction(0), Fraction(1, 2), Fraction(7), Fraction(-1, 3)):
            env = {"kappa": kappa}
            for n in range(33):
                assert eval_expr(e, n, env) == bracket_oracle(n, kappa)

    def test_bracket_examples(self):
        e = parse_expr("bracket(n)")
        assert eval_expr(e, 2, {"kappa": Fraction(7)}) == 2
        assert eval_expr(e, 1, {"kappa": Fraction(1, 2)}) == Fraction(3, 2)

    def test_parity(self):
        e = parse_expr("parity(n)")
        assert eval_expr(e, 4) == 1
        assert eval_expr(e, 7) == -1
        assert eval_expr(e, 6, backend=FLOAT) == 1.0

    def test_parity_non_integer(self):
        e = parse_expr("parity(n/2)")
        with pytest.raises(ExprEvalError, match="non-integer"):
            eval_expr(e, 1)
        with pytest.raises(ExprEvalError, match="non-integer"):
            eval_expr(e, 1, backend=FLOAT)

    def test_sqrt_float_only(self):
        e = parse_expr("sqrt(n)")
        assert eval_expr(e, 4, backend=FLOAT) == 2.0
        with pytest.raises(ExprEvalError, match="float backend"):
            eval_expr(e, 4)

    def test_sqrt_negative(self):
        e = parse_expr("sqrt(0 - n)")
        with pytest.raises(ExprEvalError, match="negative"):
            eval_expr(e, 2, backend=FLOAT)

    def test_division_by_zero(self):
        e = parse_expr("1/(n - 2)")
        assert eval_expr(e, 3) == 1
        with pytest.raises(ExprEvalError, match="division by zero"):
            eval_expr(e, 2)

    def test_float_backend_returns_floats(self):
        value = eval_expr(parse_expr("n/2"), 1, backend=FLOAT)
        assert isinstance(value, float) and value == 0.5

    def test_exact_backend_returns_fractions(self):
        value = eval_expr(parse_expr("n/2"), 1)
        assert isinstance(value, Fraction) and value == Fraction(1, 2)


class TestIntrospection:
    def test_has_sqrt(self):
        assert has_sqrt(parse_expr("sqrt(n) + 1"))
        assert has_sqrt(parse_expr("-sqrt(n^2)"))
        assert not has_sqrt(parse_expr("n^2 + parity(n)"))


@st.composite
def expression_trees(draw, depth=0, ops="+-*", calls=(), exponents=(2,),
                     names=("n", "kappa", "lam")):
    """Sources over ``names`` and digits; ``calls`` wraps subtrees in builtins,
    and a power's exponent is drawn from ``exponents``."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(
            st.sampled_from(names)
            if draw(st.booleans())
            else st.integers(min_value=0, max_value=9).map(str)
        )
        return leaf
    op = draw(st.sampled_from(list(ops)))
    left = draw(expression_trees(depth + 1, ops, calls, exponents, names))
    right = draw(expression_trees(depth + 1, ops, calls, exponents, names))
    shape = draw(st.sampled_from(["plain", "paren", "neg", "pow", *calls]))
    if shape in calls:
        return f"{shape}({left} {op} {right})"
    if shape == "paren":
        return f"({left} {op} {right})"
    if shape == "neg":
        return f"-({left} {op} {right})"
    if shape == "pow":
        return f"({left} {op} {right})^{draw(st.sampled_from(exponents))}"
    return f"{left} {op} {right}"


@settings(max_examples=300)
@given(expression_trees())
def test_generated_expressions_round_trip(source):
    # The generated grammar subset reads the same in Python, with ^ as **.
    env = {"kappa": Fraction(1, 2), "lam": Fraction(3)}
    expr = parse_expr(source)
    python = compile(source.replace("^", "**"), "<generated>", "eval")
    for n in (0, 1, 2, 17):
        expected = eval(python, {"__builtins__": {}}, {**env, "n": Fraction(n)})
        assert eval_expr(expr, n, env) == expected


@settings(max_examples=300)
@given(st.text(max_size=20))
def test_fuzzed_text_never_crashes_differently(text):
    try:
        expr = parse_expr(text)
    except ExprSyntaxError as err:
        assert 0 <= err.offset <= len(text)
        return
    # parse succeeded: evaluation may still fail, but only with ExprEvalError
    try:
        eval_expr(expr, 3, {"kappa": Fraction(1, 2)})
    except ExprEvalError:
        pass


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_exact_evaluation_association_independent(x, y, z):
    env = {"x": x, "y": y, "z": z}
    left = eval_expr(parse_expr("(x*y)*z"), 0, env)
    right = eval_expr(parse_expr("x*(y*z)"), 0, env)
    assert left == right
    left = eval_expr(parse_expr("(x + y) + z"), 0, env)
    right = eval_expr(parse_expr("x + (y + z)"), 0, env)
    assert left == right


class TestStructureValidation:
    def test_bracket_kappa_half_passes(self):
        report = validate_structure_function(
            parse_expr("bracket(n)"), {"kappa": Fraction(1, 2)}, 16
        )
        assert report.ok and not report.violations
        assert report.values == tuple(bracket_oracle(n, Fraction(1, 2)) for n in range(17))

    def test_square_passes(self):
        report = validate_structure_function(parse_expr("n^2"), {}, 8)
        assert report.ok
        assert report.values[:4] == (0, 1, 4, 9)

    def test_shifted_fails_at_origin_and_interior(self):
        report = validate_structure_function(parse_expr("n - 2"), {}, 4)
        assert not report.ok
        constraints = {(v.n, v.constraint) for v in report.violations}
        assert (0, "F(0) = 0") in constraints
        assert (1, "F(n) > 0") in constraints
        assert (2, "F(n) > 0") in constraints

    @pytest.mark.parametrize("source, violations", [
        ("n*(n-3)", [(1, -2, "F(n) > 0"), (2, -2, "F(n) > 0"), (3, 0, "F(n) > 0")]),
        ("n - 5/2", [(0, Fraction(-5, 2), "F(0) = 0"), (1, Fraction(-3, 2), "F(n) > 0"),
                     (2, Fraction(-1, 2), "F(n) > 0")]),
    ])
    def test_sign_changing_structure_function_violations(self, source, violations):
        # at the spectrum benchmark's size; the sign is read from each value
        report = validate_structure_function(parse_expr(source), {}, 4095)
        assert not report.ok and len(report.values) == 4096
        assert report.violations == tuple(
            exprlang.StructureViolation(n, Fraction(value), constraint)
            for n, value, constraint in violations
        )
        assert all(type(v.value) is Fraction for v in report.violations)
        assert all(type(value) is Fraction for value in report.values)

    def test_negative_kappa_fails_positivity(self):
        report = validate_structure_function(
            parse_expr("bracket(n)"), {"kappa": Fraction(-2)}, 4
        )
        assert not report.ok
        assert any(v.constraint == "F(n) > 0" and v.n == 1 for v in report.violations)


_TOKENS = st.sampled_from(
    ["n", "kappa", "c", "+", "-", "*", "/", "^", "(", ")", "(", ")", "parity(", "sqrt(",
     "bracket(", "#", " "]
) | st.integers(0, 4).map(str)
_nested = st.builds(
    lambda depth, wrap: wrap[0] * depth + "n" + wrap[1] * depth,
    st.integers(0, 3 * MAX_DEPTH),
    st.sampled_from([("(", ")"), ("-", ""), ("sqrt(", ")"), ("n + ", ""), ("", " * n")]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKENS, max_size=30).map(" ".join) | _nested)
def test_fuzzed_token_streams_raise_only_documented_errors(text):
    # Literals are at most 4 (tokens are space-separated), so even 30 tokens of
    # nested powers stay cheap to evaluate.
    try:
        expr = parse_expr(text)
    except ExprSyntaxError as err:
        assert 0 <= err.offset <= len(text)
        return
    for backend in (EXACT, FLOAT):
        try:
            eval_expr(expr, 3, {"kappa": Fraction(1, 2), "c": Fraction(2)}, backend)
        except ExprEvalError:
            pass


def reference_eval(expr, n, env=None, backend=EXACT):
    """The per-level oracle: one recursive walk of the tree at level n, in
    Fractions or doubles."""
    bindings = env or {}
    exact = backend is EXACT

    def ev(node):
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
            if exact and (
                base.numerator.bit_length() + base.denominator.bit_length()
            ) * node.exponent > MAX_POWER_BITS:
                _require_short_power(base, node.exponent, n)
            return base ** node.exponent
        if isinstance(node, Call):
            value = ev(node.arg)
            if node.func == "parity":
                if exact:
                    if value.denominator != 1:
                        raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
                    k = int(value)
                else:
                    if math.isnan(value):
                        raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
                    k = round(value)
                    if abs(value - k) > 1e-9:
                        raise ExprEvalError(f"parity of non-integer {printable(value)} at n={n}")
                result = -1 if k % 2 else 1
                return Fraction(result) if exact else float(result)
            if exact:
                raise ExprEvalError("sqrt requires the float backend")
            if value < 0:
                raise ExprEvalError(f"sqrt of negative value {value} at n={n}")
            return math.sqrt(value)
        raise AssertionError(node)

    try:
        return ev(expr)
    except OverflowError as exc:
        raise ExprEvalError(f"float overflow at n={n}: {exc}") from exc


def outcome(evaluate):
    """Values as comparable keys (Fractions by value, floats by hex), or the
    error's type and message."""
    try:
        values = evaluate()
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return "error", type(exc), str(exc)
    if all(isinstance(value, Fraction) for value in values):
        return "exact", values
    if all(type(value) is float for value in values):
        return "float", [value.hex() for value in values]
    return "mixed types", values


def level_values(expr, start, stop, env=None, backend=EXACT):
    """The values at the levels start <= n < stop from one walk of
    ``_level_parts``: a Fraction per level of its exact parts, or its doubles."""
    values, denominators = _level_parts(expr, start, stop, env, backend)
    return values if denominators is None else list(map(Fraction, values, denominators))


def assert_matches_reference(expr, start, stop, env, backend):
    expected = outcome(lambda: [reference_eval(expr, n, env, backend) for n in range(start, stop)])
    assert outcome(lambda: level_values(expr, start, stop, env, backend)) == expected
    if stop > start:  # the one-level case at the first level
        first = outcome(lambda: [eval_expr(expr, start, env, backend)])
        assert first == outcome(lambda: [reference_eval(expr, start, env, backend)])


# denominators whose lcm is not their product (6 and 15; 6 and 14, kappa/2's)
_COMPOSITE_ENV = {"c": Fraction(5, 6), "kappa": Fraction(-3, 7), "lam": Fraction(4, 15)}
_ENVS = st.sampled_from([
    {"kappa": Fraction(1, 2), "lam": Fraction(3), "c": Fraction(2)},
    {"kappa": Fraction(-3, 7), "c": Fraction(0)},
    {"lam": Fraction(-2)},
    _COMPOSITE_ENV,
])
# up to 40 levels, so a column carries many numerators over its denominator
_RANGES = st.tuples(st.sampled_from([0, 1, 3]), st.integers(0, 40))


class TestLevelRange:
    """_level_parts against the per-level oracle: values and first errors."""

    @settings(max_examples=400, deadline=None)
    @given(expression_trees(ops="+-*/", calls=("parity", "sqrt", "bracket"), exponents=(2, 3, 5)),
           _ENVS, _RANGES, st.sampled_from([EXACT, FLOAT]))
    def test_generated_trees_match_the_per_level_walk(self, source, env, levels, backend):
        start, count = levels
        assert_matches_reference(parse_expr(source), start, start + count, env, backend)

    @settings(max_examples=400, deadline=None)
    @given(expression_trees(ops="+-*/", calls=("parity", "bracket"), exponents=(2, 3, 5),
                            names=("n", "n", "kappa", "lam", "c")),
           st.sampled_from([_COMPOSITE_ENV, {"kappa": Fraction(1, 2), "lam": Fraction(3),
                                              "c": Fraction(-9, 4)}]), _RANGES)
    def test_exact_column_walk_matches_the_per_level_walk(self, source, env, levels):
        # every name bound and no sqrt, so most trees reach the column arithmetic
        start, count = levels
        assert_matches_reference(parse_expr(source), start, start + count, env, EXACT)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_TOKENS, max_size=30).map(" ".join), _ENVS, _RANGES,
           st.sampled_from([EXACT, FLOAT]))
    def test_token_streams_match_the_per_level_walk(self, text, env, levels, backend):
        try:
            expr = parse_expr(text)
        except ExprSyntaxError:
            return
        start, count = levels
        assert_matches_reference(expr, start, start + count, env, backend)

    @pytest.mark.parametrize("source, start, message", [
        ("1/n + x", 0, "division by zero at n=0"),
        ("x + 1/n", 0, "unbound parameter 'x'"),
        ("1/n + x", 1, "unbound parameter 'x'"),
        ("parity(n/2) + 1/(n-1)", 0, "parity of non-integer 1/2 at n=1"),
        ("1/(n-1) + parity(n/2)", 0, "division by zero at n=1"),
        ("1/(n-3) + parity(n/2)", 0, "parity of non-integer 1/2 at n=1"),
        ("1/0", 1, "division by zero at n=1"),
        ("n + 1/0", 3, "division by zero at n=3"),
        ("n^99999999", 0, f"power beyond {MAX_POWER_BITS} bits at n=2"),
        ("sqrt(n)", 1, "sqrt requires the float backend"),
    ])
    def test_first_failing_level_and_node(self, source, start, message):
        expr = parse_expr(source)
        with pytest.raises(ExprEvalError) as err:
            level_values(expr, start, start + 4)
        assert str(err.value) == message
        for backend in (EXACT, FLOAT):
            assert_matches_reference(expr, start, start + 4, {}, backend)

    @pytest.mark.parametrize("source, start, stop, message", [
        # a column over denominator 2, integral at every level
        ("parity(n/2*2)", 0, 40, None),
        ("bracket(n/2*2) + parity(n*c/c)", 1, 40, None),
        # not integral: the first odd level is named
        ("parity(n/2)", 0, 40, "parity of non-integer 1/2 at n=1"),
        ("parity(n/2)", 4, 40, "parity of non-integer 5/2 at n=5"),
        ("n*c + parity((n - 1)/2)", 3, 40, "parity of non-integer 3/2 at n=4"),
        # a divisor column that is zero at an interior level
        ("1/(n - 17)", 0, 40, "division by zero at n=17"),
        ("n/(n - 17) + 1/((n - 23)*(n - 5))", 3, 40, "division by zero at n=5"),
        ("(n - 17)/(n*c - 17*c)", 0, 40, "division by zero at n=17"),
        ("n/((n - 4)*kappa)^3", 0, 40, "division by zero at n=4"),
        # a divisor column that is never zero: per-level values meet columns
        ("1/(n + 1)^2 - kappa*n/c + parity(n)", 0, 40, None),
        # every normalized level n^2600 stays within MAX_POWER_BITS, up to n = 45,
        # though the unnormalized column (2n over 2) does not clear the bound
        ("((n/2)*2)^2600", 0, 46, None),
        ("((n/2)*2)^2600", 40, 50, f"power beyond {MAX_POWER_BITS} bits at n=46"),
        # small numerators over a long denominator: the column's bound counts it
        ("(n/2^40)^400", 0, 40, f"power beyond {MAX_POWER_BITS} bits at n=1"),
        ("(n*kappa/kappa)^5 * (n/7)^3", 0, 40, None),
        # a node visited later fails at an earlier level, over 4097 levels
        ("1/(n - 3000) + 1/(n - 17)", 0, 4097, "division by zero at n=17"),
    ])
    def test_column_nodes_against_the_per_level_walk(self, source, start, stop, message):
        expr = parse_expr(source)
        if message is None:
            values = level_values(expr, start, stop, _COMPOSITE_ENV)
            assert all(type(value) is Fraction for value in values) and len(values) == stop - start
        else:
            with pytest.raises(ExprEvalError) as err:
                level_values(expr, start, stop, _COMPOSITE_ENV)
            assert str(err.value) == message
        assert_matches_reference(expr, start, stop, _COMPOSITE_ENV, EXACT)

    def test_constant_weight_error_names_the_first_level(self):
        spec = OscillatorSpec.gdoa("n^2", weight="1/0")
        for backend in (EXACT, FLOAT):
            with pytest.raises(ExprEvalError, match=r"^division by zero at n=1$"):
                gdoa_realization(spec, 0, 8, backend)
            with pytest.raises(ExprEvalError, match=r"^division by zero at n=1$"):
                level_values(spec.weight, 1, 9, {}, backend)

    def test_empty_range_evaluates_nothing(self):
        assert level_values(parse_expr("1/0 + x"), 3, 3) == []

    def test_values_stay_exact_fractions(self):
        values = level_values(parse_expr("n^3 + 2*n - n/2 + 1"), 0, 6)
        assert all(type(value) is Fraction for value in values)
        assert values == [Fraction(n**3 + 2 * n + 1) - Fraction(n, 2) for n in range(6)]
        assert [str(value) for value in values] == ["1", "7/2", "12", "65/2", "71", "267/2"]
        constant = level_values(parse_expr("3/6"), 1, 4, backend=FLOAT)
        assert constant == [0.5, 0.5, 0.5]

    def test_float_overflow_names_the_level(self):
        # (n 10^102)^3 passes the double range at n = 6
        with pytest.raises(ExprEvalError, match=r"^float overflow at n=6: "):
            level_values(parse_expr("(n*10^102)^3"), 0, 8, backend=FLOAT)
        with pytest.raises(ExprEvalError, match=r"^float overflow at n=2: "):
            level_values(parse_expr("n + " + "1" + "0" * 400), 2, 8, backend=FLOAT)
        # an overflow and a division by zero rank by their levels, not by
        # which node the walk meets first
        with pytest.raises(ExprEvalError, match=r"^float overflow at n=6: "):
            level_values(parse_expr("1/(n - 7) + sqrt(n)*(n*10^102)^3"), 0, 8, backend=FLOAT)
        with pytest.raises(ExprEvalError, match=r"^division by zero at n=5$"):
            level_values(parse_expr("sqrt(n)*(n*10^102)^3 + 1/(n - 5)"), 0, 8, backend=FLOAT)

    def test_first_failing_level_is_found_in_logarithmically_many_walks(self, monkeypatch):
        walks = []
        walk = exprlang._walk

        def counted(expr, start, stop, *args):
            walks.append((start, stop))
            return walk(expr, start, stop, *args)

        monkeypatch.setattr(exprlang, "_walk", counted)
        with pytest.raises(ExprEvalError, match=r"^division by zero at n=65000$"):
            validate_structure_function(parse_expr("n + 1/(n - 65000)^2"), {}, MAX_DIM)
        # the whole range, one probe per halving of 65537 levels, the last level
        assert walks[0] == (0, MAX_DIM + 1) and walks[-1] == (65000, 65001)
        assert len(walks) <= 2 + math.ceil(math.log2(MAX_DIM + 1))

    def test_callers_make_no_per_level_calls(self, monkeypatch):
        def per_level(*args, **kwargs):
            raise AssertionError("per-level eval_expr call")

        monkeypatch.setattr(exprlang, "eval_expr", per_level)
        # also caught if fock imported eval_expr by name again
        monkeypatch.setattr(fock, "eval_expr", per_level, raising=False)
        report = validate_structure_function(parse_expr("bracket(n)"), {"kappa": Fraction(1, 2)},
                                             64)
        assert report.ok and report.values[3] == Fraction(7, 2)
        spec = OscillatorSpec.gdoa("n^2", weight="n + 1")
        # E_63 = f(64)^2 F(64), and f of a sqrt weight is read as doubles
        assert spectrum_H(spec, 0, 63).rows[63].energy == 65**2 * 64**2
        sqrt_spec = OscillatorSpec.gdoa("n^2", weight="n + 1 + 0*sqrt(n)")
        assert gdoa_realization(sqrt_spec, 1, 8).energies[0][3] == 8.0**2 * 49
        assert fock.structure_values(spec, 64)[8] == 64


class TestNonFiniteParity:
    # 10^200 * 10^200 overflows to inf; inf - inf is nan
    NAN = "parity(10^200*10^200 - 10^200*10^200)"

    def test_nan_is_a_non_integer(self):
        # round(nan) used to raise ValueError out of the evaluator
        for source in (self.NAN, "sqrt(n) + " + self.NAN):
            with pytest.raises(ExprEvalError, match=r"^parity of non-integer nan at n=1$"):
                eval_expr(parse_expr(source), 1, backend=FLOAT)
            with pytest.raises(ExprEvalError, match=r"^parity of non-integer nan at n=1$"):
                level_values(parse_expr(source), 1, 9, backend=FLOAT)

    def test_infinity_is_a_float_overflow(self):
        with pytest.raises(ExprEvalError, match=r"^float overflow at n=1: "):
            eval_expr(parse_expr("parity(10^200*10^200)"), 1, backend=FLOAT)
