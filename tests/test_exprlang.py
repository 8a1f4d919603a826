"""Tests for the expression language: parsing, evaluation, validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdoa_susy.exprlang import (
    MAX_DEPTH,
    MAX_POWER_BITS,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Pow,
    Var,
    eval_expr,
    has_sqrt,
    parse_expr,
    validate_structure_function,
)
from gdoa_susy.numerics import Backend

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
def expression_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(
            st.sampled_from(["n", "kappa", "lam"])
            if draw(st.booleans())
            else st.integers(min_value=0, max_value=9).map(str)
        )
        return leaf
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(expression_trees(depth=depth + 1))
    right = draw(expression_trees(depth=depth + 1))
    shape = draw(st.sampled_from(["plain", "paren", "neg", "pow"]))
    if shape == "paren":
        return f"({left} {op} {right})"
    if shape == "neg":
        return f"-({left} {op} {right})"
    if shape == "pow":
        return f"({left} {op} {right})^2"
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
