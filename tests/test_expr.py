import dataclasses
import math
import warnings

import numpy as np
import pytest

from projconn import expr as ex
from exprgen import central_difference, random_expr, seeded_pairs

# strings that must survive a parse -> print -> parse round trip unchanged
ROUND_TRIP_CORPUS = [
    "1",
    "0",
    "42",
    "3.25",
    "1e-06",
    "2.5e3",
    "x",
    "theta",
    "a+b",
    "a-b",
    "a*b",
    "a/b",
    "a+b+c",
    "a-b-c",
    "a-(b-c)",
    "a*b+c",
    "a+b*c",
    "(a+b)*c",
    "a*(b+c)",
    "a/(b*c)",
    "a/b/c",
    "a/(b/c)",
    "a*b/c",
    "a-(b+c)",
    "-x",
    "--x",
    "-x^2",
    "(-x)^2",
    "-(a+b)",
    "-(a*b)",
    "x^2",
    "x^10",
    "x^-2",
    "(a+b)^3",
    "(x^2)^3",
    "sin(theta)",
    "sin(theta)^2",
    "cos(x)*sin(y)",
    "tan(x/2)",
    "exp(2*t)",
    "exp(-t)",
    "log(x+1)",
    "sqrt(x^2+1)",
    "sinh(u)-cosh(u)",
    "1/sin(chi)",
    "1/(sin(chi)*sin(theta))",
    "sin(theta)^2/4",
    "0.25*r^2",
    "a*b*c-d/e",
    "sin(cos(x))",
    "x*y+y*z+z*x",
    "-sin(theta)*cos(theta)",
    "2*sin(theta)*cos(theta)",
    "x+y-z*w/v",
]


def test_parse_power_of_function():
    tree = ex.parse("sin(theta)^2")
    assert tree == ex.Pow(ex.Call("sin", ex.Var("theta")), 2)


def test_parse_constant():
    assert ex.parse("1") == ex.Const(1.0)


def test_parse_precedence_product_before_sum():
    tree = ex.parse("a*b+c")
    assert tree == ex.Add(ex.Mul(ex.Var("a"), ex.Var("b")), ex.Var("c"))


def test_parse_left_associativity():
    assert ex.parse("a-b-c") == ex.Sub(ex.Sub(ex.Var("a"), ex.Var("b")), ex.Var("c"))
    assert ex.parse("a/b/c") == ex.Div(ex.Div(ex.Var("a"), ex.Var("b")), ex.Var("c"))


def test_parse_unary_minus_binds_looser_than_power():
    assert ex.parse("-x^2") == ex.Neg(ex.Pow(ex.Var("x"), 2))


def test_parse_error_reports_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("a +* b")
    assert err.value.position == 4


def test_parse_error_trailing_input():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("a b")
    assert err.value.position == 3


def test_parse_unknown_function():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("1+foo(x)")
    assert "unknown function" in str(err.value)
    assert err.value.position == 3


@pytest.mark.parametrize("text, position", [
    ("1e999", 1), ("x - 1e999", 5), ("2*1E+400", 3),
    pytest.param("x^" + "9" * 400, 3, id="exponent"),
    pytest.param("x^-" + "9" * 5000, 4, id="exponent_beyond_int_digits"),
])
def test_parse_rejects_a_number_out_of_range(text, position):
    with pytest.raises(ex.ParseError, match="number out of range") as err:
        ex.parse(text)
    assert err.value.position == position


def _parser_alone(text: str) -> ex.Expr:
    """The recursive-descent parser, without parse's shortcut for an entry
    that is one number."""
    parser = ex._Parser(ex._tokenize(text))
    tree, _ = parser.parse_expr()
    assert parser.peek()[0] == "eof"
    return tree


def _outcome(parse, text: str):
    """The tree parsed, or the ParseError's message and position."""
    try:
        return parse(text)
    except ex.ParseError as err:
        return str(err), err.position


# parse reads a lone number before tokenizing; out of range, malformed or
# padded, it gives the parser's tree or the parser's error
@pytest.mark.parametrize("text", ["1", " 2.5e3 ", "0.25", "7E-2", "1e+3", " 2 ", "007", "1e5",
                                  "1e999", " 1e999 ", "1.", " 1.", "1.e5"])
def test_a_lone_number_parses_as_the_parser_would(text):
    assert _outcome(ex.parse, text) == _outcome(_parser_alone, text)


def test_what_is_not_one_unsigned_number_takes_the_parser():
    assert ex.parse("-1") == ex.Neg(ex.Const(1.0))
    assert ex.parse("inf") == ex.Var("inf")
    for text, message in (("1.", "malformed number"), ("1e999", "number out of range")):
        with pytest.raises(ex.ParseError, match=message) as err:
            ex.parse(text)
        assert err.value.position == 1


@pytest.mark.parametrize("text, value", [
    ("3", 3.0), (" -0.25 ", -0.25), ("+7E-2", 0.07), ("-0", -0.0), ("1e400", math.inf),
])
def test_a_number_outside_an_expression_is_a_sign_and_one_number_token(text, value):
    assert ex.read_number(text) == value
    assert math.copysign(1.0, ex.read_number(text)) == math.copysign(1.0, value)


@pytest.mark.parametrize("text", ["٣", "-١", "1_0", "1_0e-1", "٠.1", "- 1", "+-1", ".5", "5.",
                                  "1e", "inf", "nan", "0x1", "1 2", "", "-"])
def test_other_numbers_outside_an_expression_are_rejected(text):
    # float() takes most of these: any Unicode decimal digit, '_' separators
    with pytest.raises(ValueError, match="not a number"):
        ex.read_number(text)


@pytest.mark.parametrize("text, position", [("x^²", 3), ("1+٣", 3), ("θ", 1)])
def test_parse_rejects_a_digit_or_letter_outside_ascii(text, position):
    with pytest.raises(ex.ParseError, match="unexpected character") as err:
        ex.parse(text)
    assert err.value.position == position


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse("x^2.5")


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip_is_structural_identity(text):
    tree = ex.parse(text)
    assert ex.parse(ex.to_text(tree)) == tree


def test_printer_writes_the_corpus_back_verbatim():
    # reports and error messages show this text: no parenthesis is added,
    # and every number but 2.5e3 (printed 2500) is written as in the corpus
    reprinted = {text: ex.to_text(ex.parse(text)) for text in ROUND_TRIP_CORPUS}
    assert {text: out for text, out in reprinted.items() if out != text} == {"2.5e3": "2500"}


def test_seeded_trees_print_and_parse_back():
    rng = np.random.default_rng(2201)
    for _ in range(2000):
        tree = random_expr(rng, 5)
        assert ex.parse(ex.to_text(tree)) == tree, ex.to_text(tree)


def test_eval_simple():
    assert ex.evaluate(ex.parse("sin(theta)^2"), {"theta": math.pi / 2}) == pytest.approx(1.0)


def test_eval_division_by_zero_names_subexpression():
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})
    assert "1/x" in str(err.value)


def test_eval_log_domain():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("log(x)"), {"x": -2.0})


def test_eval_unbound_variable():
    with pytest.raises(ex.UnboundVariableError):
        ex.evaluate(ex.parse("x+y"), {"x": 1.0})


def test_diff_product_of_trig():
    # d/dtheta sin^2 = 2 sin cos
    tree = ex.diff(ex.parse("sin(theta)^2"), "theta")
    for theta in (0.3, 1.1, 2.0):
        assert ex.evaluate(tree, {"theta": theta}) == pytest.approx(
            2.0 * math.sin(theta) * math.cos(theta), abs=1e-14
        )


def test_diff_of_constant_is_zero():
    assert ex.evaluate(ex.diff(ex.parse("c"), "theta"), {"c": 5.0}) == 0.0


def test_second_derivative_matches_hand_value():
    # d^2/dt^2 t^3 = 6t, so 12 at t = 2
    second = ex.diff(ex.diff(ex.parse("t^3"), "t"), "t")
    assert ex.evaluate(second, {"t": 2.0}) == pytest.approx(12.0, abs=1e-12)


def test_third_order_differentiation_supported():
    third = ex.parse("sin(theta)^2")
    for _ in range(3):
        third = ex.diff(third, "theta")
    second = ex.diff(ex.diff(ex.parse("sin(theta)^2"), "theta"), "theta")
    for theta in (0.4, 0.7, 1.3):
        env = {"theta": theta}
        fd = central_difference(second, "theta", env)
        assert ex.evaluate(third, env) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_diff_against_finite_difference_example():
    tree = ex.parse("exp(2*t)")
    deriv = ex.diff(tree, "t")
    env = {"t": 0.3}
    fd = central_difference(tree, "t", env)
    value = ex.evaluate(deriv, env)
    assert abs(value - fd) <= 1e-6 * abs(value)


def test_diff_linearity_at_points():
    rng = np.random.default_rng(5)
    a = ex.parse("sin(x)*y")
    b = ex.parse("x^3+cos(y)")
    combined = ex.diff(ex.Add(a, b), "x")
    separate = ex.Add(ex.diff(a, "x"), ex.diff(b, "x"))
    for _ in range(20):
        env = {"x": float(rng.uniform(-2, 2)), "y": float(rng.uniform(-2, 2))}
        assert ex.evaluate(combined, env) == pytest.approx(
            ex.evaluate(separate, env), abs=1e-12
        )


def test_seeded_derivative_agreement_sample():
    # quick version of the acceptance property (full 1000 pairs run there)
    for tree, env in seeded_pairs(250, seed=20240601):
        value = ex.evaluate(ex.diff(tree, "x"), env)
        fd = central_difference(tree, "x", env)
        assert abs(value - fd) <= 1e-5 * (1.0 + abs(value)), ex.to_text(tree)


def test_printer_negative_constant_evaluates_equal():
    tree = ex.diff(ex.parse("cos(x)"), "x")  # -(sin(x)) style tree
    reparsed = ex.parse(ex.to_text(tree))
    for x in (0.2, 1.5):
        assert ex.evaluate(reparsed, {"x": x}) == pytest.approx(
            ex.evaluate(tree, {"x": x}), abs=1e-15
        )


def _scalar_table(trees, coords, points):
    """The reference: every tree walked at every point in order, the first
    error named at its point."""
    out = np.empty((len(points), len(trees)))
    for s, point in enumerate(points):
        env = dict(zip(coords, (float(x) for x in point)))
        for k, tree in enumerate(trees):
            try:
                out[s, k] = ex.evaluate(tree, env)
            except ex.EvalError as err:
                raise type(err)(f"{err.reason} at {ex.point_text(point)}", err.subexpr) from None
    return out


def _compiled_and_scalar(trees, coords, points):
    """Evaluate the trees as one compiled table and by the scalar walk,
    which share one arithmetic: an error must match the walk's in type and
    message, and every value must be the walk's bit for bit.  Returns the
    number of finite values compared, or None when the walk raised."""
    table = np.empty(len(trees), dtype=object)
    table[:] = trees
    try:
        expected = _scalar_table(trees, coords, points)
    except ex.EvalError as err:
        with pytest.raises(type(err)) as batched:
            ex.CompiledTable(table, coords).values(points)
        assert str(batched.value) == str(err)
        return None
    got = ex.CompiledTable(table, coords).values(points)
    assert np.array_equal(got, expected, equal_nan=True)
    finite = np.isfinite(expected)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(expected[finite]))
    return int(finite.sum())


@pytest.mark.parametrize("text, x, message", [
    ("exp(x)", 1000.0, "domain error in exp in 'exp(x)'"),
    ("sinh(x)", 1000.0, "domain error in sinh in 'sinh(x)'"),
    ("x^3", 1e200, "overflow in power in 'x^3'"),
    ("x^2", 1e200, "overflow in power in 'x^2'"),
    ("log(x)", -1.0, "log of a non-positive value in 'log(x)'"),
    ("1/x", 0.0, "division by zero in '1/x'"),
])
def test_out_of_domain_walk_raises_and_warns_nothing(text, x, message):
    # the walk computes with numpy's ufuncs, whose overflow would warn
    # outside its error state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ex.DomainError) as err:
            ex.evaluate(ex.parse(text), {"x": x})
    assert str(err.value) == message


def test_compiled_table_matches_scalar_walk():
    rng = np.random.default_rng(20240917)
    raised = compared = 0
    for _ in range(400):
        trees = [random_expr(rng, 4) for _ in range(3)]
        points = rng.uniform(-2.0, 2.0, size=(8, 2))
        points[rng.integers(8), rng.integers(2)] = 0.0
        count = _compiled_and_scalar(trees, ("x", "y"), points)
        if count is None:
            raised += 1
        else:
            compared += count
    assert raised > 100 and compared > 2000


def test_compiled_corpus_matches_scalar_walk():
    trees = [ex.parse(text) for text in ROUND_TRIP_CORPUS]
    coords = tuple(sorted(set().union(*(ex.variables(t) for t in trees))))
    points = np.random.default_rng(3).uniform(0.1, 2.0, size=(16, len(coords)))
    assert _compiled_and_scalar(trees, coords, points) == 16 * len(trees)
    # later samples leave the domain: x^-2 at x = 0, then 1/sin(chi) at chi = 0
    points[5, coords.index("x")] = 0.0
    points[9, coords.index("chi")] = 0.0
    assert _compiled_and_scalar(trees, coords, points) is None
    # a variable the chart does not have
    assert _compiled_and_scalar(trees, coords[1:], points[:, 1:]) is None


def test_compiled_table_shares_subexpressions():
    table = np.empty(3, dtype=object)
    table[:] = [ex.parse("x*y+sin(x*y)"), ex.parse("sin(y*x)"), ex.Const(2.5)]
    compiled = ex.CompiledTable(table, ("x", "y"))
    assert compiled.operations == 3  # x*y, its sine and the sum
    got = compiled.values([[0.5, 2.0], [1.0, -1.0]])
    for point, row in zip([(0.5, 2.0), (1.0, -1.0)], got):
        p = point[0] * point[1]
        assert row.tolist() == pytest.approx([p + math.sin(p), math.sin(p), 2.5], rel=1e-15)


@pytest.mark.parametrize("first, second", [
    ("log(x - 5)", "1/(x - x)"), ("1/(x - x)", "log(x - 5)"),
])
def test_one_point_raises_the_first_error_in_flat_order(first, second):
    # the one-point pass walks the entries in flat order, constants among
    # them; it raises the first bad entry's error at the point, the error of
    # a batch that starts at that point
    table = np.empty((2, 2), dtype=object)
    table[:] = [[ex.Const(1.0), ex.parse(first)], [ex.parse("x"), ex.parse(second)]]
    reason = {"log(x - 5)": "log of a non-positive value", "1/(x - x)": "division by zero"}
    message = f"{reason[first]} at (1.0) in '{ex.to_text(ex.parse(first))}'"
    for points in ([[1.0]], [[1.0], [6.5]]):
        with pytest.raises(ex.DomainError) as err:
            ex.CompiledTable(table, ("x",)).values(points)
        assert str(err.value) == message and err.value.subexpr == ex.parse(first)


def test_constant_table_is_a_read_only_broadcast():
    # no copy per point: one template behind a zero sample stride
    table = np.empty((2, 2), dtype=object)
    table[:] = [[ex.Const(1.5), ex.Const(0.0)], [ex.Const(0.0), ex.Const(-2.0)]]
    got = ex.CompiledTable(table, ("x",)).values(np.zeros((5, 1)))
    assert got.shape == (5, 2, 2) and got.strides[0] == 0
    assert not got.flags.writeable
    assert got.tolist() == [[[1.5, 0.0], [0.0, -2.0]]] * 5


class _CountingEnv(dict):
    """Bindings that count their lookups."""

    lookups = 0

    def __getitem__(self, name):
        self.lookups += 1
        return super().__getitem__(name)


def test_scalar_walk_evaluates_a_shared_subtree_once(monkeypatch):
    e = ex.Var("x")
    for _ in range(16):
        e = ex.Add(e, e)  # 2**16 paths from the root down to x
    env = _CountingEnv(x=0.75)
    assert ex.evaluate(e, env) == 2.0**16 * 0.75
    assert env.lookups == 1
    # every single-point evaluation of a table walks all its trees with one
    # memo, the second as the first; a batch runs the program instead
    lookups = []
    walk = ex._walk

    def counting(node, env, memo):
        if isinstance(node, ex.Var) and id(node) not in memo:
            lookups.append(node.name)
        return walk(node, env, memo)

    monkeypatch.setattr(ex, "_walk", counting)
    table = np.empty(2, dtype=object)
    table[:] = [e, ex.Add(e, ex.Const(1.0))]
    compiled = ex.CompiledTable(table, ("x",))
    for _ in range(2):
        lookups.clear()
        got = compiled.values([[0.75]])
        assert got.tolist() == [[2.0**16 * 0.75, 2.0**16 * 0.75 + 1.0]]
        assert lookups == ["x"]
    lookups.clear()
    assert compiled.values([[0.75], [0.75]]).tolist() == got.tolist() * 2
    assert lookups == []


def test_diff_memo_shares_without_changing_structure():
    memo = {}
    for tree, _ in seeded_pairs(50, seed=11):
        shared = ex.diff(tree, "x", memo)
        assert shared == ex.diff(tree, "x")
        if not isinstance(tree, (ex.Const, ex.Var)):
            assert ex.diff(tree, "x", memo) is shared


# one node of each class of the ``Expr`` union, in its order
EVERY_NODE = [ex.Const(2.5), ex.Var("x"), ex.Neg(ex.Var("x")), ex.Add(ex.Var("x"), ex.Const(1.0)),
              ex.Sub(ex.Var("x"), ex.Var("y")), ex.Mul(ex.Const(3.0), ex.Var("y")),
              ex.Div(ex.Var("y"), ex.Var("x")), ex.Pow(ex.Var("x"), -2),
              ex.Call("sin", ex.Var("y"))]


def test_every_node_class_is_listed_once():
    assert tuple(type(node) for node in EVERY_NODE) == ex.Expr.__args__


def test_trees_parsed_apart_are_equal_and_hash_equal():
    # trees are compared and hashed by value, so equal ones built apart can
    # key one dict entry
    text = "sin(x)^2*exp(-y)/(1+x) - cosh(y)*sqrt(x)"
    a, b = ex.parse(text), ex.parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert ex.parse(text + "+1") != a
    for node in EVERY_NODE:
        twin = type(node)(**vars(node))
        assert twin is not node and twin == node and hash(twin) == hash(node)
        assert len({node: 1, twin: 2}) == 1


def test_vars_and_fields_read_every_node():
    # vars() of a node is its fields, each a value or a child node; the
    # benchmark counts a table's nodes through vars()
    for node in EVERY_NODE:
        names = [f.name for f in dataclasses.fields(node)]
        assert list(vars(node)) == names
        assert vars(node) == {name: getattr(node, name) for name in names}
        assert repr(node).startswith(type(node).__name__ + "(")
    assert vars(EVERY_NODE[3]) == {"left": ex.Var("x"), "right": ex.Const(1.0)}
