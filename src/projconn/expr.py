"""Scalar expression trees: parsing, printing, differentiation, evaluation.

Grammar (EBNF):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | primary ('^' integer)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

'+', '-', '*' and '/' associate to the left; '^' takes a literal integer
exponent and binds tighter than unary minus.  Identifiers are ASCII words
naming either a coordinate or one of the built-in functions (sin, cos, tan,
exp, log, sqrt, sinh, cosh).

Trees are immutable, so they can be shared freely between threads and
evaluated concurrently.  ``evaluate`` walks one tree at one point;
``CompiledTable`` compiles an array of trees into one straight-line program
with shared subexpressions and runs it on a whole batch of points.
Differentiation is exact and closed over the node set; only constant
folding and 0/1 identities are applied to keep derivative trees small (no
canonical normalization).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "DomainError",
    "UnboundVariableError",
    "MAX_DEPTH",
    "parse",
    "to_text",
    "evaluate",
    "CompiledTable",
    "point_text",
    "diff",
    "partials",
    "variables",
    "format_number",
    "const",
    "add",
    "mul",
]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at character {position})")
        self.position = position  # 1-based offset into the source text


class EvalError(ExprError):
    def __init__(self, message: str, subexpr: "Expr"):
        super().__init__(f"{message} in '{to_text(subexpr)}'")
        self.reason = message
        self.subexpr = subexpr


class DomainError(EvalError):
    """Evaluation left the function's domain (log of non-positive, 1/0, ...)."""


class UnboundVariableError(EvalError):
    """A variable of the expression has no binding."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Const | Var | Neg | Add | Sub | Mul | Div | Pow | Call

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
}


# ---------------------------------------------------------------------------
# tokenizer / parser


_OPERATORS = set("+-*/^()")


def _tokenize(text: str):
    """Yield (kind, lexeme, 1-based position) triples, ending with EOF."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch.isdigit():
            i += 1
            while i < length and text[i].isdigit():
                i += 1
            if i < length and text[i] == ".":
                i += 1
                if i >= length or not text[i].isdigit():
                    raise ParseError("malformed number", start + 1)
                while i < length and text[i].isdigit():
                    i += 1
            if i < length and text[i] in "eE":
                j = i + 1
                if j < length and text[j] in "+-":
                    j += 1
                if j < length and text[j].isdigit():
                    i = j + 1
                    while i < length and text[i].isdigit():
                        i += 1
            tokens.append(("number", text[start:i], start + 1))
            continue
        if ch.isalpha() or ch == "_":
            i += 1
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start + 1))
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, start + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start + 1)
    tokens.append(("eof", "", length + 1))
    return tokens


# The deepest expression ``parse`` accepts, counted both as nested factors
# (parentheses, function calls, unary minus; an atom alone is 1) and as tree
# depth (a leaf is 1).  The parser counts its own depth, so it fails with a
# ParseError long before Python's recursion limit, and the recursive tree
# walks (differentiation, evaluation, compilation) stay within it too.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each parse method returns (tree, tree depth)."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def check(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def parse_expr(self):
        node, depth = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            right, d = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
            depth = self.check(max(depth, d) + 1, pos)
        return node, depth

    def parse_term(self):
        node, depth = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            right, d = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
            depth = self.check(max(depth, d) + 1, pos)
        return node, depth

    def parse_factor(self):
        self.nesting += 1
        self.check(self.nesting, self.peek()[2])
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            arg, depth = self.parse_factor()
            node, depth = Neg(arg), self.check(depth + 1, pos)
        else:
            node, depth = self.parse_primary()
        if self.peek()[0] == "^":
            pos = self.advance()[2]
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("number", "an integer exponent")
            if any(c in tok[1] for c in ".eE"):
                raise ParseError("exponent must be an integer", tok[2])
            node, depth = Pow(node, sign * int(tok[1])), self.check(depth + 1, pos)
        self.nesting -= 1
        return node, depth

    def parse_primary(self):
        kind, lexeme, pos = self.advance()
        if kind == "number":
            value = float(lexeme)
            if not math.isfinite(value):
                raise ParseError("number out of range", pos)
            return Const(value), 1
        if kind == "ident":
            if self.peek()[0] == "(":
                if lexeme not in FUNCTIONS:
                    raise ParseError(f"unknown function {lexeme!r}", pos)
                self.advance()
                arg, depth = self.parse_expr()
                self.expect(")", "')'")
                return Call(lexeme, arg), self.check(depth + 1, pos)
            if lexeme in FUNCTIONS:
                raise ParseError(
                    f"function name {lexeme!r} needs an argument list", pos
                )
            return Var(lexeme), 1
        if kind == "(":
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        raise ParseError("expected a number, name, or '('", pos)


def parse(text: str) -> Expr:
    """Parse an expression string, raising ParseError with a 1-based offset."""
    parser = _Parser(text)
    node, _ = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError("unexpected trailing input", tok[2])
    return node


# ---------------------------------------------------------------------------
# printing

# precedence levels: +- (1), */ (2), unary - (3), ^ (4), atoms (9)


def _precedence(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Const) and e.value < 0:
        return 3
    if isinstance(e, Pow):
        return 4
    return 9


def format_number(value: float) -> str:
    """A float as written in a document: integral values without a point."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(e: Expr) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + format_number(-e.value)
        return format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = _render(e.arg) if _precedence(e.arg) >= 3 else f"({_render(e.arg)})"
        return "-" + inner
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left = _render(e.left)
        right = _render(e.right) if _precedence(e.right) > 1 else f"({_render(e.right)})"
        if right.startswith("-"):
            right = f"({right})"
        return f"{left}{op}{right}"
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _render(e.left) if _precedence(e.left) >= 2 else f"({_render(e.left)})"
        right = _render(e.right) if _precedence(e.right) > 2 else f"({_render(e.right)})"
        if right.startswith("-"):
            right = f"({right})"
        return f"{left}{op}{right}"
    if isinstance(e, Pow):
        base = _render(e.base) if _precedence(e.base) == 9 else f"({_render(e.base)})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_text(t)) evaluates equal to t,
    and is structurally equal for parser-produced trees."""
    return _render(e)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, env: dict) -> float:
    """Evaluate at the bindings in env (coordinate name -> float), IEEE double."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Add):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, Sub):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, Mul):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, Div):
        denom = evaluate(e.right, env)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, env) / denom
    if isinstance(e, Pow):
        base = evaluate(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        try:
            return float(base ** e.exponent)
        except OverflowError:
            raise DomainError("overflow in power", e) from None
    if isinstance(e, Call):
        arg = evaluate(e.arg, env)
        if e.func == "log" and arg <= 0.0:
            raise DomainError("log of a non-positive value", e)
        if e.func == "sqrt" and arg < 0.0:
            raise DomainError("sqrt of a negative value", e)
        try:
            return FUNCTIONS[e.func](arg)
        except (ValueError, OverflowError):
            raise DomainError(f"domain error in {e.func}", e) from None
    raise TypeError(f"not an expression node: {e!r}")


def point_text(point) -> str:
    """A point as plain floats, for messages."""
    return "(" + ", ".join(repr(float(x)) for x in point) + ")"


_BINARY_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}
_COMMUTATIVE = (np.add, np.multiply)  # exact in IEEE arithmetic, so operands may swap
_CALL_UFUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
}


def _compile(trees, coords: tuple[str, ...]):
    """Straight-line code for the trees over the coordinates.

    Registers 0..n-1 hold the coordinates; every distinct operation
    (ufunc, operand, operand) gets the next register, so subexpressions that
    recur within or across the trees -- by identity or by structure -- are
    computed once.  Operands are registers, or constants numbered after the
    last register.  Returns (code, output registers, register count,
    registers of unbound variables, constants).
    """
    registers = {name: r for r, name in enumerate(coords)}
    unbound = []
    ops: dict[tuple, int] = {}
    code = []
    constants: dict[tuple[float, float], int] = {}
    seen: dict[int, int] = {}  # id(node) -> operand; the trees keep every node alive

    def constant(value: float) -> int:
        key = (value, math.copysign(1.0, value))  # keeps 0.0 and -0.0 apart
        if key not in constants:
            constants[key] = len(constants)
        return ~constants[key]

    def variable(name: str) -> int:
        if name not in registers:
            registers[name] = len(registers) + len(code)
            unbound.append(registers[name])
        return registers[name]

    def emit(fn, a: int, b: int | None = None) -> int:
        if fn in _COMMUTATIVE and b < a:
            a, b = b, a
        key = (fn, a, b)
        if key not in ops:
            ops[key] = len(registers) + len(code)
            code.append((fn, a, b, ops[key]))
        return ops[key]

    def visit(e: Expr) -> int:
        operand = seen.get(id(e))
        if operand is None:
            kind = type(e)
            if kind is Const:
                operand = constant(e.value)
            elif kind is Var:
                operand = variable(e.name)
            elif kind is Neg:
                operand = emit(np.negative, visit(e.arg))
            elif kind is Pow:
                operand = emit(np.power, visit(e.base), constant(float(e.exponent)))
            elif kind is Call:
                operand = emit(_CALL_UFUNCS[e.func], visit(e.arg))
            elif kind in _BINARY_UFUNCS:
                operand = emit(_BINARY_UFUNCS[kind], visit(e.left), visit(e.right))
            else:
                raise TypeError(f"not an expression node: {e!r}")
            seen[id(e)] = operand
        return operand

    outputs = [visit(tree) for tree in trees]
    count = len(registers) + len(code)

    def slot(operand: int | None) -> int | None:
        return operand if operand is None or operand >= 0 else count + ~operand

    code = [(fn, slot(a), slot(b), r) for fn, a, b, r in code]
    return code, outputs, count, unbound, [value for value, _ in constants]


class CompiledTable:
    """An object array of trees, compiled into a straight-line program over
    the coordinates and evaluated on a batch of points at a time.

    Constant entries are baked into a template; the program computes the
    varying ones in a register file with one row per distinct operation and
    one column per point, and one fancy index gathers them.  The program is
    compiled on first use, except that a first evaluation at a single point
    walks the trees instead: a chart loaded for one point query would spend
    longer compiling than walking.

    In IEEE arithmetic every domain error of the scalar ``evaluate`` leaves
    a non-finite register: division by zero and zero to a negative power give
    an infinity, log of x <= 0 gives -inf or nan, sqrt of x < 0 gives nan,
    and overflow in exp, sinh, cosh or a power gives an infinity; an unbound
    variable is a row of nan.  So one mask, the points with a non-finite
    register, covers them all.  Each masked point is evaluated again by
    ``evaluate``, which either raises the scalar error, with the point named
    in its message, or supplies that point's values.  Points are taken in
    order, so the error is the first the scalar walk would meet.
    """

    def __init__(self, table: np.ndarray, coords: Sequence[str]):
        self.shape = table.shape
        self.coords = tuple(coords)
        flat = table.reshape(-1).tolist()
        self.template = np.array([e.value if isinstance(e, Const) else 0.0 for e in flat])
        index = [k for k, e in enumerate(flat) if not isinstance(e, Const)]
        self.trees = [flat[k] for k in index]
        self.index = np.array(index, dtype=np.intp)
        self._program = None
        self._evaluated = False

    @property
    def operations(self) -> int:
        """Instructions in the program: one per distinct operation."""
        return len(self._compiled()[0])

    def values(self, points) -> np.ndarray:
        """The table at each of the (S, n) points, shape (S,) + table shape."""
        points = np.asarray(points, dtype=float)
        out = np.empty((points.shape[0], self.template.size))
        out[:] = self.template
        if self.trees:
            if len(points) == 1 and not self._evaluated:
                out[0, self.index] = self._evaluate_at(points[0])
            else:
                registers, outputs = self._run(points)
                out[:, self.index] = registers[outputs].T
                for s in np.flatnonzero(~np.isfinite(registers).all(axis=0)):
                    out[s, self.index] = self._evaluate_at(points[s])
            self._evaluated = True
        return out.reshape((points.shape[0],) + self.shape)

    def _compiled(self):
        if self._program is None:
            self._program = _compile(self.trees, self.coords)
        return self._program

    def _run(self, points: np.ndarray):
        """The register file after one pass over the points, and the
        registers holding the varying entries."""
        code, outputs, count, unbound, constants = self._compiled()
        registers = np.empty((count, points.shape[0]))
        registers[: len(self.coords)] = points.T
        if unbound:
            registers[unbound] = np.nan
        operands = [*registers, *constants]
        with np.errstate(all="ignore"):
            for fn, a, b, r in code:
                if b is None:
                    fn(operands[a], out=operands[r])
                else:
                    fn(operands[a], operands[b], out=operands[r])
        return registers, outputs

    def _evaluate_at(self, point) -> list[float]:
        env = dict(zip(self.coords, point.tolist()))
        try:
            return [evaluate(tree, env) for tree in self.trees]
        except EvalError as err:
            raise type(err)(f"{err.reason} at {point_text(point)}", err.subexpr) from None


# ---------------------------------------------------------------------------
# differentiation (with light simplification)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def const(value: float) -> Const:
    return Const(float(value))


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(float(base.value ** exponent))
        except (OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def _call(func: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        try:
            return Const(FUNCTIONS[func](arg.value))
        except (ValueError, OverflowError):
            pass
    return Call(func, arg)


def diff(e: Expr, var: str, memo: dict | None = None) -> Expr:
    """Exact partial derivative with respect to the named coordinate.

    Repeated application is supported to any order; the derivative of an
    expression not containing var is the zero constant.  ``memo`` maps
    (node identity, var) to the node and its derivative, so a subtree shared
    within one tree, or across the calls given the same memo, is
    differentiated once and its derivative is shared in turn.  The result is
    structurally the same with or without it.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if memo is None:
        memo = {}
    key = (id(e), var)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(e, Neg):
        result = _neg(diff(e.arg, var, memo))
    elif isinstance(e, Add):
        result = add(diff(e.left, var, memo), diff(e.right, var, memo))
    elif isinstance(e, Sub):
        result = _sub(diff(e.left, var, memo), diff(e.right, var, memo))
    elif isinstance(e, Mul):
        result = add(
            mul(diff(e.left, var, memo), e.right),
            mul(e.left, diff(e.right, var, memo)),
        )
    elif isinstance(e, Div):
        numerator = _sub(
            mul(diff(e.left, var, memo), e.right),
            mul(e.left, diff(e.right, var, memo)),
        )
        result = _div(numerator, _pow(e.right, 2))
    elif isinstance(e, Pow):
        du = diff(e.base, var, memo)
        result = mul(mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), du)
    elif isinstance(e, Call):
        result = _diff_call(e, diff(e.arg, var, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = (e, result)  # holding e keeps its identity from being reused
    return result


def partials(table: np.ndarray, coords: Sequence[str], memo: dict) -> np.ndarray:
    """The first partials of an object table of trees, with the derivative
    axis first: out[m, ...] = d table[...] / d coords[m].  Every entry is
    differentiated through the one ``memo`` (see ``diff``)."""
    out = np.empty((len(coords),) + table.shape, dtype=object)
    for m, coord in enumerate(coords):
        for idx in np.ndindex(table.shape):
            out[(m,) + idx] = diff(table[idx], coord, memo)
    return out


def _diff_call(e: Call, du: Expr) -> Expr:
    """Chain rule for a built-in function of u, given du."""
    func, u = e.func, e.arg
    if func == "sin":
        return mul(_call("cos", u), du)
    if func == "cos":
        return _neg(mul(_call("sin", u), du))
    if func == "tan":
        return _div(du, _pow(_call("cos", u), 2))
    if func == "exp":
        return mul(_call("exp", u), du)
    if func == "log":
        return _div(du, u)
    if func == "sqrt":
        return _div(du, mul(Const(2.0), _call("sqrt", u)))
    if func == "sinh":
        return mul(_call("cosh", u), du)
    if func == "cosh":
        return mul(_call("sinh", u), du)
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[str]:
    """All variable names occurring in the tree."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Const,)):
        return set()
    if isinstance(e, Neg):
        return variables(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Pow):
        return variables(e.base)
    if isinstance(e, Call):
        return variables(e.arg)
    raise TypeError(f"not an expression node: {e!r}")
