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
evaluated concurrently.  Differentiation is exact and closed over the node
set; only constant folding and 0/1 identities are applied to keep derivative
trees small (no canonical normalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "parse",
    "to_text",
    "evaluate",
    "diff",
    "variables",
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.parse_term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.parse_factor()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def parse_factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.parse_factor())
        node = self.parse_primary()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("number", "an integer exponent")
            if any(c in tok[1] for c in ".eE"):
                raise ParseError("exponent must be an integer", tok[2])
            node = Pow(node, sign * int(tok[1]))
        return node

    def parse_primary(self) -> Expr:
        kind, lexeme, pos = self.advance()
        if kind == "number":
            return Const(float(lexeme))
        if kind == "ident":
            if self.peek()[0] == "(":
                if lexeme not in FUNCTIONS:
                    raise ParseError(f"unknown function {lexeme!r}", pos)
                self.advance()
                arg = self.parse_expr()
                self.expect(")", "')'")
                return Call(lexeme, arg)
            if lexeme in FUNCTIONS:
                raise ParseError(
                    f"function name {lexeme!r} needs an argument list", pos
                )
            return Var(lexeme)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        raise ParseError("expected a number, name, or '('", pos)


def parse(text: str) -> Expr:
    """Parse an expression string, raising ParseError with a 1-based offset."""
    parser = _Parser(text)
    node = parser.parse_expr()
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


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(e: Expr) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + _format_number(-e.value)
        return _format_number(e.value)
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


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to the named coordinate.

    Repeated application is supported to any order; the derivative of an
    expression not containing var is the zero constant.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(diff(e.arg, var))
    if isinstance(e, Add):
        return add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return _sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return add(
            mul(diff(e.left, var), e.right),
            mul(e.left, diff(e.right, var)),
        )
    if isinstance(e, Div):
        numerator = _sub(
            mul(diff(e.left, var), e.right),
            mul(e.left, diff(e.right, var)),
        )
        return _div(numerator, _pow(e.right, 2))
    if isinstance(e, Pow):
        du = diff(e.base, var)
        return mul(mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        u = e.arg
        du = diff(u, var)
        if e.func == "sin":
            return mul(_call("cos", u), du)
        if e.func == "cos":
            return _neg(mul(_call("sin", u), du))
        if e.func == "tan":
            return _div(du, _pow(_call("cos", u), 2))
        if e.func == "exp":
            return mul(_call("exp", u), du)
        if e.func == "log":
            return _div(du, u)
        if e.func == "sqrt":
            return _div(du, mul(Const(2.0), _call("sqrt", u)))
        if e.func == "sinh":
            return mul(_call("cosh", u), du)
        if e.func == "cosh":
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
