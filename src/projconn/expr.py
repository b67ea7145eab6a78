"""Scalar expression trees: parsing, printing, differentiation, evaluation.

Grammar (EBNF):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | primary ('^' '-'? digit+)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'
    number  := digit+ ('.' digit+)? (('e' | 'E') ('+' | '-')? digit+)?
    ident   := letter (letter | digit)*

A digit is one of the ASCII '0' to '9' (``DIGITS``), a letter one of the
ASCII 'A' to 'Z', 'a' to 'z' and '_' (``LETTERS``): any other character, a
superscript or a non-Latin digit or letter included, is a ParseError.  '+',
'-', '*' and '/' associate to the left, with the precedence of
``_OPERATORS``; '^' takes a literal integer exponent and binds tighter than
unary minus.  An identifier names either a coordinate or one of the built-in
functions (sin, cos, tan, exp, log, sqrt, sinh, cosh).  A number written
outside an expression (a dimension, a box bound, a point coordinate) is an
optional sign and one number token (``read_number``).

The nodes are plain dataclasses, compared and hashed by their fields, and
never mutated after construction: no code assigns to a node field.  So a
tree is shared by identity, between tables (the ``diff`` memo), between
entries (the walk memo, ``_compile``'s ``seen``) and between threads.  They
are not frozen, because a frozen dataclass's ``__init__`` sets each field
through ``object.__setattr__``, which more than doubles the cost of
building a node; nor slotted, so ``vars`` reads a node's fields.
``evaluate`` walks one tree at one point;
``CompiledTable`` walks an array of trees at one point, and compiles it
into one straight-line program with shared subexpressions to run on a
whole batch of points.  Both compute with the ufuncs of ``FUNCTIONS`` and
``_OPERATORS``, x^2 as x*x.
Differentiation is exact and closed over the node set; only constant
folding and 0/1 identities are applied to keep derivative trees small (no
canonical normalization).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
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
    "read_number",
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


@dataclass(unsafe_hash=True)
class Const:
    """A number."""

    value: float


@dataclass(unsafe_hash=True)
class Var:
    """A coordinate, by name."""

    name: str


@dataclass(unsafe_hash=True)
class Neg:
    """-arg."""

    arg: "Expr"


@dataclass(unsafe_hash=True)
class Add:
    """left + right."""

    left: "Expr"
    right: "Expr"


@dataclass(unsafe_hash=True)
class Sub:
    """left - right."""

    left: "Expr"
    right: "Expr"


@dataclass(unsafe_hash=True)
class Mul:
    """left * right."""

    left: "Expr"
    right: "Expr"


@dataclass(unsafe_hash=True)
class Div:
    """left / right."""

    left: "Expr"
    right: "Expr"


@dataclass(unsafe_hash=True)
class Pow:
    """base ^ exponent, a literal integer exponent."""

    base: "Expr"
    exponent: int


@dataclass(unsafe_hash=True)
class Call:
    """A built-in function of ``FUNCTIONS`` applied to arg."""

    func: str
    arg: "Expr"


Expr = Const | Var | Neg | Add | Sub | Mul | Div | Pow | Call

# The built-in functions, each computed by the ufunc of its name.  The
# parser, the chart loader, the walk and the compiler all read this table.
FUNCTIONS = {name: getattr(np, name)
             for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")}


_Operator = namedtuple("_Operator", "symbol precedence ufunc")

# The binary operators: how each is written, how tightly it binds (see
# ``_precedence``) and the ufunc that computes it.  The parser, the printer,
# the compiler and ``variables`` read this table.
_OPERATORS = {
    Add: _Operator("+", 1, np.add),
    Sub: _Operator("-", 1, np.subtract),
    Mul: _Operator("*", 2, np.multiply),
    Div: _Operator("/", 2, np.divide),
}
_BY_SYMBOL = {op.symbol: (kind, op.precedence) for kind, op in _OPERATORS.items()}


# ---------------------------------------------------------------------------
# tokenizer / parser

# The digits and the letters of the grammar, ASCII only.  The tokenizer and
# the chart loader's coordinate names and key indices all read these.
DIGITS = "0123456789"
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_DIGIT = frozenset(DIGITS)
_LETTER = frozenset(LETTERS)
_WORD = _DIGIT | _LETTER
_SYMBOLS = frozenset("^()").union(_BY_SYMBOL)


def is_name(text: str) -> bool:
    """Whether the text is one identifier of the grammar."""
    return text[:1] in _LETTER and _WORD.issuperset(text)


def _number_end(text: str, start: int) -> int:
    """Where the number token that starts with the digit at ``start`` ends."""
    i = start + 1
    length = len(text)
    while i < length and text[i] in _DIGIT:
        i += 1
    if i < length and text[i] == ".":
        i += 1
        if i >= length or text[i] not in _DIGIT:
            raise ParseError("malformed number", start + 1)
        while i < length and text[i] in _DIGIT:
            i += 1
    if i < length and text[i] in "eE":
        j = i + 1
        if j < length and text[j] in "+-":
            j += 1
        if j < length and text[j] in _DIGIT:
            i = j + 1
            while i < length and text[i] in _DIGIT:
                i += 1
    return i


def _tokenize(text: str):
    """(kind, lexeme, 1-based position) triples, ending with EOF."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in _DIGIT:
            i = _number_end(text, start)
            tokens.append(("number", text[start:i], start + 1))
            continue
        if ch in _LETTER:
            i += 1
            while i < length and text[i] in _WORD:
                i += 1
            tokens.append(("ident", text[start:i], start + 1))
            continue
        if ch in _SYMBOLS:
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
    """Recursive descent over tokens; each parse method returns (tree, tree depth)."""

    def __init__(self, tokens: list):
        self.tokens = tokens
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

    def parse_expr(self, level: int = 1):
        """Factors joined by binary operators of precedence ``level`` or
        above, each associating to the left: an operand to the right of an
        operator takes only the operators that bind tighter."""
        node, depth = self.parse_factor()
        while True:
            kind, precedence = _BY_SYMBOL.get(self.peek()[0], (None, 0))
            if precedence < level:
                return node, depth
            pos = self.advance()[2]
            right, d = self.parse_expr(precedence + 1)
            node = kind(node, right)
            depth = self.check(max(depth, d) + 1, pos)

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
            if not math.isfinite(float(tok[1])):  # the evaluators take it as a float
                raise ParseError("number out of range", tok[2])
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
    """Parse an expression string, raising ParseError with a 1-based offset.

    An entry that is one finite number, with only whitespace around it, as
    most metric entries of a chart are, becomes its constant before any
    tokenizing: ``_number_end`` reads it as the tokenizer would, and raises
    the tokenizer's error for a malformed one.  Everything else, an
    out-of-range number included, is tokenized and parsed."""
    start = len(text) - len(text.lstrip())
    if text[start:start + 1] in _DIGIT:
        end = _number_end(text, start)
        if not text[end:].strip():
            value = float(text[start:end])
            if math.isfinite(value):
                return Const(value)
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError("unexpected trailing input", tok[2])
    return node


def read_number(text: str) -> float:
    """A number written outside an expression, such as a dimension, a box
    bound or a point coordinate: an optional sign, then one number token of
    the grammar.  ValueError for any other text."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    try:
        whole = digits[:1] in _DIGIT and _number_end(digits, 0) == len(digits)
    except ParseError:
        whole = False
    if not whole:
        raise ValueError(f"not a number: {text!r}")
    return float(body)


# ---------------------------------------------------------------------------
# printing


def _precedence(e: Expr) -> int:
    """How tightly the printed form of e binds: a binary operator's
    precedence, 3 for unary minus (a negative constant prints with one), 4
    for '^' and 9 for an atom."""
    op = _OPERATORS.get(type(e))
    if op is not None:
        return op.precedence
    if isinstance(e, Neg) or isinstance(e, Const) and e.value < 0:
        return 3
    return 4 if isinstance(e, Pow) else 9


def format_number(value: float) -> str:
    """A float as written in a document: integral values without a point."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_text(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_text(t)) evaluates equal to t,
    and is structurally equal for parser-produced trees."""
    if isinstance(e, Const):
        if e.value < 0:
            return "-" + format_number(-e.value)
        return format_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        return "-" + (inner if _precedence(e.arg) >= 3 else f"({inner})")
    op = _OPERATORS.get(type(e))
    if op is not None:
        left, right = to_text(e.left), to_text(e.right)
        if _precedence(e.left) < op.precedence:
            left = f"({left})"
        if _precedence(e.right) <= op.precedence or right.startswith("-"):
            right = f"({right})"
        return f"{left}{op.symbol}{right}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        return (base if _precedence(e.base) == 9 else f"({base})") + f"^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, env: dict, memo: dict | None = None) -> float:
    """Evaluate at the bindings in env (coordinate name -> float), IEEE double.

    The arithmetic is ``CompiledTable``'s, so both give the same bits.  A
    non-finite function or power value is a DomainError, as are log of
    x <= 0, sqrt of x < 0, division by zero and zero to a negative power.

    ``memo`` maps node identity to the node and its value, so a subtree
    shared within one tree, or across the calls given the same memo, is
    evaluated once.  A memo belongs to one ``env``: the values it holds are
    those at env's bindings.
    """
    with np.errstate(all="ignore"):
        return _walk(e, env, {} if memo is None else memo)


def _walk(e: Expr, env: dict, memo: dict) -> float:
    """``evaluate`` without its floating-point error state."""
    kind = type(e)
    if kind is Const:
        return e.value
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if kind is Mul:  # most nodes of a differentiated table are products
        value = _walk(e.left, env, memo) * _walk(e.right, env, memo)
    elif kind is Add:
        value = _walk(e.left, env, memo) + _walk(e.right, env, memo)
    elif kind is Var:
        try:
            value = env[e.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {e.name!r}", e) from None
    elif kind is Call:
        arg = _walk(e.arg, env, memo)
        if e.func == "log" and arg <= 0.0:
            raise DomainError("log of a non-positive value", e)
        if e.func == "sqrt" and arg < 0.0:
            raise DomainError("sqrt of a negative value", e)
        value = float(FUNCTIONS[e.func](arg))
        if not math.isfinite(value):
            raise DomainError(f"domain error in {e.func}", e)
    elif kind is Pow:
        base = _walk(e.base, env, memo)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        # x*x is the program's np.power(x, 2.0): numpy squares for a scalar 2
        value = base * base if e.exponent == 2 else float(np.power(base, float(e.exponent)))
        if not math.isfinite(value):
            raise DomainError("overflow in power", e)
    elif kind is Sub:
        value = _walk(e.left, env, memo) - _walk(e.right, env, memo)
    elif kind is Div:
        denom = _walk(e.right, env, memo)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        value = _walk(e.left, env, memo) / denom
    elif kind is Neg:
        value = -_walk(e.arg, env, memo)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[id(e)] = (e, value)  # holding e keeps its identity from being reused
    return value


def point_text(point) -> str:
    """A point as plain floats, for messages."""
    return "(" + ", ".join(repr(float(x)) for x in point) + ")"


_COMMUTATIVE = (np.add, np.multiply)  # exact in IEEE arithmetic, so operands may swap


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
                operand = emit(FUNCTIONS[e.func], visit(e.arg))
            elif kind in _OPERATORS:
                operand = emit(_OPERATORS[kind].ufunc, visit(e.left), visit(e.right))
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
    """An object array of trees, evaluated at one point by walking its
    entries or on a batch of points by a compiled straight-line program.

    A table keeps its shape, its coordinates and its flat list of entries.
    A single point is walked in one pass over the entries, in order: a
    ``Const`` gives its value, every other entry is walked (``evaluate``)
    with one memo shared by the entries, which share subtrees.  A chart
    loaded for one point query would spend longer compiling than walking.
    The batch machinery is built, all of it at once, on the first read of
    two or more points: constant entries are baked into a template, and the
    program computes the varying ones in a register file with one row per
    distinct operation and one column per point, and one fancy index
    gathers them.  The walk computes with the program's ufuncs, so a
    point's values do not depend on the batch, the chunk or the call
    history it comes with.

    In IEEE arithmetic every domain error of the walk leaves a non-finite
    register: division by zero and zero to a negative power give an
    infinity, log of x <= 0 gives -inf or nan, sqrt of x < 0 gives nan, a
    non-finite function or power value is the walk's error too, and so is
    a non-finite entry value, such as a product that overflows; an unbound
    variable is a row of nan.  So one mask, the points with a non-finite
    register, covers them all.  Each masked point is walked again, which
    either raises the walk's error, with the point named in its message, or
    supplies that point's values.  Points are taken in order, so the error
    is the first the walk would meet.
    """

    def __init__(self, table: np.ndarray, coords: Sequence[str]):
        self.shape = table.shape
        self.coords = tuple(coords)
        self.entries = table.reshape(-1).tolist()
        self._batch = None

    @property
    def operations(self) -> int:
        """Instructions in the program: one per distinct operation."""
        return len(self._batched()[2][0])

    def values(self, points) -> np.ndarray:
        """The table at each of the (S, n) points, shape (S,) + table shape.
        One point is a fresh array, walked.  On a batch, a table with no
        varying entry is its template broadcast over the points: a
        read-only view with a zero sample stride, not a copy per point."""
        points = np.asarray(points, dtype=float)
        if len(points) == 1:
            return self._evaluate_at(points[0]).reshape((1,) + self.shape)
        template, index, program = self._batched()
        if not index.size:
            # np.broadcast_to of the read-only template, at a third the cost
            constant = template.reshape(self.shape)
            return np.ndarray((points.shape[0],) + self.shape, float, constant,
                              strides=(0,) + constant.strides)
        out = np.empty((points.shape[0], template.size))
        out[:] = template
        registers, outputs = self._run(program, points)
        out[:, index] = registers[outputs].T
        for s in np.flatnonzero(~np.isfinite(registers).all(axis=0)):
            out[s] = self._evaluate_at(points[s])
        return out.reshape((points.shape[0],) + self.shape)

    def _batched(self):
        """The template, the index of the varying entries and their program,
        built together on first use."""
        if self._batch is None:
            entries = self.entries
            template = np.array([e.value if type(e) is Const else 0.0 for e in entries])
            index = [k for k, e in enumerate(entries) if type(e) is not Const]
            if not index:  # every batch of a constant table is a view of it
                template.flags.writeable = False
            program = _compile([entries[k] for k in index], self.coords)
            self._batch = template, np.array(index, dtype=np.intp), program
        return self._batch

    def _run(self, program, points: np.ndarray):
        """The register file after one pass of the program over the points,
        and the registers holding the varying entries."""
        code, outputs, count, unbound, constants = program
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

    def _evaluate_at(self, point) -> np.ndarray:
        """Every entry at one point, in one pass: a constant's value, or the
        entry walked.  A non-finite walked value is a DomainError too:
        products alone can overflow."""
        env = dict(zip(self.coords, point.tolist()))
        memo = {}  # shared by the entries, which share subtrees
        finite = math.isfinite
        try:
            with np.errstate(all="ignore"):
                return np.array([
                    e.value if type(e) is Const
                    else value if finite(value := _walk(e, env, memo)) else _non_finite(e)
                    for e in self.entries
                ])
        except EvalError as err:
            raise type(err)(f"{err.reason} at {point_text(point)}", err.subexpr) from None


def _non_finite(tree: Expr):
    """The error of an entry whose value is not finite."""
    raise DomainError("non-finite value", tree)


# ---------------------------------------------------------------------------
# differentiation (with light simplification)


def const(value: float) -> Const:
    return Const(float(value))


# the zero and one that derivatives and simplifications return, shared
_ZERO, _ONE = Const(0.0), Const(1.0)

# The simplifying constructors below read the value of a constant operand as
# x or y, None for any other node.  Two constants fold only to a finite
# value, so no table holds a constant infinity: an overflow is left to the
# evaluation, which names it and the point.


def add(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Const else None
    y = b.value if type(b) is Const else None
    if x == 0.0:
        return b
    if y == 0.0:
        return a
    if x is not None and y is not None and math.isfinite(x + y):
        return Const(x + y)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Const else None
    y = b.value if type(b) is Const else None
    if y == 0.0:
        return a
    if x == 0.0:
        return _neg(b)
    if x is not None and y is not None and math.isfinite(x - y):
        return Const(x - y)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Const else None
    y = b.value if type(b) is Const else None
    if x == 0.0 or y == 0.0:
        return _ZERO
    if x == 1.0:
        return b
    if y == 1.0:
        return a
    if x is not None and y is not None and math.isfinite(x * y):
        return Const(x * y)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    x = a.value if type(a) is Const else None
    y = b.value if type(b) is Const else None
    if x == 0.0:
        return _ZERO
    if y == 1.0:
        return a
    if x is not None and y is not None and y != 0.0 and math.isfinite(x / y):
        return Const(x / y)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    kind = type(a)
    if kind is Const:
        return Const(-a.value)
    if kind is Neg:
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if type(base) is Const:
        try:
            return Const(float(base.value ** exponent))
        except (OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def diff(e: Expr, var: str, memo: dict | None = None) -> Expr:
    """Exact partial derivative with respect to the named coordinate.

    Repeated application is supported to any order; the derivative of an
    expression not containing var is the zero constant.  ``memo`` maps
    (node identity, var) to the node and its derivative, so a subtree shared
    within one tree, or across the calls given the same memo, is
    differentiated once and its derivative is shared in turn.  The result is
    structurally the same with or without it.
    """
    kind = type(e)
    if kind is Const:
        return _ZERO
    if kind is Var:
        return _ONE if e.name == var else _ZERO
    if memo is None:
        memo = {}
    key = (id(e), var)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if kind is Mul:  # most nodes of a differentiated table are products
        result = add(
            mul(diff(e.left, var, memo), e.right),
            mul(e.left, diff(e.right, var, memo)),
        )
    elif kind is Add:
        result = add(diff(e.left, var, memo), diff(e.right, var, memo))
    elif kind is Call:
        result = _diff_call(e, diff(e.arg, var, memo))
    elif kind is Pow:
        du = diff(e.base, var, memo)
        result = mul(mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), du)
    elif kind is Sub:
        result = _sub(diff(e.left, var, memo), diff(e.right, var, memo))
    elif kind is Div:
        numerator = _sub(
            mul(diff(e.left, var, memo), e.right),
            mul(e.left, diff(e.right, var, memo)),
        )
        result = _div(numerator, _pow(e.right, 2))
    elif kind is Neg:
        result = _neg(diff(e.arg, var, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = (e, result)  # holding e keeps its identity from being reused
    return result


@functools.cache
def _multi_indices(n: int, rank: int) -> tuple:
    """The sorted multi-indices of ``rank`` axes over n coordinates, in
    lexicographic order, each with its other permutations."""
    return tuple(
        (index, tuple(set(itertools.permutations(index)) - {index}))
        for index in itertools.combinations_with_replacement(range(n), rank)
    )


def partials(table: np.ndarray, coords: Sequence[str], memo: dict, axes: int) -> np.ndarray:
    """The first partials of an object table of trees whose first ``axes``
    axes are derivative axes, with the new derivative axis first:
    out[m, ...] = d table[...] / d coords[m].

    Partials commute, so each derivative multi-index is differentiated once:
    the sorted ones, (m, *rest) with m <= rest[0] <= ..., are walked in
    lexicographic order, out[m, *rest] is table[rest] differentiated by
    coords[m], and every permutation of the multi-index holds that
    sub-array's trees.  A table whose derivative axes are symmetric thus
    extends to one that is too.  Every entry is differentiated through the
    one ``memo`` (see ``diff``).
    """
    n = len(coords)
    out = np.empty((n,) + table.shape, dtype=object)
    for index, perms in _multi_indices(n, axes + 1):
        m, *rest = index
        var = coords[m]
        part = out[index]
        part.reshape(-1)[:] = [diff(e, var, memo) for e in table[tuple(rest)].reshape(-1).tolist()]
        for perm in perms:
            out[perm] = part
    return out


def _diff_call(e: Call, du: Expr) -> Expr:
    """Chain rule for a built-in function of u, given du."""
    func, u = e.func, e.arg
    if func == "sin":
        return mul(Call("cos", u), du)
    if func == "cos":
        return _neg(mul(Call("sin", u), du))
    if func == "tan":
        return _div(du, _pow(Call("cos", u), 2))
    if func == "exp":
        return mul(Call("exp", u), du)
    if func == "log":
        return _div(du, u)
    if func == "sqrt":
        return _div(du, mul(Const(2.0), Call("sqrt", u)))
    if func == "sinh":
        return mul(Call("cosh", u), du)
    if func == "cosh":
        return mul(Call("sinh", u), du)
    raise TypeError(f"not an expression node: {e!r}")


def variables(e: Expr) -> set[str]:
    """All variable names occurring in the tree."""
    kind = type(e)
    if kind is Var:
        return {e.name}
    if kind is Const:
        return set()
    if kind is Neg or kind is Call:
        return variables(e.arg)
    if kind is Pow:
        return variables(e.base)
    if kind in _OPERATORS:
        return variables(e.left) | variables(e.right)
    raise TypeError(f"not an expression node: {e!r}")
