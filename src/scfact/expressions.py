"""Arithmetic expression trees over complex scalars.

Expressions are immutable trees of constants, variable references, the binary
operators ``+ - * / ^``, unary negation, and a fixed set of unary functions
(``exp ln sqrt sin cos abs re im conj``).  They are the substrate for every
equation definition in this package: right-hand sides, separable components,
and forcing sequences are all expression trees evaluated in IEEE
double-precision complex arithmetic.

Grammar (EBNF)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := NUMBER | "i" | IDENT | IDENT "(" expr ")" | "(" expr ")"
    IDENT  := [A-Za-z_][A-Za-z0-9_]*

``i`` is reserved for the imaginary unit and is never a variable.  Numeric
literals are decimal with an optional exponent and must be finite as doubles
(``1e309`` is a :class:`NonFiniteLiteralError`); there is no implicit
multiplication.  Note that per this grammar the base of ``^`` may be a bare
negated atom, so ``-x^2`` denotes ``(-x)^2``.

Powers use the principal branch: ``w^c = exp(c*Log w)`` with ``Log`` the
principal logarithm, and ``0^c = 0`` when ``Re(c) > 0`` (a domain error
otherwise).  Evaluation is pure and deterministic; trees and bindings are
immutable and safe to share across threads.

Evaluation has one path.  :func:`lower` compiles a tree once into a Python
function of complex positional arguments, with parameters bound as complex
constants; the package lowers every equation, symmetry, cofactor and
sequence once and calls the result.  :func:`evaluate` lowers on every call: a one-shot call of
a small tree costs about 26 us, where a lowered call costs about 0.14 us
(the former tree walker took about 0.5 us), so only the parsing of document
constants uses it.  Orbits do not call lowered functions at all:
``equations`` splices the same statements (``_emit``) into one compiled loop
per equation, cofactor and cascade stage, so a step costs little more than
its arithmetic.  A node whose operands are all constants is computed once,
as soon as it is emitted, and bound as a constant; so a subtree that reads
no argument, such as ``exp(a)``, folds bottom-up, and one that raises stays.

The parser is recursive descent and accepts at most 50 nested levels of
parentheses, calls, unary minus and ``^``; deeper input is a
:class:`ParseError` at the token that opens level 51.  A level costs up to
8 Python frames, so a limit-deep parse needs about 410.  Every other walk
keeps an explicit stack, so trees built another way may be arbitrarily
deep.  Lowering, :func:`substitute` and the formatter share one, ``_fold``;
free variables keep their own, which collects a set several times faster
than folding sets.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ParseError",
    "NonFiniteLiteralError",
    "EvaluationError",
    "UnboundVariableError",
    "DomainError",
    "FUNCTIONS",
    "parse_expression",
    "evaluate",
    "lower",
    "format_expression",
    "format_complex",
    "substitute",
    "as_expression",
]

class ExpressionError(Exception):
    """Base class for parse- and evaluation-time failures."""


class ParseError(ExpressionError):
    """Syntax error, reported with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        text = f"syntax error at offset {offset}: {message}"
        if expected is not None:
            text += f" (expected {expected})"
        super().__init__(text)


class NonFiniteLiteralError(ParseError):
    """A numeric literal too large for a double, such as ``1e309``."""

    def __init__(self, text: str, offset: int):
        self.value = float(text)
        super().__init__(f"number {text} is not finite", offset)


class EvaluationError(ExpressionError):
    """Evaluation failure carrying the offending subexpression."""

    def __init__(self, message: str, node: "Expression | None" = None):
        self.node = node
        if node is not None:
            message = f"{message} in '{format_expression(node)}'"
        super().__init__(message)


class UnboundVariableError(EvaluationError):
    pass


class DomainError(EvaluationError):
    pass


ExprLike = Union["Expression", complex, float, int]


def as_expression(value: ExprLike) -> "Expression":
    """Coerce a number to a :class:`Const`; pass expressions through."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, complex)):
        return Const(complex(value))
    raise TypeError(f"cannot treat {value!r} as an expression")


def _operator(op: str, reflected: bool = False):
    """Overload building ``BinOp(op, self, other)``, operands swapped when
    ``reflected``."""

    def build(self, other: ExprLike) -> "BinOp":
        other = as_expression(other)
        return BinOp(op, other, self) if reflected else BinOp(op, self, other)

    return build


class Expression:
    """Abstract node.  Operator overloads build new trees without simplifying."""

    __slots__ = ()

    def free_variables(self) -> frozenset[str]:
        names: set[str] = set()
        todo: list[Expression] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, Var):
                names.add(node.name)
            todo.extend(_children(node))
        return frozenset(names)

    __add__, __radd__ = _operator("+"), _operator("+", reflected=True)
    __sub__, __rsub__ = _operator("-"), _operator("-", reflected=True)
    __mul__, __rmul__ = _operator("*"), _operator("*", reflected=True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", reflected=True)
    __pow__ = _operator("^")

    def __neg__(self) -> "Neg":
        return Neg(self)

    def __str__(self) -> str:
        return format_expression(self)


@dataclass(frozen=True, slots=True)
class Const(Expression):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class BinOp(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


def _children(node: Expression) -> tuple[Expression, ...]:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


# ----------------------------------------------------------------------
# Lowering: the one evaluation path.  A tree compiles to straight-line code,
# one temporary per operator or call node.  The checks that name the failing
# node in their errors are written inline; ``ln`` and ``^`` call the helpers
# below.  Subtrees that read no argument are computed once, when lowered.
# ----------------------------------------------------------------------


def _ln(v: complex, node: Call) -> complex:
    if v == 0:
        raise DomainError("logarithm of zero", node)
    return cmath.log(v)


def _power(w: complex, c: complex, node: BinOp) -> complex:
    if w == 0:
        if c.real > 0:
            return 0j
        raise DomainError("zero base raised to exponent with non-positive real part", node)
    try:
        return w**c
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"power failed ({exc})", node) from None


# Names the generated code reads, besides constants and nodes.
_HELPERS = {"DomainError": DomainError, "_ln": _ln, "_power": _power, "_exp": cmath.exp,
            "_sqrt": cmath.sqrt, "_sin": cmath.sin, "_cos": cmath.cos}

# Lines per binary operator: {0} and {1} are the operands, {2} the node and
# {3} the temporary assigned.
_OPERATORS = {
    "+": ("{3} = {0} + {1}",),
    "-": ("{3} = {0} - {1}",),
    "*": ("{3} = {0} * {1}",),
    "/": ("if {1} == 0:", '    raise DomainError("division by zero", {2})', "{3} = {0} / {1}"),
    "^": ("{3} = _power({0}, {1}, {2})",),
}

# Value of each function of a complex argument {0}; {1} is the node.  An
# OverflowError, or the ValueError of sin or cos at inf, becomes a DomainError.
_CALLS = {
    "exp": "_exp({0})",
    "ln": "_ln({0}, {1})",
    "sqrt": "_sqrt({0})",
    "sin": "_sin({0})",
    "cos": "_cos({0})",
    "abs": "complex(abs({0}))",
    "re": "complex({0}.real)",
    "im": "complex({0}.imag)",
    "conj": "{0}.conjugate()",
}

#: Function names accepted by the grammar's ``IDENT "(" expr ")"`` production.
FUNCTIONS = frozenset(_CALLS)


def _emit(
    expr: Expression,
    slots: Mapping[str, str],
    consts: Mapping[str, complex] | None = None,
    funcs: Mapping[str, tuple[str, Callable]] | None = None,
) -> tuple[list[str], str, dict]:
    """Straight-line code computing ``expr``: ``(lines, result, namespace)``.

    ``slots`` maps each argument to the name the code reads it from, and
    the names in ``consts`` are bound as constants, each converted with
    ``complex()``.  Every value the code reads or computes is complex, so
    the arguments must be too.  The lines, relatively indented, leave the
    value in the name ``result``; they read the constants, helpers and
    nodes from ``namespace``.  ``funcs`` adds guards ``name: (test, reject)``:
    such a call passes its argument's value on when the source
    ``test.format(value)`` holds, and otherwise calls ``reject(value,
    node)``, which raises.

    A node whose operands are all constants (literals, names in ``consts``
    or folded nodes) runs its lines once, right after emitting them: on
    success they are deleted and its value is bound as a constant; if they
    raise, they stay, and the error keeps its node.  The walk is
    :func:`_fold`'s, so depth is unbounded.  Operations run in the tree's
    order, left operand first.  An unknown name, operator or function
    raises (:class:`EvaluationError`) here.
    """
    consts = consts or {}
    guards = funcs or {}
    namespace: dict = dict(_HELPERS)
    params: dict[str, str] = {}
    lines: list[str] = []
    temps = itertools.count()

    def bind(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def visit(node: Expression, parts: list) -> tuple[str, bool]:
        """``(name, bound)``: the name holding ``node``'s value, and whether
        it is a constant bound in ``namespace``."""
        if isinstance(node, Const):
            return bind(node.value), True
        if isinstance(node, Var):
            if node.name in slots:
                return slots[node.name], False
            if node.name not in consts:
                raise UnboundVariableError(f"unbound variable '{node.name}'", node)
            if node.name not in params:
                params[node.name] = bind(complex(consts[node.name]))
            return params[node.name], True
        names = [name for name, _ in parts]
        start = len(lines)
        temp = f"t{next(temps)}"
        if isinstance(node, Neg):
            lines.append(f"{temp} = -{names[0]}")
        elif isinstance(node, BinOp):
            if node.op not in _OPERATORS:
                raise EvaluationError(f"unknown operator {node.op!r}")
            lines.extend(line.format(*names, bind(node), temp) for line in _OPERATORS[node.op])
        elif node.func in guards:
            test, reject = guards[node.func]
            lines.append(f"if not ({test.format(names[0])}):")
            lines.append(f"    {bind(reject)}({names[0]}, {bind(node)})")
            temp = names[0]
        elif node.func in _CALLS:
            ref = bind(node)
            lines.extend(["try:", f"    {temp} = {_CALLS[node.func].format(names[0], ref)}",
                          "except OverflowError:",
                          f'    raise DomainError("overflow in {node.func}", {ref}) from None',
                          "except ValueError:",
                          f'    raise DomainError("domain error in {node.func}", {ref}) from None'])
        else:
            raise EvaluationError(f"unknown function '{node.func}'", node)
        if not all(bound for _, bound in parts):
            return temp, False
        code = "\n".join(lines[start:] + [f"_value = {temp}"])
        scratch: dict = {}
        try:
            exec(compile(code, "<folded expression>", "exec"), namespace, scratch)
        except Exception:
            return temp, False
        del lines[start:]
        return bind(scratch["_value"]), True

    result, _ = _fold(expr, visit)
    return lines, result, namespace


def lower(
    expr: Expression,
    args: Sequence[str],
    consts: Mapping[str, complex] | None = None,
    funcs: Mapping[str, tuple[str, Callable]] | None = None,
) -> Callable[..., complex]:
    """Compile ``expr`` once into a function of complex positional arguments,
    one per name in ``args``, with the names in ``consts`` bound as constants.

    The body is :func:`_emit`'s code, where ``funcs`` is described.  The
    source holds only generated names and the fixed templates above;
    constants, helpers and nodes are bound by reference.  An unknown name,
    operator or function raises (:class:`EvaluationError`) here, not when
    called.
    """
    lines, result, namespace = _emit(expr, {name: f"a{j}" for j, name in enumerate(args)}, consts, funcs)
    params = ", ".join(f"a{j}" for j in range(len(args)))
    body = "".join(f"    {line}\n" for line in lines)
    source = f"def lowered({params}):\n{body}    return {result}\n"
    exec(compile(source, "<lowered expression>", "exec"), namespace)
    return namespace["lowered"]


def evaluate(expr: Expression, env: Mapping[str, complex]) -> complex:
    """Evaluate ``expr`` once with every free variable bound in ``env``.

    The names in ``env`` are bound as constants, so :func:`_emit` folds
    the whole tree, which costs far more than calling a lowered function
    (see the module notes); code that evaluates a tree repeatedly lowers it
    once with :func:`lower`.

    Raises :class:`UnboundVariableError` for missing names and
    :class:`DomainError` for division by zero, ``ln(0)``, or a zero base
    raised to an exponent with non-positive real part; the error message
    names the offending subexpression.
    """
    lines, result, namespace = _emit(expr, {}, env)
    if lines:  # the fold raised: run the lines again to raise it here
        exec(compile("\n".join(lines), "<evaluated expression>", "exec"), namespace)
    return namespace[result]


def _fold(expr: Expression, visit: Callable[[Expression, list], object]):
    """``visit(node, parts)`` on every node, children first, where ``parts``
    holds what ``visit`` returned for the node's children; returns the
    root's result.  The walk uses an explicit stack, so depth is unbounded."""
    results: list = []
    todo: list[tuple[Expression, bool]] = [(expr, False)]
    while todo:
        node, expanded = todo.pop()
        children = _children(node)
        if children and not expanded:
            todo.append((node, True))
            todo.extend((child, False) for child in reversed(children))
            continue
        parts = results[len(results) - len(children):]
        del results[len(results) - len(children):]
        results.append(visit(node, parts))
    return results.pop()


def substitute(expr: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace variables by expression trees (capture is not a concern:
    there are no binders)."""

    def rebuild(node: Expression, parts: list) -> Expression:
        if isinstance(node, Var):
            return mapping.get(node.name, node)
        if isinstance(node, Const):
            return node
        if isinstance(node, Neg):
            return Neg(*parts)
        if isinstance(node, BinOp):
            return BinOp(node.op, *parts)
        if isinstance(node, Call):
            return Call(node.func, *parts)
        raise TypeError(f"not an expression: {node!r}")

    return _fold(expr, rebuild)


# ----------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int  # character offset into the source


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, i))
    tokens.append(_Token("end", "", n))
    return tokens


#: Deepest nesting of parentheses, calls, unary minus and ``^`` accepted, so
#: that the recursive descent stays far from Python's recursion limit.
_MAX_NESTING = 50


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok: _Token, expected: str):
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {found}", _byte_offset(self.text, tok.pos), expected=expected
        )

    def nested(self, tok: _Token, parse) -> Expression:
        """``parse()`` one nesting level below ``tok``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {_MAX_NESTING} levels", _byte_offset(self.text, tok.pos)
            )
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        self.fail(tok, f"'{op}'")

    def parse(self) -> Expression:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, "an operator or end of input")
        return expr

    def expr(self) -> Expression:
        return self.left_associative("+-", self.term)

    def term(self) -> Expression:
        return self.left_associative("*/", self.factor)

    def left_associative(self, ops: str, operand) -> Expression:
        node = operand()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ops:
                self.advance()
                node = BinOp(tok.text, node, operand())
            else:
                return node

    def factor(self) -> Expression:
        node = self.unary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", node, self.nested(tok, self.factor))
        return node

    def unary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.nested(tok, self.unary))
        return self.atom()

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if math.isinf(value):
                raise NonFiniteLiteralError(tok.text, _byte_offset(self.text, tok.pos))
            return Const(complex(value))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name == "i":
                return Const(1j)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function name '{name}'",
                        _byte_offset(self.text, tok.pos),
                    )
                self.advance()
                arg = self.nested(tok, self.expr)
                self.expect_op(")")
                return Call(name, arg)
            return Var(name)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.nested(tok, self.expr)
            self.expect_op(")")
            return node
        self.fail(tok, "a number, a name, '-', or '('")


def parse_expression(text: str) -> Expression:
    """Parse ``text`` per the module grammar.

    Raises :class:`ParseError` with the byte offset of the first offending
    token and a description of what was expected there.
    """
    return _Parser(text).parse()


# ----------------------------------------------------------------------
# Formatter.  The output re-parses to an evaluation-equivalent tree; the
# parenthesization rules below preserve the exact operation sequence except
# for negated constants, which reappear as unary minus over a literal.
# ----------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5
_BINOP_LEVEL = {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}


def _fmt_real(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # inf and nan fail the first test
        return str(int(v))
    return repr(v)


def _fmt_imag(b: float) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return _fmt_real(b) + "*i"


def _format_const(v: complex) -> str:
    re, im = v.real, v.imag
    if im == 0:
        return _fmt_real(re)
    if re == 0:
        return _fmt_imag(im)
    sign = " - " if im < 0 else " + "
    return _fmt_real(re) + sign + _fmt_imag(abs(im))


def _level(expr: Expression) -> int:
    if isinstance(expr, (Var, Call)):
        return _LEVEL_ATOM
    if isinstance(expr, Neg):
        return _LEVEL_UNARY
    if isinstance(expr, BinOp):
        return _BINOP_LEVEL[expr.op]
    v = expr.value  # Const
    if v.imag == 0:
        return _LEVEL_ATOM if v.real >= 0 else _LEVEL_UNARY
    if v.real == 0:
        if v.imag == 1:
            return _LEVEL_ATOM
        if v.imag == -1:
            return _LEVEL_UNARY
        return _LEVEL_MUL
    return _LEVEL_ADD


def _wrap(text: str, needs_parens: bool) -> str:
    return f"({text})" if needs_parens else text


def _fmt(expr: Expression, parts: list) -> str:
    """Text of ``expr`` from ``parts``, the texts of its children."""
    if isinstance(expr, Const):
        return _format_const(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({parts[0]})"
    if isinstance(expr, Neg):
        inner = expr.operand
        needs = _level(inner) < _LEVEL_UNARY or (isinstance(inner, BinOp) and inner.op == "^")
        return "-" + _wrap(parts[0], needs)
    if isinstance(expr, BinOp):
        op = expr.op
        left, right = parts
        if op == "^":
            ls = _wrap(left, _level(expr.left) < _LEVEL_ATOM)
            rs = _wrap(right, _level(expr.right) < _LEVEL_UNARY)
            return f"{ls}^{rs}"
        lvl = _BINOP_LEVEL[op]
        ls = _wrap(left, _level(expr.left) < lvl)
        rs = _wrap(right, _level(expr.right) <= lvl)
        if op in "+-":
            return f"{ls} {op} {rs}"
        return f"{ls}{op}{rs}"
    raise TypeError(f"not an expression: {expr!r}")


def format_expression(expr: Expression) -> str:
    """Render ``expr`` as text that re-parses to an equivalent expression."""
    return _fold(expr, _fmt)


def format_complex(v: complex) -> str:
    """Render a scalar the way the formatter renders constants (``3 - 2*i``)."""
    return _format_const(complex(v))
