"""Small expression language over 6-dimensional hypercomplex values.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor | factor)*      # juxtaposition multiplies
    factor := unary ("^" int)?
    unary  := "-" unary | atom
    atom   := number | "h1".."h5" | ident "(" expr ("," expr)* ")" | "(" expr ")"

``^`` takes an integer literal exponent; real powers go through the
two-argument function ``pow(u, m)``.

:func:`parse` returns a tree of nested tuples, each tagged by its first
item::

    ("num", 2.0)              a real literal
    ("h", 1)                  a basis symbol h1..h5
    ("neg", a)                unary minus
    ("+", a, b)               likewise "-", "*" and "/"; juxtaposition is "*"
    ("^", a, -1)              an integer power
    ("call", "pow", a, b)     a function and its arguments

The binary operators associate left, so a chain of terms or factors is a
left-deep tree.  :func:`evaluate` and :func:`unparse` walk such a chain,
and a run of unary minus signs, in a loop, so a chain may be any length.
Parentheses and calls may nest at most :data:`MAX_DEPTH` deep; deeper
nesting is a :class:`ParseError` at the token that crosses the limit.
"""

from __future__ import annotations

import math
import operator
import re

from . import elementary
from .algebra import ZERO_COMPONENT_RTOL, HexaNumber, Variant
from .errors import DomainError, ParseError

__all__ = ["parse", "unparse", "evaluate", "FUNCTION_NAMES", "MAX_DEPTH"]

FUNCTION_NAMES = ("exp", "ln", "sin", "cos", "sinh", "cosh", "inv", "pow")
_FUNCTION_ARITY = dict.fromkeys(FUNCTION_NAMES, 1) | {"pow": 2}
_BASIS = {f"h{i}": i for i in range(1, 6)}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_LINKS = ("+", "-", "*", "/", "neg")  # walked in a loop down their first operand, node[1]

# Parentheses and calls nested deeper than this are a parse error; the
# parser recurses a few frames per level, well inside Python's stack.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _error(text: str, message: str, pos: int, expected=()) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos), frozenset(expected))


class _Parser:
    """Recursive descent over tokens ``(kind, text, pos)``, kind number | ident | op | end."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN_RE.finditer(text)]
        for kind, char, pos in self.tokens:
            if kind == "bad":
                raise _error(text, f"unexpected character {char!r}", pos,
                             {"number", "identifier", "operator"})
        self.index = 0
        self.depth = 0

    def fail(self, expected: set[str]) -> ParseError:
        kind, text, pos = self.tokens[self.index]
        what = "end of input" if kind == "end" else repr(text)
        return _error(self.text, f"unexpected {what}", pos, expected)

    def accept(self, *ops: str) -> str | None:
        kind, text, _ = self.tokens[self.index]
        if kind == "op" and text in ops:
            self.index += 1
            return text
        return None

    def expect(self, op: str) -> None:
        if self.accept(op) is None:
            raise self.fail({f"'{op}'"})

    def expression(self):
        node = self.term()
        while (op := self.accept("+", "-")) is not None:
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.tokens[self.index]
            if kind == "op" and text in ("*", "/"):
                self.index += 1
                node = (text, node, self.factor())
            elif kind in ("number", "ident") or text == "(":
                node = ("*", node, self.factor())
            else:
                return node

    def factor(self):
        node = self.unary()
        if self.accept("^") is not None:
            negative = self.accept("-") is not None
            kind, text, _ = self.tokens[self.index]
            if kind != "number" or not text.isdecimal():
                raise self.fail({"integer exponent"})
            self.index += 1
            node = ("^", node, -int(text) if negative else int(text))
        return node

    def unary(self):
        negations = 0
        while self.accept("-") is not None:
            negations += 1
        node = self.atom()
        for _ in range(negations):
            node = ("neg", node)
        return node

    def atom(self):
        kind, text, pos = self.tokens[self.index]
        if kind == "number":
            self.index += 1
            return ("num", float(text))
        if text in _BASIS:
            self.index += 1
            return ("h", _BASIS[text])
        if kind == "ident" and text not in FUNCTION_NAMES:
            raise _error(self.text, f"unknown name {text!r}", pos, {"h1..h5", *FUNCTION_NAMES})
        if kind != "ident" and text != "(":
            raise self.fail({"number", "h1..h5", "function call", "'('"})
        self.index += 1
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _error(self.text, f"nesting deeper than {MAX_DEPTH} levels", pos)
        if text == "(":
            node = self.expression()
        else:
            self.expect("(")
            node = ("call", text, self.expression())
            while self.accept(",") is not None:
                node += (self.expression(),)
        self.expect(")")
        self.depth -= 1
        arity = _FUNCTION_ARITY.get(text)
        if arity is not None and len(node) - 2 != arity:
            raise _error(self.text, f"{text} takes {arity} argument{'s' if arity > 1 else ''}, "
                         f"got {len(node) - 2}", pos)
        return node


def parse(text: str) -> tuple:
    """Parse the expression language; raises :class:`ParseError` with position."""
    parser = _Parser(text)
    node = parser.expression()
    if parser.tokens[parser.index][0] != "end":
        raise parser.fail({"'+'", "'-'", "'*'", "'/'", "'^'", "end of input"})
    return node


def _left_spine(node: tuple) -> tuple[tuple, list[tuple]]:
    """The first operand under a run of binary operators and negations, and that run."""
    chain = []
    while node[0] in _LINKS:
        chain.append(node)
        node = node[1]
    return node, chain


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _precedence(node: tuple) -> int:
    return _PRECEDENCE.get(node[0], 9)


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def unparse(node: tuple) -> str:
    """Text form that re-parses to an equal tree."""
    node, chain = _left_spine(node)
    tag = node[0]
    if tag == "num":
        text = repr(node[1]).replace("inf", "1e999")  # a literal past the range reads back as inf
    elif tag == "h":
        text = f"h{node[1]}"
    elif tag == "^":
        text = _wrap(unparse(node[1]), _precedence(node[1]) < 9) + f"^{node[2]}"
    elif tag == "call":
        text = f"{node[1]}({', '.join(unparse(a) for a in node[2:])})"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    # the text so far is prefix[::-1] + parts: wrapping it or negating it prepends
    prefix, parts, inner = [], [text], _precedence(node)
    for link in reversed(chain):
        op = link[0]
        p = _PRECEDENCE[op]
        # '^' binds above unary minus here (-x^2 reads as (-x)^2), so a negated
        # power needs parentheses just like a negated sum
        if inner < p or (op == "neg" and inner == _PRECEDENCE["^"]):
            prefix.append("(")
            parts.append(")")
        if op == "neg":
            prefix.append("-")
        else:
            # the grammar associates left, so a same-precedence right child needs parens
            right = link[2]
            parts.append(f" {op} {_wrap(unparse(right), _precedence(right) <= p)}")
        inner = p
    return "".join(reversed(prefix)) + "".join(parts)


def _literal(node: tuple, planar: bool) -> list[float] | None:
    """Components of a hexa literal, or None for any other tree.

    A literal is a chain of sums, differences and negations of numbers,
    basis symbols and products by a basis symbol, such as
    ``0.23 - 0.4376 h1 + h2``.  Each operation acts on the six components
    as the ring's own does: + and - component by component, and a product
    by h_k moves component j to j + k (negated where the planar ring
    wraps), each landing on 0.0 as :func:`~hexacomplex.algebra._convolve`
    sums it, so the bits are those of the general route.  A result that is
    not finite is None: the general route then raises its own error.
    """
    node, chain = _left_spine(node)
    if node[0] == "num":
        x = [node[1], 0.0, 0.0, 0.0, 0.0, 0.0]
    elif node[0] == "h":
        x = [0.0] * 6
        x[node[1]] = 1.0
    else:
        return None
    for link in reversed(chain):
        op = link[0]
        if op == "neg":
            x = [-a for a in x]
        elif op == "*" and link[2][0] == "h":
            k = link[2][1]
            x = [0.0 - x[j - k] if planar and j < k else 0.0 + x[j - k] for j in range(6)]
        elif op in ("+", "-"):
            y = _literal(link[2], planar)
            if y is None:
                return None
            x = [a + b for a, b in zip(x, y)] if op == "+" else [a - b for a, b in zip(x, y)]
        else:
            return None
    return x if all(map(math.isfinite, x)) else None


def evaluate(node: tuple, variant: Variant,
             zero_rtol: float = ZERO_COMPONENT_RTOL) -> HexaNumber:
    """Evaluate an expression tree in the given variant, left operand first.

    A hexa literal (see :func:`_literal`) is built in one construction.
    Division multiplies by the inverse, so dividing by a zero divisor
    raises :class:`ZeroDivisorError` naming the vanished component.
    """
    components = _literal(node, variant.is_planar)
    if components is not None:
        return HexaNumber(variant, components)
    node, chain = _left_spine(node)
    tag = node[0]
    if tag == "num":
        value = HexaNumber.from_real(variant, node[1])
    elif tag == "h":
        value = HexaNumber.basis(variant, node[1])
    elif tag == "^":
        value = evaluate(node[1], variant, zero_rtol)
        exponent = node[2]
        value = value ** exponent if exponent >= 0 else value.inverse(zero_rtol) ** -exponent
    elif tag == "call":
        args = [evaluate(a, variant, zero_rtol) for a in node[2:]]
        if node[1] == "inv":
            value = args[0].inverse(zero_rtol)
        elif node[1] == "pow":
            m = args[1].components
            if any(abs(c) > 1e-12 * (1.0 + abs(m[0])) for c in m[1:]):
                raise DomainError("pow exponent must evaluate to a real scalar")
            value = elementary.pow_real(args[0], m[0])
        else:
            value = getattr(elementary, node[1])(args[0])
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for link in reversed(chain):
        op = link[0]
        if op == "neg":
            value = -value
        elif op == "/":
            value = value * evaluate(link[2], variant, zero_rtol).inverse(zero_rtol)
        else:
            value = _ARITHMETIC[op](value, evaluate(link[2], variant, zero_rtol))
    return value
