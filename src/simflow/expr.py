"""Expression AST, infix parser, printers, and evaluators.

Expressions appear everywhere in the document formats: evolution terms,
initial conditions, rule algorithms, and finalization conditions.  The
surface syntax is a plain infix language with function calls and
``$``-prefixed runtime builtins.  A ``name(arg)`` form where ``name`` is
not one of the known math functions is a context-indexed read, e.g.
``acc($cv)`` or ``state($es($ce))``.

Precedence, tightest first: ``^`` (right associative), unary ``-``,
``* /``, ``+ -``, comparisons, ``and``, ``or``.  Note ``-x^2`` parses as
``-(x^2)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# name -> arity
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "sqrt": 1,
    "abs": 1,
    "atan2": 2,
    "floor": 1,
    "mod": 2,
}

# Runtime builtins usable in any document expression; the executing context
# decides which of them actually resolve.
BUILTIN_SYMBOLS = {
    "$cv",          # current vertex
    "$ce",          # current edge
    "$ca",          # current agent
    "$na",          # neighbour agent (inside iterate-over-interactions)
    "$es",          # edge source (indexed by edge)
    "$et",          # edge target (indexed by edge)
    "$lnoe_in",     # local number of incoming edges (indexed by vertex)
    "$lnoe_out",    # local number of outgoing edges (indexed by vertex)
    "$gnov",        # global number of vertices
    "$gnoe",        # global number of edges
    "$gnoa",        # global number of agents
    "$in",          # iteration number counter
    "$rnd_uniform",  # uniform random in [0, 1)
    "$rnd_int_1",   # random integer, 0 or 1
}

# Builtins that read neighbour state; their presence makes a rule non-local.
NEIGHBOR_BUILTINS = {"$es", "$et", "$na"}

SYMBOL_KINDS = ("field", "parameter", "coordinate", "builtin", "local")


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ExprError):
    def __init__(self, name, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown symbol '{name}'{at}")
        self.name = name


class ArityError(ExprError):
    pass


class EvaluationError(ExprError):
    """Raised when evaluation faults; carries the offending subexpression."""

    def __init__(self, message, subexpr=None):
        self.subexpr = subexpr
        if subexpr is not None:
            message = f"{message} in '{to_text(subexpr)}'"
        super().__init__(message)


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str


@dataclass(frozen=True)
class Unary:
    op: str  # only 'neg'
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^ >= > <= < == != and or
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class Indexed:
    """Context-indexed symbol read, e.g. acc($cv) or $es($ce)."""

    name: str
    kind: str
    arg: object


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>\$?[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>>=|<=|==|!=|[-+*/^()<>,=])"
    r")"
)

_COMPARISONS = {">=", ">", "<=", "<", "==", "!=", "="}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character '{rest[0]}'", pos)
        if m.lastgroup == "num":
            value = float(m.group("num"))
            if not math.isfinite(value):
                raise ParseError(f"numeric literal '{m.group('num')}' is not finite",
                                 m.start("num"))
            tokens.append(("num", value, m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "==" if op == "=" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.symbols = symbols
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}'", pos)

    def at_op(self, *ops):
        kind, val, _ = self.peek()
        return kind == "op" and val in ops

    def at_keyword(self, word):
        kind, val, _ = self.peek()
        return kind == "name" and val == word

    def parse(self):
        e = self.or_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{val}'", pos)
        return e

    def or_expr(self):
        e = self.and_expr()
        while self.at_keyword("or"):
            self.next()
            e = Binary("or", e, self.and_expr())
        return e

    def and_expr(self):
        e = self.cmp_expr()
        while self.at_keyword("and"):
            self.next()
            e = Binary("and", e, self.cmp_expr())
        return e

    def cmp_expr(self):
        e = self.add_expr()
        if self.at_op(*_COMPARISONS):
            _, op, _ = self.next()
            e = Binary(op, e, self.add_expr())
        return e

    def add_expr(self):
        e = self.mul_expr()
        while self.at_op("+", "-"):
            _, op, _ = self.next()
            e = Binary(op, e, self.mul_expr())
        return e

    def mul_expr(self):
        e = self.unary_expr()
        while self.at_op("*", "/"):
            _, op, _ = self.next()
            e = Binary(op, e, self.unary_expr())
        return e

    def unary_expr(self):
        if self.at_op("-"):
            self.next()
            return Unary("neg", self.unary_expr())
        return self.pow_expr()

    def pow_expr(self):
        e = self.atom()
        if self.at_op("^"):
            self.next()
            # right associative; allows 2^-3
            return Binary("^", e, self.unary_expr())
        return e

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Number(val)
        if kind == "op" and val == "(":
            e = self.or_expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if val in ("and", "or"):
                raise ParseError(f"unexpected keyword '{val}'", pos)
            if self.at_op("("):
                return self._call_or_indexed(val, pos)
            return Symbol(val, self._kind_of(val, pos))
        raise ParseError("expected a value", pos)

    def _call_or_indexed(self, name, pos):
        self.expect_op("(")
        args = [self.or_expr()]
        while self.at_op(","):
            self.next()
            args.append(self.or_expr())
        self.expect_op(")")
        if name in FUNCTIONS:
            if len(args) != FUNCTIONS[name]:
                raise ArityError(
                    f"function '{name}' takes {FUNCTIONS[name]} argument(s), got {len(args)}"
                )
            return Call(name, tuple(args))
        if len(args) != 1:
            raise ParseError(f"indexed symbol '{name}' takes one context argument", pos)
        return Indexed(name, self._kind_of(name, pos), args[0])

    def _kind_of(self, name, pos):
        if name in self.symbols:
            return self.symbols[name]
        if name in BUILTIN_SYMBOLS:
            return "builtin"
        raise UnknownSymbolError(name, pos)


def parse_expression(text, symbols):
    """Parse infix ``text`` against a ``name -> kind`` symbol table.

    Raises ParseError / UnknownSymbolError / ArityError.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), dict(symbols)).parse()


def _fmt_number(v):
    if abs(v) < 1e16 and v == math.floor(v):  # false for inf and nan
        return str(int(v))
    return repr(float(v))  # shortest exact round-trip form


def _number_objects(values):
    """Python numbers whose ``str`` is :func:`_fmt_number` of each value of
    a float array: ints where it prints through ``int``, floats (``str`` is
    ``repr``) elsewhere."""
    out = values.astype(object)
    integral = (np.abs(values) < 1e16) & (values == np.floor(values))
    out[integral] = values[integral].astype(np.int64).astype(object)
    return out


def to_text(e):
    """Canonical fully parenthesized infix form; parse(to_text(e)) == e."""
    if isinstance(e, Number):
        return _fmt_number(e.value)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Unary):
        return f"(-{to_text(e.operand)})"
    if isinstance(e, Binary):
        return f"({to_text(e.left)} {e.op} {to_text(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Indexed):
        return f"{e.name}({to_text(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


_LATEX_NAMES = {
    "phi": r"\phi", "theta": r"\theta", "eta": r"\eta", "xi": r"\xi",
    "sigma": r"\sigma", "pi": r"\pi", "alpha": r"\alpha", "beta": r"\beta",
}


def _latex_name(name):
    base = name.lstrip("$")
    if base in _LATEX_NAMES:
        return _LATEX_NAMES[base]
    if len(base) == 1:
        return base
    return r"\mathit{" + base.replace("_", r"\_") + "}"


def to_latex(e):
    """LaTeX rendering of an expression (deterministic)."""
    if isinstance(e, Number):
        return _fmt_number(e.value)
    if isinstance(e, Symbol):
        return _latex_name(e.name)
    if isinstance(e, Unary):
        return f"-\\left({to_latex(e.operand)}\\right)"
    if isinstance(e, Binary):
        op_map = {"*": r" \cdot ", "and": r" \wedge ", "or": r" \vee ",
                  ">=": r" \geq ", "<=": r" \leq ", "==": " = ", "!=": r" \neq "}
        if e.op == "/":
            return r"\frac{" + to_latex(e.left) + "}{" + to_latex(e.right) + "}"
        if e.op == "^":
            return r"{\left(" + to_latex(e.left) + r"\right)}^{" + to_latex(e.right) + "}"
        op = op_map.get(e.op, f" {e.op} ")
        return f"\\left({to_latex(e.left)}{op}{to_latex(e.right)}\\right)"
    if isinstance(e, Call):
        args = ", ".join(to_latex(a) for a in e.args)
        return f"\\mathrm{{{e.func}}}\\left({args}\\right)"
    if isinstance(e, Indexed):
        return f"{_latex_name(e.name)}\\left({to_latex(e.arg)}\\right)"
    raise TypeError(f"not an expression node: {e!r}")


def subexpressions(e):
    """``e`` and every expression node below it, parents first."""
    yield e
    if isinstance(e, Unary):
        children = (e.operand,)
    elif isinstance(e, Binary):
        children = (e.left, e.right)
    elif isinstance(e, Call):
        children = e.args
    elif isinstance(e, Indexed):
        children = (e.arg,)
    else:
        children = ()
    for child in children:
        yield from subexpressions(child)


def free_symbols(e):
    """Exact set of (name, kind) pairs appearing in the expression."""
    return {(n.name, n.kind) for n in subexpressions(e) if isinstance(n, (Symbol, Indexed))}


class EvalEnvironment:
    """Symbol bindings plus an optional resolver for context builtins.

    ``resolver(name, kind, arg)`` is consulted for builtins and indexed
    reads; ``arg`` is None for plain symbols.  Unbound symbols are a hard
    error, never silently zero.
    """

    def __init__(self, bindings=None, resolver=None):
        self.bindings = dict(bindings) if bindings else {}
        self.resolver = resolver

    def lookup(self, sym):
        if sym.name in self.bindings:
            return self.bindings[sym.name]
        if self.resolver is not None:
            return self.resolver(sym.name, sym.kind, None)
        raise EvaluationError(f"unbound symbol '{sym.name}'")

    def lookup_indexed(self, node, arg_value):
        if self.resolver is None:
            raise EvaluationError(f"no resolver for indexed symbol", node)
        return self.resolver(node.name, node.kind, arg_value)


def evaluate(e, env):
    """Evaluate to an IEEE double; comparisons/logicals yield 1.0 or 0.0."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Symbol):
        return float(env.lookup(e))
    if isinstance(e, Unary):
        return -evaluate(e.operand, env)
    if isinstance(e, Binary):
        return _eval_binary(e, env)
    if isinstance(e, Call):
        return _eval_call(e, env)
    if isinstance(e, Indexed):
        return float(env.lookup_indexed(e, evaluate(e.arg, env)))
    raise TypeError(f"not an expression node: {e!r}")


def _eval_binary(e, env):
    left = evaluate(e.left, env)
    right = evaluate(e.right, env)
    op = e.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0.0:
            raise EvaluationError("division by zero", e)
        return left / right
    if op == "^":
        try:
            result = left ** right
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise EvaluationError(f"power fault: {exc}", e)
        if isinstance(result, complex):
            raise EvaluationError("power of negative base to fractional exponent", e)
        return result
    if op == ">=":
        return 1.0 if left >= right else 0.0
    if op == ">":
        return 1.0 if left > right else 0.0
    if op == "<=":
        return 1.0 if left <= right else 0.0
    if op == "<":
        return 1.0 if left < right else 0.0
    if op == "==":
        return 1.0 if left == right else 0.0
    if op == "!=":
        return 1.0 if left != right else 0.0
    if op == "and":
        return 1.0 if (left != 0.0 and right != 0.0) else 0.0
    if op == "or":
        return 1.0 if (left != 0.0 or right != 0.0) else 0.0
    raise EvaluationError(f"unknown operator '{op}'", e)


_MATH = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt, "abs": abs,
    "atan2": math.atan2, "floor": lambda x: float(math.floor(x)), "mod": lambda a, b: a % b,
}


def _eval_call(e, env):
    args = [evaluate(a, env) for a in e.args]
    f = e.func
    if f == "sqrt" and args[0] < 0.0:
        raise EvaluationError("sqrt of negative value", e)
    if f == "mod" and args[1] == 0.0:
        raise EvaluationError("mod by zero", e)
    if f not in _MATH:
        raise EvaluationError(f"unknown function '{f}'", e)
    try:
        return _MATH[f](*args)
    except (OverflowError, ValueError) as exc:   # e.g. exp(1000), sin(inf)
        raise EvaluationError(f"{f} fault: {exc}", e) from None


def evaluate_array(e, bindings):
    """Vectorized evaluation over numpy arrays / scalars.

    ``bindings`` maps symbol names to arrays or floats.  Used by the grid
    runtime to evaluate pointwise kernel expressions over whole fields.
    Indexed symbols are not supported here; grid expressions are pointwise.
    """
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Symbol):
        if e.name not in bindings:
            raise EvaluationError(f"unbound symbol '{e.name}'")
        return bindings[e.name]
    if isinstance(e, Unary):
        return -evaluate_array(e.operand, bindings)
    if isinstance(e, Binary):
        left = evaluate_array(e.left, bindings)
        right = evaluate_array(e.right, bindings)
        op = e.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "^":
            return left ** right
        if op in (">=", ">", "<=", "<", "==", "!="):
            fn = {">=": np.greater_equal, ">": np.greater, "<=": np.less_equal,
                  "<": np.less, "==": np.equal, "!=": np.not_equal}[op]
            return fn(left, right).astype(np.float64)
        if op == "and":
            return (np.not_equal(left, 0.0) & np.not_equal(right, 0.0)).astype(np.float64)
        if op == "or":
            return (np.not_equal(left, 0.0) | np.not_equal(right, 0.0)).astype(np.float64)
        raise EvaluationError(f"unknown operator '{op}'", e)
    if isinstance(e, Call):
        args = [evaluate_array(a, bindings) for a in e.args]
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
              "abs": np.abs, "atan2": np.arctan2, "floor": np.floor, "mod": np.mod}[e.func]
        return fn(*args)
    if isinstance(e, Indexed):
        raise EvaluationError("indexed symbols are not valid in pointwise grid expressions", e)
    raise TypeError(f"not an expression node: {e!r}")
