"""Modal many-valued formulas: AST, concrete syntax, schema matching.

The connective set is Lukasiewicz implication and friends plus the two S5
modalities.  Concrete ASCII syntax, loosest-binding first:

    ==      equivalence (sugar: expands to a meet of two implications)
    ->      implication (right associative)
    \\/      join (lattice max)
    /\\      meet (lattice min)
    (+)     strong disjunction (truncated sum)
    *       strong conjunction (truncated product)
    ~ [] <> negation, box, diamond (prefix)
    0 1     falsum, verum
    p, q_1  variables: [A-Za-z][A-Za-z0-9_]*

All binary connectives except ``->`` associate to the left.  ``a == b``
parses to ``(a -> b) /\\ (b -> a)``; there is no equivalence node in the AST
and the printer never emits ``==``.  The parser reads binding strength from
the printer's table (``_BINARY_INFO``), so the two cannot disagree.

Schemas (axiom shapes) are ordinary formula trees whose leaves are
``MetaVar`` nodes.  A metavariable may carry the ``modalized`` flag, in which
case it only matches formulas whose truth value cannot depend on the world of
evaluation: combinations of boxed/diamonded subformulas and constants.

Nodes are immutable ``__slots__`` objects.  Each stores ``hash(fields)``
when it is built, so hashing a formula never walks it.  A pickle rebuilds a
node through its constructor and never carries the stored hash, because
``str`` hashes differ between processes (``--jobs`` workers unpickle
formulas).  ``subformulas`` and ``variables`` keep their own stacks and take
formulas of any depth.

``InputError``, the base of ``ParseError``, is the one exception type for
malformed input in every layer; it lives here because every layer imports
this module.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping


class InputError(ValueError):
    """Malformed input from outside the program: a file, an option, a formula.

    Raised only where such data is first checked.  The command line reports
    it as one line, `error: <prefix><message>`, and exits 2; each subclass
    names its kind of input in `prefix`.
    """

    prefix = ""


class ParseError(InputError):
    """Raised on malformed formula text; carries the character position."""

    prefix = "cannot parse formula: "

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable.

    A node keeps its fields in the slots that `__match_args__` names.  Nodes
    are equal when they are of the same class with equal fields.
    """

    __slots__ = ("_hash",)
    __match_args__: tuple[str, ...] = ()

    def __init__(self) -> None:
        _set_hash(self, hash(()))

    def _fields(self) -> tuple:
        return ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: formulas are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: formulas are immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self._hash == other._hash and self._fields() == other._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt by the constructor: `str` hashes differ between processes
        return type(self), self._fields()


class _Unary(Formula):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Formula) -> None:
        _set_arg(self, arg)
        _set_hash(self, hash((arg,)))

    def _fields(self) -> tuple:
        return (self.arg,)


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((left, right)))

    def _fields(self) -> tuple:
        return (self.left, self.right)


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)
        _set_hash(self, hash((name,)))

    def _fields(self) -> tuple:
        return (self.name,)


class Const(Formula):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value: int) -> None:  # 0 or 1
        _set_value(self, value)
        _set_hash(self, hash((value,)))

    def _fields(self) -> tuple:
        return (self.value,)


class MetaVar(Formula):
    """Schema placeholder.  Only valid inside patterns, never in parsed text."""

    __slots__ = ("name", "modalized")
    __match_args__ = ("name", "modalized")

    def __init__(self, name: str, modalized: bool = False) -> None:
        _set_meta_name(self, name)
        _set_modalized(self, modalized)
        _set_hash(self, hash((name, modalized)))

    def _fields(self) -> tuple:
        return (self.name, self.modalized)


# Each slot's own setter: the constructors' way past `Formula.__setattr__`,
# and cheaper than `object.__setattr__`.
_set_hash = Formula._hash.__set__
_set_arg = _Unary.arg.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_name = Var.name.__set__
_set_value = Const.value.__set__
_set_meta_name = MetaVar.name.__set__
_set_modalized = MetaVar.modalized.__set__


class Not(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Dia(_Unary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


class Star(_Binary):
    __slots__ = ()


class Oplus(_Binary):
    __slots__ = ()


class Meet(_Binary):
    __slots__ = ()


class Join(_Binary):
    __slots__ = ()


ZERO = Const(0)
ONE = Const(1)

BINARY_TYPES = (Impl, Star, Oplus, Meet, Join)
UNARY_TYPES = (Not, Box, Dia)


def equiv(left: Formula, right: Formula) -> Formula:
    """The meet of the two implications between left and right."""
    return Meet(Impl(left, right), Impl(right, left))


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<oplus>\(\+\))
      | (?P<box>\[\])
      | (?P<dia><>)
      | (?P<impl>->)
      | (?P<equiv>==)
      | (?P<meet>/\\)
      | (?P<join>\\/)
      | (?P<not>~)
      | (?P<star>\*)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<const>[01])
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


# token kind -> connective; binding strength is the printer's `_BINARY_INFO`
_CONNECTIVES = {
    "impl": Impl, "join": Join, "meet": Meet, "oplus": Oplus, "star": Star,
    "not": Not, "box": Box, "dia": Dia,
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def _advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][2]
        return len(self.text)

    def parse(self) -> Formula:
        formula = self._equiv()
        if self.index != len(self.tokens):
            kind, text, pos = self.tokens[self.index]
            raise ParseError(f"unexpected {text!r} after formula", pos)
        return formula

    def _equiv(self) -> Formula:
        left = self._binary(_PREC_IMPL)
        if self._peek() == "equiv":
            self._advance()
            right = self._binary(_PREC_IMPL)
            return equiv(left, right)
        return left

    def _binary(self, min_prec: int) -> Formula:
        """Binary connectives binding at least as tightly as min_prec."""
        formula = self._unary()
        while True:
            connective = _CONNECTIVES.get(self._peek())
            info = _BINARY_INFO.get(connective)
            if info is None or info[0] < min_prec:
                return formula
            self._advance()
            prec = info[0]
            # `->` associates to the right, the others to the left
            right = self._binary(prec if connective is Impl else prec + 1)
            formula = connective(formula, right)

    def _unary(self) -> Formula:
        connective = _CONNECTIVES.get(self._peek())
        if connective in _UNARY_INFO:
            self._advance()
            return connective(self._unary())
        return self._atom()

    def _atom(self) -> Formula:
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of input", self._position())
        kind, text, pos = self._advance()
        if kind == "const":
            return ZERO if text == "0" else ONE
        if kind == "ident":
            return Var(text)
        if kind == "lparen":
            formula = self._equiv()
            if self._peek() != "rparen":
                raise ParseError("expected ')'", self._position())
            self._advance()
            return formula
        raise ParseError(f"unexpected {text!r}", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    Raises ParseError (with character position) on malformed input.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printer

_PREC_IMPL = 1
_PREC_JOIN = 2
_PREC_MEET = 3
_PREC_OPLUS = 4
_PREC_STAR = 5
_PREC_UNARY = 6
_PREC_ATOM = 7

_BINARY_INFO = {
    Impl: (_PREC_IMPL, " -> "),
    Join: (_PREC_JOIN, " \\/ "),
    Meet: (_PREC_MEET, " /\\ "),
    Oplus: (_PREC_OPLUS, " (+) "),
    Star: (_PREC_STAR, "*"),
}

_UNARY_INFO = {Not: "~", Box: "[]", Dia: "<>"}


def _precedence(formula: Formula) -> int:
    info = _BINARY_INFO.get(type(formula))
    if info is not None:
        return info[0]
    if type(formula) in _UNARY_INFO:
        return _PREC_UNARY
    return _PREC_ATOM


def _render(formula: Formula, min_prec: int) -> str:
    prec = _precedence(formula)
    if isinstance(formula, Var):
        text = formula.name
    elif isinstance(formula, Const):
        text = str(formula.value)
    elif isinstance(formula, MetaVar):
        text = formula.name
    elif isinstance(formula, UNARY_TYPES):
        text = _UNARY_INFO[type(formula)] + _render(formula.arg, _PREC_UNARY)
    else:
        _, symbol = _BINARY_INFO[type(formula)]
        if isinstance(formula, Impl):
            # right associative: the left child needs parens at equal level
            text = _render(formula.left, prec + 1) + symbol + _render(formula.right, prec)
        else:
            text = _render(formula.left, prec) + symbol + _render(formula.right, prec + 1)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def print_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f."""
    return _render(formula, _PREC_IMPL)


# ---------------------------------------------------------------------------
# Structural helpers


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield every node of the tree, children before parents, the root last.

    A subtree that occurs twice is yielded twice.  The walk keeps its own
    stack, so it handles formulas of any depth.
    """
    stack: list[tuple[Formula, bool]] = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif isinstance(node, _Binary):
            stack += ((node, True), (node.right, False), (node.left, False))
        elif isinstance(node, _Unary):
            stack += ((node, True), (node.arg, False))
        else:
            yield node


def variables(formula: Formula) -> list[str]:
    """Sorted list of the variable names occurring in the formula.

    Each distinct node object is visited once, so a subtree shared by
    substitution costs one walk.
    """
    names = set()
    seen = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, _Binary):
            stack += (node.left, node.right)
        elif isinstance(node, _Unary):
            stack.append(node.arg)
        elif isinstance(node, Var):
            names.add(node.name)
    return sorted(names)


def is_modalized(formula: Formula) -> bool:
    """True when the truth value cannot depend on the world of evaluation.

    Holds for constants and for any combination of boxed/diamonded
    subformulas under the propositional connectives.
    """
    if isinstance(formula, (Box, Dia, Const)):
        return True
    if isinstance(formula, Var):
        return False
    if isinstance(formula, Not):
        return is_modalized(formula.arg)
    if isinstance(formula, BINARY_TYPES):
        return is_modalized(formula.left) and is_modalized(formula.right)
    raise TypeError(f"not a ground formula: {formula!r}")


def match_schema(pattern: Formula, formula: Formula) -> dict[str, Formula] | None:
    """Match a schema against a ground formula.

    Returns the metavariable binding on success, None on failure.  Repeated
    metavariables must bind equal subformulas; metavariables flagged as
    modalized only match modalized formulas.
    """
    binding: dict[str, Formula] = {}

    def walk(pat: Formula, f: Formula) -> bool:
        if isinstance(pat, MetaVar):
            if pat.modalized and not is_modalized(f):
                return False
            bound = binding.get(pat.name)
            if bound is None:
                binding[pat.name] = f
                return True
            return bound == f
        if type(pat) is not type(f):
            return False
        if isinstance(pat, (Var, Const)):
            return pat == f
        if isinstance(pat, UNARY_TYPES):
            return walk(pat.arg, f.arg)
        return walk(pat.left, f.left) and walk(pat.right, f.right)

    if walk(pattern, formula):
        return binding
    return None


def substitute(pattern: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Replace every metavariable in the pattern with its bound formula."""
    if isinstance(pattern, MetaVar):
        try:
            return binding[pattern.name]
        except KeyError:
            raise KeyError(f"unbound metavariable {pattern.name!r}") from None
    if isinstance(pattern, (Var, Const)):
        return pattern
    if isinstance(pattern, UNARY_TYPES):
        return type(pattern)(substitute(pattern.arg, binding))
    if isinstance(pattern, BINARY_TYPES):
        return type(pattern)(
            substitute(pattern.left, binding), substitute(pattern.right, binding)
        )
    raise TypeError(f"not a pattern node: {pattern!r}")


def schema(text: str, modalized: tuple[str, ...] = ()) -> Formula:
    """Parse schema text: every identifier becomes a metavariable.

    Names listed in `modalized` get the world-independence side condition.
    """
    parsed = parse(text)

    def lift(f: Formula) -> Formula:
        if isinstance(f, Var):
            return MetaVar(f.name, modalized=f.name in modalized)
        if isinstance(f, Const):
            return f
        if isinstance(f, UNARY_TYPES):
            return type(f)(lift(f.arg))
        return type(f)(lift(f.left), lift(f.right))

    return lift(parsed)
