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
formulas).

Every walk over a formula is iterative, so formulas of any depth are taken
(``repr`` and pickling still recurse).  ``postorder`` lists each distinct
node once, children before parents; the walkers that need their children's
results run on it (the evaluator, the compiler, ``variables``,
``substitute``), and the others keep an explicit stack of their own: the
parser, the printer, equality, ``subformulas``, ``is_modalized`` and
``match_schema``.

``InputError``, the base of ``ParseError``, is the one exception type for
malformed input in every layer; it lives here because every layer imports
this module.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping


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
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for x, y in zip(a._fields(), b._fields()):
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

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


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula tree.

    Raises ParseError (with character position) on malformed input.  One
    loop reads the tokens left to right onto a stack of operands and a stack
    of pending connectives, so nesting depth is bounded only by memory.
    """
    tokens = _tokenize(text) + [("end", "", len(text))]
    operands: list[Formula] = []
    pending: list[tuple[int, type | None]] = []  # (precedence, connective)
    opened = index = 0  # parentheses open, next token

    def reduce(floor: int) -> None:
        """Apply the pending connectives that bind more tightly than floor."""
        while pending and pending[-1][0] > floor:
            prec, connective = pending.pop()
            if prec == _PREC_UNARY:
                operands[-1] = connective(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = connective(operands[-1], right)

    while True:
        # an operand: prefix connectives and open parentheses, then an atom
        kind, token, pos = tokens[index]
        index += 1
        if kind == "lparen":
            pending.append((_PREC_OPEN, None))
            opened += 1
            continue
        if _CONNECTIVES.get(kind) in _UNARY_INFO:
            pending.append((_PREC_UNARY, _CONNECTIVES[kind]))
            continue
        if kind == "ident":
            operands.append(Var(token))
        elif kind == "const":
            operands.append(ZERO if token == "0" else ONE)
        elif kind == "end":
            raise ParseError("unexpected end of input", pos)
        else:
            raise ParseError(f"unexpected {token!r}", pos)
        # after it: close parentheses, then a binary connective or the end
        while tokens[index][0] == "rparen" and opened:
            reduce(_PREC_OPEN)
            pending.pop()
            opened -= 1
            index += 1
        kind, token, pos = tokens[index]
        connective = _CONNECTIVES.get(kind)
        if kind == "equiv":
            # `==` joins two implication-level formulas, once per parenthesis
            reduce(_PREC_EQUIV)
            if not pending or pending[-1][0] != _PREC_EQUIV:
                pending.append((_PREC_EQUIV, equiv))
                index += 1
                continue
        elif connective in _BINARY_INFO:
            prec = _BINARY_INFO[connective][0]
            # `->` associates to the right, the others to the left
            reduce(prec if connective is Impl else prec - 1)
            pending.append((prec, connective))
            index += 1
            continue
        elif kind == "end" and not opened:
            reduce(_PREC_OPEN)
            return operands[0]
        raise ParseError("expected ')'" if opened else f"unexpected {token!r} after formula", pos)


# ---------------------------------------------------------------------------
# Printer

_PREC_OPEN = -1  # an open parenthesis, pending in the parser
_PREC_EQUIV = 0  # `==`, which the parser expands and the printer never emits
_PREC_IMPL = 1
_PREC_JOIN = 2
_PREC_MEET = 3
_PREC_OPLUS = 4
_PREC_STAR = 5
_PREC_UNARY = 6

_BINARY_INFO = {
    Impl: (_PREC_IMPL, " -> "),
    Join: (_PREC_JOIN, " \\/ "),
    Meet: (_PREC_MEET, " /\\ "),
    Oplus: (_PREC_OPLUS, " (+) "),
    Star: (_PREC_STAR, "*"),
}

_UNARY_INFO = {Not: "~", Box: "[]", Dia: "<>"}


def print_formula(formula: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f.

    Pieces go onto one list, joined once, so printing is linear in the
    output.
    """
    pieces: list[str] = []
    stack: list = [(formula, _PREC_IMPL)]  # (node, least precedence) or a piece
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            continue
        node, min_prec = item
        cls = type(node)
        if cls in _UNARY_INFO:
            # nothing binds more tightly than a prefix, so it needs no parens
            pieces.append(_UNARY_INFO[cls])
            stack.append((node.arg, _PREC_UNARY))
        elif isinstance(node, (Var, MetaVar)):
            pieces.append(node.name)
        elif isinstance(node, Const):
            pieces.append(str(node.value))
        else:
            prec, symbol = _BINARY_INFO[cls]
            if prec < min_prec:
                pieces.append("(")
                stack.append(")")
            if cls is Impl:
                # right associative: the left child needs parens at equal level
                stack += ((node.right, prec), symbol, (node.left, prec + 1))
            else:
                stack += ((node.right, prec + 1), symbol, (node.left, prec))
    return "".join(pieces)


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


def postorder(formula: Formula) -> list[Formula]:
    """Each distinct node of the formula once, children before parents.

    Nodes are told apart by identity, so a subtree shared by several
    parents is listed once, where the walk first finishes it: left before
    right, the root last.  The walk keeps its own stack, so it takes
    formulas of any depth.
    """
    done: dict[int, Formula] = {}  # id -> node, in the order finished
    stack: list[Formula | None] = [formula]  # None: finish the node below it
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            done[id(node)] = node
        elif id(node) not in done:
            if isinstance(node, _Binary):
                stack += (node, None, node.right, node.left)
            elif isinstance(node, _Unary):
                stack += (node, None, node.arg)
            else:
                done[id(node)] = node
    return list(done.values())


def variables(formula: Formula) -> list[str]:
    """Sorted list of the variable names occurring in the formula."""
    return sorted({node.name for node in postorder(formula) if isinstance(node, Var)})


def is_modalized(formula: Formula) -> bool:
    """True when the truth value cannot depend on the world of evaluation.

    Holds for constants and for any combination of boxed/diamonded
    subformulas under the propositional connectives.  The left operand is
    checked first, and a variable there decides without the right.
    """
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            return False
        if isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, BINARY_TYPES):
            stack += (node.right, node.left)
        elif not isinstance(node, (Box, Dia, Const)):
            raise TypeError(f"not a ground formula: {node!r}")
    return True


def match_schema(pattern: Formula, formula: Formula) -> dict[str, Formula] | None:
    """Match a schema against a ground formula.

    Returns the metavariable binding on success, None on failure.  Repeated
    metavariables must bind equal subformulas; metavariables flagged as
    modalized only match modalized formulas.  Metavariables are bound left
    to right.
    """
    binding: dict[str, Formula] = {}
    stack = [(pattern, formula)]
    while stack:
        pat, f = stack.pop()
        if isinstance(pat, MetaVar):
            if pat.modalized and not is_modalized(f):
                return None
            if binding.setdefault(pat.name, f) != f:
                return None
        elif type(pat) is not type(f):
            return None
        elif isinstance(pat, (Var, Const)):
            if pat != f:
                return None
        elif isinstance(pat, UNARY_TYPES):
            stack.append((pat.arg, f.arg))
        else:
            stack += ((pat.right, f.right), (pat.left, f.left))
    return binding


def _rebuild(formula: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """The formula with every leaf node replaced by `leaf(node)`."""
    built: dict[int, Formula] = {}
    for node in postorder(formula):
        if isinstance(node, _Binary):
            new = type(node)(built[id(node.left)], built[id(node.right)])
        elif isinstance(node, _Unary):
            new = type(node)(built[id(node.arg)])
        else:
            new = leaf(node)
        built[id(node)] = new
    return built[id(formula)]


def substitute(pattern: Formula, binding: Mapping[str, Formula]) -> Formula:
    """Replace every metavariable in the pattern with its bound formula."""

    def leaf(node: Formula) -> Formula:
        if isinstance(node, MetaVar):
            try:
                return binding[node.name]
            except KeyError:
                raise KeyError(f"unbound metavariable {node.name!r}") from None
        if isinstance(node, (Var, Const)):
            return node
        raise TypeError(f"not a pattern node: {node!r}")

    return _rebuild(pattern, leaf)


def schema(text: str, modalized: tuple[str, ...] = ()) -> Formula:
    """Parse schema text: every identifier becomes a metavariable.

    Names listed in `modalized` get the world-independence side condition.
    """
    return _rebuild(
        parse(text),
        lambda node: MetaVar(node.name, node.name in modalized) if isinstance(node, Var) else node,
    )
