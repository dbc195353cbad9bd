"""Concept syntax trees: parsing, printing, size, fragments, duality, evaluation.

Concrete grammar (ASCII, canonical):

    or-expr    := and-expr ("or" and-expr)*
    and-expr   := unary ("and" unary)*
    unary      := "not" unary | quantifier | atom
    quantifier := ("exists" | "forall") ROLE "." or-expr
    atom       := "top" | "bot" | NAME | "(" or-expr ")"

"not" binds tighter than "and", which binds tighter than "or"; a quantifier
binds its dotted body maximally to the right.  Concept names start with an
uppercase letter, role names with a lowercase letter.  The canonical printer
emits minimal parentheses; parse(render(c)) == c for every tree.

Size is the number of syntax-tree nodes, with a quantifier and its role
fused into a single node: size of "forall r.(A or B)" is 4.
Concept text nested deeper than _MAX_DEPTH levels is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .data import Interpretation

__all__ = [
    "Concept", "Top", "Bot", "Name", "Not", "And", "Or", "Exists", "Forall",
    "OperatorSet", "O_ALL", "dual_operators", "parse_operators",
    "format_operators", "Signature", "ConceptError",
    "parse_concept", "render_concept", "size", "signature_of", "in_fragment",
    "dualize_concept", "evaluate", "quantifier_depth",
]


class ConceptError(ValueError):
    """Raised on malformed concept text or invalid operator sets."""


# ---------------------------------------------------------------------------
# syntax trees

class Concept:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Concept):
    pass


@dataclass(frozen=True, slots=True)
class Name(Concept):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Concept):
    child: Concept


@dataclass(frozen=True, slots=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, slots=True)
class Exists(Concept):
    role: str
    child: Concept


@dataclass(frozen=True, slots=True)
class Forall(Concept):
    role: str
    child: Concept


# ---------------------------------------------------------------------------
# operator sets and signatures

OperatorSet = frozenset  # subset of {"neg", "and", "or", "exists", "forall"}

# each operator's OperatorSet name and constructor, in canonical order
_OPERATORS: dict[str, type[Concept]] = {
    "neg": Not, "and": And, "or": Or, "exists": Exists, "forall": Forall}
_OPERATOR_OF = {ctor: op for op, ctor in _OPERATORS.items()}
# each constructor's arity, its number of children; the constructors in
# _TAKES_ROLE take a role before their child
_ARITY: dict[type[Concept], int] = {
    Top: 0, Bot: 0, Name: 0, Not: 1, And: 2, Or: 2, Exists: 1, Forall: 1}
_TAKES_ROLE = frozenset({Exists, Forall})

# the duality on constructors: top/bot, and/or, exists/forall swap; not stays
_DUAL_OF: dict[type[Concept], type[Concept]] = {
    Top: Bot, Bot: Top, Not: Not, And: Or, Or: And,
    Exists: Forall, Forall: Exists}

O_ALL: OperatorSet = frozenset(_OPERATORS)


def dual_operators(ops: OperatorSet) -> OperatorSet:
    """Swap and/or and exists/forall; neg is self-dual."""
    return frozenset(_OPERATOR_OF[_DUAL_OF[_OPERATORS[o]]] for o in ops)


def parse_operators(text: str) -> OperatorSet:
    """Parse a comma-separated operator list like "neg,and,exists"."""
    if text.strip() in ("", "none"):
        return frozenset()
    if text.strip() == "all":
        return O_ALL
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ConceptError(f"empty operator in {text!r}")
    ops = frozenset(parts)
    bad = ops - O_ALL
    if bad:
        raise ConceptError(f"unknown operators: {', '.join(sorted(bad))}")
    return ops


def format_operators(ops: OperatorSet) -> str:
    return ",".join(o for o in _OPERATORS if o in ops)


@dataclass(frozen=True)
class Signature:
    """Finite sets of concept names and role names; the two sets are disjoint."""

    concept_names: frozenset[str]
    role_names: frozenset[str]

    def __post_init__(self) -> None:
        overlap = self.concept_names & self.role_names
        if overlap:
            raise ConceptError(
                f"names used both as concept and role: {', '.join(sorted(overlap))}")


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = frozenset({"top", "bot", "not", "and", "or", "exists", "forall"})

# the deepest nesting parse_concept accepts, counted in levels of the syntax
# tree and in open parentheses; the parser takes up to three stack frames a
# level and the recursive walks below one or two, well within Python's 1000
_MAX_DEPTH = 256

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([().])|(\S))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    # yields (kind, value, position); kind in {"word", "punct"}
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # only trailing whitespace remains
            break
        if m.group(3) is not None:
            raise ConceptError(f"unknown token {m.group(3)!r} at position {m.start(3)}")
        if m.group(1) is not None:
            yield ("word", m.group(1), m.start(1))
        else:
            yield ("punct", m.group(2), m.start(2))
        pos = m.end()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ConceptError(f"unexpected end of input in {self.text!r}")
        self.i += 1
        return tok

    def expect_punct(self, value: str) -> None:
        tok = self.take()
        if tok[0] != "punct" or tok[1] != value:
            raise ConceptError(f"expected {value!r} at position {tok[2]}, got {tok[1]!r}")

    # depth counts the nots, quantifiers and parentheses open around a unary
    def parse_or(self, depth: int) -> Concept:
        node = self.parse_and(depth)
        while True:
            tok = self.peek()
            if tok is not None and tok[:2] == ("word", "or"):
                self.take()
                node = Or(node, self.parse_and(depth))
            else:
                return node

    def parse_and(self, depth: int) -> Concept:
        node = self.parse_unary(depth)
        while True:
            tok = self.peek()
            if tok is not None and tok[:2] == ("word", "and"):
                self.take()
                node = And(node, self.parse_unary(depth))
            else:
                return node

    def parse_unary(self, depth: int) -> Concept:
        tok = self.take()
        kind, value, pos = tok
        if depth >= _MAX_DEPTH:
            raise ConceptError(
                f"concept nested deeper than {_MAX_DEPTH} levels "
                f"at position {pos}")
        if kind == "punct":
            if value == "(":
                inner = self.parse_or(depth + 1)
                self.expect_punct(")")
                return inner
            raise ConceptError(f"unexpected {value!r} at position {pos}")
        if value == "not":
            return Not(self.parse_unary(depth + 1))
        if value in ("exists", "forall"):
            role_tok = self.take()
            if role_tok[0] != "word" or role_tok[1] in _KEYWORDS:
                raise ConceptError(f"expected role name at position {role_tok[2]}")
            role = role_tok[1]
            if not role[0].islower():
                raise ConceptError(
                    f"role names start lowercase: {role!r} at position {role_tok[2]}")
            self.expect_punct(".")
            body = self.parse_or(depth + 1)
            return Exists(role, body) if value == "exists" else Forall(role, body)
        if value == "top":
            return Top()
        if value == "bot":
            return Bot()
        if value in _KEYWORDS:
            raise ConceptError(f"unexpected keyword {value!r} at position {pos}")
        if not value[0].isupper():
            raise ConceptError(
                f"concept names start uppercase: {value!r} at position {pos}")
        return Name(value)


def parse_concept(text: str) -> Concept:
    """Parse concept text in the module grammar into a syntax tree."""
    parser = _Parser(text)
    node = parser.parse_or(0)
    leftover = parser.peek()
    if leftover is not None:
        raise ConceptError(
            f"trailing input {leftover[1]!r} at position {leftover[2]}")
    # a chain of and/or nests the tree without nesting the parser
    if _height(node) > _MAX_DEPTH:
        raise ConceptError(f"concept nested deeper than {_MAX_DEPTH} levels")
    return node


# ---------------------------------------------------------------------------
# printing

def render_concept(c: Concept) -> str:
    """Canonical text for a tree; parse_concept inverts it."""
    text, _open = _render(c)
    return text


def _render(c: Concept) -> tuple[str, bool]:
    # The bool is True when the text ends in an unparenthesized quantifier
    # body, which would absorb a following "and"/"or" if left bare.
    if isinstance(c, Top):
        return "top", False
    if isinstance(c, Bot):
        return "bot", False
    if isinstance(c, Name):
        return c.name, False
    if isinstance(c, Not):
        inner, open_ = _render(c.child)
        if isinstance(c.child, (And, Or)):
            inner, open_ = "(" + inner + ")", False
        return "not " + inner, open_
    if isinstance(c, (Exists, Forall)):
        kw = ("exists", "forall")[isinstance(c, Forall)]
        body, _ = _render(c.child)
        if isinstance(c.child, (And, Or)):
            body = "(" + body + ")"
        # a quantifier body is an or-expr and keeps absorbing operators,
        # parenthesized or not, so the tail stays open
        return f"{kw} {c.role}.{body}", True
    if isinstance(c, (And, Or)):
        kw = ("and", "or")[isinstance(c, Or)]
        same = And if kw == "and" else Or
        left, left_open = _render(c.left)
        # left operand: parenthesize lower precedence and open quantifier tails
        if (kw == "and" and isinstance(c.left, Or)) or left_open:
            left = "(" + left + ")"
        right, right_open = _render(c.right)
        # right operand: parenthesize equal precedence (left association)
        if isinstance(c.right, same) or (kw == "and" and isinstance(c.right, Or)):
            right, right_open = "(" + right + ")", False
        return f"{left} {kw} {right}", right_open
    raise TypeError(f"not a concept: {c!r}")


# ---------------------------------------------------------------------------
# structural measures

def _children(c: Concept) -> tuple[Concept, ...]:
    """The direct subconcepts of c, left to right."""
    arity = _ARITY.get(type(c), 0)
    if arity == 2:
        return c.left, c.right
    if arity == 1:
        return (c.child,)
    return ()


def _nodes(c: Concept) -> Iterator[Concept]:
    """Every node of c's syntax tree, depth first, without recursion."""
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _height(c: Concept) -> int:
    """Levels of c's syntax tree, without recursion."""
    height = 0
    stack = [(c, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in _children(node))
    return height


def size(c: Concept) -> int:
    """Node count of the syntax tree; a quantifier+role pair is one node."""
    return sum(1 for _ in _nodes(c))


def quantifier_depth(c: Concept) -> int:
    below = max(map(quantifier_depth, _children(c)), default=0)
    return below + (type(c) in _TAKES_ROLE)


def signature_of(c: Concept) -> Signature:
    nodes = list(_nodes(c))
    return Signature(
        frozenset(n.name for n in nodes if isinstance(n, Name)),
        frozenset(n.role for n in nodes if type(n) in _TAKES_ROLE))


def in_fragment(c: Concept, ops: OperatorSet) -> bool:
    """True iff every constructor in c is allowed; atoms always are."""
    banned = {ctor for op, ctor in _OPERATORS.items() if op not in ops}
    return not any(type(n) in banned for n in _nodes(c))


def dualize_concept(c: Concept) -> Concept:
    """Swap top/bot, and/or, exists/forall; names and not stay. Involution."""
    if isinstance(c, Name):
        return c
    if type(c) not in _DUAL_OF:
        raise TypeError(f"not a concept: {c!r}")
    role = (c.role,) if type(c) in _TAKES_ROLE else ()
    return _DUAL_OF[type(c)](*role, *map(dualize_concept, _children(c)))


# ---------------------------------------------------------------------------
# semantics

def evaluate(c: Concept, interp: "Interpretation") -> frozenset[str]:
    """Extension of c in interp, computed bottom-up over the whole domain.

    Names and roles absent from interp have empty extensions.  Runs in
    O(size(c) * (|domain| + |edges|)).
    """
    domain = interp.domain_set
    if isinstance(c, Top):
        return domain
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Name):
        return interp.concept_ext.get(c.name, frozenset())
    if isinstance(c, Not):
        return domain - evaluate(c.child, interp)
    if isinstance(c, And):
        return evaluate(c.left, interp) & evaluate(c.right, interp)
    if isinstance(c, Or):
        return evaluate(c.left, interp) | evaluate(c.right, interp)
    if isinstance(c, Exists):
        inner = evaluate(c.child, interp)
        succ = interp.successors(c.role)
        return frozenset(a for a, bs in succ.items() if not inner.isdisjoint(bs))
    if isinstance(c, Forall):
        inner = evaluate(c.child, interp)
        succ = interp.successors(c.role)
        # elements with no successors satisfy the universal vacuously
        return frozenset(a for a in domain if succ.get(a, frozenset()) <= inner)
    raise TypeError(f"not a concept: {c!r}")

