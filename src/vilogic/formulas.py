"""Propositional terms over a finite signature.

Formulas are immutable trees.  A leaf is a propositional variable; an inner
node applies a named connective of fixed arity to child formulas.  Names
declared in a :class:`Signature` are connectives, every other name is a
variable, so the concrete syntax needs no reserved words:

    and(x, or(x, y))        binary connectives, prefix form
    not(x')                 primes are legal in names
    t                       a 0-ary connective, written without parentheses

The module also provides substitution, bounded fragment enumeration (every
formula up to a depth limit over a fixed variable list), and fresh-variable
generation, which the transform and lattice layers build on.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "ArityError",
    "FormulaError",
    "FragmentSpec",
    "Formula",
    "ParseError",
    "Signature",
    "app",
    "enumerate_fragment",
    "formula_sort_key",
    "fresh_variable",
    "parse_formula",
    "substitute",
    "var",
    "vars_of_set",
]

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# Deepest nesting read from text: connectives in a formula, steps and meets
# in a tower.  Formula and tower walks recurse per level; at this bound the
# deepest command-line call needs about 730 of Python's default 1000 frames.
MAX_NESTING = 100


class FormulaError(ValueError):
    """Base class for formula construction and parsing problems."""


class ParseError(FormulaError):
    """Raised when a formula string cannot be parsed.

    Carries the offset of the offending token in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(FormulaError):
    """Raised when a connective is applied to the wrong number of arguments."""


@dataclass(frozen=True)
class Signature:
    """An ordered list of connective declarations ``(name, arity)``.

    Declaration order matters: fragment enumeration emits connectives in
    this order, so two signatures with the same connectives in different
    orders are deliberately not equal.
    """

    connectives: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.connectives:
            if not NAME_RE.fullmatch(name):
                raise FormulaError(f"bad connective name {name!r}")
            if arity < 0:
                raise FormulaError(f"negative arity for {name!r}")
            if name in seen:
                raise FormulaError(f"duplicate connective {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "Signature":
        return cls(tuple(pairs))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.connectives)

    def arity(self, name: str) -> int | None:
        """Arity of ``name``, or None when it is not a connective."""
        for conn, arity in self.connectives:
            if conn == name:
                return arity
        return None

    def __contains__(self, name: str) -> bool:
        return self.arity(name) is not None


@dataclass(frozen=True)
class Formula:
    """A variable (``args is None``) or connective application.

    Variable sets, depth and the hash are computed once at construction;
    formulas are shared freely between threads and cache keys.
    """

    head: str
    args: tuple["Formula", ...] | None = None

    def __post_init__(self):
        if not NAME_RE.fullmatch(self.head):
            raise FormulaError(f"bad name {self.head!r}")
        if self.args is None:
            depth = 0
            variables = frozenset((self.head,))
        else:
            if not isinstance(self.args, tuple):
                object.__setattr__(self, "args", tuple(self.args))
            depth = 1 + max((a.depth for a in self.args), default=0)
            variables = frozenset().union(*(a.variables for a in self.args))
        object.__setattr__(self, "_depth", depth)
        # A plain attribute, not a property: every oracle layer reads it for
        # every premise of every query.
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_hash", hash((self.head, self.args)))

    @property
    def is_variable(self) -> bool:
        return self.args is None

    @property
    def depth(self) -> int:
        """Tree height: variables have depth 0, constants depth 1."""
        return self._depth  # type: ignore[attr-defined]

    def __hash__(self):
        return self._hash  # type: ignore[attr-defined]

    def __str__(self) -> str:
        if self.args is None or not self.args:
            return self.head
        return f"{self.head}({', '.join(str(a) for a in self.args)})"

    def __repr__(self) -> str:
        return f"Formula[{self}]"


def var(name: str) -> Formula:
    return Formula(name)


def app(name: str, *args: Formula) -> Formula:
    return Formula(name, tuple(args))


def vars_of_set(formulas: Iterable[Formula]) -> frozenset[str]:
    """Union of the variable sets of ``formulas``, taken in one union."""
    return frozenset().union(*[f.variables for f in formulas])


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<punct>[(),]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if match.lastgroup is None:  # pure whitespace tail
            break
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    return tokens


def parse_formula(text: str, signature: Signature) -> Formula:
    """Parse ``text`` against ``signature``.

    A name is treated as a connective exactly when the signature declares
    it; 0-ary connectives are written bare, without parentheses.  A formula
    nested deeper than ``MAX_NESTING`` connectives is refused.
    """
    tokens = _tokenize(text)
    index = 0

    def peek():
        return tokens[index] if index < len(tokens) else (None, None, len(text))

    def take():
        nonlocal index
        tok = peek()
        index += 1
        return tok

    def parse_one(level: int) -> Formula:
        kind, value, pos = take()
        if kind != "name":
            raise ParseError(f"expected a name, got {value!r}" if value else "unexpected end of input", pos)
        arity = signature.arity(value)
        if arity is None:
            nkind, nvalue, npos = peek()
            if nkind == "punct" and nvalue == "(":
                raise ParseError(f"unknown connective {value!r}", pos)
            return var(value)
        if level == MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} connectives", pos)
        if arity == 0:
            nkind, nvalue, npos = peek()
            if nkind == "punct" and nvalue == "(":
                raise ArityError(f"constant {value!r} takes no argument list (at position {npos})")
            return app(value)
        nkind, nvalue, npos = take()
        if nkind != "punct" or nvalue != "(":
            raise ParseError(f"connective {value!r} needs an argument list", npos)
        args = [parse_one(level + 1)]
        while True:
            nkind, nvalue, npos = take()
            if nkind == "punct" and nvalue == ",":
                args.append(parse_one(level + 1))
            elif nkind == "punct" and nvalue == ")":
                break
            else:
                raise ParseError("expected ',' or ')'", npos)
        if len(args) != arity:
            raise ArityError(f"connective {value!r} expects {arity} arguments, got {len(args)}")
        return app(value, *args)

    result = parse_one(0)
    kind, value, pos = peek()
    if kind is not None:
        raise ParseError(f"trailing input {value!r}", pos)
    return result


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace each variable by its image under ``mapping`` (missing ones stay)."""
    if formula.is_variable:
        return mapping.get(formula.head, formula)
    if not formula.variables:
        return formula
    return Formula(formula.head, tuple(substitute(a, mapping) for a in formula.args))


def fresh_variable(avoid: Iterable[str], base: str = "y") -> str:
    """A variable name not in ``avoid``, built by priming ``base``."""
    taken = set(avoid)
    name = base
    while name in taken:
        name += "'"
    return name


def formula_sort_key(formula: Formula):
    """Total deterministic order: by depth, then structurally."""

    def structural(f: Formula):
        if f.is_variable:
            return (0, f.head)
        return (1, f.head, tuple(structural(a) for a in f.args))

    return (formula.depth, structural(formula))


@dataclass(frozen=True)
class FragmentSpec:
    """Bounds for finite enumeration: variable list, depth and premise count."""

    variables: tuple[str, ...] = ("x", "y", "z")
    max_depth: int = 2
    max_premises: int = 3

    def __post_init__(self):
        if not self.variables:
            raise FormulaError("fragment needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError("duplicate fragment variables")
        for v in self.variables:
            if not NAME_RE.fullmatch(v):
                raise FormulaError(f"bad variable name {v!r}")
        if self.max_depth < 0 or self.max_premises < 0:
            raise FormulaError("fragment bounds must be non-negative")


def enumerate_fragment(signature: Signature, spec: FragmentSpec) -> tuple[Formula, ...]:
    """All formulas over ``spec.variables`` of depth at most ``spec.max_depth``.

    Ordered by depth, then by connective declaration order, then by argument
    tuples lexicographically in enumeration order.  The order is part of the
    contract: witness selection elsewhere means "first in this order".
    """
    out: list[Formula] = [var(v) for v in spec.variables]
    previous_size = 0
    for depth in range(1, spec.max_depth + 1):
        pool = list(out)
        level: list[Formula] = []
        for name, arity in signature.connectives:
            if arity == 0:
                if depth == 1:
                    level.append(app(name))
                continue
            for combo in itertools.product(pool, repeat=arity):
                if max(f.depth for f in combo) == depth - 1:
                    level.append(app(name, *combo))
        previous_size = len(out)
        out.extend(level)
        if len(out) == previous_size:
            break  # no growth, deeper levels stay empty
    return tuple(out)


def fragment_subsets(
    formulas: tuple[Formula, ...], max_size: int
) -> Iterator[tuple[Formula, ...]]:
    """Subsets of ``formulas`` with at most ``max_size`` members.

    Enumerated by ascending size, combinations in index order; used by the
    exhaustive comparison engine and by tests.
    """
    for size in range(0, max_size + 1):
        yield from itertools.combinations(formulas, size)
