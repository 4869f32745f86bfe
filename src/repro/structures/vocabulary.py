"""Relational vocabularies (signatures).

A *vocabulary* is a finite set of relation symbols, each with a fixed arity.
Both sides of the homomorphism problem — and therefore conjunctive queries,
canonical databases, and CSP instances — are finite structures over a common
vocabulary, so the library makes vocabularies explicit, hashable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.exceptions import VocabularyError

__all__ = ["RelationSymbol", "Vocabulary"]


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A relation symbol: a name together with an arity.

    Instances are immutable and hashable so they can key dictionaries and
    live in sets.  Two symbols are equal exactly when both name and arity
    agree; using the same name with two different arities in one vocabulary
    is rejected by :class:`Vocabulary`.
    """

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise VocabularyError("relation symbol name must be non-empty")
        if not isinstance(self.arity, int) or isinstance(self.arity, bool):
            raise VocabularyError(
                f"relation symbol {self.name!r} has non-integer arity "
                f"{self.arity!r}"
            )
        if self.arity < 0:
            raise VocabularyError(
                f"relation symbol {self.name!r} has negative arity {self.arity}"
            )

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class Vocabulary:
    """An immutable finite set of relation symbols with distinct names.

    Supports set-like operations needed throughout the library: membership,
    lookup by name, iteration in a deterministic (name-sorted) order, union,
    and containment comparisons.
    """

    __slots__ = ("_symbols",)

    def __init__(self, symbols: Iterable[RelationSymbol] = ()) -> None:
        by_name: dict[str, RelationSymbol] = {}
        for symbol in symbols:
            existing = by_name.get(symbol.name)
            if existing is not None and existing != symbol:
                raise VocabularyError(
                    f"symbol {symbol.name!r} declared with arities "
                    f"{existing.arity} and {symbol.arity}"
                )
            by_name[symbol.name] = symbol
        # Name-sorted order keeps every downstream iteration deterministic.
        self._symbols: tuple[RelationSymbol, ...] = tuple(
            by_name[name] for name in sorted(by_name)
        )

    @classmethod
    def from_arities(cls, arities: Mapping[str, int]) -> "Vocabulary":
        """Build a vocabulary from a ``{name: arity}`` mapping."""
        return cls(RelationSymbol(name, arity) for name, arity in arities.items())

    # -- set-like protocol -------------------------------------------------

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, RelationSymbol):
            return self.get(item.name) == item
        if isinstance(item, str):
            return self.get(item) is not None
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        inner = ", ".join(str(s) for s in self._symbols)
        return f"Vocabulary({{{inner}}})"

    # -- lookups ------------------------------------------------------------

    def get(self, name: str) -> RelationSymbol | None:
        """Return the symbol with ``name``, or ``None`` if absent."""
        for symbol in self._symbols:
            if symbol.name == name:
                return symbol
        return None

    def __getitem__(self, name: str) -> RelationSymbol:
        symbol = self.get(name)
        if symbol is None:
            raise KeyError(name)
        return symbol

    def arity(self, name: str) -> int:
        """Return the arity of the symbol named ``name``."""
        return self[name].arity

    @property
    def names(self) -> tuple[str, ...]:
        """All symbol names, sorted."""
        return tuple(symbol.name for symbol in self._symbols)

    @property
    def max_arity(self) -> int:
        """The largest arity in the vocabulary (0 for the empty vocabulary)."""
        return max((symbol.arity for symbol in self._symbols), default=0)

    # -- combinations --------------------------------------------------------

    def union(self, other: "Vocabulary") -> "Vocabulary":
        """The union vocabulary; clashing arities raise VocabularyError."""
        return Vocabulary(tuple(self._symbols) + tuple(other._symbols))

    def issubset(self, other: "Vocabulary") -> bool:
        """True when every symbol of ``self`` occurs (same arity) in ``other``."""
        return all(symbol in other for symbol in self._symbols)

    def renamed(self, mapping: Mapping[str, str]) -> "Vocabulary":
        """A copy with symbol names replaced per ``mapping`` (missing names
        are kept)."""
        return Vocabulary(
            RelationSymbol(mapping.get(s.name, s.name), s.arity)
            for s in self._symbols
        )
