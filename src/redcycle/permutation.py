"""Permutations of vertex labels.

A :class:`Permutation` is a bijection on a finite set of positive integer
labels, acting as the identity on every label it does not mention.  These
show up as the relabelings associated to reddening sequences and as quiver
isomorphisms.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping


class Permutation:
    """A finite permutation of positive integer labels.

    Fixed points are never stored, so two permutations compare equal exactly
    when they move the same labels the same way.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = dict(mapping)
        moved = {a: b for a, b in pairs.items() if a != b}
        if set(moved.keys()) != set(moved.values()):
            raise ValueError(f"mapping is not a permutation: {pairs!r}")
        self._map = moved

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @classmethod
    def from_cycles(cls, *cycles: Iterable[int]) -> "Permutation":
        """Build a permutation from disjoint cycles, e.g. ``from_cycles((1, 3), (4, 6))``."""
        mapping: dict[int, int] = {}
        for cycle in cycles:
            cyc = list(cycle)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise ValueError(f"label {a} appears in two cycles")
                mapping[a] = b
        return cls(mapping)

    def __call__(self, label: int) -> int:
        return self._map.get(label, label)

    def map_sequence(self, seq: Iterable[int]) -> tuple[int, ...]:
        """Relabel every entry of a mutation sequence."""
        return tuple([self(v) for v in seq])

    @property
    def support(self) -> frozenset[int]:
        """The labels actually moved."""
        return frozenset(self._map)

    @property
    def is_identity(self) -> bool:
        return not self._map

    def inverse(self) -> "Permutation":
        return Permutation({b: a for a, b in self._map.items()})

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(x) == self(other(x))``."""
        labels = set(self._map) | set(other._map)
        return Permutation({x: self(other(x)) for x in labels})

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycle decomposition (nontrivial cycles, smallest element first)."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)

    @property
    def order(self) -> int:
        """Smallest k >= 1 with ``self**k`` the identity."""
        return lcm(*(len(c) for c in self.cycles())) if self._map else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._map:
            return "Permutation.identity()"
        body = "".join("(" + ",".join(map(str, c)) + ")" for c in self.cycles())
        return f"Permutation[{body}]"
