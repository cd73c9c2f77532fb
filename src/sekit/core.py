"""Base value types: alphabets, interpretations, SE-interpretations, rules, programs.

Interpretations are bit vectors over a sorted alphabet, and an SE-set is one
integer with a bit per SE-pair, so subset tests, model checks and set
algebra are plain integer arithmetic. This module alone knows how pairs map
to bits. All enumeration helpers return deterministically ordered tuples:
interpretations in binary counting order, SE-interpretations sorted by
(there, here).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

ATOM_PATTERN = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

DEFAULT_ENUMERATION_CAP = 20


class EnumerationCapError(ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class ScopeError(ValueError):
    """A rule or input mentions an atom outside the working alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """Sorted tuple of distinct atom names; bit i of an interpretation is atoms[i].

    May be empty (e.g. inferred from an empty program), but enumeration over
    interpretations requires at least one atom.
    """

    atoms: tuple[str, ...]
    _index: Mapping[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = sorted(set(self.atoms))
        for name in names:
            if not ATOM_PATTERN.match(name):
                raise ValueError(f"invalid atom name {name!r}")
        object.__setattr__(self, "atoms", tuple(names))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(names)})

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __contains__(self, atom: object) -> bool:
        return atom in self._index

    def index(self, atom: str) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise ScopeError(f"atom '{atom}' is not in alphabet {{{', '.join(self.atoms)}}}") from None

    @property
    def full_mask(self) -> int:
        return (1 << len(self.atoms)) - 1

    def mask_of(self, atoms: Iterable[str]) -> int:
        mask = 0
        for atom in sorted(set(atoms)):
            mask |= 1 << self.index(atom)
        return mask

    def atoms_of(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


@dataclass(frozen=True)
class Interpretation:
    """Subset of an alphabet, stored as a bit mask."""

    alphabet: Alphabet
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.alphabet.full_mask:
            raise ValueError(f"bit mask {self.bits:#x} out of range for {len(self.alphabet)} atoms")

    @classmethod
    def of(cls, alphabet: Alphabet, atoms: Iterable[str]) -> "Interpretation":
        return cls(alphabet, alphabet.mask_of(atoms))

    def atoms(self) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.alphabet.atoms) if self.bits >> i & 1)

    def __contains__(self, atom: object) -> bool:
        # atoms outside the alphabet are simply false
        i = self.alphabet._index.get(atom)  # type: ignore[arg-type]
        return i is not None and bool(self.bits >> i & 1)

    def issubset(self, other: "Interpretation") -> bool:
        if self.alphabet != other.alphabet:
            raise ValueError("interpretations over different alphabets")
        return self.bits & ~other.bits == 0

    def __le__(self, other: "Interpretation") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Interpretation") -> bool:
        return self.issubset(other) and self.bits != other.bits

    def __repr__(self) -> str:
        return "{" + ",".join(self.atoms()) + "}"


@dataclass(frozen=True)
class SEInterpretation:
    """Pair <here, there> with here a subset of there, both over one alphabet."""

    here: Interpretation
    there: Interpretation

    def __post_init__(self) -> None:
        if self.here.alphabet != self.there.alphabet:
            raise ValueError("here and there use different alphabets")
        if self.here.bits & ~self.there.bits:
            raise ValueError(f"here {self.here!r} is not a subset of there {self.there!r}")

    @property
    def alphabet(self) -> Alphabet:
        return self.there.alphabet

    def sort_key(self) -> tuple[int, int]:
        return (self.there.bits, self.here.bits)

    def __repr__(self) -> str:
        return f"<{self.here!r},{self.there!r}>"


@dataclass(frozen=True)
class Rule:
    """Disjunctive rule  H+ ; not H-  :-  B+, not B-.

    The four parts are sets of atom names; any iterable is accepted and
    collapsed to a frozenset. ``is_epsilon`` marks the canonical tautology,
    which carries no atoms and is satisfied by every SE-interpretation.
    """

    head_pos: frozenset[str] = frozenset()
    head_neg: frozenset[str] = frozenset()
    body_pos: frozenset[str] = frozenset()
    body_neg: frozenset[str] = frozenset()
    is_epsilon: bool = False

    def __post_init__(self) -> None:
        for name in ("head_pos", "head_neg", "body_pos", "body_neg"):
            value = frozenset(getattr(self, name))
            for atom in value:
                if not ATOM_PATTERN.match(atom):
                    raise ValueError(f"invalid atom name {atom!r}")
            object.__setattr__(self, name, value)
        if self.is_epsilon and self.atoms:
            raise ValueError("the canonical tautology carries no atoms")

    @property
    def atoms(self) -> frozenset[str]:
        return self.head_pos | self.head_neg | self.body_pos | self.body_neg

    def __repr__(self) -> str:
        if self.is_epsilon:
            return "Rule(#taut)"
        part = lambda s: "{" + ",".join(sorted(s)) + "}"
        return (f"Rule({part(self.head_pos)};~{part(self.head_neg)}"
                f" <- {part(self.body_pos)},~{part(self.body_neg)})")


EPSILON = Rule(is_epsilon=True)


def rule_key(rule: Rule) -> tuple:
    """Total order on rules, for deterministic witness and output selection."""
    if rule.is_epsilon:
        return (1, (), (), (), ())
    return (0, tuple(sorted(rule.head_pos)), tuple(sorted(rule.head_neg)),
            tuple(sorted(rule.body_pos)), tuple(sorted(rule.body_neg)))


@dataclass(frozen=True)
class Program:
    """Finite set of rules."""

    rules: frozenset[Rule] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))

    @property
    def atoms(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for rule in self.rules:
            out |= rule.atoms
        return out

    def __iter__(self) -> Iterator[Rule]:
        return iter(sorted(self.rules, key=rule_key))

    def __len__(self) -> int:
        return len(self.rules)

    def __contains__(self, rule: object) -> bool:
        return rule in self.rules


def _ternary(bits: int) -> int:
    """Sum of 3^k over the bits k of a mask: the mask's binary digits read in base 3."""
    return int(f"{bits:b}", 3)


@dataclass(frozen=True, init=False)
class SESet:
    """Set of SE-interpretations over one alphabet, stored as one integer.

    Pair <I,J> is bit t(I) + t(J) of `_bits`, where t(x) sums 3^k over the
    atoms k in x. Ternary digit k of the index is 0 when atom k is outside
    J, 1 when it is in J but not in I, and 2 when it is in I. Every index
    below 3^n is a pair, so set algebra is integer algebra; SEInterpretation
    objects are built only when members are listed or looked up.
    """

    alphabet: Alphabet
    _bits: int

    def __init__(self, alphabet: Alphabet, models: Iterable[SEInterpretation] = frozenset()) -> None:
        bits = 0
        for m in models:
            if m.alphabet != alphabet:
                raise ValueError(f"SE-interpretation {m!r} is not over alphabet {alphabet.atoms}")
            bits |= 1 << _ternary(m.here.bits) + _ternary(m.there.bits)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_bits", bits)

    @classmethod
    def _of(cls, alphabet: Alphabet, bits: int) -> "SESet":
        s = object.__new__(cls)
        object.__setattr__(s, "alphabet", alphabet)
        object.__setattr__(s, "_bits", bits)
        return s

    @classmethod
    def full(cls, alphabet: Alphabet, cap: int | None = None) -> "SESet":
        return cls._of(alphabet, (1 << 3 ** _check_enumerable(alphabet, cap)) - 1)

    @classmethod
    def where(cls, alphabet: Alphabet, here: tuple[int, int], there: tuple[int, int],
              cap: int | None = None) -> "SESet":
        """Pairs <I,J> with I in the interval `here` and J in the interval `there`.

        An interval is a (bottom, top) pair of bit masks and is empty when
        the bottom is not below the top. The set over atoms 0..k-1 fills the
        indices below 3^k; atom k keeps one shifted copy of it for each digit
        the two intervals allow.
        """
        n = _check_enumerable(alphabet, cap)
        (i_bot, i_top), (j_bot, j_top) = here, there
        # the atoms that may take digit 0 (outside J), 1 (in J, not in I) and 2 (in I)
        zero, one, two = ~(i_bot | j_bot), ~i_bot & j_top, i_top & j_top
        bits = 1
        for k in range(n):
            step = 3 ** k
            bits = ((bits if zero >> k & 1 else 0) | (bits << step if one >> k & 1 else 0)
                    | (bits << 2 * step if two >> k & 1 else 0))
        return cls._of(alphabet, bits)

    def totals(self) -> "SESet":
        """The total pair <J,J> for the J of every member <I,J>."""
        bits, full = self._bits, self.alphabet.full_mask
        for k in range(len(self.alphabet)):
            # members with atom k in J but not in I move from digit 1 to digit 2
            moved = bits & SESet.where(self.alphabet, (0, full & ~(1 << k)), (1 << k, full))._bits
            bits = bits ^ moved | moved << 3 ** k
        return SESet._of(self.alphabet, bits)

    def is_full(self) -> bool:
        return len(self) == 3 ** len(self.alphabet)

    def _walk(self) -> Iterator[tuple[int, int]]:
        """(here, there) masks of the members, sorted by (there, here).

        J runs upward and I over the submasks of J in increasing order, so
        each of the 3^n pairs is visited once.
        """
        n = len(self.alphabet)
        t = [_ternary(x) for x in range(1 << n)]
        flags = f"{self._bits:0{3 ** n}b}"[::-1]
        for j in range(1 << n):
            i = 0
            while True:
                if flags[t[i] + t[j]] == "1":
                    yield i, j
                if i == j:
                    break
                i = (i - j) & j

    def sorted_models(self) -> list[SEInterpretation]:
        interps = [Interpretation(self.alphabet, x) for x in range(1 << len(self.alphabet))]
        return [SEInterpretation(interps[i], interps[j]) for i, j in self._walk()]

    @property
    def models(self) -> frozenset[SEInterpretation]:
        return frozenset(self.sorted_models())

    def complement(self, cap: int | None = None) -> "SESet":
        return SESet.full(self.alphabet, cap) - self

    def sort_key(self) -> tuple:
        return tuple((j, i) for i, j in self._walk())

    def __contains__(self, se: object) -> bool:
        if not isinstance(se, SEInterpretation) or se.alphabet != self.alphabet:
            return False
        return bool(self._bits >> (_ternary(se.here.bits) + _ternary(se.there.bits)) & 1)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __repr__(self) -> str:
        return f"SESet(alphabet={self.alphabet.atoms}, size={len(self)})"

    def __iter__(self) -> Iterator[SEInterpretation]:
        return iter(self.sorted_models())

    def _same_alphabet(self, other: "SESet") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("SE-sets over different alphabets")

    def __or__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits | other._bits)

    def __and__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits & other._bits)

    def __sub__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits & ~other._bits)

    def __le__(self, other: "SESet") -> bool:
        self._same_alphabet(other)
        return self._bits & ~other._bits == 0

    def __lt__(self, other: "SESet") -> bool:
        return self <= other and self._bits != other._bits


def _check_enumerable(alphabet: Alphabet, cap: int | None) -> int:
    """The alphabet's size, once it is known to be enumerable under the cap."""
    n = len(alphabet.atoms)
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if n == 0:
        raise ValueError("enumeration requires a nonempty alphabet")
    if n > limit:
        raise EnumerationCapError(
            f"alphabet has {n} atoms, exceeding the enumeration cap of {limit}")
    return n


def all_interpretations(alphabet: Alphabet, cap: int | None = None) -> tuple[Interpretation, ...]:
    """All 2^n subsets of the alphabet in binary counting order."""
    n = _check_enumerable(alphabet, cap)
    return tuple(Interpretation(alphabet, bits) for bits in range(1 << n))


def all_se_interpretations(alphabet: Alphabet, cap: int | None = None) -> tuple[SEInterpretation, ...]:
    """All 3^n SE-interpretations, sorted by (there, here)."""
    return tuple(SESet.full(alphabet, cap).sorted_models())
