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
        try:
            for atom in atoms:
                mask |= 1 << self._index[atom]
        except KeyError:  # index() raises ScopeError for the smallest missing atom, in any order
            self.index(min(a for a in (atom, *atoms) if a not in self._index))
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
    _order: tuple[Rule, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", frozenset(self.rules))
        object.__setattr__(self, "_order", tuple(sorted(self.rules, key=rule_key)))

    @property
    def atoms(self) -> frozenset[str]:
        return frozenset().union(*(rule.atoms for rule in self.rules))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._order)

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
        def pairs() -> Iterator[tuple[int, int]]:
            for k, m in enumerate(models):
                if m.alphabet != alphabet:
                    raise ValueError(f"SE-interpretation {m!r} is not over alphabet {alphabet.atoms}")
                if not k and alphabet.atoms:  # one member costs 3^n bits: check the cap first
                    _check_enumerable(alphabet, None)
                yield m.here.bits, m.there.bits
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_bits", _bits_at(_indices(alphabet, pairs())))

    @classmethod
    def _of(cls, alphabet: Alphabet, bits: int) -> "SESet":
        s = object.__new__(cls)
        object.__setattr__(s, "alphabet", alphabet)
        object.__setattr__(s, "_bits", bits)
        return s

    @classmethod
    def from_masks(cls, alphabet: Alphabet, pairs: Iterable[tuple[int, int]],
                   cap: int | None = None) -> "SESet":
        """The pairs <I,J> given as (here, there) bit masks, the inverse of `masks`.
        The cap is checked before `pairs` is read."""
        _check_enumerable(alphabet, cap)
        return cls._of(alphabet, _bits_at(_indices(alphabet, pairs)))

    @classmethod
    def full(cls, alphabet: Alphabet, cap: int | None = None) -> "SESet":
        return cls._of(alphabet, (1 << 3 ** _check_enumerable(alphabet, cap)) - 1)

    @classmethod
    def excluding(cls, alphabet: Alphabet, cubes: Iterable[tuple[int, int, int]],
                  cap: int | None = None) -> "SESet":
        """The full set minus the union of the cubes. A cube of masks (zero, one, two) holds the
        pairs <I,J> in which each atom's digit d (see the class docstring) has it in the d-th
        mask; bits above the alphabet are not read. The cap is checked before `cubes` is read."""
        n, out = _check_enumerable(alphabet, cap), 0
        for zero, one, two in cubes:
            out |= _product(n, zero, one, two)
        return cls._of(alphabet, (1 << 3 ** n) - 1 ^ out)  # out lies below 3^n, so ^ removes it

    def totals(self) -> "SESet":
        """The total pair <J,J> for the J of every member <I,J>."""
        return SESet._of(self.alphabet, _totals(self._bits, len(self.alphabet)))

    def digits(self) -> tuple[int, int, int]:
        """The least cube (see `excluding`) that holds the set: the masks of the atoms that take
        digit 0, 1 and 2 in some member. One fold: the top atom takes digit d when its d-th
        third is nonempty, and the union of the thirds is a set over one atom fewer."""
        bits, zero, one, two = self._bits, 0, 0, 0
        for k in reversed(range(len(self.alphabet))):
            step = 3 ** k
            mask = (1 << step) - 1
            lo, mid, hi = bits & mask, bits >> step & mask, bits >> 2 * step
            zero, one, two = zero | bool(lo) << k, one | bool(mid) << k, two | bool(hi) << k
            bits = lo | mid | hi
        return zero, one, two

    def is_full(self) -> bool:
        return len(self) == 3 ** len(self.alphabet)

    def masks(self) -> Iterator[tuple[int, int]]:
        """(here, there) bit masks of the members, sorted by (there, here), at a cost
        that follows the member count rather than 3^n.

        One descent over the top atom's thirds. A stack entry (parts, k, there) fixes J's
        atoms from k up to `there`; `parts` maps I's atoms from k up, ascending, to the set
        over atoms 0..k-1 with them (a dict: a tuple per part gives the garbage collector
        more objects to count). The low thirds keep atom k-1 outside J; the middle and high
        thirds put it in J, the high ones in I too. The outside branch pops first, so J and
        then I run upward. The empty alphabet's one pair <{},{}> is bit 0.
        """
        stack = [({0: self._bits}, len(self.alphabet), 0)] if self._bits else []
        while stack:
            parts, k, there = stack.pop()
            if k <= 1:  # the last atom inline: digit 0 of every part, then digits 1 and 2
                for here, bits in parts.items():
                    if bits & 1:
                        yield here, there
                there |= 1
                for here, bits in parts.items():
                    if bits & 2:
                        yield here, there
                    if bits & 4:
                        yield here | 1, there
                continue
            k -= 1
            step, bit = 3 ** k, 1 << k
            mask = (1 << step) - 1
            outside, inside = {}, {}
            for here, bits in parts.items():
                if lo := bits & mask:
                    outside[here] = lo
                if mid := bits >> step & mask:
                    inside[here] = mid
                if hi := bits >> 2 * step:
                    inside[here | bit] = hi
            if inside:
                stack.append((inside, k, there | bit))
            if outside:
                stack.append((outside, k, there))

    def sorted_models(self) -> list[SEInterpretation]:
        pairs = list(self.masks())
        interps = {m: Interpretation(self.alphabet, m) for m in {side for pair in pairs for side in pair}}
        return [SEInterpretation(interps[i], interps[j]) for i, j in pairs]

    @property
    def models(self) -> frozenset[SEInterpretation]:
        return frozenset(self.sorted_models())

    def complement(self, cap: int | None = None) -> "SESet":
        return SESet._of(self.alphabet, SESet.full(self.alphabet, cap)._bits ^ self._bits)

    def sort_key(self) -> tuple:
        return tuple((j, i) for i, j in self.masks())

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
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("SE-sets over different alphabets")

    def __or__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits | other._bits)

    def __and__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits & other._bits)

    def __xor__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits ^ other._bits)

    def __sub__(self, other: "SESet") -> "SESet":
        self._same_alphabet(other)
        return SESet._of(self.alphabet, self._bits ^ (self._bits & other._bits))  # no 3^n-bit negation

    def __le__(self, other: "SESet") -> bool:
        self._same_alphabet(other)
        return self._bits & other._bits == self._bits

    def __lt__(self, other: "SESet") -> bool:
        return self <= other and self._bits != other._bits


# totals() of every set over atoms 0 and 1, one step of the fold below applied to the
# one-atom table. A one-atom set has the bits of the two-atom set with atom 1 outside J,
# so it reads the same table.
_TOTALS_OF_ONE_ATOM = (0, 1, 4, 5, 4, 5, 4, 5)
_TOTALS_OF_TWO_ATOMS = tuple(
    _TOTALS_OF_ONE_ATOM[v & 7] | _TOTALS_OF_ONE_ATOM[(v >> 3 | v >> 6) & 7] << 6 for v in range(512))


def _totals(bits: int, k: int) -> int:
    """totals() of the set `bits` over atoms 0..k-1, one fold over the top atom's thirds.

    Members with the top atom outside J (digit 0) keep it outside; the other
    two thirds have it in J, so their totals land on digit 2.
    """
    if k <= 2:
        return _TOTALS_OF_TWO_ATOMS[bits]
    step = 3 ** (k - 1)
    mask = (1 << step) - 1
    lo, up = bits & mask, (bits >> step | bits >> 2 * step) & mask
    out = _totals(lo, k - 1) if lo else 0
    return out | _totals(up, k - 1) << 2 * step if up else out


def _indices(alphabet: Alphabet, pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """The bit indices of the pairs <I,J> given as (here, there) masks over the alphabet, each
    pair checked. Each distinct side's index is computed once: a set repeats every side."""
    n, index = len(alphabet.atoms), {}
    for here, there in pairs:
        if here & ~there or there >> n:  # the checked constructors name the fault
            SEInterpretation(Interpretation(alphabet, here), Interpretation(alphabet, there))
        i = index.get(here)
        if i is None:
            i = index[here] = _ternary(here)
        j = index.get(there)  # read after `here` is stored: a total pair has one side
        if j is None:
            j = index[there] = _ternary(there)
        yield i + j


def _bits_at(indices: Iterable[int]) -> int:
    """The integer with these bits set, filled in place in a bytearray: `|= 1 << k` copies it all."""
    buf = bytearray()
    for k in indices:
        byte = k >> 3
        if byte >= len(buf):
            buf += bytes(byte + 1 - len(buf))
        buf[byte] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def _product(n: int, zero: int, one: int, two: int) -> int:
    """Bits of the pairs in the cube (zero, one, two) over atoms 0..n-1 (see
    `SESet.excluding`). The set over atoms 0..k-1 fills the indices below 3^k; atom k keeps
    one shifted copy of it for each digit its masks allow."""
    bits = 1  # an atom that can take no digit empties it for good
    for k in range(n):
        bits = _product_step(bits, 3 ** k, zero >> k & 1, one >> k & 1, two >> k & 1)
    return bits


def _product_step(bits: int, step: int, zero: int, one: int, two: int) -> int:
    """The cube `bits` over atoms 0..k-1, where `step` is 3^k, with atom k allowed the flagged digits."""
    return (bits if zero else 0) | (bits << step if one else 0) | (bits << 2 * step if two else 0)


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
