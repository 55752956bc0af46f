"""Canonical forms for direct sums of uniform abelian groups.

The representable universe is: direct sums of
  * cyclic groups of prime-power order,
  * quasicyclic (Prufer) groups,
  * rank-1 rational groups given by an eventually-constant characteristic,
with multiplicities in {1, 2, ...} or countably infinite (OMEGA), plus
prime-indexed families that place the same local shape at every prime
outside a finite exception set.

A ``CanonicalGroup`` stores three things:

``rationals``
    torsion-free summands, keyed by the type representative of their
    characteristic (rank-1 groups are isomorphic iff their types agree,
    so this key is exactly the isomorphism class),
``generic``
    the p-primary shape placed at every prime not listed in
    ``exceptions`` (empty when the group names only finitely many
    primes), and
``exceptions``
    full replacement shapes at finitely many primes.

Equality of canonical forms is isomorphism on this class, which makes
every decider a structural check.  All values are immutable; every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .arith import check_prime
from .characteristics import Characteristic
from .errors import NonTorsionFreeInput


class _Omega:
    """Countably infinite multiplicity; absorbs addition and scaling."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "omega"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__


OMEGA = _Omega()

Multiplicity = Union[int, _Omega]


def check_multiplicity(m: Multiplicity) -> Multiplicity:
    if m is OMEGA:
        return m
    if type(m) is int and m >= 1:
        return m
    raise ValueError(f"multiplicity must be a positive integer or OMEGA, got {m!r}")


def check_exponent(n: int, what: str = "cyclic") -> int:
    if type(n) is int and n >= 1:
        return n
    raise ValueError(f"{what} exponent must be >= 1, got {n!r}")


def mult_to_json(m: Multiplicity):
    return "omega" if m is OMEGA else m


# ---------------------------------------------------------------------------
# Building blocks, as they appear in descriptors.


@dataclass(frozen=True)
class CyclicAtom:
    """Cyclic group of order p**n."""

    p: int
    n: int

    def __post_init__(self):
        check_prime(self.p)
        check_exponent(self.n)


@dataclass(frozen=True)
class PruferAtom:
    """Quasicyclic group: the divisible hull of the order-p cyclic group."""

    p: int

    def __post_init__(self):
        check_prime(self.p)


@dataclass(frozen=True)
class RationalAtom:
    """Rank-1 torsion-free group with the given characteristic."""

    char: Characteristic


@dataclass(frozen=True)
class TowerAtom:
    """One copy of every cyclic p-power group at a single prime p."""

    p: int

    def __post_init__(self):
        check_prime(self.p)


@dataclass(frozen=True)
class FixedExponent:
    """Family template: the cyclic group of order p**exponent at each prime."""

    exponent: int

    def __post_init__(self):
        check_exponent(self.exponent, "family")


@dataclass(frozen=True)
class PruferAll:
    """Family template: the quasicyclic group at each prime."""


@dataclass(frozen=True)
class UnboundedTower:
    """Family template: all cyclic p-power groups at each prime."""


FamilyTemplate = Union[FixedExponent, PruferAll, UnboundedTower]


@dataclass(frozen=True)
class PrimeFamily:
    """A template applied at every prime outside ``excluded``."""

    template: FamilyTemplate
    multiplicity: Multiplicity = 1
    excluded: tuple[int, ...] = ()

    def __init__(self, template, multiplicity: Multiplicity = 1, excluded: Iterable[int] = ()):
        if not isinstance(template, (FixedExponent, PruferAll, UnboundedTower)):
            raise ValueError(f"unknown family template {template!r}")
        check_multiplicity(multiplicity)
        banned = tuple(sorted({check_prime(p) for p in excluded}))
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "excluded", banned)


DescriptorPart = Union[CyclicAtom, PruferAtom, RationalAtom, TowerAtom, PrimeFamily]


@dataclass(frozen=True)
class GroupDescriptor:
    """Pre-canonical formal sum of parts with multiplicities."""

    parts: tuple[tuple[DescriptorPart, Multiplicity], ...]

    def __init__(self, parts: Iterable[tuple[DescriptorPart, Multiplicity]]):
        cleaned = []
        for part, mult in parts:
            if not isinstance(part, (CyclicAtom, PruferAtom, RationalAtom, TowerAtom, PrimeFamily)):
                raise ValueError(f"unknown descriptor part {part!r}")
            cleaned.append((part, check_multiplicity(mult)))
        object.__setattr__(self, "parts", tuple(cleaned))


# ---------------------------------------------------------------------------
# p-local shapes.


@dataclass(frozen=True)
class LocalShape:
    """p-primary content at one prime (or at every generic prime).

    ``cyclic`` maps exponents to multiplicities, ``prufer`` counts
    quasicyclic copies, ``tower`` counts copies of the full unbounded
    cyclic tower.  A tower with multiplicity OMEGA already contains
    every cyclic layer countably often, so finite cyclic entries are
    absorbed into it (this keeps equality of shapes equal to
    isomorphism of the local parts).
    """

    cyclic: tuple[tuple[int, Multiplicity], ...] = ()
    prufer: Multiplicity = 0
    tower: Multiplicity = 0

    @staticmethod
    def make(cyclic: Mapping[int, Multiplicity] = {}, prufer: Multiplicity = 0,
             tower: Multiplicity = 0) -> "LocalShape":
        def absent(m):  # only the int 0 marks an absent part
            return type(m) is int and m == 0

        layers = tuple((check_exponent(n), check_multiplicity(m)) for n, m in cyclic.items() if not absent(m))
        prufer, tower = (m if absent(m) else check_multiplicity(m) for m in (prufer, tower))
        return _sum_shapes([LocalShape(layers, prufer, tower)])

    @property
    def is_trivial(self) -> bool:
        return not self.cyclic and self.prufer == 0 and self.tower == 0

    @property
    def is_bounded(self) -> bool:
        """Some integer kills the whole shape (no tower, no prufer part)."""
        return self.tower == 0 and self.prufer == 0

    @property
    def reduced_is_bounded(self) -> bool:
        return self.tower == 0

    @property
    def has_exponent_one_layer(self) -> bool:
        """An order-p cyclic direct summand is present."""
        if self.tower != 0:
            return True
        return any(n == 1 for n, _ in self.cyclic)

    @property
    def is_semisimple(self) -> bool:
        return self.prufer == 0 and self.tower == 0 and all(n == 1 for n, _ in self.cyclic)

    def reduced(self) -> "LocalShape":
        return LocalShape(self.cyclic, 0, self.tower)

    def divisible_only(self) -> "LocalShape":
        return LocalShape((), self.prufer, 0)


TRIVIAL_SHAPE = LocalShape()


# ---------------------------------------------------------------------------
# Canonical groups.


@dataclass(frozen=True)
class CanonicalGroup:
    rationals: tuple[tuple[Characteristic, Multiplicity], ...] = ()
    generic: LocalShape = TRIVIAL_SHAPE
    exceptions: tuple[tuple[int, LocalShape], ...] = ()

    @staticmethod
    def _build(rationals: Mapping[Characteristic, Multiplicity],
               generic: LocalShape,
               exceptions: Mapping[int, LocalShape]) -> "CanonicalGroup":
        rat = tuple(sorted(((c, m) for c, m in rationals.items() if m != 0),
                           key=lambda cm: cm[0].sort_key()))
        exc = tuple(sorted((p, shape) for p, shape in exceptions.items() if shape != generic))
        return CanonicalGroup(rat, generic, exc)

    # -- basic views --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rationals and self.generic.is_trivial and not self.exceptions

    def local_at(self, p: int) -> LocalShape:
        """The p-primary shape effective at prime p."""
        check_prime(p)
        for q, shape in self.exceptions:
            if q == p:
                return shape
        return self.generic

    def exception_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptions)

    def has_torsion(self) -> bool:
        return not (self.generic.is_trivial and not self.exceptions)

    # -- part extractors -----------------------------------------------------

    def torsion_part(self) -> "CanonicalGroup":
        return CanonicalGroup(generic=self.generic, exceptions=self.exceptions)

    def torsion_free_part(self) -> "CanonicalGroup":
        return CanonicalGroup(self.rationals)

    def p_primary(self, p: int) -> "CanonicalGroup":
        shape = self.local_at(p)
        return CanonicalGroup._build({}, TRIVIAL_SHAPE, {p: shape})

    def divisible_part(self) -> "CanonicalGroup":
        rat = {c: m for c, m in self.rationals if c.is_all_infinite}
        exc = {p: shape.divisible_only() for p, shape in self.exceptions}
        return CanonicalGroup._build(rat, self.generic.divisible_only(), exc)

    def reduced_part(self) -> "CanonicalGroup":
        rat = {c: m for c, m in self.rationals if not c.is_all_infinite}
        exc = {p: shape.reduced() for p, shape in self.exceptions}
        return CanonicalGroup._build(rat, self.generic.reduced(), exc)


ZERO_GROUP = CanonicalGroup()


# ---------------------------------------------------------------------------
# Canonicalization and sums.


def _part_group(part: DescriptorPart, mult: Multiplicity) -> CanonicalGroup:
    """``mult`` copies of one descriptor part, already in canonical form."""
    if isinstance(part, RationalAtom):
        return CanonicalGroup(rationals=((part.char.type_representative(), mult),))
    if isinstance(part, CyclicAtom):
        return CanonicalGroup(exceptions=((part.p, LocalShape(((part.n, mult),))),))
    if isinstance(part, PruferAtom):
        return CanonicalGroup(exceptions=((part.p, LocalShape(prufer=mult)),))
    if isinstance(part, TowerAtom):
        return CanonicalGroup(exceptions=((part.p, LocalShape(tower=mult)),))
    mult = part.multiplicity * mult
    template = part.template
    if isinstance(template, FixedExponent):
        generic = LocalShape(((template.exponent, mult),))
    elif isinstance(template, PruferAll):
        generic = LocalShape(prufer=mult)
    else:
        generic = LocalShape(tower=mult)
    return CanonicalGroup(generic=generic,
                          exceptions=tuple((p, TRIVIAL_SHAPE) for p in part.excluded))


def canonicalize(d: GroupDescriptor | CanonicalGroup) -> CanonicalGroup:
    """Fold a descriptor into canonical form: the direct sum of its parts.

    Each part is canonical on its own (a family is its generic shape with
    the trivial shape at each excluded prime), so ``direct_sum`` does all
    the merging.  Canonical groups pass through unchanged, so the map is
    idempotent.
    """
    if isinstance(d, CanonicalGroup):
        return d
    if not isinstance(d, GroupDescriptor):
        raise ValueError(f"cannot canonicalize {d!r}")
    return direct_sum(*(_part_group(part, mult) for part, mult in d.parts))


def group_of(*parts) -> CanonicalGroup:
    """Convenience constructor: each part is a DescriptorPart or a
    (DescriptorPart, multiplicity) pair."""
    normalized = []
    for part in parts:
        if isinstance(part, tuple) and len(part) == 2 and not isinstance(part[0], int):
            normalized.append(part)
        else:
            normalized.append((part, 1))
    return canonicalize(GroupDescriptor(normalized))


def _sum_shapes(shapes: Iterable[LocalShape]) -> LocalShape:
    cyclic: dict[int, Multiplicity] = {}
    prufer: Multiplicity = 0
    tower: Multiplicity = 0
    for shape in shapes:
        for n, m in shape.cyclic:
            cyclic[n] = cyclic.get(n, 0) + m
        prufer += shape.prufer
        tower += shape.tower
    # The one normal form of a shape: sorted layers, and none beside an
    # OMEGA tower, which absorbs them.  Sums of valid shapes are valid.
    return LocalShape(() if tower is OMEGA else tuple(sorted(cyclic.items())), prufer, tower)


def direct_sum(*groups: CanonicalGroup) -> CanonicalGroup:
    """Direct sum; commutative and associative up to canonical equality.
    The only code that adds shapes, prime by prime (``_sum_shapes``)."""
    rationals: dict[Characteristic, Multiplicity] = {}
    for g in groups:
        for c, m in g.rationals:
            rationals[c] = rationals.get(c, 0) + m
    exceptions = [dict(g.exceptions) for g in groups]
    special = set().union(*exceptions)
    return CanonicalGroup._build(
        rationals,
        _sum_shapes(g.generic for g in groups),
        {p: _sum_shapes(exc.get(p, g.generic) for g, exc in zip(groups, exceptions)) for p in special},
    )


# ---------------------------------------------------------------------------
# Structural queries.


def torsion_free_rank(g: CanonicalGroup) -> Multiplicity:
    return sum(m for _, m in g.rationals)


def is_homogeneous(group: CanonicalGroup) -> bool:
    """Whether all rank-1 summands of a torsion-free group share a type.

    Groups in the representable class are completely decomposable, so
    the element-level condition is that the summands have equivalent
    characteristics.  Canonical forms key their rational summands by
    type representative, so that means at most one key.  Raises
    NonTorsionFreeInput when the group has torsion.
    """
    if group.has_torsion():
        raise NonTorsionFreeInput("homogeneity is defined for torsion-free groups only")
    return len(group.rationals) <= 1


@dataclass(frozen=True)
class StructuralSummary:
    is_torsion: bool
    is_torsion_free: bool
    is_divisible: bool
    is_reduced: bool
    is_semisimple: bool

    def to_dict(self) -> dict:
        return self.__dict__.copy()


def structural_predicates(g: CanonicalGroup) -> StructuralSummary:
    """Read off the canonical form: g is divisible when its reduced part
    is zero (every rational summand has the all-infinite characteristic
    and no shape has a cyclic layer or a tower), and reduced when its
    divisible part is zero (no such rational summand, no Prufer part)."""
    shapes = [g.generic] + [shape for _, shape in g.exceptions]
    all_infinite = [c.is_all_infinite for c, _ in g.rationals]
    return StructuralSummary(
        is_torsion=not g.rationals,
        is_torsion_free=not g.has_torsion(),
        is_divisible=all(all_infinite) and not any(s.cyclic or s.tower for s in shapes),
        is_reduced=not any(all_infinite) and not any(s.prufer for s in shapes),
        is_semisimple=not g.rationals and all(s.is_semisimple for s in shapes),
    )

