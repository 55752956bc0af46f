"""Shared helpers: seeded random generators for descriptors and groups,
and a finite stand-in for a local shape."""

import math
import random

from abelcheck.characteristics import INF, Characteristic
from abelcheck.finite import FiniteAbelianGroup
from abelcheck.groups import (
    OMEGA,
    CanonicalGroup,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    canonicalize,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def random_height(rng: random.Random, allow_inf: bool = True):
    if allow_inf and rng.random() < 0.3:
        return INF
    return rng.randint(0, 4)


def random_characteristic(rng: random.Random) -> Characteristic:
    default = INF if rng.random() < 0.5 else 0
    primes = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
    return Characteristic(default, {p: random_height(rng) for p in primes})


def random_multiplicity(rng: random.Random):
    if rng.random() < 0.2:
        return OMEGA
    return rng.randint(1, 4)


def random_part(rng: random.Random):
    kind = rng.randrange(6)
    p = rng.choice(SMALL_PRIMES)
    if kind == 0:
        return CyclicAtom(p, rng.randint(1, 4))
    if kind == 1:
        return PruferAtom(p)
    if kind == 2:
        return RationalAtom(random_characteristic(rng))
    if kind == 3:
        return TowerAtom(p)
    template = rng.choice([FixedExponent(rng.randint(1, 3)), PruferAll(), UnboundedTower()])
    excluded = rng.sample(SMALL_PRIMES, rng.randint(0, 2))
    return PrimeFamily(template, random_multiplicity(rng), excluded)


def random_descriptor(rng: random.Random, max_parts: int = 6) -> GroupDescriptor:
    return GroupDescriptor(
        [(random_part(rng), random_multiplicity(rng)) for _ in range(rng.randint(0, max_parts))]
    )


def random_group(rng: random.Random, max_parts: int = 6) -> CanonicalGroup:
    return canonicalize(random_descriptor(rng, max_parts))


def random_torsion_descriptor(rng: random.Random, max_parts: int = 5) -> GroupDescriptor:
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        part = random_part(rng)
        while isinstance(part, RationalAtom):
            part = random_part(rng)
        parts.append((part, random_multiplicity(rng)))
    return GroupDescriptor(parts)


def random_divisible_group(rng: random.Random, max_parts: int = 3) -> CanonicalGroup:
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        kind = rng.randrange(3)
        if kind == 0:
            parts.append((PruferAtom(rng.choice(SMALL_PRIMES)), random_multiplicity(rng)))
        elif kind == 1:
            parts.append((RationalAtom(Characteristic(INF)), random_multiplicity(rng)))
        else:
            parts.append((PrimeFamily(PruferAll(), random_multiplicity(rng),
                                      rng.sample(SMALL_PRIMES, rng.randint(0, 2))),
                          random_multiplicity(rng)))
    return canonicalize(GroupDescriptor(parts))


def truncated_local_part(shape, p):
    """A finite stand-in for a p-primary shape that keeps its poor verdict.

    Cyclic exponents are capped at 2, a tower becomes Z(p) + Z(p^2) and a
    quasicyclic part Z(p^2), each times its multiplicity.  Copies are then
    cut so that |G_p| <= max(512, p^3), keeping one of each exponent first.
    """
    copies = {1: 0, 2: 0}
    for e, m in [(min(n, 2), m) for n, m in shape.cyclic] + [(1, shape.tower), (2, shape.tower),
                                                               (2, shape.prufer)]:
        if m != 0:
            copies[e] = math.inf if m is OMEGA else copies[e] + m
    limit = max(512, p**3)
    factors = [p**e for e in (1, 2) if copies[e]]
    for e in (1, 2):
        extra = copies[e] - 1
        while extra > 0 and math.prod(factors) * p**e <= limit:
            factors.append(p**e)
            extra -= 1
    return FiniteAbelianGroup(factors)
