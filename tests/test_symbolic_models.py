"""Checks of the symbolic layer against models that do not share its code.

* Canonical local parts against a model computed from the raw
  descriptor parts: for each prime p, the multiplicity of every Z(p^k)
  in G[p^H] (the elements that p^H kills) and the Prufer rank.  These
  determine a p-primary shape of the representable class when H is
  above every cyclic exponent, so ``==`` on canonical forms must agree
  with them.
* Every small local shape's poor row against the finite oracle, through
  criterion 2's truncation, and the converse of the first check on the
  same shapes: distinct canonical shapes differ in some invariant.
"""

import itertools
import math
import random

from abelcheck.deciders import is_poor
from abelcheck.finite import FiniteAbelianGroup, is_relatively_injective
from abelcheck.groups import (
    OMEGA,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    LocalShape,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    canonicalize,
)

from conftest import SMALL_PRIMES, random_descriptor, truncated_local_part

# Above every cyclic exponent that conftest draws (atoms <= 4, families <= 3).
HEIGHT = 6


def _count(m):
    return math.inf if m is OMEGA else m


def _times(m, copies):
    return m * copies if m and copies else 0  # no inf * 0


def _add_layers(counts, cyclic, prufer, tower, copies):
    """Add ``copies`` of a shape with these layers to the invariants of
    its p^HEIGHT-socle: Z(p^n) gives Z(p^min(n, H)), a Prufer group Z(p^H)
    and a tower every Z(p^k) for k < H and countably many Z(p^H)."""
    for n, m in cyclic:
        counts[min(n, HEIGHT)] += _times(m, copies)
    counts[HEIGHT] += _times(prufer, copies)
    counts["prufer"] += _times(prufer, copies)
    towers = _times(tower, copies)
    if towers:
        for k in range(1, HEIGHT):
            counts[k] += towers
        counts[HEIGHT] = math.inf


def _model_invariants(d: GroupDescriptor, p: int) -> dict:
    """The invariants at p read straight from the descriptor's parts."""
    counts = dict.fromkeys([*range(1, HEIGHT + 1), "prufer"], 0)
    for part, mult in d.parts:
        copies = _count(mult)
        if isinstance(part, RationalAtom) or getattr(part, "p", p) != p:
            continue
        if isinstance(part, CyclicAtom):
            _add_layers(counts, [(part.n, 1)], 0, 0, copies)
        elif isinstance(part, PruferAtom):
            _add_layers(counts, [], 1, 0, copies)
        elif isinstance(part, TowerAtom):
            _add_layers(counts, [], 0, 1, copies)
        elif p not in part.excluded:
            copies *= _count(part.multiplicity)
            template = part.template
            if isinstance(template, FixedExponent):
                _add_layers(counts, [(template.exponent, 1)], 0, 0, copies)
            elif isinstance(template, PruferAll):
                _add_layers(counts, [], 1, 0, copies)
            else:
                _add_layers(counts, [], 0, 1, copies)
    return counts


def _canonical_invariants(shape: LocalShape) -> dict:
    counts = dict.fromkeys([*range(1, HEIGHT + 1), "prufer"], 0)
    _add_layers(counts, [(n, _count(m)) for n, m in shape.cyclic], _count(shape.prufer),
                _count(shape.tower), 1)
    return counts


def test_canonical_local_parts_match_the_descriptor_model():
    rng = random.Random(6029)
    primes = SMALL_PRIMES + [17]  # 17 is named by no part: the generic shape
    pairs = 0
    for _ in range(3000):
        d = random_descriptor(rng)
        g = canonicalize(d)
        for p in primes:
            assert _canonical_invariants(g.local_at(p)) == _model_invariants(d, p), (d, p)
            pairs += 1
    assert pairs == 3000 * len(primes)


def _small_shapes():
    """Every local shape with cyclic exponents <= 3, multiplicities in
    {0, 1, 2, omega}, and Prufer and tower counts in {0, 1, omega}."""
    mults = (0, 1, 2, OMEGA)
    shapes = {LocalShape.make(dict(zip((1, 2, 3), cyclic)), prufer, tower)
              for cyclic in itertools.product(mults, repeat=3)
              for prufer in (0, 1, OMEGA) for tower in (0, 1, OMEGA)}
    return sorted(shapes, key=repr)


def test_every_small_shape_poor_row_matches_the_oracle():
    # As in criterion 2: the poor row at p passes iff G_p has an order-p
    # cyclic summand, iff G_p is not Z(p^2)-injective.
    shapes = _small_shapes()
    assert len(shapes) == 387  # an omega tower absorbs the cyclic layers
    rows = 0
    for p in (2, 3, 5):
        for shape in shapes:
            if shape.is_trivial:
                continue
            parts = [(CyclicAtom(p, n), m) for n, m in shape.cyclic]
            parts += [(atom, m) for atom, m in ((PruferAtom(p), shape.prufer), (TowerAtom(p), shape.tower)) if m != 0]
            g = canonicalize(GroupDescriptor(parts))
            assert g.local_at(p) == shape
            row = is_poor(g).evidence[0]
            assert row.subject == f"p={p}"
            local = truncated_local_part(shape, p)
            assert row.passed == (not is_relatively_injective(local, FiniteAbelianGroup([p**2]))), (p, shape)
            rows += 1
    assert rows == 1158


def test_distinct_small_shapes_differ_in_some_invariant():
    # The converse of the model check: no two distinct canonical shapes
    # have the same invariants at every height <= HEIGHT (above every
    # exponent here) and the same Prufer rank, so they are not isomorphic.
    # A shape that keeps cyclic layers beside an omega tower would repeat
    # the invariants of the tower alone.
    shapes = _small_shapes()
    signatures = {tuple(_canonical_invariants(shape).values()) for shape in shapes}
    assert len(signatures) == len(shapes), (len(signatures), len(shapes))
