import hashlib
import random

import pytest

from abelcheck.arith import primes_upto
from abelcheck.characteristics import CHAR_Q, CHAR_Z, Characteristic, localization_char
from abelcheck.groups import (
    OMEGA,
    CyclicAtom,
    FixedExponent,
    LocalShape,
    PrimeFamily,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    ZERO_GROUP,
    canonicalize,
    direct_sum,
    group_of,
    structural_predicates,
    torsion_free_rank,
)
from abelcheck.parser import render

from conftest import random_descriptor, random_group

ALL_PRIMES_Z_P = PrimeFamily(FixedExponent(1))  # one order-p cyclic summand at every prime


class TestMultiplicity:
    def test_omega_absorbs(self):
        assert OMEGA + 3 is OMEGA
        assert 2 + OMEGA is OMEGA
        assert OMEGA + OMEGA is OMEGA
        assert OMEGA * 7 is OMEGA
        assert 7 * OMEGA is OMEGA
        assert sum([2, OMEGA, 3]) is OMEGA

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            CyclicAtom(2, 0)
        with pytest.raises(ValueError):
            CyclicAtom(4, 1)
        with pytest.raises(ValueError):
            PruferAtom(6)
        with pytest.raises(ValueError):
            TowerAtom(1)
        with pytest.raises(ValueError):
            PrimeFamily(FixedExponent(0))

    def test_cyclic_atom_refuses_bool_exponent(self):
        # True == 1, but Z(2^True) would render as text parse cannot read
        with pytest.raises(ValueError):
            CyclicAtom(2, True)

    def test_fixed_exponent_refuses_bool(self):
        with pytest.raises(ValueError):
            FixedExponent(True)


class TestCanonicalize:
    def test_merges_equal_atoms(self):
        g = group_of(CyclicAtom(2, 1), CyclicAtom(2, 1))
        assert g.local_at(2).cyclic == ((1, 2),)

    def test_omega_absorbs_on_merge(self):
        g = group_of((CyclicAtom(2, 1), OMEGA), (CyclicAtom(2, 1), 3))
        assert g.local_at(2).cyclic == ((1, OMEGA),)

    def test_equivalent_rationals_unify(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(Characteristic(0, {2: 3})))
        assert g.rationals == ((CHAR_Z, 2),)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(500):
            d = random_descriptor(rng)
            g = canonicalize(d)
            assert canonicalize(g) == g

    def test_tower_omega_absorbs_cyclic_layers(self):
        g = group_of((TowerAtom(2), OMEGA), (CyclicAtom(2, 5), 3))
        assert g == group_of((TowerAtom(2), OMEGA))

    def test_family_exclusions_become_exceptions(self):
        g = group_of(PrimeFamily(FixedExponent(1), excluded=(2,)))
        assert g.generic.cyclic == ((1, 1),)
        assert g.local_at(2).is_trivial
        assert g.local_at(3).cyclic == ((1, 1),)

    def test_two_families_with_different_exclusions(self):
        g = group_of(PrimeFamily(FixedExponent(1), excluded=(2,)),
                     PrimeFamily(FixedExponent(1), excluded=(3,)))
        assert g.generic.cyclic == ((1, 2),)
        assert g.local_at(2).cyclic == ((1, 1),)
        assert g.local_at(3).cyclic == ((1, 1),)
        assert g.local_at(5).cyclic == ((1, 2),)

    def test_explicit_atom_merges_into_family_prime(self):
        g = group_of(ALL_PRIMES_Z_P, CyclicAtom(2, 1))
        assert g.local_at(2).cyclic == ((1, 2),)
        assert g.local_at(3).cyclic == ((1, 1),)


class TestPartExtractors:
    def test_torsion_part_examples(self):
        assert group_of(RationalAtom(CHAR_Z), CyclicAtom(2, 2)).torsion_part() == group_of(CyclicAtom(2, 2))
        g = group_of(ALL_PRIMES_Z_P, RationalAtom(CHAR_Q))
        assert g.torsion_part() == group_of(ALL_PRIMES_Z_P)
        assert group_of(RationalAtom(CHAR_Q), RationalAtom(CHAR_Z)).torsion_part() == ZERO_GROUP

    def test_p_primary_examples(self):
        assert group_of(ALL_PRIMES_Z_P).p_primary(5) == group_of(CyclicAtom(5, 1))
        assert group_of(PrimeFamily(UnboundedTower())).p_primary(2) == group_of(TowerAtom(2))
        assert group_of(RationalAtom(CHAR_Z), CyclicAtom(3, 2)).p_primary(2) == ZERO_GROUP

    def test_divisible_reduced_examples(self):
        g = group_of(PruferAtom(2), CyclicAtom(2, 2))
        assert g.divisible_part() == group_of(PruferAtom(2))
        assert g.reduced_part() == group_of(CyclicAtom(2, 2))

        loc = group_of(RationalAtom(localization_char(2)))
        assert loc.divisible_part() == ZERO_GROUP
        assert loc.reduced_part() == loc

        qs = group_of((RationalAtom(CHAR_Q), OMEGA))
        assert qs.divisible_part() == qs
        assert qs.reduced_part() == ZERO_GROUP

    def test_parts_recombine(self):
        rng = random.Random(23)
        for _ in range(300):
            g = random_group(rng)
            assert direct_sum(g.reduced_part(), g.divisible_part()) == g
            assert direct_sum(g.torsion_part(), g.torsion_free_part()) == g
            assert g.divisible_part().reduced_part() == ZERO_GROUP
            assert g.reduced_part().divisible_part() == ZERO_GROUP

    def test_p_primary_commutes_with_torsion_part(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_group(rng)
            for p in primes_upto(31):
                assert g.torsion_part().p_primary(p) == g.p_primary(p)


class TestBoundedAndRank:
    def test_rank_examples(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(CHAR_Z), CyclicAtom(2, 2))
        assert torsion_free_rank(g) == 2
        assert torsion_free_rank(group_of((RationalAtom(CHAR_Q), OMEGA))) is OMEGA
        assert torsion_free_rank(group_of(CyclicAtom(3, 1))) == 0

    def test_rank_additive(self):
        rng = random.Random(37)
        for _ in range(300):
            g, h = random_group(rng), random_group(rng)
            assert torsion_free_rank(direct_sum(g, h)) == torsion_free_rank(g) + torsion_free_rank(h)


class TestPredicates:
    def test_examples(self):
        s = structural_predicates(group_of(ALL_PRIMES_Z_P))
        assert (s.is_torsion, s.is_torsion_free, s.is_divisible, s.is_reduced, s.is_semisimple) == (
            True, False, False, True, True)
        assert not structural_predicates(group_of(CyclicAtom(2, 2))).is_semisimple
        q = structural_predicates(group_of(RationalAtom(CHAR_Q)))
        assert q.is_torsion_free and q.is_divisible and not q.is_semisimple

    def test_flags_agree_with_extractors(self):
        # The part extractors are the oracle: divisible means the reduced
        # part is zero, reduced means the divisible part is zero.
        rng = random.Random(41)
        seen = {"divisible": set(), "reduced": set()}
        for _ in range(2000):
            g = random_group(rng)
            s = structural_predicates(g)
            assert s.is_torsion == (g.torsion_free_part() == ZERO_GROUP)
            assert s.is_torsion_free == (g.torsion_part() == ZERO_GROUP)
            assert s.is_reduced == g.divisible_part().is_zero
            assert s.is_divisible == g.reduced_part().is_zero
            seen["divisible"].add(s.is_divisible)
            seen["reduced"].add(s.is_reduced)
        assert seen == {"divisible": {True, False}, "reduced": {True, False}}

    def test_semisimple_primaries_are_bounded(self):
        rng = random.Random(43)
        seen = 0
        for _ in range(2000):
            g = random_group(rng, max_parts=3)
            if not structural_predicates(g).is_semisimple:
                continue
            seen += 1
            for p in primes_upto(31):
                assert g.local_at(p).is_bounded
        assert seen > 20


class TestSumAndIso:
    def test_direct_sum_absorption(self):
        assert (direct_sum(group_of(CyclicAtom(2, 1)), group_of((CyclicAtom(2, 1), OMEGA)))
                == group_of((CyclicAtom(2, 1), OMEGA)))

    def test_distinct_structures(self):
        assert group_of(CyclicAtom(2, 1), CyclicAtom(2, 2)) != group_of(CyclicAtom(2, 3))

    def test_rational_type_iso(self):
        assert group_of(RationalAtom(CHAR_Z)) == group_of(RationalAtom(Characteristic(0, {3: 5})))

    def test_commutative_associative(self):
        rng = random.Random(47)
        for _ in range(200):
            a, b, c = (random_group(rng, 3) for _ in range(3))
            assert direct_sum(a, b) == direct_sum(b, a)
            assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))

    def test_equivalence_relation(self):
        rng = random.Random(53)
        for _ in range(100):
            g = random_group(rng)
            assert g == g


class TestLocalShape:
    def test_sums_match_make(self):
        # Shapes that direct_sum builds are in the normal form make()
        # gives: sorted layers, none left beside an OMEGA tower.
        rng = random.Random(59)
        for _ in range(1000):
            g = random_group(rng)
            for shape in [g.generic] + [s for _, s in g.exceptions]:
                assert shape == LocalShape.make(dict(shape.cyclic), shape.prufer, shape.tower)

    def test_canonical_renders_are_golden(self):
        # Recorded before direct_sum stopped calling LocalShape.make.
        rng = random.Random(404)
        digest = hashlib.sha256()
        for _ in range(5000):
            digest.update(render(canonicalize(random_descriptor(rng))).encode() + b"\n")
        assert digest.hexdigest() == "7a42d6cba7f90a516d7929c8309b71596878802cec1a7a072fda3d9edaf28d32"

    def test_make_normalizes(self):
        s = LocalShape.make({2: 1, 3: 0})
        assert s.cyclic == ((2, 1),)
        assert LocalShape.make({}, tower=OMEGA).cyclic == ()
        assert LocalShape.make({1: 2}, tower=OMEGA) == LocalShape.make(tower=OMEGA)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            LocalShape.make({0: 1})

    def test_make_refuses_bool_exponent(self):
        with pytest.raises(ValueError):
            LocalShape.make({True: 1})

    def test_flags(self):
        assert LocalShape.make({1: 1}).is_semisimple
        assert not LocalShape.make({2: 1}).is_semisimple
        assert LocalShape.make({5: OMEGA}).is_bounded
        assert not LocalShape.make(prufer=1).is_bounded
        assert LocalShape.make(prufer=1).reduced_is_bounded
        assert not LocalShape.make(tower=1).reduced_is_bounded
        assert LocalShape.make(tower=1).has_exponent_one_layer
