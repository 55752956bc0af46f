import random

import pytest
from hypothesis import given, strategies as st

from abelcheck.arith import primes_upto
from abelcheck.characteristics import (
    CHAR_Q,
    CHAR_Z,
    INF,
    Characteristic,
    localization_char,
)
from abelcheck.errors import NonTorsionFreeInput, ParseError
from abelcheck.groups import CyclicAtom, RationalAtom, group_of, is_homogeneous
from abelcheck.parser import parse

from conftest import random_characteristic


def equivalent(a, b):
    """Whether a and b define the same type, by the definition: they agree
    at all but finitely many primes, with both heights finite at every
    disagreement.  With different defaults they disagree at cofinitely
    many primes; otherwise only the listed exceptions can disagree.  The
    library decides the same question by ``type_representative()``,
    and this is the reference it is compared with."""
    if (a.default is INF) != (b.default is INF):
        return False
    ea, eb = dict(a.exceptions), dict(b.exceptions)
    for p in ea.keys() | eb.keys():
        ha, hb = ea.get(p, a.default), eb.get(p, b.default)
        if ha != hb and (ha is INF or hb is INF):
            return False
    return True


class TestconstructionAndConstants:
    def test_named_constants(self):
        assert CHAR_Z.default == 0 and not CHAR_Z.exceptions
        assert CHAR_Q.is_all_infinite
        loc3 = localization_char(3)
        assert loc3.default is INF
        assert loc3.exceptions == ((3, 0),)

    def test_exception_equal_to_default_is_dropped(self):
        assert Characteristic(0, {2: 0}) == CHAR_Z
        assert Characteristic(INF, {5: INF}) == CHAR_Q

    def test_localization_needs_a_prime(self):
        with pytest.raises(ValueError, match="4 is not prime"):
            localization_char(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            Characteristic(3)
        with pytest.raises(ValueError):
            Characteristic(0, {4: 1})
        with pytest.raises(ValueError):
            Characteristic(0, {2: -1})

    @pytest.mark.parametrize("build", [
        lambda: Characteristic(0, {2.0: INF}),
        lambda: Characteristic(False, {2: INF}),
        lambda: Characteristic(0.0),
        lambda: Characteristic(0, {"a": 1}),
        lambda: localization_char(3.0),
    ], ids=["float-prime", "bool-default", "float-default", "str-prime", "float-localization"])
    def test_refuses_what_would_render_unparsable(self, build):
        # Each of these would be == to a valid characteristic but render as
        # text that parse refuses, such as R(0;2.0:inf) or Q_(3.0).
        with pytest.raises(ValueError):
            build()

    def test_prime_refusals_read_alike(self):
        for build in (lambda: localization_char(4), lambda: CyclicAtom(4, 1),
                      lambda: Characteristic(0, {4: 1})):
            with pytest.raises(ValueError, match="^4 is not prime$"):
                build()

    def test_height_lookup(self):
        chi = Characteristic(0, {2: 3, 5: INF})
        heights = dict(chi.exceptions)
        assert heights.get(2, chi.default) == 3
        assert heights.get(5, chi.default) is INF
        assert heights.get(7, chi.default) == 0


class TestEquivalence:
    def test_finite_deviation_is_equivalent(self):
        assert equivalent(CHAR_Z, Characteristic(0, {2: 3}))

    def test_opposite_defaults_never_equivalent(self):
        assert not equivalent(CHAR_Z, CHAR_Q)

    def test_localization_not_equivalent_to_rationals(self):
        # they differ at p with one height infinite
        for p in (2, 3, 5):
            assert not equivalent(CHAR_Q, localization_char(p))

    def test_integers_vs_localization_all_primes_to_1000(self):
        for p in primes_upto(1000):
            assert not equivalent(CHAR_Z, localization_char(p))

    def test_equivalence_relation_axioms_bulk(self):
        # reflexive/symmetric/transitive over >= 10^4 random triples
        rng = random.Random(20240811)
        for _ in range(10_000):
            a = random_characteristic(rng)
            b = random_characteristic(rng)
            c = random_characteristic(rng)
            assert equivalent(a, a)
            assert equivalent(a, b) == equivalent(b, a)
            if equivalent(a, b) and equivalent(b, c):
                assert equivalent(a, c)

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_same_default_finite_exceptions_always_equivalent(self, h2, h5):
        chi = Characteristic(0, {2: h2, 5: h5})
        assert equivalent(chi, CHAR_Z)

    def test_type_representative_is_canonical(self):
        rng = random.Random(7)
        for _ in range(2000):
            chi = random_characteristic(rng)
            rep = chi.type_representative()
            assert equivalent(chi, rep)
            assert rep.type_representative() == rep

    def test_group_type_equality_and_hash(self):
        # Canonical forms key rational summands by type representative, so
        # equivalent characteristics give equal (and equally hashed) groups.
        t1 = group_of(RationalAtom(CHAR_Z))
        t2 = group_of(RationalAtom(Characteristic(0, {2: 3})))
        t3 = group_of(RationalAtom(CHAR_Q))
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1 != t3
        rng = random.Random(11)
        for _ in range(2000):
            a, b = random_characteristic(rng), random_characteristic(rng)
            assert (group_of(RationalAtom(a)) == group_of(RationalAtom(b))) == equivalent(a, b)


class TestHomogeneity:
    def test_free_group_is_homogeneous(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(CHAR_Z), RationalAtom(CHAR_Z))
        assert is_homogeneous(g)

    def test_mixed_types_not_homogeneous(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(localization_char(2)))
        assert not is_homogeneous(g)

    def test_finite_deviation_is_homogeneous(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(Characteristic(0, {5: 1})))
        assert is_homogeneous(g)

    def test_torsion_input_rejected(self):
        with pytest.raises(NonTorsionFreeInput):
            is_homogeneous(group_of(CyclicAtom(2, 1)))

    def test_invariant_under_permutation_and_duplication(self):
        # Pairwise equivalence of the drawn characteristics is the
        # reference: is_homogeneous reads only the canonical form's keys.
        rng = random.Random(99)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            chars = [random_characteristic(rng) for _ in range(rng.randint(1, 4))]
            expected = all(equivalent(chars[0], c) for c in chars)
            shuffled = chars[:]
            rng.shuffle(shuffled)
            duplicated = shuffled + [rng.choice(chars)]
            for drawn in (chars, shuffled, duplicated):
                assert is_homogeneous(group_of(*[RationalAtom(c) for c in drawn])) == expected, drawn
            verdicts[expected] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_zero_group_vacuously_homogeneous(self):
        assert is_homogeneous(group_of())


class TestTextForm:
    def test_render(self):
        assert CHAR_Z.render() == "0"
        assert CHAR_Q.render() == "inf"
        assert Characteristic(0, {2: 3, 5: INF}).render() == "0; 2:3, 5:inf"

    def test_inf_reprs_as_inf(self):
        assert repr(INF) == "inf"

    def test_parse_round_trip(self):
        rng = random.Random(5)
        for _ in range(500):
            chi = random_characteristic(rng)
            assert parse(f"R({chi.render()})").parts == ((RationalAtom(chi), 1),)

    def test_parse_accepts_semicolon_separators(self):
        assert parse("R(0;2:3;5:inf)").parts == ((RationalAtom(Characteristic(0, {2: 3, 5: INF})), 1),)

    def test_parse_errors(self):
        for bad in ("", "x", "0; 4:1", "0; 2", "0; 2:x", "1; 2:3", "0;\u00b2:3"):
            with pytest.raises(ParseError):
                parse(f"R({bad})")
