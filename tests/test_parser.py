import random

import pytest
from hypothesis import given, settings, strategies as st

from abelcheck.characteristics import CHAR_Q, CHAR_Z, INF, Characteristic, localization_char
from abelcheck.errors import ParseError
from abelcheck.groups import (
    OMEGA,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    PrimeFamily,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    ZERO_GROUP,
    canonicalize,
    group_of,
)
from abelcheck.parser import parse, render

from conftest import random_group
import reference_parser


def roundtrip(g):
    return canonicalize(parse(render(g)))


class TestParseAtoms:
    def test_poor_witness(self):
        g = canonicalize(parse("sum{p}[Z(p^1)]"))
        assert g == group_of(PrimeFamily(FixedExponent(1)))

    def test_tower_plus_free(self):
        g = canonicalize(parse("tower(2) + Z"))
        assert g == group_of(TowerAtom(2), RationalAtom(CHAR_Z))

    def test_base_atoms(self):
        assert canonicalize(parse("Z")) == group_of(RationalAtom(CHAR_Z))
        assert canonicalize(parse("Q")) == group_of(RationalAtom(CHAR_Q))
        assert canonicalize(parse("Q_(3)")) == group_of(RationalAtom(localization_char(3)))
        assert canonicalize(parse("Z(2^3)")) == group_of(CyclicAtom(2, 3))
        assert canonicalize(parse("Z(2)")) == group_of(CyclicAtom(2, 1))
        assert canonicalize(parse("Z(2^inf)")) == group_of(PruferAtom(2))

    def test_rational_chardesc(self):
        assert canonicalize(parse("R(0;2:inf)")) == group_of(
            RationalAtom(Characteristic(0, {2: INF})))
        # finite deviations collapse to the plain integers under canonicalization
        assert canonicalize(parse("R(0;2:3)")) == group_of(RationalAtom(CHAR_Z))
        assert canonicalize(parse("R(inf;2:0,3:0)")) == canonicalize(parse("R(inf;2:0;3:0)"))

    def test_multiplicities(self):
        g = canonicalize(parse("Z(2^1)^omega + Z(2^1)^3"))
        assert g.local_at(2).cyclic == ((1, OMEGA),)
        assert canonicalize(parse("Z^2")).rationals == ((CHAR_Z, 2),)

    def test_zero_group(self):
        assert canonicalize(parse("0")) == ZERO_GROUP
        assert canonicalize(parse("0 + Z")) == group_of(RationalAtom(CHAR_Z))

    def test_family_forms(self):
        assert canonicalize(parse("sum{p}[Z(p^2)^omega]")) == group_of(
            PrimeFamily(FixedExponent(2), OMEGA))
        assert canonicalize(parse("sum{q}[tower(q)]")) == group_of(PrimeFamily(UnboundedTower()))
        excl = canonicalize(parse("sum{p}[Z(p^1)]\\{2,5}"))
        assert excl.local_at(2).is_trivial and excl.local_at(5).is_trivial
        assert not excl.local_at(3).is_trivial

    def test_doubled_backslash_tolerated(self):
        single = canonicalize(parse("sum{p}[Z(p^1)]\\{2}"))
        double = canonicalize(parse("sum{p}[Z(p^1)]\\\\{2}"))
        assert single == double

    def test_outer_multiplicity_scales_family(self):
        g = canonicalize(parse("sum{p}[Z(p^1)^2]^3"))
        assert g.generic.cyclic == ((1, 6),)

    def test_whitespace_insensitive(self):
        assert canonicalize(parse(" sum { p } [ Z ( p ^ 1 ) ] + Z ^ 2 ")) == canonicalize(
            parse("sum{p}[Z(p^1)]+Z^2"))


REJECTED = [
    "", "+", "Z(", "Z(4", "Z)", "Z(2^)", "Z(2^0)", "Z^0", "Z^", "W",
    "sum{p}[Z(q^1)]", "sum{p}", "sum{p}[Q]", "tower(4)", "Q_(9)", "R(2)",
    "R(0;4:1)", "Z + ", "Z Z", "Z(2^inf", "1", "Z(2)^-1", "tower(2)^~",
]
FUZZ_ALPHABET = "ZQRtowersum{}[]()^+\\;:,_ 0123456789inf\x00\xff目"


class TestParseErrors:
    @pytest.mark.parametrize("text", REJECTED)
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_composite_modulus_suggests_prime_power(self):
        with pytest.raises(ParseError) as exc:
            parse("Z(4)")
        assert "4 is not prime" in str(exc.value)
        assert "Z(2^2)" in str(exc.value)

    def test_positions_are_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("Z + Z(4)")
        assert exc.value.position == 6

    def test_fuzz_never_crashes(self):
        rng = random.Random(2023)
        for _ in range(20_000):
            text = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, 30)))
            try:
                parse(text)
            except ParseError:
                pass

    @settings(max_examples=300)
    @given(st.text(max_size=40))
    def test_fuzz_hypothesis(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestRender:
    def test_examples(self):
        assert render(group_of((CyclicAtom(2, 1), OMEGA))) == "Z(2^1)^omega"
        assert render(group_of(RationalAtom(localization_char(3)))) == "Q_(3)"
        assert render(group_of(PrimeFamily(FixedExponent(1), excluded=(2,)))) == "sum{p}[Z(p^1)]\\{2}"
        assert render(ZERO_GROUP) == "0"

    def test_render_is_deterministic(self):
        rng = random.Random(5)
        for _ in range(200):
            g = random_group(rng)
            assert render(g) == render(g)

    def test_round_trip_on_random_groups(self):
        rng = random.Random(7)
        for _ in range(2000):
            g = random_group(rng)
            assert roundtrip(g) == g

    def test_round_trip_known_shapes(self):
        texts = [
            "sum{p}[Z(p^1)]", "tower(2) + Z", "Z(2^1)^omega", "Q_(3)",
            "sum{p}[Z(p^1)]\\{2}", "sum{p}[Z(p^inf)]^omega + Q^omega",
            "tower(3)^omega + Z(3^2) + R(inf;5:0;7:0)",
        ]
        for text in texts:
            g = canonicalize(parse(text))
            assert roundtrip(g) == g


def outcome(parse_fn, text):
    """An accepted text's descriptor, or a rejected one's (message, position)."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return exc.message, exc.position


class TestReferenceParser:
    """``parse`` agrees with the reference copy of the earlier parser in
    ``reference_parser.py``: equal descriptors, equal errors."""

    def test_same_outcome_as_reference(self):
        rng = random.Random(31)
        valid = [render(random_group(rng)) for _ in range(4_000)]
        # the fuzz alphabet plus whole words and a digit that is not ASCII
        pieces = [*FUZZ_ALPHABET, "omega", "pq", "²", "目"]
        fuzz = ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 20))) for _ in range(20_000)]
        mutated = []
        for _ in range(16_000):
            chars = list(rng.choice(valid))
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, len(chars))
                op = rng.randrange(3)
                if op == 0 or i == len(chars):
                    chars.insert(i, rng.choice(pieces))
                elif op == 1:
                    del chars[i]
                else:
                    chars[i] = rng.choice(pieces)
            mutated.append("".join(chars))
        accepted = 0
        for text in [*valid, *REJECTED, *fuzz, *mutated]:
            expected = outcome(reference_parser.parse, text)
            assert outcome(parse, text) == expected, text
            accepted += isinstance(expected, GroupDescriptor)
        assert accepted >= 4_000
