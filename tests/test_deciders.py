import random

import pytest

from abelcheck.characteristics import CHAR_Q, CHAR_Z, localization_char
from abelcheck.deciders import (
    CIT_POOR,
    CIT_PS_MIXED,
    CIT_WITNESS,
    DecisionReport,
    EvidenceRow,
    in_pure_injectivity_domain_of_witness,
    is_poor,
    is_pure_split,
    pi_poor_necessary,
    witness_truncation,
    witness_truncation_without_unit_layer,
)
from abelcheck.groups import (
    OMEGA,
    CyclicAtom,
    FixedExponent,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    ZERO_GROUP,
    direct_sum,
    group_of,
    structural_predicates,
)

from conftest import random_divisible_group, random_group, random_torsion_descriptor

POOR_WITNESS = group_of(PrimeFamily(FixedExponent(1)))  # order-p summand at every prime


class TestIsPoor:
    def test_poor_witness(self):
        assert is_poor(POOR_WITNESS).verdict

    def test_missing_prime_fails_with_witness(self):
        g = group_of(CyclicAtom(2, 1), (CyclicAtom(3, 2), OMEGA))
        report = is_poor(g)
        assert not report.verdict
        assert "p=3" in report.failing_subjects()
        generic_row = report.evidence[-1]
        assert not generic_row.passed
        assert "p=5" in generic_row.detail  # smallest prime with no content at all

    def test_divisible_summand_is_irrelevant(self):
        g = direct_sum(POOR_WITNESS, group_of((RationalAtom(CHAR_Q), OMEGA)))
        assert is_poor(g).verdict

    def test_prufer_everywhere_is_not_poor(self):
        assert not is_poor(group_of(PrimeFamily(PruferAll()))).verdict

    def test_tower_everywhere_is_poor(self):
        # the tower contains an exponent-1 layer at each prime
        assert is_poor(group_of(PrimeFamily(UnboundedTower()))).verdict

    def test_evidence_rows_are_prime_sorted(self):
        g = group_of(CyclicAtom(5, 1), CyclicAtom(2, 1), CyclicAtom(3, 1))
        subjects = [row.subject for row in is_poor(g).evidence]
        assert subjects[:3] == ["p=2", "p=3", "p=5"]


class TestPureSplit:
    def test_bounded_torsion_true(self):
        g = group_of(CyclicAtom(2, 1), CyclicAtom(2, 2), CyclicAtom(2, 3))
        assert is_pure_split(g).verdict

    def test_tower_false(self):
        report = is_pure_split(group_of(TowerAtom(2)))
        assert not report.verdict
        assert "p=2" in report.failing_subjects()

    def test_inhomogeneous_false(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(localization_char(2)))
        assert not is_pure_split(g).verdict

    def test_infinite_rank_false(self):
        assert not is_pure_split(group_of((RationalAtom(CHAR_Z), OMEGA))).verdict

    def test_divisible_unconstrained(self):
        assert is_pure_split(group_of(RationalAtom(CHAR_Q))).verdict
        assert is_pure_split(group_of((RationalAtom(CHAR_Q), OMEGA), PruferAtom(3))).verdict

    def test_prufer_within_primary_allowed(self):
        g = group_of(CyclicAtom(2, 2), PruferAtom(2))
        assert is_pure_split(g).verdict

    def test_zero_group(self):
        assert is_pure_split(ZERO_GROUP).verdict

    def test_mixed_group_cites_composition(self):
        g = group_of(CyclicAtom(2, 1), RationalAtom(CHAR_Z))
        assert CIT_PS_MIXED in is_pure_split(g).citations


class TestWitnessDomain:
    def test_bounded_torsion_in_domain(self):
        assert in_pure_injectivity_domain_of_witness(group_of((CyclicAtom(3, 2), OMEGA))).verdict

    def test_tower_not_in_domain(self):
        assert not in_pure_injectivity_domain_of_witness(group_of(TowerAtom(3))).verdict

    def test_free_rank_two_in_domain(self):
        g = group_of(RationalAtom(CHAR_Z), RationalAtom(CHAR_Z))
        assert in_pure_injectivity_domain_of_witness(g).verdict

    def test_cites_witness_identity(self):
        assert CIT_WITNESS in in_pure_injectivity_domain_of_witness(ZERO_GROUP).citations

    def test_identity_with_pure_split_on_random_groups(self):
        rng = random.Random(67)
        for _ in range(500):
            g = random_group(rng)
            assert is_pure_split(g).verdict == in_pure_injectivity_domain_of_witness(g).verdict


class TestPiPoorNecessary:
    def test_poor_witness_fails(self):
        assert not pi_poor_necessary(POOR_WITNESS).verdict

    def test_torsion_groups_fail(self):
        rng = random.Random(71)
        from abelcheck.groups import canonicalize

        for _ in range(300):
            g = canonicalize(random_torsion_descriptor(rng))
            assert structural_predicates(g).is_torsion
            assert not pi_poor_necessary(g).verdict

    def test_tower_everywhere_plus_free_passes(self):
        g = group_of(PrimeFamily(UnboundedTower()), RationalAtom(CHAR_Z))
        assert pi_poor_necessary(g).verdict

    def test_prufer_counts_as_unbounded_with_reduced_note(self):
        g = group_of(PrimeFamily(PruferAll()), RationalAtom(CHAR_Z))
        report = pi_poor_necessary(g)
        assert report.verdict
        generic_rows = [r for r in report.evidence if r.condition == "p-primary part is unbounded"]
        assert any("reduced part unbounded: no" in r.detail for r in generic_rows)

    def test_single_bounded_prime_fails(self):
        g = group_of(PrimeFamily(UnboundedTower(), excluded=(2,)), RationalAtom(CHAR_Z))
        report = pi_poor_necessary(g)
        assert not report.verdict
        assert "p=2" in report.failing_subjects()


class TestWitnessTruncation:
    def test_smallest(self):
        assert witness_truncation(2, 1) == group_of((CyclicAtom(2, 1), OMEGA))

    def test_two_primes_two_layers(self):
        w = witness_truncation(3, 2)
        assert w == group_of((CyclicAtom(2, 1), OMEGA), (CyclicAtom(2, 2), OMEGA),
                             (CyclicAtom(3, 1), OMEGA), (CyclicAtom(3, 2), OMEGA))

    def test_rank_one_types_added(self):
        w = witness_truncation(2, 2, [CHAR_Z])
        assert (CHAR_Z, OMEGA) in w.rationals

    def test_validation(self):
        with pytest.raises(ValueError):
            witness_truncation(0, 1)
        with pytest.raises(ValueError):
            witness_truncation_without_unit_layer(2, 1)

    def test_unit_layer_removal_kills_poorness(self):
        full = witness_truncation(5, 3)
        trimmed = witness_truncation_without_unit_layer(5, 3)
        assert not is_poor(trimmed).verdict
        # the removed layer is exactly what the full truncation had at n=1
        assert all(shape.cyclic[0][0] == 2 for _, shape in trimmed.exceptions)
        assert all(shape.cyclic[0][0] == 1 for _, shape in full.exceptions)

    def test_untruncated_towers_stay_unbounded_per_included_prime(self):
        # the un-truncated analogue keeps every included p-primary part
        # unbounded even though the group as a whole fails the necessary
        # conditions at the primes it omits
        g = group_of((TowerAtom(2), OMEGA), (TowerAtom(3), OMEGA), (TowerAtom(5), OMEGA))
        report = pi_poor_necessary(g)
        assert not report.verdict  # nothing lives at p >= 7
        rows = {row.subject: row for row in report.evidence}
        for p in (2, 3, 5):
            assert rows[f"p={p}"].passed


class TestReportMechanics:
    def test_verdict_must_match_rows(self):
        # The verdict is read off the rows, so it cannot disagree with them.
        rows = (EvidenceRow("p=2", "anything", True), EvidenceRow("p=3", "anything", False))
        report = DecisionReport(rows, (CIT_POOR,))
        assert report.verdict is False
        assert report.failing_subjects() == ("p=3",)
        assert DecisionReport(rows[:1], ()).verdict is True
        assert list(report.to_dict()) == ["verdict", "evidence", "citations"]
        assert report.to_dict()["verdict"] is False

    def test_false_verdicts_name_a_failing_subject(self):
        rng = random.Random(73)
        for _ in range(400):
            g = random_group(rng)
            for report in (is_poor(g), is_pure_split(g), pi_poor_necessary(g)):
                if not report.verdict:
                    assert report.failing_subjects()

    def test_poor_unaffected_by_divisible_summand(self):
        rng = random.Random(79)
        for _ in range(300):
            g = random_group(rng)
            d = random_divisible_group(rng)
            assert is_poor(direct_sum(g, d)).verdict == is_poor(g).verdict

    def test_to_dict_schema(self):
        d = is_poor(POOR_WITNESS).to_dict()
        assert set(d) == {"verdict", "evidence", "citations"}
        assert all(set(r) == {"subject", "condition", "passed", "detail"} for r in d["evidence"])
