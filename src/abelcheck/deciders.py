"""Classification deciders with evidence-carrying reports.

Each decider walks the canonical form and returns a DecisionReport:
a boolean verdict, one evidence row per checked prime/component, and
citation tags naming the mathematical facts the verdict rests on.
Universally-quantified per-prime conditions are decided from the
generic shape symbolically (never by scanning primes); only the finite
exception set is checked individually, so every decider terminates and
every failing verdict names a concrete failing prime or component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import primes_upto, smallest_prime_not_in
from .characteristics import Characteristic
from .groups import (
    OMEGA,
    CanonicalGroup,
    CyclicAtom,
    GroupDescriptor,
    RationalAtom,
    canonicalize,
    is_homogeneous,
    mult_to_json,
    torsion_free_rank,
)

# Citation tags: short names for the facts the deciders implement.
CIT_POOR = "poor:order-p-summand-at-every-prime"
CIT_PS_TORSION = "pure-split:bounded-reduced-primaries"
CIT_PS_PGROUP = "pure-split:primary-divisible-complement"
CIT_PS_TF = "pure-split:homogeneous-finite-rank"
CIT_PS_MIXED = "pure-split:component-composition (FKS 1953)"
CIT_WITNESS = "witness-domain:equals-pure-split"
CIT_PI_TORSION = "pi-poor:never-torsion"
CIT_PI_UNBOUNDED = "pi-poor:unbounded-primary-components"


@dataclass(frozen=True)
class EvidenceRow:
    subject: str
    condition: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class DecisionReport:
    """Verdict plus its per-prime / per-component justification.

    The verdict is true exactly when every evidence row passed, so
    informational observations that must not affect it go into row
    details, never into extra rows.
    """

    evidence: tuple[EvidenceRow, ...]
    citations: tuple[str, ...]

    @property
    def verdict(self) -> bool:
        return all(row.passed for row in self.evidence)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "evidence": [row.to_dict() for row in self.evidence],
            "citations": list(self.citations),
        }


def _generic_subject(g: CanonicalGroup) -> str:
    primes = g.exception_primes()
    if not primes:
        return "every prime"
    return "all primes outside {%s}" % ", ".join(str(p) for p in primes)


def _per_prime_rows(g: CanonicalGroup, condition: str, holds, note,
                    failure: str, generic_failure: str) -> list[EvidenceRow]:
    """One row per exception prime, then one for the generic shape, which
    stands for every other prime.  ``holds(shape)`` decides a row and
    ``note(p, shape)`` details a passing one (p is None for the generic
    shape).  A failing row names its prime: ``failure`` with p filled in,
    or the smallest generic prime before ``generic_failure``."""
    rows = []
    for p, shape in g.exceptions:
        passed = holds(shape)
        rows.append(EvidenceRow(f"p={p}", condition, passed, note(p, shape) if passed else failure.format(p=p)))
    passed = holds(g.generic)
    if passed:
        detail = note(None, g.generic)
    else:
        detail = f"fails at p={smallest_prime_not_in(g.exception_primes())}: {generic_failure}"
    rows.append(EvidenceRow(_generic_subject(g), condition, passed, detail))
    return rows


# ---------------------------------------------------------------------------
# Poorness.


def is_poor(g: CanonicalGroup) -> DecisionReport:
    """Injectivity domain is as small as possible (only semisimples).

    Holds exactly when the torsion part has an order-p cyclic direct
    summand at every prime, which the canonical form shows directly.
    """
    rows = _per_prime_rows(
        g, "order-p cyclic direct summand present", lambda shape: shape.has_exponent_one_layer,
        lambda p, shape: "" if p else "generic shape carries an exponent-1 layer",
        "p-primary part at p={p} has no exponent-1 layer", "generic shape has no exponent-1 layer")
    return DecisionReport(tuple(rows), (CIT_POOR,))


# ---------------------------------------------------------------------------
# Pure-splitness / membership in the witness's pure-injectivity domain.


def _pure_split_rows(g: CanonicalGroup) -> list[EvidenceRow]:
    rows = _per_prime_rows(
        g, "reduced p-primary part is bounded", lambda shape: shape.reduced_is_bounded,
        lambda p, shape: "quasicyclic part is divisible, hence harmless" if p and shape.prufer != 0 else "",
        "unbounded cyclic tower at p={p}", "generic shape contains an unbounded tower")

    reduced_tf = g.reduced_part().torsion_free_part()
    rank_finite = all(m is not OMEGA for _, m in reduced_tf.rationals)
    rank_detail = f"reduced torsion-free rank = {mult_to_json(torsion_free_rank(reduced_tf))}"
    rows.append(EvidenceRow("torsion-free part", "reduced torsion-free rank is finite",
                            rank_finite, rank_detail))
    homogeneous = is_homogeneous(reduced_tf)
    if homogeneous:
        hom_detail = ""
    else:
        types = ", ".join(f"[{c.render()}]" for c, _ in reduced_tf.rationals)
        hom_detail = f"distinct types present: {types}"
    rows.append(EvidenceRow("torsion-free part", "reduced torsion-free part is homogeneous",
                            homogeneous, hom_detail))

    div = g.divisible_part()
    rows.append(EvidenceRow("divisible part", "no constraint on the divisible part",
                            True, "trivial" if div.is_zero else "divisible summand is unconstrained"))
    return rows


def _pure_split_citations(g: CanonicalGroup) -> tuple[str, ...]:
    cites = []
    has_torsion = g.has_torsion()
    has_tf = bool(g.rationals)
    if has_torsion or not has_tf:  # the zero group cites the torsion fact alone
        cites.append(CIT_PS_TORSION)
    if any(shape.prufer != 0 for _, shape in g.exceptions) or g.generic.prufer != 0:
        cites.append(CIT_PS_PGROUP)
    if has_tf:
        cites.append(CIT_PS_TF)
    if has_torsion and has_tf:
        cites.append(CIT_PS_MIXED)
    return tuple(cites)


def is_pure_split(g: CanonicalGroup) -> DecisionReport:
    """Every pure subgroup is a direct summand.

    On the representable class this holds exactly when every reduced
    p-primary part is bounded, the reduced torsion-free part is
    homogeneous of finite rank, and the divisible part is arbitrary.

    Only the bounded-primaries row can be checked against the finite
    oracle.  The torsion-free and mixed conditions have no finite
    shadow: every finite group is torsion and pure-split, so no finite
    truncation of g can fail them.
    """
    return DecisionReport(tuple(_pure_split_rows(g)), _pure_split_citations(g))


def in_pure_injectivity_domain_of_witness(g: CanonicalGroup) -> DecisionReport:
    """Whether the universal witness is g-pure-injective.

    The witness is the direct sum of countably many copies of every
    reduced uniform group (all cyclic prime-power groups and all rank-1
    rational groups, one representative per isomorphism class).  Its
    pure-injectivity domain is exactly the class of pure-split groups,
    so the verdict coincides with is_pure_split; the citations name the
    per-component facts behind the identity.
    """
    report = is_pure_split(g)
    return DecisionReport(report.evidence, report.citations + (CIT_WITNESS,))


# ---------------------------------------------------------------------------
# Necessary conditions for being a universal witness (pi-poor shape).


def pi_poor_necessary(g: CanonicalGroup) -> DecisionReport:
    """Necessary conditions: not torsion, and every p-primary part unbounded.

    Unboundedness is read on the whole p-primary component, so a
    quasicyclic part counts; the stricter reduced-part reading is
    reported in the row detail without affecting the verdict.
    """
    rows = _per_prime_rows(
        g, "p-primary part is unbounded", lambda shape: not shape.is_bounded,
        lambda p, shape: "reduced part unbounded: %s" % ("yes" if shape.tower != 0 else "no"),
        "p-primary part at p={p} is bounded", "generic p-primary shape is bounded")
    not_torsion = bool(g.rationals)
    rows.append(EvidenceRow("whole group", "group is not torsion", not_torsion,
                            "" if not_torsion else "every element has finite order"))
    return DecisionReport(tuple(rows), (CIT_PI_UNBOUNDED, CIT_PI_TORSION))


# ---------------------------------------------------------------------------
# Finite truncations of the witness.


def witness_truncation(max_prime: int, max_exponent: int,
                       rank_one_types: list[Characteristic] | tuple[Characteristic, ...] = ()) -> CanonicalGroup:
    """Finite chunk of the witness for experiments.

    Countably many copies of each cyclic group of order p**n for
    p <= max_prime, n <= max_exponent, plus countably many copies of
    each listed rank-1 group; witness_truncation(2, 1) is Z(2^1)^omega.
    """
    if type(max_prime) is not int or type(max_exponent) is not int or max_prime < 1 or max_exponent < 1:
        raise ValueError("max_prime and max_exponent must be >= 1")
    parts: list[tuple] = []
    for p in primes_upto(max_prime):
        for n in range(1, max_exponent + 1):
            parts.append((CyclicAtom(p, n), OMEGA))
    for char in rank_one_types:
        parts.append((RationalAtom(char), OMEGA))
    return canonicalize(GroupDescriptor(parts))


def witness_truncation_without_unit_layer(max_prime: int, max_exponent: int) -> CanonicalGroup:
    """Same truncation with every exponent-1 layer removed."""
    if type(max_prime) is not int or type(max_exponent) is not int or max_prime < 1 or max_exponent < 2:
        raise ValueError("need max_exponent >= 2 to drop the unit layer")
    parts = [(CyclicAtom(p, n), OMEGA)
             for p in primes_upto(max_prime)
             for n in range(2, max_exponent + 1)]
    return canonicalize(GroupDescriptor(parts))

