"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the asserts carry the same conditions either way.
"""

import json
import math
import random
import time

from abelcheck.arith import smallest_prime_not_in
from abelcheck.cli import main as cli_main
from abelcheck.deciders import (
    in_pure_injectivity_domain_of_witness,
    is_poor,
    is_pure_split,
    pi_poor_necessary,
    witness_truncation_without_unit_layer,
)
from abelcheck.errors import ParseError
from abelcheck.finite import (
    FiniteAbelianGroup,
    is_pure_split_finite,
    is_relatively_injective,
    isomorphism_classes_upto,
    localization_hom_image,
)
from abelcheck.groups import OMEGA, CyclicAtom, FixedExponent, PrimeFamily, canonicalize, group_of
from abelcheck.parser import parse, render

from conftest import random_group

ALL_PRIMES_Z_P = group_of(PrimeFamily(FixedExponent(1)))


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def _analyze_json(capsys, expr):
    code = cli_main(["analyze", expr, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_poor_witness_reproduction(capsys):
    started = time.perf_counter()
    env = _analyze_json(capsys, "sum{p}[Z(p^1)]")
    assert env["result"]["poor"]["verdict"] is True

    env2 = _analyze_json(capsys, "sum{p}[Z(p^1)]\\{2}")
    poor = env2["result"]["poor"]
    assert poor["verdict"] is False
    failing = [row for row in poor["evidence"] if not row["passed"]]
    assert any(row["subject"] == "p=2" for row in failing)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    announce(1, f"poor witness true, exclusion of 2 flips to false naming p=2 ({elapsed * 1000:.0f} ms)")


def _truncated_local_part(shape, p):
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


def test_criterion_2_poor_equivalences_agree():
    # The poor row at p passes iff G_p has an order-p cyclic summand.  On the
    # oracle's side that is "G_p is not Z(p^2)-injective": Z(p^k) is
    # Z(p^2)-injective exactly when k >= 2 (criterion 3), and relative
    # injectivity distributes over finite direct sums.
    started = time.perf_counter()
    rng = random.Random(94111)
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        g = random_group(rng)
        rows = is_poor(g).evidence
        generic = smallest_prime_not_in(g.exception_primes())
        checks = [(p, row) for (p, _), row in zip(g.exceptions, rows)] + [(generic, rows[-1])]
        for p, row in checks:
            local = _truncated_local_part(g.local_at(p), p)
            oracle = not is_relatively_injective(local, FiniteAbelianGroup([p**2]))
            assert row.passed == oracle, (render(g), p, local)
            verdicts[oracle] += 1
    assert min(verdicts.values()) >= 100, verdicts
    elapsed = time.perf_counter() - started
    announce(2, f"poor rows match the oracle on {sum(verdicts.values())} truncated primary parts "
                f"of 500 random descriptors ({verdicts[True]} poor, {verdicts[False]} not; "
                f"{elapsed:.2f}s)")


def test_criterion_3_relative_injectivity_table():
    started = time.perf_counter()
    verdicts = 0
    for p in (2, 3, 5):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                got = is_relatively_injective(
                    FiniteAbelianGroup([p**m]), FiniteAbelianGroup([p**n]), bound=512)
                assert got == (m >= n), (p, m, n, got)
                verdicts += 1
    assert verdicts == 27
    # the characteristic obstruction: Z_p is never Z_{p^2}-injective
    for p in (2, 3, 5):
        assert not is_relatively_injective(FiniteAbelianGroup([p]), FiniteAbelianGroup([p**2]))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    announce(3, f"27 relative-injectivity verdicts exact, obstruction included ({elapsed:.2f}s)")


def test_criterion_4_finite_pure_split_sanity():
    started = time.perf_counter()
    classes = isomorphism_classes_upto(128)
    for g in classes:
        assert is_pure_split_finite(g), f"pure non-summand subgroup inside {g}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    announce(4, f"every pure subgroup splits across all {len(classes)} groups of order <= 128 ({elapsed:.1f}s)")


def test_criterion_5_pure_split_deciders(capsys):
    for p in (2, 3, 5):
        env = _analyze_json(capsys, f"tower({p})")
        assert env["result"]["pure_split"]["verdict"] is False
    for p in (2, 3, 5):
        for k in range(1, 6):
            truncated = group_of(*[CyclicAtom(p, n) for n in range(1, k + 1)])
            assert is_pure_split(truncated).verdict
    announce(5, "towers refuse to pure-split at p=2,3,5; truncations up to height 5 split")


def test_criterion_6_witness_domain_identity():
    rng = random.Random(271828)
    agreements = 0
    for _ in range(500):
        g = random_group(rng)
        assert is_pure_split(g).verdict == in_pure_injectivity_domain_of_witness(g).verdict
        agreements += 1
    assert agreements == 500
    announce(6, "pure-split and witness-domain verdicts identical on 500 random descriptors")


def test_criterion_7_separation_examples():
    assert is_poor(ALL_PRIMES_Z_P).verdict
    assert not pi_poor_necessary(ALL_PRIMES_Z_P).verdict
    trimmed = witness_truncation_without_unit_layer(5, 3)
    assert not is_poor(trimmed).verdict
    announce(7, "order-p sum is poor yet fails the pi-poor necessary conditions; "
                "witness truncation without its unit layer is not poor")


def test_criterion_8_localization_arithmetic():
    rng = random.Random(1729)
    failures = 0
    for _ in range(10_000):
        p = rng.choice([2, 3, 5])
        factors = [p ** rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        m = FiniteAbelianGroup(factors)
        a = m.decode(rng.randrange(m.order))
        c = rng.choice([x for x in range(1, 40) if x % p != 0])
        b1 = rng.randint(-30, 30)
        b2 = rng.randint(-30, 30)
        d = rng.choice([x for x in range(1, 12) if x % p != 0])

        image = localization_hom_image(m, a, b1, c)
        additive = localization_hom_image(m, a, b1 + b2, c) == m.add(
            image, localization_hom_image(m, a, b2, c))
        well_defined = image == localization_hom_image(m, a, b1 * d, c * d)
        in_cyclic = image in {m.smul(k, a) for k in range(m.element_order(a))}
        if not (additive and well_defined and in_cyclic):
            failures += 1
    assert failures == 0
    announce(8, "localization homomorphism additive, representation-independent, "
                "image inside the cyclic subgroup (10^4 instances, 0 failures)")


def test_criterion_9_dual_extension_equivalence(capsys):
    code = cli_main(["crosscheck", "--seed", "20240811", "--count", "1000",
                     "--bound", "64", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    env = json.loads(out)
    checks = {c["name"]: c for c in env["result"]["checks"]}
    dual = checks["hom_extends_dual"]
    assert dual["instances"] >= 1000
    assert dual["failures"] == 0
    assert env["result"]["total_failures"] == 0
    announce(9, f"SNF and exhaustive extension verdicts agree on {dual['instances']} seeded instances")


def test_criterion_10_parser_round_trip_and_fuzz():
    rng = random.Random(60221023)
    for _ in range(10_000):
        g = random_group(rng)
        assert canonicalize(parse(render(g))) == g

    alphabet = "ZQRtowersum{}[]()^+\\;:,_ 0123456789inf\x00\x7f\xe9"
    crashes = 0
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(text)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    announce(10, "10^4 render/parse round-trips exact; 10^5 fuzz strings, 0 crashes")
