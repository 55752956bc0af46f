"""Primality and factorization: the Miller-Rabin test against a sieve
and trial division, and ``factorize`` against plain trial division."""

import random
from math import isqrt

import pytest

from abelcheck.arith import MILLER_RABIN_LIMIT, divisors, factorize, is_prime, partitions, primes_upto


def trial_division(n: int) -> bool:
    """The reference: n >= 2 with no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_matches_sieve_below_a_million():
    primes = set(primes_upto(10**6))
    assert [n for n in range(10**6) if is_prime(n) != (n in primes)] == []


def test_matches_trial_division_on_ten_digit_draws():
    rng = random.Random(5)
    draws = [rng.randrange(10**9, 10**10) | 1 for _ in range(400)]
    # products of two five-digit primes have no small factor to stop at
    semiprimes = [p * q for p, q in zip(primes_upto(100_200)[-40:], primes_upto(99_000)[-40:])]
    mismatches = [n for n in draws + semiprimes if is_prime(n) != trial_division(n)]
    assert mismatches == []
    assert sum(map(is_prime, draws)) > 5


@pytest.mark.parametrize("factors", [
    (151, 751, 28_351),  # the least strong pseudoprime to bases 2, 3, 5 and 7
    (149_491, 747_451, 34_233_211),  # a strong pseudoprime to every prime base up to 31
])
def test_strong_pseudoprimes_are_composite(factors):
    assert not is_prime(factors[0] * factors[1] * factors[2])


def test_eighteen_digit_prime():
    assert is_prime(999_999_999_999_999_989)
    assert is_prime(1_000_000_000_000_037)
    assert not is_prime(999_999_937**2)
    assert not is_prime(999_999_937 * 999_999_929)


def test_refuses_past_the_proven_range():
    # psi_12 passes every base from 2 to 37, so the test cannot decide it.
    assert MILLER_RABIN_LIMIT == 318_665_857_834_031_151_167_461
    with pytest.raises(ValueError, match=str(MILLER_RABIN_LIMIT)):
        is_prime(MILLER_RABIN_LIMIT)
    with pytest.raises(ValueError):
        is_prime(10**30)


def trial_factorize(n: int) -> dict[int, int]:
    """The reference: trial division by 2 and every odd d up to the square
    root of the cofactor, with no primality test."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    rng = random.Random(13)
    draws = [rng.randrange(1, 10**8) for _ in range(300)] + list(range(1, 2000))
    # prime powers and a prime cofactor after a small part
    draws += [2**26, 3**16, 9973**2, 2 * 99_999_989, 8 * 9_999_991, 99_999_989]
    assert [n for n in draws if factorize(n) != trial_factorize(n)] == []


def test_factorize_stops_at_a_prime_cofactor():
    assert factorize(1_000_000_000_000_037) == {1_000_000_000_000_037: 1}
    assert factorize(2**5 * 999_999_999_999_999_989) == {2: 5, 999_999_999_999_999_989: 1}
    assert factorize(2**20000) == {2: 20000}


@pytest.mark.parametrize("function", [factorize, divisors])
def test_refuses_zero(function):
    with pytest.raises(ValueError):
        function(0)


def test_no_primes_below_two():
    assert primes_upto(1) == primes_upto(0) == []


def test_partition_counts():
    # p(0), ..., p(10); the empty partition is the one partition of 0
    assert list(partitions(0)) == [()]
    assert [sum(1 for _ in partitions(n)) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
