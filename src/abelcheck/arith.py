"""Small exact-integer number-theory helpers.

Everything here works on plain Python ints.  Orders stay below the
oracle bound, so ``factorize`` and ``divisors`` use trial division; the
parser admits prime literals of up to 18 digits, so ``is_prime`` is a
deterministic Miller-Rabin test.
"""

from __future__ import annotations

from math import isqrt

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to every base in _WITNESSES
# (Sorenson-Webster, Math. Comp. 86, 2017): the test is exact below it.
MILLER_RABIN_LIMIT = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Exact for n < MILLER_RABIN_LIMIT; raises ValueError from there on."""
    if n < 2:
        return False
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"primality of {n} is only decided below {MILLER_RABIN_LIMIT}")
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:  # no prime factor up to 37, so none at all
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """The one prime rule of the library's constructors: ``p`` itself when
    it is an int (not a bool) and prime, else ValueError."""
    if type(p) is int and is_prime(p):
        return p
    raise ValueError(f"{p!r} is not prime")


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(limit + 1) if sieve[p]]


def smallest_prime_not_in(excluded) -> int:
    """The least prime outside the (finite) collection ``excluded``."""
    banned = set(excluded)
    p = 2
    while True:
        if is_prime(p) and p not in banned:
            return p
        p += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.  Trial division
    stops at a prime cofactor, tested (below MILLER_RABIN_LIMIT) at the
    start and after each divisor found, never once per trial divisor."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    prime = n < MILLER_RABIN_LIMIT and is_prime(n)
    while not prime and d * d <= n:
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            prime = n < MILLER_RABIN_LIMIT and is_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def partitions(n: int):
    """Yield the partitions of n as non-increasing tuples."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)
