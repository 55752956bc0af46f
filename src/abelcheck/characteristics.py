"""Heights, characteristics and types for rank-1 torsion-free data.

A characteristic is a height sequence indexed by all primes.  We only
handle sequences that are eventually constant with the constant equal
to 0 or infinity: a ``default`` height plus a finite exception map.
That covers the integers (all heights 0), the rationals (all infinite),
every localization of the integers, and everything in between that the
deciders need.

Two characteristics are *equivalent* when they differ at finitely many
primes and both values are finite wherever they differ.  An equivalence
class is a type; rank-1 torsion-free groups are isomorphic exactly when
their types agree, which is why canonical group forms key rational
summands by a type representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .arith import check_prime


class _InfiniteHeight:
    """The height of an element divisible by every power of a prime (a singleton)."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _InfiniteHeight()

Height = Union[int, _InfiniteHeight]


def _check_height(h: Height) -> Height:
    if h is INF:
        return h
    if type(h) is int and h >= 0:
        return h
    raise ValueError(f"height must be a non-negative integer or INF, got {h!r}")


def height_to_text(h: Height) -> str:
    return "inf" if h is INF else str(h)


@dataclass(frozen=True)
class Characteristic:
    """Eventually-constant height sequence over all primes.

    ``default`` (0 or INF) is the height at every prime not listed in
    ``exceptions``, a mapping from primes to heights; the stored entries
    are sorted by prime and never carry the default value.

    >>> Characteristic(0, {2: 3})
    Characteristic(default=0, exceptions=((2, 3),))
    >>> Characteristic(0, {2: 0})
    Characteristic(default=0, exceptions=())
    """

    default: Height
    exceptions: tuple[tuple[int, Height], ...] = ()

    def __init__(self, default: Height, exceptions: Mapping[int, Height] = {}) -> None:
        if _check_height(default) not in (0, INF):
            raise ValueError("characteristic default must be 0 or INF")
        for p, h in exceptions.items():
            check_prime(p)
            _check_height(h)
        cleaned = sorted((p, h) for p, h in exceptions.items() if h != default)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "exceptions", tuple(cleaned))

    @property
    def is_all_infinite(self) -> bool:
        """True exactly for the characteristic of the full rationals."""
        return self.default is INF and not self.exceptions

    def type_representative(self) -> "Characteristic":
        """Canonical member of this characteristic's equivalence class.

        Finite deviations from the default are equivalence-irrelevant,
        so the representative keeps only the primes whose height sits on
        the opposite side of finite/infinite from the default.
        """
        if self.default is INF:
            flips = {p: 0 for p, h in self.exceptions if h is not INF}
        else:
            flips = {p: INF for p, h in self.exceptions if h is INF}
        return Characteristic(self.default, flips)

    def sort_key(self):
        exc = tuple((p, (1, 0) if h is INF else (0, h)) for p, h in self.exceptions)
        return (0 if self.default == 0 else 1, exc)

    def render(self) -> str:
        """Text form ``default; p1:h1, p2:h2, ...`` used in reports."""
        head = height_to_text(self.default)
        if not self.exceptions:
            return head
        tail = ", ".join(f"{p}:{height_to_text(h)}" for p, h in self.exceptions)
        return f"{head}; {tail}"


# Named characteristics: the integers, the full rationals, and the
# localization of the integers at a single prime p (denominators coprime
# to p, hence infinite height at every other prime and height 0 at p).
CHAR_Z = Characteristic(0)
CHAR_Q = Characteristic(INF)


def localization_char(p: int) -> Characteristic:
    return Characteristic(INF, {check_prime(p): 0})
