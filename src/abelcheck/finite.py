"""Exhaustive ground truth on finite abelian groups.

Everything here is brute force on purpose: subgroup enumeration builds
the full lattice, purity tests nH = H meet nG by sizes for each divisor
n of the exponent, extension problems are solved two independent ways
(integer congruence systems via Smith normal form, and plain
enumeration of all homomorphisms), and so are direct summands
(complement search in the enumerated lattice for the pure-split sweep,
retraction via Smith normal form for ``is_direct_summand``).  Purity is
never used to infer that a subgroup is a summand.  The point is to
validate the symbolic deciders against facts computed with no shared
cleverness.

Subgroups of a p-group are built once each, factor by factor.  With
G = G' + Z(p^e), a subgroup H is fixed by H' = H meet G', its projection
<p^j> onto Z(p^e), and the fibre over p^j, a coset c + H' with
p^(e-j)*c in H'; each such triple gives exactly one H.  That is
bookkeeping on the direct sum: the elements of every subgroup are still
added up one by one, and none of the pure or summand theorems the oracle
checks is used.  Primary components are joined by multiplying: an earlier
mask times the next one's spread (bit c moved to bit base*c, base the order
joined so far) carries nothing, as the earlier mask is below 2^base.

One walk grows the span of a list of elements, and it serves the
generated subgroups, the greedy generating sets, the invariant
presentations and the validation of homs given on generators.
Adjoining each element x coset by coset reaches the first multiple n*x
in the span of the elements before it, and where it lands there gives
x's chain relation.  These relations generate every relation among the
elements, so one Smith reduction of the greedy generators' t x t
triangular matrix gives a subgroup's invariant presentation (its slots:
each invariant factor above 1 with its column of the change of basis
from the generators), and a map on generators is a well-defined hom when
its images satisfy each chain relation; no kernel is computed, and again
elements are only added up.

Groups are direct sums of cyclic groups of prime-power order; elements
are residue tuples with mixed-radix codes, and a subgroup is the bitmask
of its codes and nothing else.  Its generating set and presentation are
read off its walk, and the last walk is the only one cached.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress, count, filterfalse, product
from math import gcd, lcm, prod
from typing import Collection, Iterable, Mapping

from .arith import divisors, factorize, partitions
from .errors import BoundExceeded, IllDefinedHom, InternalConsistencyError, NotASubgroup, NotCoprime
from .snf import smith_normal_form

DEFAULT_ORDER_BOUND = 512
DEFAULT_HOM_SPACE_CAP = 200_000

Element = tuple[int, ...]


class FiniteAbelianGroup:
    """Direct sum of cyclic groups of prime-power order.

    The constructor accepts arbitrary cyclic orders and refines them to
    the primary decomposition, sorted by (prime, exponent); two values
    with the same factor list are the same group.

    >>> str(FiniteAbelianGroup([6, 4]))
    'Z2 x Z4 x Z3'
    """

    __slots__ = ("factors", "order", "_strides", "_cache")

    def __init__(self, orders: Iterable[int] = ()):
        orders = list(orders)
        for m in orders:  # all before any is factorized
            if type(m) is not int or m < 1:
                raise ValueError(f"cyclic order must be a positive integer, got {m!r}")
        refined = sorted((p, e) for m in orders for p, e in factorize(m).items())
        self._set_factors(tuple(p**e for p, e in refined))

    @classmethod
    def _from_factors(cls, factors: tuple[int, ...]) -> "FiniteAbelianGroup":
        """The group of prime-power factors that are already refined and
        sorted by (prime, exponent), as the library's own groups leave
        them: nothing is factorised or checked again."""
        obj = object.__new__(cls)
        obj._set_factors(factors)
        return obj

    def _set_factors(self, factors: tuple[int, ...]) -> None:
        self.factors = factors
        strides = []
        acc = 1
        for m in factors:
            strides.append(acc)
            acc *= m
        self._strides = tuple(strides)
        self.order = acc
        self._cache: dict = {}

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.factors)})"

    def __str__(self) -> str:
        if not self.factors:
            return "Z1"
        return " x ".join(f"Z{m}" for m in self.factors)

    @classmethod
    def from_string(cls, text: str) -> "FiniteAbelianGroup":
        """Parse "Z4 x Z2", "Z(2^2) x Z(2)", "Z1" in ASCII digits; composites factor."""
        orders = []
        for raw in text.split("x"):
            token = raw.strip()
            if not token:
                raise ValueError(f"empty factor in {text!r}")
            m = re.fullmatch(r"[Zz](?:([0-9]+)|\(([0-9]+)(?:\^([0-9]+))?\))", token)
            if not m:
                raise ValueError(f"cannot parse factor {token!r}")
            digits, base, exponent = m.groups()
            q = int(digits or base)
            orders.append(q and q ** int(exponent or 1))  # Z(0^0) is order 0, not 0**0 = 1
        return cls(orders)  # which refuses order 0

    # -- sizes --------------------------------------------------------------

    @property
    def exponent(self) -> int:
        return lcm(*self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    # -- element arithmetic --------------------------------------------------

    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def validate_element(self, a: Element) -> Element:
        if len(a) != len(self.factors) or any(
            type(c) is not int or not 0 <= c < m for c, m in zip(a, self.factors)
        ):
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def smul(self, k: int, a: Element) -> Element:
        return tuple((k * x) % m for x, m in zip(a, self.factors))

    def element_order(self, a: Element) -> int:
        out = 1
        for x, m in zip(a, self.factors):
            out = lcm(out, m // gcd(m, x))
        return out

    def elements(self) -> list[Element]:
        return [self.decode(i) for i in range(self.order)]

    # -- integer codes (mixed radix) ------------------------------------------

    def encode(self, a: Element) -> int:
        return sum(c * s for c, s in zip(a, self._strides))

    def decode(self, code: int) -> Element:
        out = []
        for m in self.factors:
            code, c = divmod(code, m)
            out.append(c)
        return tuple(out)

    def _add_row(self, x: int) -> list[int]:
        """Translation by x on codes: ``_add_row(x)[y]`` is the code of x + y.

        Built factor by factor: with H the sum of the factors before Z(m)
        and d the digit of x in Z(m), the code of (h, e) + x is
        code_H(h + x_H) + |H|*((d + e) mod m), so the row is m shifted
        copies of H's row.  It has |G| entries and is not kept: subgroup
        enumeration builds the rows of coset representatives in the
        groups of its leading factors, and work on a single subgroup goes
        through ``_add_codes`` instead.
        """
        row = [0]
        size = 1
        for m in self.factors:
            x, d = divmod(x, m)
            row = [v + size * e for e in [*range(d, m), *range(d)] for v in row]
            size *= m
        return row

    def _add_codes(self, x: int, y: int) -> int:
        """The code of x + y, digit by digit: (x // s) % m is the digit
        with stride s, and carries out of it are multiples of m."""
        out = 0
        for m, s in zip(self.factors, self._strides):
            out += (x // s + y // s) % m * s
        return out

    def _order_keys(self, codes: Iterable[int]) -> dict[int, int]:
        """The group's cache of minus each code's order, first filled for
        ``codes``: the order of x is the lcm over its digits x // s % m.
        Sorting by it puts larger orders first."""
        keys = self._cache.setdefault("orders", {})
        missing = list(filterfalse(keys.__contains__, codes))
        if missing:
            digits = list(zip(self.factors, self._strides))
            keys.update(zip(missing, [-lcm(*[m // gcd(m, x // s % m) for m, s in digits]) for x in missing]))
        return keys

    def primary_components(self) -> list[tuple[int, "FiniteAbelianGroup"]]:
        """(prime, component group) per prime, by increasing prime."""
        blocks: dict[int, list[int]] = {}
        for m in self.factors:
            blocks.setdefault(min(factorize(m)), []).append(m)
        return [(p, FiniteAbelianGroup._from_factors(tuple(orders))) for p, orders in blocks.items()]


class Subgroup:
    """Subgroup of a FiniteAbelianGroup, stored as its element bitmask
    ``_mask`` (bit c set for code c) and nothing else: order, membership,
    equality and hashing read the mask, ``elements()`` decodes it, and
    ``generating_set()`` reads the greedy walk over it (see
    ``_chain_walk``).  A mask takes |G|/8 bytes whatever the subgroup's
    size, and no generator list is kept beside it.
    """

    __slots__ = ("group", "_mask")

    def __init__(self, group: FiniteAbelianGroup, elements: Iterable[Element]):
        codes = frozenset(group.encode(group.validate_element(a)) for a in elements)
        if 0 not in codes:
            raise NotASubgroup("subgroup must contain the identity")
        # A finite set S with 0 is a subgroup when S + t = S for every t
        # in some T within S that generates <S>; the greedy T has at most
        # log2|S| elements.
        add = group._add_codes
        span, members, sizes = [0], {0}, []
        for x in codes:
            if x not in members:
                if any(add(x, y) not in codes for y in codes):
                    raise NotASubgroup("element set is not closed under addition")
                _adjoin(group, span, members, sizes, x)
        self.group, self._mask = group, _mask_of(codes)

    @classmethod
    def _from_mask(cls, group: FiniteAbelianGroup, mask: int) -> "Subgroup":
        obj = object.__new__(cls)
        obj.group, obj._mask = group, mask
        return obj

    @classmethod
    def generated_by(cls, group: FiniteAbelianGroup, gens: Iterable[Element]) -> "Subgroup":
        span, members, sizes = [0], {0}, []
        for g in gens:
            _adjoin(group, span, members, sizes, group.encode(group.validate_element(g)))
        return cls._from_mask(group, _mask_of(members))

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls._from_mask(group, 1)

    @classmethod
    def whole(cls, group: FiniteAbelianGroup) -> "Subgroup":
        return cls._from_mask(group, (1 << group.order) - 1)

    @property
    def order(self) -> int:
        return self._mask.bit_count()

    def elements(self) -> list[Element]:
        return sorted(map(self.group.decode, _set_bits(self._mask)))

    def __contains__(self, a: Element) -> bool:
        return bool(self._mask >> self.group.encode(self.group.validate_element(a)) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group == other.group and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.group, self._mask))

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generating_set()) or "0"
        return f"<subgroup of {self.group} generated by {gens}>"

    def generating_set(self) -> list[Element]:
        """Deterministic greedy generators: the elements by decreasing
        order, then increasing code, each kept when it is not in the span
        of those kept before it (see ``_chain_walk``)."""
        return list(map(self.group.decode, _chain_walk(self)[0]))


def _mask_of(codes: Collection[int]) -> int:
    """The element bitmask of a nonempty set of codes, in time linear in its
    largest code: a sum of at most 32 powers of two, else one digit per code."""
    if len(codes) <= 32:
        return sum([1 << c for c in codes])
    digits = bytearray(b"0") * (max(codes) + 1)
    for c in codes:
        digits[c] = 49  # "1"
    return int(digits[::-1], 2)


def _digit_mask(g: FiniteAbelianGroup, steps: Iterable[int]) -> int:
    """The mask of the elements whose digit in each factor Z(m) is a multiple
    of its step (a divisor of m): per factor, the mask so far padded to
    step*|H| binary digits, repeated m/step times."""
    digits = "1"
    for m, step in zip(g.factors, steps):
        digits = digits.zfill(len(digits) * step) * (m // step)
    return int(digits, 2)


def _set_bits(mask: int) -> list[int]:
    """The codes set in an element bitmask, increasing: its binary digits lowest first, 0s as NUL bytes."""
    return list(compress(count(), bin(mask)[:1:-1].encode().replace(b"0", b"\0")))


def _adjoin(group: FiniteAbelianGroup, span: list[int], members: set[int],
            sizes: list[int], x: int) -> list[int]:
    """Grow the span S of x_1, ..., x_k to S + <x> in place, and return
    x's chain relation.

    ``span`` lists S in coset order and ``members`` holds the same codes;
    ``sizes`` holds |S| before each x_v that grew it.  The cosets x + S,
    2x + S, ... are appended up to the first n with n*x in S (n = 1 when
    x is already in S, and then nothing is appended), so the element at
    position q of the grown span is (q // |S|)*x plus the element at
    position q % |S| of S.  Each new element costs one addition, so the
    work follows the size of the result, not of the group.  Repeated
    divmod of the position of n*x by the earlier sizes gives the c_v of
    n*x = sum over v of c_v*x_v, and the row returned is
    (-c_1, ..., -c_k, n).

    Over any list of elements, these rows generate every relation among
    them: in a relation with coefficient c on the last element x, c*x
    lies in the span of the elements before it, so n divides c, and
    subtracting c/n times x's row leaves a relation among the elements
    before it.  They are the power relations of a polycyclic
    presentation (Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, ch. 8).
    """
    add = group._add_codes
    size = len(span)
    base = span[1:]  # y + 0 is y itself
    y, n = x, 1
    while y not in members:
        coset = [y]
        coset += [add(y, z) for z in base]
        members.update(coset)
        span += coset
        y, n = add(y, x), n + 1
    q = span.index(y)
    row = [n]
    for s in reversed(sizes):
        c, q = divmod(q, s)
        row.append(-c)
    if n > 1:
        sizes.append(size)
    return row[::-1]


# The only cache of a walk, and it holds one: every caller reads one
# subgroup's generating set and presentation before the next subgroup's.
@lru_cache(maxsize=1)
def _chain_walk(h: Subgroup) -> tuple[list[int], list[list[int]]]:
    """The codes of h's greedy generators x_1, ..., x_t and their chain
    relations (see ``_adjoin``), as the rows of a t x t lower triangular
    integer matrix with |det| = n_1*...*n_t = |h|.

    The walk takes h's elements by decreasing order, then increasing
    code, and adjoins each x_u not in the span of the generators before it.
    """
    g = h.group
    codes = _set_bits(h._mask)
    keys = g._order_keys(codes)
    span, members, sizes = [0], {0}, []
    chosen: list[int] = []
    rows: list[list[int]] = []
    for x in filterfalse(members.__contains__, sorted(codes, key=keys.__getitem__)):
        rows.append(_adjoin(g, span, members, sizes, x))
        chosen.append(x)
        if len(span) == len(codes):
            break
    t = len(chosen)
    return chosen, [row + [0] * (t - len(row)) for row in rows]


def _require_subgroup(h: Subgroup, g: FiniteAbelianGroup) -> None:
    if not isinstance(h, Subgroup) or h.group is not g and h.group != g:
        raise NotASubgroup(f"{h!r} is not a subgroup of {g}")


# ---------------------------------------------------------------------------
# Subgroup enumeration.


def _pgroup_subgroups(part: FiniteAbelianGroup, p: int) -> list[int]:
    """All subgroups of a p-group as element bitmasks (bit c set for
    code c), sorted by (order, mask).

    Factor by factor: write the group as G' + Z(q), q = p^e, with Z(q)
    the factor added last, so (a, t) has code code'(a) + |G'|*t.  A
    subgroup H is fixed by H' = H meet G', its projection <p^j> onto
    Z(q), and its fibre over p^j, a coset c + H' with p^(e-j)*c in H';
    each such triple gives H = union over k of (H' + k*c) x {k*p^j}.
    So each subgroup H' of G' is extended once per coset c + H', c its
    first code, and per p^j with p^(e-j) at least the order of c + H'.
    The row of c over G' is built once and only for such c.  Only masks
    are kept: the cosets of H' are translated from its codes, read off
    its mask when the next factor extends it.  A sort by mask, then a
    stable one by bit count, gives (order, mask) with no key per mask.
    """
    found = [1]  # the trivial group's one subgroup: bit 0, code 0
    for i, q in enumerate(part.factors):
        prefix = FiniteAbelianGroup._from_factors(part.factors[:i])
        n = prefix.order
        full = (1 << n) - 1
        rows: dict[int, list[int]] = {}
        grown = []
        for sub_mask in found:
            members = _set_bits(sub_mask)
            reached = 0  # the cosets of H' handled so far
            while reached != full:
                c = ((reached + 1) & ~reached).bit_length() - 1  # first code not reached
                if c and c not in rows:
                    rows[c] = prefix._add_row(c)
                row = rows.get(c)
                cosets = [sub_mask]  # the masks of H' + k*c, k below the order of c + H'
                coset, x = members, c
                while not sub_mask >> x & 1:
                    coset = [row[y] for y in coset]
                    cosets.append(_mask_of(coset))
                    x = row[x]
                reached |= cosets[1] if c else sub_mask
                period = len(cosets)
                step = 1  # p^j
                while step * period <= q:
                    stride, mask = n * step, 0
                    for k in range(q // step):
                        mask |= cosets[k % period] << k * stride
                    grown.append(mask)
                    step *= p
        found = grown
    found.sort()
    found.sort(key=int.bit_count)
    return found


def check_order_bound(g: FiniteAbelianGroup, bound: int | None) -> None:
    """Raise BoundExceeded when |g| is above ``bound`` (``DEFAULT_ORDER_BOUND``
    when None)."""
    limit = DEFAULT_ORDER_BOUND if bound is None else bound
    if g.order > limit:
        # int -> str refuses more than 4300 digits, so a huge order is stated by its size
        size = g.order if g.order.bit_length() <= 64 else f"a {g.order.bit_length()}-bit number"
        raise BoundExceeded(f"|G| = {size} exceeds the bound {limit}")


def enumerate_subgroups(g: FiniteAbelianGroup, bound: int | None = None) -> list[Subgroup]:
    """Complete, duplicate-free subgroup list (including 0 and g).

    Subgroups split over the primary components, so each Sylow part is
    enumerated on its own (see ``_pgroup_subgroups``: each subgroup once,
    its elements added up one by one, no purity or summand theorem used,
    so the list stays a brute force ground truth) and the parts are
    joined.  With base the order of the components joined so far, each
    mask of the next is spread once, bit c to bit base*c, and a joined
    mask is an earlier mask times a spread: the earlier mask is below
    2^base, so the product is the union of shifted copies with no carry.
    The order is by (order, mask) within a p-group and component-major
    across them, the first varying slowest.  A subgroup is its bitmask
    over the codes of g; no element set is built.
    """
    check_order_bound(g, bound)
    comps = g.primary_components()
    if not comps:
        return [Subgroup._from_mask(g, 1)]

    (p, part), *rest = comps
    masks = _pgroup_subgroups(part, p)
    base = part.order
    for p, part in rest:
        spreads = [sum([1 << base * c for c in _set_bits(mask)]) for mask in _pgroup_subgroups(part, p)]
        masks = [mask * spread for mask in masks for spread in spreads]
        base *= part.order
    return [Subgroup._from_mask(g, mask) for mask in masks]


# ---------------------------------------------------------------------------
# Purity and summands.


def is_pure_subgroup(h: Subgroup, g: FiniteAbelianGroup) -> bool:
    """nH = H intersect nG for every integer n.

    nG depends only on n modulo the exponent and only through gcd, so
    checking the divisors of exponent(G) covers every integer.  It is
    tested by sizes: nH lies in H meet nG, and multiplication by n maps H
    onto nH with kernel H meet G[n] = {x in H : n*x = 0}, so the two are
    equal exactly when |H meet nG| * |H meet G[n]| = |H|.  With nG and
    G[n] as element masks, each size is the bit count of an AND.  In Z(m),
    nZ(m) is the multiples of gcd(n, m) and Z(m)[n] those of m/gcd(n, m).
    """
    _require_subgroup(h, g)
    tables = g._cache.get("purity")
    if tables is None:  # (nG, G[n]) as element masks for each divisor n > 1
        tables = g._cache["purity"] = [(_digit_mask(g, [gcd(n, m) for m in g.factors]),
                                        _digit_mask(g, [m // gcd(n, m) for m in g.factors]))
                                       for n in divisors(g.exponent) if n > 1]
    mask, size = h._mask, h.order
    for multiples, killed in tables:
        if (mask & multiples).bit_count() * (mask & killed).bit_count() != size:
            return False
    return True


def _invariant_presentation(h: Subgroup) -> tuple[list[Element], list[tuple[int, list[int]]]]:
    """Generators and the nonunit slots of an invariant presentation.

    Writes h with generators g_u and diagonal relations: there are
    abstract generators g'_i of order s_i with g_u = sum_i V[u][i] g'_i.
    The g_u are ``h.generating_set()``, and one Smith reduction
    U*R*V = S of their chain relations R, read off the same walk (see
    ``_chain_walk``), gives the rest: the rows of R span the lattice of
    relations among the g_u (see ``_adjoin``), and a -> a*V maps it onto
    the span of the s_i*e_i.  No kernel is computed, and only the slots
    (s_i, column i of V) with s_i > 1 are returned.
    """
    gens = h.generating_set()
    if not gens:
        return [], []
    _, s, v = smith_normal_form(_chain_walk(h)[1])
    orders = [s[i][i] for i in range(len(gens))]
    if not all(d > 0 for d in orders):
        raise InternalConsistencyError(f"finite subgroup {h!r} has relation invariants {orders}, "
                                       "not all positive")
    return gens, [(d, [row[i] for row in v]) for i, d in enumerate(orders) if d > 1]


def abstract_presentation(h: Subgroup) -> tuple[FiniteAbelianGroup, list[Element]]:
    """The subgroup as an abstract group, plus images of its generators.

    Returns (M, images) where M is isomorphic to h and images[u] is the
    element of M corresponding to h.generating_set()[u].
    """
    gens, slots = _invariant_presentation(h)
    split = sorted(((p, e, column) for s, column in slots for p, e in factorize(s).items()),
                   key=lambda part: part[:2])  # stable: equal prime powers keep slot order
    abstract = FiniteAbelianGroup([p**e for p, e, _ in split])
    images = [tuple(column[u] % (p**e) for p, e, column in split) for u in range(len(gens))]
    return abstract, images


def _extension_exists(g: FiniteAbelianGroup, gen_coords: list[Element],
                      image_sets: Iterable[list[Element]], m: FiniteAbelianGroup) -> bool:
    """Does every assignment in ``image_sets`` extend to a hom g -> m?

    Each assignment gives one image in m per generator in ``gen_coords``.
    It extends when one congruence system per coordinate of m is solvable
    over the integers.  The image of g's i-th standard generator in a
    coordinate with modulus k must be a multiple of k/gcd(factor_i, k);
    substituting that multiple as the unknown absorbs g's cyclic
    relations, leaving one row per prescribed generator plus one slack
    column per row for the modulus.

    The coefficient matrix A depends on k but not on the images, so it is
    Smith-reduced once per distinct modulus, U*A*V = S.  An assignment
    then extends when, in every coordinate of m, each entry of U*b (b the
    images' values in that coordinate) is divisible by the matching
    diagonal entry of S.  ``image_sets`` is consumed lazily and the
    search stops at the first assignment that does not extend.
    """
    t = len(gen_coords)
    if not t:
        return True  # only the zero map is prescribed, and it extends
    r = g.rank
    # (coordinate of m, row of U reduced modulo d, d), for every d > 1.
    # The k*I block puts k in A's column lattice, so every d divides k.
    checks: list[tuple[int, list[int], int]] = []
    for k in set(m.factors):
        scale = [k // gcd(mi, k) for mi in g.factors]
        rows = []
        for u in range(t):
            coeffs = [gen_coords[u][i] * scale[i] for i in range(r)]
            rows.append(coeffs + [k if l == u else 0 for l in range(t)])
        u_mat, s, _ = smith_normal_form(rows)
        for i in range(t):
            d = s[i][i]
            if d != 1:
                reduced = [x % d for x in u_mat[i]]
                checks += [(j, reduced, d) for j, mj in enumerate(m.factors) if mj == k]
    if not checks:
        return True  # every right-hand side is solvable, whatever the images
    for images in image_sets:
        for j, w, d in checks:
            if sum(c * image[j] for c, image in zip(w, images)) % d:
                return False
    return True


def is_direct_summand(h: Subgroup, g: FiniteAbelianGroup) -> bool:
    """Whether a retraction g -> h restricting to the identity exists."""
    _require_subgroup(h, g)
    if h.order in (1, g.order):
        return True
    abstract, images = abstract_presentation(h)
    return _extension_exists(g, h.generating_set(), [images], abstract)


def quotient(g: FiniteAbelianGroup, h: Subgroup) -> FiniteAbelianGroup:
    """Invariant-factor decomposition of g/h via the relation matrix."""
    _require_subgroup(h, g)
    r = g.rank
    rows = [[g.factors[i] if j == i else 0 for j in range(r)] for i in range(r)]
    rows += [list(e) for e in h.generating_set()]
    _, s, _ = smith_normal_form(rows)
    diag = [s[i][i] for i in range(r)]
    if not all(d > 0 for d in diag):
        raise InternalConsistencyError(f"relation matrix of {g}/{h!r} has diagonal {diag}, "
                                       "not all positive")
    return FiniteAbelianGroup([d for d in diag if d > 1])


# ---------------------------------------------------------------------------
# Homomorphism extension, two ways.


def _combo(m: FiniteAbelianGroup, coeffs: list[int], elements: list[Element]) -> Element:
    acc = m.zero()
    for a, w in zip(coeffs, elements):
        if a:
            acc = m.add(acc, m.smul(a, w))
    return acc


def _validated_instance(f: Mapping[Element, Element], h: Subgroup,
                        g: FiniteAbelianGroup, m: FiniteAbelianGroup):
    """The keys of f, sorted, and their images, once f is known to define
    a hom h -> m.

    One walk over the sorted keys adjoins each key in turn (see
    ``_adjoin``); f is well defined iff every key's chain relation kills
    the images: n*f(x) equals the sum of c_v times the images of the keys
    that grew the span, with n = 1 for a key already in it.

    The walk's result for the last instance is kept in a one-entry cache,
    ``_validated_items`` (``lru_cache(maxsize=1)``, as ``_chain_walk``
    keeps the last walk), keyed by the sorted items, h, g and m: so
    ``hom_extends_bruteforce`` reuses what ``hom_extends`` just validated
    on the same instance.  A refusal raises and is not cached, so it
    raises again on every call.
    """
    _require_subgroup(h, g)
    # images as tuples, so that the key hashes whatever sequence f maps to
    return _validated_items(tuple(sorted((ge, tuple(im)) for ge, im in f.items())), h, g, m)


@lru_cache(maxsize=1)
def _validated_items(items: tuple[tuple[Element, Element], ...], h: Subgroup,
                     g: FiniteAbelianGroup, m: FiniteAbelianGroup) -> tuple[list[Element], list[Element]]:
    gens = [ge for ge, _ in items]
    images = [im for _, im in items]
    for ge in gens:
        if ge not in h:
            raise NotASubgroup(f"{ge} is not in the given subgroup")
    for im in images:
        m.validate_element(im)
    span, members, sizes = [0], {0}, []
    grown: list[Element] = []  # the images of the keys that grew the span
    clash = None
    for ge, im in items:
        row = _adjoin(g, span, members, sizes, g.encode(ge))
        if clash is None and _combo(m, row, grown + [im]) != m.zero():
            clash = f"{row[-1]}*{ge} lies in the span of the keys before it, where the images disagree"
        if row[-1] > 1:
            grown.append(im)
    # the keys lie in h, so they generate it iff their span is as large
    if len(span) != h.order:
        raise ValueError("the map's keys do not generate the subgroup")
    if clash is not None:
        raise IllDefinedHom(clash)
    return gens, images


def hom_extends(f: Mapping[Element, Element], h: Subgroup,
                g: FiniteAbelianGroup, m: FiniteAbelianGroup) -> bool:
    """Whether the hom h -> m given on generators extends to g -> m.

    f maps a generating set of h to m; well-definedness is validated by
    one walk over the keys that checks each key's chain relation
    (IllDefinedHom otherwise), and these relations generate every
    relation among the keys (see ``_adjoin``).  Existence is
    decided by integer congruence solving; see hom_extends_bruteforce
    for the independent enumeration used to cross-check this path.
    """
    gens, images = _validated_instance(f, h, g, m)
    return _extension_exists(g, gens, [images], m)


def hom_space_size(g: FiniteAbelianGroup, m: FiniteAbelianGroup) -> int:
    return prod(gcd(mi, kj) for mi in g.factors for kj in m.factors)


def hom_extends_bruteforce(f: Mapping[Element, Element], h: Subgroup,
                           g: FiniteAbelianGroup, m: FiniteAbelianGroup) -> bool:
    """Same question, answered by enumerating every hom g -> m.

    Walks the full product of annihilator choices for the images of g's
    standard generators; raises BoundExceeded when that space is larger
    than ``DEFAULT_HOM_SPACE_CAP``.
    """
    gens, images = _validated_instance(f, h, g, m)
    if hom_space_size(g, m) > DEFAULT_HOM_SPACE_CAP:
        raise BoundExceeded(f"hom space larger than cap {DEFAULT_HOM_SPACE_CAP}")
    candidates = [_annihilator_elements(m, mi) for mi in g.factors]
    gen_rows = [list(e) for e in gens]
    for assignment in product(*candidates):
        ok = True
        for row, target in zip(gen_rows, images):
            if _combo(m, row, list(assignment)) != target:
                ok = False
                break
        if ok:
            return True
    return False


def _annihilator_elements(m: FiniteAbelianGroup, s: int) -> list[Element]:
    """Elements y of m with s*y = 0, in coordinate order."""
    return list(product(*[range(0, k, k // gcd(k, s)) for k in m.factors]))


# ---------------------------------------------------------------------------
# Relative injectivity.


def _all_homs_on_generators(k: Subgroup, m: FiniteAbelianGroup):
    """Yield a generating set of Hom(k, m), each hom as the images of
    k.generating_set() in order: at most rank(k)*rank(m) homs.

    With k presented as cyclic slots of order s_i (see
    ``_invariant_presentation``), Hom(k, m) is the sum of the m[s_i],
    each generated by the steps k_j/gcd(k_j, s_i) of m's factors k_j;
    one hom per slot i and coordinate j with a step below k_j sends slot
    i to it (generator u to the step times column entry u) and every
    other slot to 0.  Every check in
    ``_extension_exists`` is a linear form in the images mod a divisor
    of the coordinate's modulus, so the homs that extend form a subgroup
    (the image of restriction Hom(n, m) -> Hom(k, m)) and all homs
    extend iff these do.  No pure, summand or injectivity theorem is
    assumed.
    """
    _, slots = _invariant_presentation(k)
    r = m.rank
    for s, column in slots:
        for j, kj in enumerate(m.factors):
            g = gcd(kj, s)
            if g > 1:
                step = kj // g
                yield [(0,) * j + (c * step % kj,) + (0,) * (r - j - 1) for c in column]


def sample_homomorphism(h: Subgroup, m: FiniteAbelianGroup, rng) -> dict[Element, Element]:
    """Uniformly random homomorphism h -> m, as a generator-image map.

    Each slot of order s_i of the invariant presentation goes to a
    uniform pick from m[s_i], and generator u to the picks combined with
    the slots' column entries u, so every map is a well-defined hom; the
    draw is deterministic for a seeded rng.
    """
    gens, slots = _invariant_presentation(h)
    picks = [rng.choice(_annihilator_elements(m, s)) for s, _ in slots]
    return {gen: _combo(m, [column[u] for _, column in slots], picks) for u, gen in enumerate(gens)}


def _every_hom_extends(m: FiniteAbelianGroup, n: FiniteAbelianGroup, bound: int | None, pure: bool) -> bool:
    """Both oracles' loop: whether every hom from every subgroup k of n
    (every pure one when ``pure``) into m extends to n.

    A k with gcd(|k|, exp m) = 1 is skipped before its generating set,
    presentation or extension check is built, since its only hom into m
    is 0 (see ``is_relatively_injective``).  So is k = n, before its
    purity test: every hom n -> m extends to n as itself.  For every
    other k only a generating set of Hom(k, m) is checked, which
    suffices because the homs that extend form a subgroup (see
    ``_all_homs_on_generators``).  No pure, summand or injectivity
    theorem is assumed.
    """
    e = m.exponent
    for k in enumerate_subgroups(n, bound):
        if gcd(k.order, e) == 1 or k.order == n.order or pure and not is_pure_subgroup(k, n):
            continue
        if not _extension_exists(n, k.generating_set(), _all_homs_on_generators(k, m), m):
            return False
    return True


def is_relatively_injective(m: FiniteAbelianGroup, n: FiniteAbelianGroup,
                            bound: int | None = None) -> bool:
    """Whether every hom from every subgroup of n into m extends to n.

    A subgroup k with gcd(|k|, exp m) = 1 is skipped: by Lagrange the
    image of a hom k -> m has order dividing both, so the only hom is 0,
    which extends.  k = n is skipped too, since every hom n -> m extends
    as itself.  For every other k only a generating set of Hom(k, m) is
    checked (see ``_every_hom_extends``)."""
    return _every_hom_extends(m, n, bound, pure=False)


def is_relatively_pure_injective(m: FiniteAbelianGroup, n: FiniteAbelianGroup,
                                 bound: int | None = None) -> bool:
    """The same check over the pure subgroups of n only (purity is tested
    by its definition), with the same skips: every k with
    gcd(|k|, exp m) = 1, whose only hom into m is 0 by Lagrange, and
    k = n, whose every hom extends as itself, before either is tested
    for purity."""
    return _every_hom_extends(m, n, bound, pure=True)


def _masks_by_order(subgroups: Iterable[Subgroup]) -> dict[int, list[int]]:
    """The enumerated subgroups' element bitmasks, bucketed by order."""
    by_order: dict[int, list[int]] = {}
    for k in subgroups:
        by_order.setdefault(k.order, []).append(k._mask)
    return by_order


def _has_complement(mask: int, candidates: Iterable[int]) -> bool:
    """Whether some subgroup mask among ``candidates`` meets ``mask`` in 0
    alone (bit 0 is the identity's).  With the candidates the subgroups
    of order |G|/|H|, that is H + K = G with H and K meeting in 0: H is a
    direct summand with complement K."""
    for k in candidates:
        if mask & k == 1:
            return True
    return False


def first_pure_non_summand(n: FiniteAbelianGroup, bound: int | None = None) -> Subgroup | None:
    """The first pure subgroup of n, in enumeration order, that is not a
    direct summand; None when there is none.

    Summands are decided by complement search over the lattice just
    enumerated, not by ``is_direct_summand`` (retraction via SNF), so
    the two deciders stay independent checks of each other.  Purity is
    only ever a filter here, never a reason to accept a summand.
    """
    subgroups = enumerate_subgroups(n, bound)
    by_order = _masks_by_order(subgroups)
    for k in subgroups:
        if is_pure_subgroup(k, n) and not _has_complement(k._mask, by_order.get(n.order // k.order, ())):
            return k
    return None


def is_pure_split_finite(n: FiniteAbelianGroup, bound: int | None = None) -> bool:
    """Every pure subgroup is a direct summand (true for all finite groups;
    kept as an executable sanity oracle rather than an assumption).

    Each pure subgroup H passes when some enumerated subgroup K has
    |H|*|K| = |G| and meets H in 0 alone (see ``first_pure_non_summand``);
    no Smith elimination runs, and purity never stands in for the
    summand test.
    """
    return first_pure_non_summand(n, bound) is None


# ---------------------------------------------------------------------------
# The localization homomorphism.


def localization_hom_image(m: FiniteAbelianGroup, a: Element, b: int, c: int) -> Element:
    """Value at b/c of the unique hom from the p-local rationals into m
    sending 1 to a.

    m must be a nontrivial p-group; c must be coprime to p.  With
    order(a) = p^n and y the inverse of c modulo p^n, the value is
    b*y*a, which lies in the cyclic subgroup generated by a.
    """
    primes = {min(factorize(f)) for f in m.factors}
    if len(primes) != 1:
        raise ValueError("a nontrivial p-group is required")
    p = primes.pop()
    m.validate_element(a)
    if gcd(c, p) != 1:
        raise NotCoprime(f"{c} is not coprime to {p}")
    pn = m.element_order(a)
    y = pow(c, -1, pn)
    return m.smul(b * y, a)


# ---------------------------------------------------------------------------
# Isomorphism classes.


def isomorphism_classes_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order n, one per isomorphism class."""
    if n < 1:
        raise ValueError("order must be >= 1")
    per_prime = [[[p**part for part in parts] for parts in partitions(e)] for p, e in sorted(factorize(n).items())]
    return [FiniteAbelianGroup([m for chunk in combo for m in chunk]) for combo in product(*per_prime)]


def isomorphism_classes_upto(max_order: int) -> list[FiniteAbelianGroup]:
    return [g for n in range(1, max_order + 1) for g in isomorphism_classes_of_order(n)]

