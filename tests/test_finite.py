import hashlib
import random
import tracemalloc
from itertools import combinations, product
from math import gcd

import pytest

from abelcheck import finite, snf
from abelcheck.arith import divisors
from abelcheck.errors import (
    BoundExceeded,
    IllDefinedHom,
    InternalConsistencyError,
    NotASubgroup,
    NotCoprime,
)
from abelcheck.finite import (
    FiniteAbelianGroup,
    Subgroup,
    _all_homs_on_generators,
    _combo,
    _extension_exists,
    _validated_instance,
    abstract_presentation,
    enumerate_subgroups,
    first_pure_non_summand,
    hom_extends,
    hom_extends_bruteforce,
    hom_space_size,
    is_direct_summand,
    is_pure_split_finite,
    is_pure_subgroup,
    is_relatively_injective,
    is_relatively_pure_injective,
    isomorphism_classes_of_order,
    isomorphism_classes_upto,
    localization_hom_image,
    quotient,
    sample_homomorphism,
)
from abelcheck.snf import integer_row_kernel, smith_normal_form

Z = FiniteAbelianGroup


# -- independent oracles used to freeze expected values ----------------------


def subgroups_by_powerset(group):
    """Every additively closed subset containing 0 (feasible for |G| <= 16)."""
    els = group.elements()
    found = []
    for r in range(len(els) + 1):
        for subset in combinations(els, r):
            s = set(subset)
            if group.zero() not in s:
                continue
            if all(group.add(a, b) in s for a in s for b in s):
                found.append(frozenset(s))
    return found


def pure_by_definition(h, g):
    """nH = H ∩ nG tested for every n up to the exponent, no reductions."""
    h_els = set(h.elements())
    g_els = g.elements()
    for n in range(1, g.exponent + 1):
        n_h = {g.smul(n, a) for a in h_els}
        n_g = {g.smul(n, a) for a in g_els}
        if n_h != (h_els & n_g):
            return False
    return True


def add_codes(g, x, y):
    """Code of x + y through the element tuples, without the addition table."""
    return g.encode(g.add(g.decode(x), g.decode(y)))


def coset_order_multiset(g, h):
    """Element orders of G/H computed directly on cosets."""
    codes = [g.encode(a) for a in h.elements()]
    cosets = {}
    for code in range(g.order):
        key = frozenset(add_codes(g, code, c) for c in codes)
        cosets.setdefault(key, code)
    zero_coset = frozenset(codes)
    orders = []
    for key, rep in cosets.items():
        n = 1
        acc = rep
        while frozenset(add_codes(g, acc, c) for c in codes) != zero_coset:
            acc = add_codes(g, acc, rep)
            n += 1
        orders.append(n)
    return sorted(orders)


def order_multiset(group):
    return sorted(group.element_order(a) for a in group.elements())


def walk_subgroups(part, p):
    """All subgroups of a p-group as (element bitmask, codes), sorted by
    (order, mask), by the index-p walk: every nontrivial subgroup K has a
    subgroup H of index p, and K = H + <g> for any g in K outside H with
    p*g in H.  Each subgroup is reached once per maximal subgroup and the
    repeats are dropped; the reference the library's enumerator is
    checked against."""
    n = part.order
    fibres = [[] for _ in range(n)]
    for x in range(n):
        fibres[part.encode(part.smul(p, part.decode(x)))].append(x)
    rows = [None] * n
    found = frontier = [(1, [0])]
    seen = {1}
    while frontier:
        nxt = []
        for sub_mask, members in frontier:
            covered = bytearray(n)
            for h in members:
                covered[h] = 1
            for h in members:
                for g in fibres[h]:
                    if covered[g]:
                        continue
                    row = rows[g]
                    if row is None:
                        row = rows[g] = part._add_row(g)
                    coset = [row[x] for x in members]
                    new = coset
                    for _ in range(p - 2):
                        coset = [row[x] for x in coset]
                        new = new + coset
                    grown = sub_mask
                    for x in new:
                        covered[x] = 1
                        grown |= 1 << x
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append((grown, members + new))
        found = found + nxt
        frontier = nxt
    found.sort(key=lambda sub: (sub[0].bit_count(), sub[0]))
    return found


def gaussian_binomial(k, j, p):
    """Number of j-dimensional subspaces of a k-dimensional space over
    GF(p), from the product formula."""
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (j - i) - 1
    return num // den


def butler_subgroup_count(g, p):
    """Number of subgroups of the abelian p-group g of type lambda: the
    sum over types mu within lambda of prod_i p^(mu'_{i+1} (lambda'_i -
    mu'_i)) [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p (Birkhoff 1935;
    Butler, Subgroup Lattices and Symmetric Functions, Mem. AMS 1994).
    Here ' is the conjugate partition: lambda'_i counts the cyclic factors
    of order above p^(i-1).  A closed form that shares nothing with
    either enumerator."""
    lam = []
    while any(f > p ** len(lam) for f in g.factors):
        lam.append(sum(1 for f in g.factors if f > p ** len(lam)))

    def below(i, prev):
        # the conjugates mu' within lambda' from column i on, mu'_i <= prev
        if i == len(lam):
            return [[]]
        return [[a] + rest for a in range(min(prev, lam[i]) + 1) for rest in below(i + 1, a)]

    total = 0
    for mu in below(0, g.rank):
        mu = mu + [0]
        term = 1
        for i, li in enumerate(lam):
            term *= p ** (mu[i + 1] * (li - mu[i])) * gaussian_binomial(li - mu[i + 1], mu[i] - mu[i + 1], p)
        total += term
    return total


def p_groups(p, max_order):
    """Every abelian p-group of order p up to max_order."""
    out, order = [], p
    while order <= max_order:
        out += isomorphism_classes_of_order(order)
        order *= p
    return out


def _every_hom_on_generators(k, m):
    """Every hom k -> m once, as the images of k.generating_set() in order:
    the full product of annihilator choices over k's invariant slots."""
    gens, slots = finite._invariant_presentation(k)
    choice_lists = [finite._annihilator_elements(m, s) for s, _ in slots]
    for picks in product(*choice_lists):
        yield [_combo(m, [column[u] for _, column in slots], picks) for u in range(len(gens))]


def rel_inj_by_every_hom(m, n, pure_only=False):
    """Relative (pure-)injectivity with every hom of every (pure) subgroup
    passed to the extension check, not just a generating set."""
    for k in enumerate_subgroups(n):
        if pure_only and not is_pure_subgroup(k, n):
            continue
        if not _extension_exists(n, k.generating_set(), _every_hom_on_generators(k, m), m):
            return False
    return True


def _relation_rows(g, gens):
    """The integer relations among ``gens`` in g: the kernel of the
    matrix [gens; diag(g.factors)], cut to its first len(gens) columns."""
    if not gens:
        return []
    t = len(gens)
    r = g.rank
    mat = [list(e) for e in gens]
    mat += [[g.factors[i] if j == i else 0 for j in range(r)] for i in range(r)]
    return [row[:t] for row in integer_row_kernel(mat)]


def reference_validated_instance(f, h, g, m):
    """The validation the walk in ``_validated_instance`` replaced: keys in
    h, images in m, keys generating h (by mask), then every row of the
    keys' integer relation lattice annihilating the images."""
    if not isinstance(h, Subgroup) or h.group != g:
        raise NotASubgroup(f"{h!r} is not a subgroup of {g}")
    items = sorted(f.items())
    gens = [ge for ge, _ in items]
    images = [im for _, im in items]
    for ge in gens:
        if ge not in h:
            raise NotASubgroup(f"{ge} is not in the given subgroup")
    for im in images:
        m.validate_element(im)
    if Subgroup.generated_by(g, gens)._mask != h._mask:
        raise ValueError("the map's keys do not generate the subgroup")
    for row in _relation_rows(g, gens):
        if _combo(m, row, images) != m.zero():
            raise IllDefinedHom(f"relation {row} is not annihilated by the images")
    return gens, images


def rel_inj_closed_form(m, n):
    """M is N-injective iff, at every prime p of N, every cyclic p-factor
    of M has order >= exp(N_p)."""
    exp_n = {p: part.exponent for p, part in n.primary_components()}
    return all(q >= exp_n[p] for p, part in m.primary_components() if p in exp_n
               for q in part.factors)


def rel_inj_by_counting(m, n, pure_only=False):
    """Relative (pure-)injectivity by counting, a second route that never
    runs on the oracle's path.  Restriction Hom(N, Z(q)) -> Hom(K, Z(q))
    has kernel Hom(N/K, Z(q)), and |Hom(A, Z(q))| = |A[q]| = |A/qA| for
    finite A, so every hom K -> Z(q) extends iff |K meet qN|*|K meet N[q]|
    = |K|; Hom(K, M) is the sum over M's factors q.  The masks of qN and
    N[q] are built here from the elements."""
    elements = n.elements()
    tables = []
    for q in set(m.factors):
        multiples = {n.encode(n.smul(q, x)) for x in elements}
        killed = {n.encode(x) for x in elements if n.smul(q, x) == n.zero()}
        tables.append((sum(1 << c for c in multiples), sum(1 << c for c in killed)))
    for k in enumerate_subgroups(n):
        if pure_only and not is_pure_subgroup(k, n):
            continue
        if any((k._mask & a).bit_count() * (k._mask & b).bit_count() != k.order for a, b in tables):
            return False
    return True


def count_finite_calls(monkeypatch, *names):
    """Wrap each named function of ``finite`` in a call counter; returns
    the counts by name, which the caller may reset."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(finite, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(finite, name, counted(name))
    return calls


# -- groups and parsing -------------------------------------------------------


class TestGroupBasics:
    def test_primary_refinement(self):
        assert Z([6, 4]).factors == (2, 4, 3)
        assert Z([12]).factors == (4, 3)
        assert Z([]).order == 1

    def test_groups_built_without_factorising_match_the_constructor(self, monkeypatch):
        # The components and prefix groups that enumeration builds skip the
        # constructor's factorisation; each must equal the constructor's
        # group on the same factors in every observable way.
        built = []
        real = Z._from_factors.__func__

        def recorded(cls, factors):
            built.append(real(cls, factors))
            return built[-1]
        monkeypatch.setattr(Z, "_from_factors", classmethod(recorded))
        for g in isomorphism_classes_upto(64):
            built.append(Z._from_factors(g.factors))
            enumerate_subgroups(g)
        assert {len(g.factors) for g in built} == {0, 1, 2, 3, 4, 5, 6}
        for g in built:
            expected = Z(list(g.factors))
            assert (g.factors, g.order, g._strides) == (expected.factors, expected.order, expected._strides)
            assert g == expected and hash(g) == hash(expected) and str(g) == str(expected)

    def test_from_string(self):
        assert Z.from_string("Z4 x Z2") == Z([4, 2])
        assert Z.from_string("Z(2^2) x Z(2)") == Z([4, 2])
        assert Z.from_string("Z6") == Z([2, 3])
        assert Z.from_string("Z1") == Z([])
        assert Z.from_string("z(4)") == Z([4])
        assert Z.from_string("Z(2^0)") == Z([])
        # the last is refused before its semiprime is factorized, which runs past 10 s
        for text in ("Z0", "Z2 + Z3", "Z(4", "Z4)", "Z()", "Z(2^)", "Z(0^5)", "Z(0^0)", "Z\u0663",
                     "Z999999866000004473 x Z0"):
            with pytest.raises(ValueError):
                Z.from_string(text)
        # a zero base is order 0 whatever its exponent, though 0**0 == 1
        for text in ("Z0", "Z(0^5)", "Z(0^0)"):
            with pytest.raises(ValueError, match="cyclic order must be a positive integer, got 0"):
                Z.from_string(text)

    def test_str_round_trip(self):
        for g in (Z([4, 2]), Z([]), Z([8, 9, 5])):
            assert Z.from_string(str(g)) == g

    def test_arithmetic(self):
        g = Z([2, 4])
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.smul(3, (1, 2)) == (1, 2)
        assert g.element_order((1, 2)) == 2
        assert g.element_order((0, 1)) == 4
        assert g.exponent == 4
        with pytest.raises(ValueError):
            g.validate_element((2, 0))

    def test_bools_are_refused(self):
        # As smith_normal_form refuses them: True is an int but no order
        # or coordinate.
        for orders in ([True, 2], [False], [2, True]):
            with pytest.raises(ValueError, match="cyclic order must be a positive integer"):
                Z(orders)
        g = Z([2, 4])
        for a in ((True, 0), (0, True), (False, 1)):
            with pytest.raises(ValueError, match="is not an element of"):
                g.validate_element(a)
            with pytest.raises(ValueError):
                a in Subgroup.generated_by(g, [(1, 0)])
        with pytest.raises(ValueError):
            smith_normal_form([[True]])
        assert g.validate_element((1, 3)) == (1, 3)

    def test_empty_products_are_one(self):
        assert Z([]).exponent == 1
        assert hom_space_size(Z([]), Z([4])) == hom_space_size(Z([4]), Z([])) == 1

    def test_codes_round_trip(self):
        g = Z([2, 4, 3])
        for code in range(g.order):
            assert g.encode(g.decode(code)) == code

    def test_code_arithmetic_matches_tuple_arithmetic(self):
        for orders in ([2, 4, 3, 9], [8, 5], [], [2, 2, 2], [7]):
            g = Z(orders)
            for x in range(g.order):
                row = g._add_row(x)
                assert len(row) == g.order
                for y in range(g.order):
                    assert row[y] == g._add_codes(x, y) == add_codes(g, x, y)
                assert -g._order_keys([x])[x] == g.element_order(g.decode(x))

    def test_small_subgroup_of_large_group_stays_cheap(self):
        # A subgroup is its |G|-bit mask, so work on one subgroup may take
        # a few bytes per element of G, but nothing here may build a |G|^2
        # table or a list over G (8 bytes per element at least): in
        # Z(2^20) this peaks at 1.6 MB, the binary digits of one mask.
        tracemalloc.start()
        try:
            g = Z([10**5])
            h = Subgroup.generated_by(g, [(16, 0)])
            assert h.order == 2
            assert Subgroup(g, [(0, 0), (16, 0)]) == h
            assert quotient(g, h) == Z([16, 3125])
            assert not is_direct_summand(h, g)
            assert not hom_extends({(16, 0): (1,)}, h, g, Z([2]))
            big = Z([2**20])
            k = Subgroup.generated_by(big, [(2**18,)])
            assert quotient(big, k) == Z([2**18])
            assert k.generating_set() == [(2**18,)]
            assert (0,) in k and (1,) not in k
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"work on 2-element subgroups of Z(2^20) peaks at {peak} bytes"
        assert len(g._cache.get("orders", {})) <= h.order
        assert len(big._cache.get("orders", {})) <= k.order

    def test_large_subgroup_of_large_group_stays_linear(self):
        # <2> in Z(2^14) has 2^13 elements.  Its set, order table and
        # mask peak at 1.8 MB; summing one shifted power of two per
        # element took 27 MB, and a table of multiplication by n per
        # divisor n for purity 11 MB.
        g = Z([2**14])
        tracemalloc.start()
        try:
            h = Subgroup.generated_by(g, [(2,)])
            assert h.order == 2**13 and (4,) in h and (3,) not in h
            assert not is_pure_subgroup(h, g)
            assert quotient(g, h) == Z([2])
            assert not hom_extends({(2,): (1,)}, h, g, Z([2]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"work on <2> in Z(2^14) peaks at {peak} bytes"


class TestEnumeration:
    @pytest.mark.parametrize("orders,count", [([4], 3), ([2, 2], 5), ([6], 4)])
    def test_counts_match_powerset_oracle(self, orders, count):
        g = Z(orders)
        subs = enumerate_subgroups(g)
        assert len(subs) == count
        oracle = {frozenset(s) for s in subgroups_by_powerset(g)}
        assert {frozenset(sub.elements()) for sub in subs} == oracle

    def test_powerset_agreement_order_8_and_12(self):
        for orders in ([8], [2, 4], [2, 2, 2], [12], [2, 2, 3]):
            g = Z(orders)
            subs = enumerate_subgroups(g)
            oracle = {frozenset(s) for s in subgroups_by_powerset(g)}
            assert {frozenset(sub.elements()) for sub in subs} == oracle

    def test_includes_trivial_and_whole(self):
        g = Z([2, 4])
        subs = enumerate_subgroups(g)
        orders = [s.order for s in subs]
        assert 1 in orders and g.order in orders

    def test_cyclic_counts_match_divisor_counts(self):
        from abelcheck.arith import divisors

        for n in (2, 3, 4, 8, 9, 12, 16, 30, 60, 128):
            assert len(enumerate_subgroups(Z([n]))) == len(divisors(n))

    def test_elementary_abelian_counts_match_gaussian_binomials(self):
        # subgroups of (Z_p)^k are subspaces; their number is the sum of
        # Gaussian binomial coefficients, computed from the product
        # formula as an independent combinatorial oracle
        cases = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (7, 2)]
        for p, k in cases:
            expected = sum(gaussian_binomial(k, j, p) for j in range(k + 1))
            assert len(enumerate_subgroups(Z([p] * k))) == expected, (p, k)

    def test_rank_two_counts_match_gcd_sum(self):
        # Z_m x Z_n has sum over i | m, j | n of gcd(i, j) subgroups
        # (Hampejs, Holighaus, Toth and Wiesmeyr, J. Numbers 2014): a
        # closed form that shares nothing with the enumerator.
        cases = 0
        for p in (2, 3, 5, 7, 11, 13):
            for a in range(1, 8):
                for b in range(a, 8):
                    m, n = p**a, p**b
                    if m * n > 243:
                        continue
                    expected = sum(gcd(i, j) for i in divisors(m) for j in divisors(n))
                    assert len(enumerate_subgroups(Z([m, n]))) == expected, (m, n)
                    cases += 1
        assert cases == 23

    def test_counts_match_butler_closed_form(self):
        # The Birkhoff-Butler count of subgroups by type, summed over the
        # types, on every abelian p-group of the orders below.
        groups = [(g, p) for p, top in ((2, 128), (3, 243), (5, 125)) for g in p_groups(p, top)]
        assert len(groups) == 44 + 18 + 6
        for g, p in groups:
            assert len(enumerate_subgroups(g)) == butler_subgroup_count(g, p), g

    def test_matches_index_p_walk(self):
        # Same mask lists in the same order as the reference walk on every
        # abelian p-group of order at most 256, 243, 125 and 49 for
        # p = 2, 3, 5, 7, apart from Z2^7, Z2^6 x Z4 and Z2^8, where the
        # walk alone takes 1.5, 3.7 and 37 s (2-core x86 VM, Python 3.11).
        # The walk adds up each subgroup's codes, and every mask it
        # returns is the sum of 1 << c over those codes.
        slow = {(2,) * 7, (2,) * 6 + (4,), (2,) * 8}
        cases = 0
        for p, top in ((2, 256), (3, 243), (5, 125), (7, 49)):
            for g in p_groups(p, top):
                if g.factors in slow:
                    continue
                walk = walk_subgroups(g, p)
                for mask, codes in walk:
                    assert mask == sum(1 << c for c in codes), g
                assert finite._pgroup_subgroups(g, p) == [mask for mask, _ in walk], g
                cases += 1
        assert cases == 90

    def test_join_matches_product_over_components(self):
        # Same mask lists in the same order as the product construction on
        # every abelian group of order at most 512 with two or more primary
        # components, apart from Z2^7 x Z3, whose 58,424 subgroups take
        # 0.5 s of the 1.3 s (2-core x86 VM, Python 3.11).  The reference
        # shifts the joined mask by base*c for each code c of the next
        # component's subgroup, in itertools.product order: the first
        # component varies slowest.
        def reference(g):
            comps = g.primary_components()
            per_comp = [finite._pgroup_subgroups(part, p) for p, part in comps]
            later = [[[c for c in range(part.order) if mask >> c & 1] for mask in masks]
                     for (_, part), masks in zip(comps[1:], per_comp[1:])]
            out = []
            for mask, *members in product(per_comp[0], *later):
                base = comps[0][1].order
                for (_, part), codes in zip(comps[1:], members):
                    mask = sum([mask << base * c for c in codes])
                    base *= part.order
                out.append(mask)
            return out

        cases = 0
        for g in isomorphism_classes_upto(512):
            if len(g.primary_components()) < 2 or g.factors == (2,) * 7 + (3,):
                continue
            assert [h._mask for h in enumerate_subgroups(g)] == reference(g), g
            cases += 1
        assert cases == 831

    def test_rows_built_once_on_leading_factors(self, monkeypatch):
        # Addition rows are built only over the groups of a component's
        # leading factors, at most once per (group, element), and never
        # the |G|^2 table; a cyclic group needs none at all.
        built = []
        add_row = FiniteAbelianGroup._add_row

        def counted(group, x):
            row = add_row(group, x)
            built.append((group.factors, x, len(row)))
            return row

        monkeypatch.setattr(FiniteAbelianGroup, "_add_row", counted)
        for g in (Z([5**3]), Z([3**5]), Z([2] * 6), Z([2, 4, 8]), Z([2, 2, 3, 9])):
            built.clear()
            enumerate_subgroups(g)
            if g.rank == 1:
                assert built == []
            leading = {part.factors[:i] for _, part in g.primary_components() for i in range(part.rank)}
            assert {factors for factors, _, _ in built} <= leading, g
            assert len({(factors, x) for factors, x, _ in built}) == len(built), g
            assert sum(size for _, _, size in built) < g.order**2, g

    def test_subgroups_carry_their_element_masks(self):
        groups = isomorphism_classes_upto(64) + [Z([2, 4, 3, 5]), Z([3, 9, 5]), Z([2, 2, 3, 3, 5])]
        for g in groups:
            for h in enumerate_subgroups(g):
                assert h._mask == sum(1 << g.encode(a) for a in h.elements()), (g, h)

    def test_lattice_keeps_no_element_sets(self):
        # Enumerated subgroups are bitmasks, and generating_set() keeps no
        # list beside them: Z2^6's 2825 of them keep 0.4 MB after every
        # generating set is read (2.1 MB with a frozenset of codes next
        # to each mask, 1.4 MB with each generating set kept).
        g = Z([2] * 6)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            subs = enumerate_subgroups(g)
            for h in subs:
                h.generating_set()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(subs) == 2825
        assert kept < 2**20, f"Z2^6's lattice and its generating sets keep {kept} bytes"

    def test_deterministic_order(self):
        g = Z([2, 4, 3])
        first = [s.elements() for s in enumerate_subgroups(g)]
        second = [s.elements() for s in enumerate_subgroups(g)]
        assert first == second

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            enumerate_subgroups(Z([1024]))
        with pytest.raises(BoundExceeded):
            enumerate_subgroups(Z([16]), bound=8)


class TestSubgroupObject:
    def test_public_constructor_validates(self):
        g = Z([4])
        Subgroup(g, [(0,), (2,)])
        with pytest.raises(NotASubgroup):
            Subgroup(g, [(2,)])  # missing identity
        with pytest.raises(NotASubgroup):
            Subgroup(g, [(0,), (1,)])  # not closed

    def test_constructor_accepts_exactly_the_closed_sets(self):
        # every set with 0 in groups of order 8, against the pairwise check
        for orders in ([8], [2, 4], [2, 2, 2]):
            g = Z(orders)
            for picks in range(1 << (g.order - 1)):
                codes = [0] + [c for c in range(1, g.order) if picks >> (c - 1) & 1]
                closed = all(add_codes(g, x, y) in codes for x in codes for y in codes)
                elements = [g.decode(c) for c in codes]
                if closed:
                    assert Subgroup(g, elements).order == len(codes)
                else:
                    with pytest.raises(NotASubgroup):
                        Subgroup(g, elements)

    def test_generated_by(self):
        g = Z([2, 4])
        h = Subgroup.generated_by(g, [(1, 1)])
        assert h.order == 4
        assert (1, 1) in h and (0, 2) in h

    def test_masks_behave_as_element_sets(self):
        # Every subgroup of every group of order <= 64, and the same
        # subgroups built by Subgroup(...), generated_by, trivial and
        # whole: order, membership, elements, equality and hashing
        # all agree with the element set.
        subgroups = 0
        for g in isomorphism_classes_upto(64):
            subs = enumerate_subgroups(g)
            index = {h: i for i, h in enumerate(subs)}
            assert len(index) == len(subs), g
            everything = g.elements()
            for i, h in enumerate(subs):
                elements = set(h.elements())
                assert len(elements) == h.order, (g, h)
                assert [a in h for a in everything] == [a in elements for a in everything], (g, h)
                assert h.elements() == sorted(elements), (g, h)
                for twin in (Subgroup(g, elements), Subgroup.generated_by(g, h.generating_set())):
                    assert twin == h and hash(twin) == hash(h) and index[twin] == i, (g, h)
                    assert twin.elements() == h.elements() and twin.order == h.order, (g, h)
            assert index[Subgroup.trivial(g)] == 0 and index[Subgroup.whole(g)] == len(subs) - 1, g
            subgroups += len(subs)
        assert subgroups == 6022
        assert Subgroup.trivial(Z([4])) != Subgroup.trivial(Z([2, 2]))
        assert Subgroup.whole(Z([4])) != Subgroup.whole(Z([2, 2]))

    def test_generating_set_regenerates(self):
        rng = random.Random(3)
        for _ in range(100):
            g = Z([rng.choice([2, 3, 4, 8, 9])] + [rng.choice([2, 4])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(2)])
            regen = Subgroup.generated_by(g, h.generating_set())
            assert regen == h


class TestPurity:
    def test_worked_examples(self):
        g = Z([2, 4])
        assert is_pure_subgroup(Subgroup.generated_by(g, [(1, 1)]), g)
        assert not is_pure_subgroup(Subgroup.generated_by(g, [(0, 2)]), g)
        assert is_pure_subgroup(Subgroup.trivial(g), g)
        assert is_pure_subgroup(Subgroup.whole(g), g)

    def test_matches_definition_oracle(self):
        # Every subgroup of every group of order <= 32.
        verdicts = {True: 0, False: 0}
        for g in isomorphism_classes_upto(32):
            for h in enumerate_subgroups(g):
                pure = is_pure_subgroup(h, g)
                assert pure == pure_by_definition(h, g), (g, h)
                verdicts[pure] += 1
        assert verdicts == {True: 907, False: 123}

    def test_wrong_parent_rejected(self):
        g, other = Z([4]), Z([8])
        h = Subgroup.trivial(other)
        with pytest.raises(NotASubgroup):
            is_pure_subgroup(h, g)


class TestSummands:
    def test_worked_examples(self):
        g = Z([2, 4])
        assert is_direct_summand(Subgroup.generated_by(g, [(1, 1)]), g)
        z4 = Z([4])
        assert not is_direct_summand(Subgroup.generated_by(z4, [(2,)]), z4)
        assert is_direct_summand(Subgroup.trivial(g), g)
        assert is_direct_summand(Subgroup.whole(g), g)

    def test_matches_complement_search(self):
        # The two summand deciders, each the other's independent check:
        # complement search in the enumerated lattice (the pure-split
        # sweep's) and retraction via SNF (is_direct_summand).
        verdicts = {True: 0, False: 0}
        for g in isomorphism_classes_upto(32):
            subs = enumerate_subgroups(g)
            by_order = finite._masks_by_order(subs)
            for h in subs:
                by_complement = finite._has_complement(h._mask, by_order.get(g.order // h.order, ()))
                assert by_complement == is_direct_summand(h, g), (g, h)
                verdicts[by_complement] += 1
        assert verdicts[True] > 0 and verdicts[False] >= 50, f"summand / non-summand counts {verdicts}"

    def test_pure_and_bounded_implies_summand(self):
        # finite shadow of the splitting of bounded pure subgroups
        for orders in ([2, 4], [4, 4], [8, 2], [2, 2, 9]):
            g = Z(orders)
            for h in enumerate_subgroups(g):
                if is_pure_subgroup(h, g):
                    assert is_direct_summand(h, g)


def zero_diagonal_snf(a):
    """A Smith form whose diagonal is all zero: what a broken elimination
    would hand back to the callers that must reject it."""
    u, s, v = smith_normal_form(a)
    return u, [[0] * len(row) for row in s], v


class TestInvariantChecks:
    def test_presentation_rejects_rank_deficient_relations(self, monkeypatch):
        g = Z([2, 4])
        h = Subgroup.generated_by(g, [(1, 1)])
        monkeypatch.setattr(finite, "smith_normal_form", zero_diagonal_snf)
        with pytest.raises(InternalConsistencyError):
            abstract_presentation(h)

    def test_quotient_rejects_zero_diagonal(self, monkeypatch):
        g = Z([2, 4])
        h = Subgroup.generated_by(g, [(0, 2)])
        monkeypatch.setattr(finite, "smith_normal_form", zero_diagonal_snf)
        with pytest.raises(InternalConsistencyError):
            quotient(g, h)


class TestQuotient:
    def test_worked_examples(self):
        z4 = Z([4])
        assert quotient(z4, Subgroup.generated_by(z4, [(2,)])) == Z([2])
        g = Z([2, 4])
        assert quotient(g, Subgroup.generated_by(g, [(1, 1)])) == Z([2])
        assert quotient(g, Subgroup.trivial(g)) == g

    def test_trivial_group(self):
        # rank 0: the relation matrix is empty and its Smith form gives Z1
        assert quotient(Z([]), Subgroup.trivial(Z([]))) == Z([])

    def test_order_law_and_coset_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            g = Z([rng.choice([2, 3, 4, 8, 9, 5])] + [rng.choice([2, 4, 3])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(2)])
            q = quotient(g, h)
            assert q.order * h.order == g.order
            assert order_multiset(q) == coset_order_multiset(g, h)


class TestHomExtension:
    def test_worked_examples(self):
        z4, z2 = Z([4]), Z([2])
        h = Subgroup.generated_by(z4, [(2,)])
        assert not hom_extends({(2,): (1,)}, h, z4, z2)
        assert hom_extends({(2,): (0,)}, h, z4, z2)
        assert hom_extends({(2,): (2,)}, h, z4, z4)

    def test_zero_map_always_extends(self):
        rng = random.Random(19)
        for _ in range(50):
            g = Z([rng.choice([4, 8, 9, 2])] + [rng.choice([2, 3])])
            m = Z([rng.choice([2, 4, 3])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order))])
            zero_map = {ge: m.zero() for ge in h.generating_set()}
            if not zero_map:
                continue
            assert hom_extends(zero_map, h, g, m)

    def test_ill_defined_rejected(self):
        z4 = Z([4])
        h = Subgroup.generated_by(z4, [(2,)])
        # 2*(2,) = 0 in Z4 but 2*1 = 2 != 0 in Z4
        with pytest.raises(IllDefinedHom):
            hom_extends({(2,): (1,)}, h, z4, z4)

    def test_key_in_span_of_earlier_keys(self):
        # (2,) = 2*(1,) is in the span of the key before it, so its chain
        # relation has n = 1 and its image must be 2*f((1,)).
        z4 = Z([4])
        h = Subgroup.whole(z4)
        with pytest.raises(IllDefinedHom):
            hom_extends({(1,): (1,), (2,): (3,)}, h, z4, z4)
        assert hom_extends({(1,): (1,), (2,): (2,)}, h, z4, z4)

    def test_keys_must_generate(self):
        z4 = Z([4])
        h = Subgroup.whole(z4)
        with pytest.raises(ValueError):
            hom_extends({(2,): (0,)}, h, z4, z4)

    @pytest.mark.parametrize("f, h_gens, error", [
        ({(2,): (1,)}, [(2,)], IllDefinedHom),  # 2*(2,) = 0 but 2*1 != 0 in Z4
        ({(2,): (0,)}, [(1,)], ValueError),  # the key does not generate Z4
    ])
    def test_refusals_raise_from_both_deciders(self, f, h_gens, error):
        # The one-entry cache holds only validated instances, so the
        # brute force refuses again what hom_extends has just refused.
        z4 = Z([4])
        h = Subgroup.generated_by(z4, h_gens)
        with pytest.raises(error):
            hom_extends(f, h, z4, z4)
        with pytest.raises(error):
            hom_extends_bruteforce(f, h, z4, z4)

    def test_equal_instances_share_one_validation(self):
        # An equal but distinct f, h, g and m hit the cache.
        g, m = Z([2, 4]), Z([4])
        f = {(1, 0): (2,), (0, 1): (1,)}
        finite._validated_items.cache_clear()
        first = _validated_instance(f, Subgroup.whole(g), g, m)
        g2 = Z([4, 2])
        again = _validated_instance(dict(reversed(f.items())), Subgroup.generated_by(g2, list(f)), g2, Z([4]))
        assert finite._validated_items.cache_info()[:2] == (1, 1)  # (hits, misses)
        assert again == first == ([(0, 1), (1, 0)], [(1,), (2,)])

    def test_bruteforce_agrees_on_random_instances(self):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            g = Z([rng.choice([2, 3, 4, 8, 9])] + ([rng.choice([2, 4])] if rng.random() < 0.7 else []))
            m = Z([rng.choice([2, 3, 4, 9])] + ([rng.choice([2, 3])] if rng.random() < 0.5 else []))
            if hom_space_size(g, m) > 4096:
                continue
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(rng.randint(0, 2))])
            f = sample_homomorphism(h, m, rng)
            assert set(f) == set(h.generating_set())
            checked += 1
            assert hom_extends(f, h, g, m) == hom_extends_bruteforce(f, h, g, m)

    def test_batched_extension_matches_single_checks(self):
        rng = random.Random(41)
        checked = mixed = 0
        while checked < 150:
            g = Z([rng.choice([2, 3, 4, 8, 9])] + ([rng.choice([2, 4])] if rng.random() < 0.7 else []))
            m = Z([rng.choice([2, 3, 4, 9])] + ([rng.choice([2, 3])] if rng.random() < 0.5 else []))
            if hom_space_size(g, m) > 4096:
                continue
            # multiples of random elements make non-pure subgroups, where
            # some homs extend and some do not
            h = Subgroup.generated_by(g, [g.smul(rng.choice([1, 2, 3]), g.decode(rng.randrange(g.order)))
                                          for _ in range(rng.randint(1, 2))])
            gens = h.generating_set()
            homs = list(_every_hom_on_generators(h, m))
            pool = [rng.choice(homs) for _ in range(6)]
            verdicts = [hom_extends_bruteforce(dict(zip(gens, images)), h, g, m) for images in pool]
            for images, verdict in zip(pool, verdicts):
                assert _extension_exists(g, gens, [images], m) == verdict
            for _ in range(3):
                picked = rng.sample(range(len(pool)), rng.randint(2, len(pool)))
                batch = [pool[i] for i in picked]
                expected = all(verdicts[i] for i in picked)
                assert _extension_exists(g, gens, batch, m) == expected
                assert _extension_exists(g, gens, iter(batch), m) == expected
                mixed += len({verdicts[i] for i in picked}) == 2
            checked += 1
        assert mixed >= 20

    def test_trivial_subgroup_extends_without_elimination(self, monkeypatch):
        # Only the zero map is prescribed on the trivial subgroup; deciding
        # that it extends needs no Smith normal form.
        def no_snf(a):
            raise AssertionError("smith_normal_form called")
        monkeypatch.setattr(finite, "smith_normal_form", no_snf)
        g, m = Z([4, 2]), Z([8, 3])
        assert hom_extends({}, Subgroup.trivial(g), g, m)
        assert _extension_exists(g, [], [[], []], m)

    def test_validation_matches_relation_lattice_reference(self):
        # Each instance is validated both ways; they must return the same
        # keys and images or raise the same exception class (ValueError
        # and NotASubgroup with the same message).
        rng = random.Random(617)
        outcomes = {}
        redundant = {}  # outcomes of the instances with a key in the span of the keys before it
        for _ in range(5000):
            g = Z([rng.choice([2, 3, 4, 5, 8, 9]) for _ in range(rng.randint(1, 3))])
            m = Z([rng.choice([2, 3, 4, 8, 9]) for _ in range(rng.randint(1, 2))])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(rng.randint(0, 3))])
            members = h.elements()
            kind = rng.random()
            if kind < 0.4:
                f = sample_homomorphism(h, m, rng)  # well defined
            else:
                f = dict(sample_homomorphism(h, m, rng))
                for key in rng.sample(sorted(f), min(len(f), rng.randint(0, 2))):
                    f[key] = m.decode(rng.randrange(m.order))  # often ill defined
            if kind > 0.7:
                # extra keys: redundant ones, or ones that replace a generator
                for _ in range(rng.randint(1, 2)):
                    f[rng.choice(members)] = m.decode(rng.randrange(m.order))
                if f and rng.random() < 0.7:
                    del f[rng.choice(sorted(f))]
            if rng.random() < 0.02:
                f[g.decode(rng.randrange(g.order))] = m.zero()  # maybe outside h
            if rng.random() < 0.02 and f:
                f[rng.choice(sorted(f))] = (m.factors[0],) + m.zero()[1:]  # not in m
            try:
                expected = reference_validated_instance(f, h, g, m)
            except (NotASubgroup, IllDefinedHom, ValueError) as err:
                expected = err
            try:
                got = _validated_instance(f, h, g, m)
            except (NotASubgroup, IllDefinedHom, ValueError) as err:
                got = err
            if isinstance(expected, Exception):
                assert type(got) is type(expected), (f, h, g, m, got, expected)
                if not isinstance(expected, IllDefinedHom):
                    assert str(got) == str(expected)
            else:
                assert got == expected
            outcomes[type(expected).__name__] = outcomes.get(type(expected).__name__, 0) + 1
            if isinstance(expected, (tuple, IllDefinedHom)):
                keys = sorted(f)
                if any(x in Subgroup.generated_by(g, keys[:i]) for i, x in enumerate(keys)):
                    redundant[type(expected).__name__] = redundant.get(type(expected).__name__, 0) + 1
        assert outcomes["tuple"] >= 1000 and outcomes["IllDefinedHom"] >= 1000, outcomes
        assert redundant.get("tuple", 0) >= 50 and redundant.get("IllDefinedHom", 0) >= 250, redundant
        assert outcomes["ValueError"] >= 250 and outcomes["NotASubgroup"] >= 20, outcomes

    def test_bruteforce_cap(self):
        g = Z([2] * 5)  # Hom(g, g) has 2^25 elements, above DEFAULT_HOM_SPACE_CAP
        h = Subgroup.trivial(g)
        with pytest.raises(BoundExceeded):
            hom_extends_bruteforce({}, h, g, g)

    def test_sample_homomorphism_is_well_defined(self):
        rng = random.Random(29)
        for _ in range(100):
            g = Z([rng.choice([4, 8, 9, 6])])
            m = Z([rng.choice([2, 4, 3])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order))])
            f = sample_homomorphism(h, m, rng)
            assert set(f) == set(h.generating_set())
            hom_extends(f, h, g, m)  # must not raise IllDefinedHom

    def test_sample_homomorphism_draw_is_golden(self):
        # Seeded crosscheck runs replay only while the sampler makes the same
        # rng.choice calls on the same lists in the same order; the digest
        # was recorded before the sampler and the enumerator shared code.
        rng = random.Random(4242)
        digest = hashlib.sha256()
        for _ in range(200):
            g = Z([rng.choice([4, 8, 9]), rng.choice([2, 4, 3])])
            m = Z([rng.choice([2, 4, 3]), rng.choice([2, 4, 9])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(2)])
            f = sample_homomorphism(h, m, rng)
            assert [f[x] for x in h.generating_set()] in list(_every_hom_on_generators(h, m))
            digest.update(repr(sorted(f.items())).encode())
        assert digest.hexdigest() == "17570ca002cce4c4cdbe3367d2cbd0b0af6f5d14a2c3ea746f98786757519260"


def chain_subgroups():
    """Every subgroup of every group of order <= 64, then 2,000 seeded
    generated subgroups of groups of rank <= 4 and order <= 512."""
    for g in isomorphism_classes_upto(64):
        for h in enumerate_subgroups(g):
            yield h
    rng = random.Random(2017)
    drawn = 0
    while drawn < 2000:
        g = Z([rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]) for _ in range(rng.randint(1, 4))])
        if g.order > 512:
            continue
        drawn += 1
        yield Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(rng.randint(0, 4))])


class TestChainPresentation:
    def test_matches_kernel_reference(self):
        # The walk's chain relations against the kernel of
        # [gens; diag(factors)], the route they replaced.
        seen = 0
        for h in chain_subgroups():
            g = h.group
            codes, rows = finite._chain_walk(h)
            gens = h.generating_set()
            assert [g.decode(c) for c in codes] == gens
            t = len(gens)
            assert len(rows) == t and all(len(row) == t for row in rows)
            assert all(rows[u][v] == 0 for u in range(t) for v in range(u + 1, t))  # lower triangular
            for row in rows:
                assert _combo(g, row, gens) == g.zero()
            det = 1
            for u in range(t):
                det *= rows[u][u]
            assert abs(det) == h.order
            _, slots = finite._invariant_presentation(h)
            reference = smith_normal_form(_relation_rows(g, gens))[1] if gens else []
            assert [s for s, _ in slots] == [reference[i][i] for i in range(t) if reference[i][i] != 1]
            assert all(len(column) == t for _, column in slots)
            abstract, images = abstract_presentation(h)
            assert abstract.order == h.order
            assert Subgroup.generated_by(abstract, images).order == abstract.order
            assert [abstract.element_order(im) for im in images] == [g.element_order(ge) for ge in gens]
            seen += 1
        assert seen == 8022  # 6,022 subgroups of the groups of order <= 64, then 2,000 drawn

    def test_one_smith_reduction_per_nontrivial_subgroup(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("presentations need no kernel")

        calls = []

        def counted(a):
            calls.append(a)
            return smith_normal_form(a)

        monkeypatch.setattr(snf, "integer_row_kernel", forbidden)
        monkeypatch.setattr(finite, "smith_normal_form", counted)
        for g in (Z([2] * 5), Z([4, 8, 3]), Z([9, 27])):
            for h in enumerate_subgroups(g):
                calls.clear()
                finite._invariant_presentation(h)
                assert len(calls) == (h.order > 1)


class TestAbstractPresentation:
    def test_matches_subgroup_structure(self):
        rng = random.Random(31)
        for _ in range(80):
            g = Z([rng.choice([4, 8, 9]), rng.choice([2, 4, 3])])
            h = Subgroup.generated_by(g, [g.decode(rng.randrange(g.order)) for _ in range(2)])
            abstract, images = abstract_presentation(h)
            assert abstract.order == h.order
            gens = h.generating_set()
            assert len(images) == len(gens)
            for ge, im in zip(gens, images):
                assert g.element_order(ge) == abstract.element_order(im)
            span = Subgroup.generated_by(abstract, images)
            assert span.order == abstract.order

    def test_presentations_and_generating_homs_are_golden(self):
        # What the invariant slots feed: each subgroup's abstract group and
        # generator images (the summand check) and the generating homs into
        # a few targets (the relative-injectivity checks).  The digest was
        # recorded while the presentation still carried its unit slots.
        targets = [Z([2]), Z([4]), Z([2, 3]), Z([2, 4]), Z([9])]
        digest = hashlib.sha256()
        seen = 0
        for g in isomorphism_classes_upto(16):
            for k in enumerate_subgroups(g):
                abstract, images = abstract_presentation(k)
                digest.update(repr((k.generating_set(), abstract.factors, images)).encode())
                for m in targets:
                    digest.update(repr(list(_all_homs_on_generators(k, m))).encode())
                seen += 1
        assert seen == 215
        assert digest.hexdigest() == "d35183388961ec646567593e4965b492502bd9212d2fe3db92d498663c89d81c"


class TestRelativeInjectivity:
    def test_worked_examples(self):
        assert not is_relatively_injective(Z([2]), Z([4]))
        assert is_relatively_injective(Z([2]), Z([3]))
        assert is_relatively_injective(Z([4]), Z([4]))

    def test_cyclic_prime_power_table(self):
        for p in (2, 3, 5):
            for m in range(1, 4):
                for n in range(1, 4):
                    got = is_relatively_injective(Z([p**m]), Z([p**n]))
                    assert got == (m >= n), (p, m, n)

    def test_obstruction_at_higher_powers(self):
        for p in (2, 3, 5):
            n = 2
            while p**n <= 512:
                assert not is_relatively_injective(Z([p]), Z([p**n]))
                n += 1

    def test_closed_form_on_all_small_pairs(self):
        groups = [grp for n in range(2, 9) for grp in isomorphism_classes_of_order(n)]
        for m in groups:
            for n in groups:
                assert is_relatively_injective(m, n) == rel_inj_closed_form(m, n), (m, n)
                assert is_relatively_pure_injective(m, n), (m, n)

    def test_matches_every_hom_reference(self):
        # Checking a generating set of Hom(K, M) gives the verdicts of
        # checking every hom, on all ordered pairs of orders 2..16.
        groups = [grp for n in range(2, 17) for grp in isomorphism_classes_of_order(n)]
        pairs = [(m, n) for m in groups for n in groups]
        assert len(pairs) == 576
        verdicts = set()
        for m, n in pairs:
            inj = rel_inj_by_every_hom(m, n)
            pure_inj = rel_inj_by_every_hom(m, n, pure_only=True)
            assert is_relatively_injective(m, n) == inj, (m, n)
            assert is_relatively_pure_injective(m, n) == pure_inj, (m, n)
            verdicts.add((inj, pure_inj))
        assert verdicts == {(True, True), (False, True)}

    def test_matches_counting_route(self):
        # The congruence oracles against the counting route on all ordered
        # pairs of orders 2..16 and on two lattice-heavy pairs.
        groups = [grp for n in range(2, 17) for grp in isomorphism_classes_of_order(n)]
        pairs = [(m, n) for m in groups for n in groups]
        pairs += [(Z([2, 4]), Z([2] * 6)), (Z([2, 4]), Z([2, 2, 2, 4]))]
        negatives = []
        for m, n in pairs:
            for oracle, pure_only in ((is_relatively_injective, False), (is_relatively_pure_injective, True)):
                verdict = rel_inj_by_counting(m, n, pure_only)
                assert oracle(m, n) == verdict, (oracle.__name__, m, n)
                if not verdict:
                    negatives.append((m, n))
        assert len(negatives) == 104 + 1
        assert negatives[-1] == (Z([2, 4]), Z([2, 2, 2, 4]))

    def test_coprime_subgroups_are_skipped(self, monkeypatch):
        # Every subgroup of Z2^6 has 2-power order, coprime to
        # exp(Z3) = 3: the only hom into Z3 is 0, so no subgroup reaches a
        # presentation, a generating hom or an extension check.
        calls = count_finite_calls(monkeypatch, "smith_normal_form", "_extension_exists")
        calls["homs"] = 0
        generating = finite._all_homs_on_generators

        def counted_homs(k, m):
            for hom in generating(k, m):
                calls["homs"] += 1
                yield hom

        monkeypatch.setattr(finite, "_all_homs_on_generators", counted_homs)
        m, n = Z([3]), Z([2] * 6)
        assert is_relatively_injective(m, n)
        assert is_relatively_pure_injective(m, n)
        assert calls == {"smith_normal_form": 0, "homs": 0, "_extension_exists": 0}
        # The same counters see a group that is not skipped.
        assert not is_relatively_injective(Z([2]), Z([4]))
        assert calls["smith_normal_form"] > 0 and calls["homs"] > 0 and calls["_extension_exists"] > 0

    def test_n_itself_is_skipped(self, monkeypatch):
        # Every hom N -> M extends to N as itself, so N is neither tested
        # for purity nor checked: Z2 x Z4 has 8 subgroups, of which 0 and
        # N are skipped, and the only nonzero subgroup of Z2 or Z3 is N.
        calls = count_finite_calls(monkeypatch, "_extension_exists", "smith_normal_form", "is_pure_subgroup")
        cases = [(is_relatively_injective, Z([4]), Z([2, 4]), (6, 10, 0)),
                 (is_relatively_pure_injective, Z([4]), Z([2, 4]), (4, 6, 6))]
        cases += [(oracle, m, n, (0, 0, 0)) for m, n in ((Z([4]), Z([2])), (Z([9]), Z([3])))
                  for oracle in (is_relatively_injective, is_relatively_pure_injective)]
        for oracle, m, n, expected in cases:
            calls.update(dict.fromkeys(calls, 0))
            assert oracle(m, n), (oracle.__name__, m, n)
            assert tuple(calls.values()) == expected, (oracle.__name__, m, n, calls)

    def test_grid_work_is_pinned(self, monkeypatch):
        # Both oracles on the 384 pairs (M, N) with 1 < |M| <= 16 and
        # 1 < |N| <= 12, one group per isomorphism class: the work counts
        # are exact, so a change that adds work back fails here untimed.
        ms = [grp for n in range(2, 17) for grp in isomorphism_classes_of_order(n)]
        ns = [grp for n in range(2, 13) for grp in isomorphism_classes_of_order(n)]
        pairs = [(m, n) for m in ms for n in ns]
        assert len(pairs) == 384
        calls = count_finite_calls(monkeypatch, "_extension_exists", "smith_normal_form")
        negatives = 0
        for m, n in pairs:
            for oracle in (is_relatively_injective, is_relatively_pure_injective):
                negatives += not oracle(m, n)
        assert negatives == 53
        assert calls == {"_extension_exists": 1163, "smith_normal_form": 2593}

    def test_generating_homs_span_every_hom(self):
        # The homs checked generate Hom(K, M) inside M^t (t generators of K).
        rng = random.Random(53)
        for _ in range(60):
            n = Z([rng.choice([2, 3, 4, 8, 9]), rng.choice([2, 4, 3, 6])])
            m = Z([rng.choice([2, 4, 3, 8])] + ([rng.choice([2, 3, 9])] if rng.random() < 0.6 else []))
            k = Subgroup.generated_by(n, [n.decode(rng.randrange(n.order)) for _ in range(2)])
            moduli = list(m.factors) * len(k.generating_set())
            flat = [tuple(x for image in hom for x in image) for hom in _all_homs_on_generators(k, m)]
            every = {tuple(x for image in hom for x in image) for hom in _every_hom_on_generators(k, m)}
            assert len(flat) <= abstract_presentation(k)[0].rank * m.rank
            span = {(0,) * len(moduli)}
            frontier = list(span)
            while frontier:
                x = frontier.pop()
                for y in flat:
                    z = tuple((a + b) % q for a, b, q in zip(x, y, moduli))
                    if z not in span:
                        span.add(z)
                        frontier.append(z)
            assert span == every

    def test_pure_variant_checks_few_homs_per_subgroup(self, monkeypatch):
        # The 2^24 homs Z4^4 -> Z2^6 are never walked: each subgroup K of
        # Z4^4 gets at most rank(K)*rank(M) homs checked.
        m, n = Z([2] * 6), Z([4] * 4)
        generating = finite._all_homs_on_generators
        counts = []

        def counted(k, target):
            bound = abstract_presentation(k)[0].rank * target.rank
            seen = 0
            for hom in generating(k, target):
                seen += 1
                assert seen <= bound, (k, seen, bound)
                yield hom
            counts.append(seen)

        monkeypatch.setattr(finite, "_all_homs_on_generators", counted)
        assert is_relatively_pure_injective(m, n)
        # Z4^4 itself is skipped as N, so its homs are never drawn.
        assert counts and max(counts) == 3 * 6

    def test_pure_variant_examples(self):
        assert is_relatively_pure_injective(Z([2]), Z([4]))
        assert is_relatively_pure_injective(Z([2]), Z([2, 4]))

    def test_pure_variant_always_true_on_small_groups(self):
        rng = random.Random(37)
        for _ in range(25):
            m = Z([rng.choice([2, 3, 4, 9, 8])])
            n = Z([rng.choice([2, 3, 4, 8]), rng.choice([2, 3])])
            assert is_relatively_pure_injective(m, n)

    def test_inheritance_to_pure_subgroups_and_quotients(self):
        ms = [Z([2]), Z([4]), Z([2, 3])]
        ns = [Z([2, 4]), Z([8]), Z([2, 2, 3])]
        for m in ms:
            for n in ns:
                assert is_relatively_pure_injective(m, n)
                for k in enumerate_subgroups(n):
                    if not is_pure_subgroup(k, n):
                        continue
                    k_abs, _ = abstract_presentation(k)
                    assert is_relatively_pure_injective(m, k_abs)
                    assert is_relatively_pure_injective(m, quotient(n, k))


class TestPureSplitFinite:
    def test_worked_examples(self):
        assert is_pure_split_finite(Z([2, 4]))
        assert is_pure_split_finite(Z([8]))
        assert is_pure_split_finite(Z([2, 2]))

    def test_all_orders_up_to_36(self):
        for g in isomorphism_classes_upto(36):
            assert is_pure_split_finite(g), g

    def test_decided_without_smith_elimination(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the pure-split sweep must decide summands by complement search")

        for name in ("smith_normal_form", "_extension_exists"):
            monkeypatch.setattr(finite, name, forbidden)
        monkeypatch.setattr(snf, "integer_row_kernel", forbidden)
        assert is_pure_split_finite(Z([2, 2, 2, 2, 2, 4]))
        assert is_pure_split_finite(Z([8, 9]))

    def test_witness_is_first_pure_subgroup_without_complement(self, monkeypatch):
        g = Z([2, 4])
        assert first_pure_non_summand(g) is None
        # Deny a complement to every nontrivial subgroup: the witness is
        # then the first pure nontrivial subgroup in enumeration order.
        monkeypatch.setattr(finite, "_has_complement", lambda mask, candidates: mask == 1)
        expected = next(h for h in enumerate_subgroups(g) if h.order > 1 and is_pure_subgroup(h, g))
        assert first_pure_non_summand(g) == expected
        assert not is_pure_split_finite(g)


class TestLocalizationHom:
    def test_worked_examples(self):
        assert localization_hom_image(Z([4]), (1,), 1, 3) == (3,)
        assert localization_hom_image(Z([3]), (1,), 1, 2) == (2,)
        assert localization_hom_image(Z([9, 3]), (1, 4), 0, 1) == (0, 0)

    def test_consistency(self):
        # c * f(1/c) must equal f(1) = a
        m = Z([4])
        img = localization_hom_image(m, (1,), 1, 3)
        assert m.smul(3, img) == (1,)

    def test_errors(self):
        with pytest.raises(NotCoprime):
            localization_hom_image(Z([4]), (1,), 1, 2)
        with pytest.raises(NotCoprime):
            localization_hom_image(Z([4]), (1,), 1, 0)
        with pytest.raises(ValueError):
            localization_hom_image(Z([6]), (1, 1), 1, 5)
        with pytest.raises(ValueError):
            localization_hom_image(Z([]), (), 1, 5)

    def test_additive_and_well_defined(self):
        rng = random.Random(41)
        for _ in range(500):
            p = rng.choice([2, 3, 5])
            m = Z([p ** rng.randint(1, 3), p ** rng.randint(1, 2)])
            a = m.decode(rng.randrange(m.order))
            c = rng.choice([x for x in range(1, 30) if x % p != 0])
            b1, b2 = rng.randint(-20, 20), rng.randint(-20, 20)
            f = lambda b, cc: localization_hom_image(m, a, b, cc)
            assert f(b1 + b2, c) == m.add(f(b1, c), f(b2, c))
            d = rng.choice([x for x in range(1, 10) if x % p != 0])
            assert f(b1, c) == f(b1 * d, c * d)
            image = f(b1, c)
            assert image in {m.smul(k, a) for k in range(m.element_order(a))}


class TestIsomorphismClasses:
    def test_counts(self):
        assert len(isomorphism_classes_of_order(1)) == 1
        assert len(isomorphism_classes_of_order(8)) == 3
        assert len(isomorphism_classes_of_order(16)) == 5
        assert len(isomorphism_classes_of_order(36)) == 4
        assert len(isomorphism_classes_of_order(128)) == 15

    def test_distinct_and_right_order(self):
        classes = isomorphism_classes_upto(24)
        assert len(classes) == len(set(classes))
        for g in classes:
            assert g.order <= 24


class TestRankAdditivityShadow:
    def test_free_rank_splits_over_sublattice(self):
        # rows generate a sublattice H of Z^r: rank(H) + free rank of the
        # cokernel = r, with both sides computed independently
        from fractions import Fraction

        from abelcheck.snf import diagonal, smith_normal_form

        def rational_rank(rows, cols):
            m = [[Fraction(x) for x in row] for row in rows]
            rank = 0
            for col in range(cols):
                pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
                if pivot is None:
                    continue
                m[rank], m[pivot] = m[pivot], m[rank]
                inv = 1 / m[rank][col]
                m[rank] = [x * inv for x in m[rank]]
                for i in range(len(m)):
                    if i != rank and m[i][col]:
                        f = m[i][col]
                        m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                rank += 1
            return rank

        rng = random.Random(43)
        for _ in range(100):
            r = rng.randint(1, 4)
            rows = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(rng.randint(0, 4))]
            if not rows:
                continue
            _, s, _ = smith_normal_form(rows)
            snf_rank = sum(1 for d in diagonal(s) if d)
            cokernel_free_rank = r - snf_rank
            assert rational_rank(rows, r) + cokernel_free_rank == r
