import random
from fractions import Fraction
from math import gcd

import pytest

from abelcheck.snf import (
    diagonal,
    identity_matrix,
    integer_row_kernel,
    linear_system_solvable,
    mat_mul,
    smith_normal_form,
)


def random_matrix(rng, rows, cols, lo=-20, hi=20):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def integer_det(a):
    """Determinant of a square matrix by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a):
    return abs(integer_det(a)) == 1


def smith_certificate(a, b):
    """Read off the Smith form either ("solution", x) with x an integer
    vector, or ("obstruction", y) with y a rational row vector meant to
    have y*a integral and y*b not, which rules out every integer x.
    The caller checks the certificate against a and b directly."""
    u, s, v = smith_normal_form(a)
    cols = len(a[0])
    y = []
    for i, row in enumerate(u):
        d = s[i][i] if i < cols else 0
        c = sum(x * w for x, w in zip(row, b))
        if d and c % d:
            return "obstruction", [Fraction(x, d) for x in row]
        if not d and c:
            return "obstruction", [Fraction(x, 2 * c) for x in row]
        if i < cols:
            y.append(c // d if d else 0)
    y += [0] * (cols - len(y))
    return "solution", [sum(v[j][i] * y[i] for i in range(cols)) for j in range(cols)]


def entries_gcd(a):
    g = 0
    for row in a:
        for x in row:
            g = gcd(g, x)
    return g


class TestSmithNormalForm:
    def test_worked_example(self):
        # first invariant = gcd of entries = 2; product of both = |det| = 8
        a = [[2, 4], [6, 8]]
        u, s, v = smith_normal_form(a)
        assert diagonal(s) == [2, 4]
        assert mat_mul(mat_mul(u, a), v) == s

    def test_identity(self):
        u, s, v = smith_normal_form(identity_matrix(3))
        assert diagonal(s) == [1, 1, 1]

    def test_zero_matrix(self):
        u, s, v = smith_normal_form([[0]])
        assert diagonal(s) == [0]
        assert u == [[1]] and v == [[1]]

    def test_empty(self):
        u, s, v = smith_normal_form([])
        assert s == [] and u == [] and v == []

    def test_random_matrices_satisfy_contract(self):
        rng = random.Random(2024)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, rows, cols)
            u, s, v = smith_normal_form(a)
            assert mat_mul(mat_mul(u, a), v) == s
            assert is_unimodular(u) and is_unimodular(v)
            diag = diagonal(s)
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert s[i][j] == 0
            assert all(d >= 0 for d in diag)
            for d1, d2 in zip(diag, diag[1:]):
                if d1 == 0:
                    assert d2 == 0
                else:
                    assert d2 % d1 == 0
            nonzero = [d for d in diag if d]
            if nonzero:
                assert nonzero[0] == entries_gcd(a)

    def test_reproducible_transforms(self):
        a = [[3, 1, -4], [2, 0, 7]]
        assert smith_normal_form(a) == smith_normal_form([row[:] for row in a])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])
        with pytest.raises(ValueError):
            smith_normal_form([[1.5]])


class TestDeterminant:
    def test_examples(self):
        assert integer_det([[2, 4], [6, 8]]) == -8
        assert integer_det(identity_matrix(4)) == 1
        assert integer_det([[0, 1], [1, 0]]) == -1

    def test_matches_permutation_expansion(self):
        from itertools import permutations

        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n, -6, 6)
            ref = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= a[i][perm[i]]
                ref += term
            assert integer_det(a) == ref


class TestKernelAndSolvability:
    def test_kernel_rows_annihilate(self):
        rng = random.Random(6)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols, -8, 8)
            kernel = integer_row_kernel(a)
            for vec in kernel:
                prod = [sum(vec[i] * a[i][j] for i in range(rows)) for j in range(cols)]
                assert prod == [0] * cols

    def test_kernel_dimension(self):
        # rank + kernel rank = number of rows
        a = [[2, 4], [1, 2], [3, 6]]  # rank 1
        assert len(integer_row_kernel(a)) == 2

    def test_solvable_constructed_instances(self):
        rng = random.Random(7)
        for _ in range(300):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rng, rows, cols, -8, 8)
            x = [rng.randint(-5, 5) for _ in range(cols)]
            b = [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]
            assert linear_system_solvable(a, b)

    def test_unsolvable_examples(self):
        assert not linear_system_solvable([[2]], [1])
        assert not linear_system_solvable([[2, 0], [0, 3]], [1, 1])
        assert not linear_system_solvable([[2, 4]], [1])
        assert linear_system_solvable([[2, 4]], [6])
        assert not linear_system_solvable([[0]], [3])
        assert linear_system_solvable([[0]], [0])

    def test_agrees_with_bounded_search(self):
        from itertools import product as iproduct

        rng = random.Random(8)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, rows, cols, -3, 3)
            b = [rng.randint(-6, 6) for _ in range(rows)]
            found = any(
                all(sum(a[i][j] * x[j] for j in range(cols)) == b[i] for i in range(rows))
                for x in iproduct(range(-12, 13), repeat=cols)
            )
            got = linear_system_solvable(a, b)
            verdicts[got] += 1
            kind, vec = smith_certificate(a, b)
            if got:
                assert kind == "solution"
                assert [sum(a[i][j] * vec[j] for j in range(cols)) for i in range(rows)] == b
                continue
            # No x in the search box solves the system, and since a bounded
            # search cannot show that no x at all does, a certificate must:
            # y*a integral and y*b not rule out every integer x.
            assert not found
            assert kind == "obstruction"
            assert all(sum(vec[i] * a[i][j] for i in range(rows)).denominator == 1 for j in range(cols))
            assert sum(vec[i] * b[i] for i in range(rows)).denominator != 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20
