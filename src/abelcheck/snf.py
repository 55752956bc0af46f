"""Exact integer linear algebra: Smith normal form and friends.

Plain Python ints throughout, so there is no overflow to report; the
arithmetic is arbitrary precision by construction.  Matrices are lists
of equal-length lists of ints.

There is one elimination, ``_smith_form``; the public functions validate
their input once and read their answers off its U*a*V = S.  One
reduction serves any number of right-hand sides: a*x = b is solvable
exactly when each entry of U*b is divisible by the matching diagonal
entry of S (Kannan-Bachem, SIAM J. Comput. 1979; Cohen, *A Course in
Computational Algebraic Number Theory*, section 2.4).

Pivoting is fixed (smallest nonzero absolute value, row-major
tie-break; row elimination before column elimination) so U and V are
reproducible run to run, although only S is contractual.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def _check_matrix(a) -> tuple[int, int]:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for row in a:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"integer entries required, got {x!r}")
    return rows, cols


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner = _check_matrix(a)
    inner2, cols = _check_matrix(b)
    if inner != inner2:
        raise ValueError("dimension mismatch")
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U*a*V = S.

    U and V are unimodular; S is diagonal with non-negative entries and
    each diagonal entry divides the next (zeros come last).
    """
    rows, cols = _check_matrix(a)
    return _smith_form(a, rows, cols)


def _smith_form(a: IntMatrix, rows: int, cols: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The elimination behind every public function here; ``a`` must
    already have passed ``_check_matrix``, which gave rows and cols."""
    s = [row[:] for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_sub(i: int, k: int, q: int) -> None:
        if q:
            si, sk = s[i], s[k]
            ui, uk = u[i], u[k]
            for j in range(cols):
                si[j] -= q * sk[j]
            for j in range(rows):
                ui[j] -= q * uk[j]

    def col_sub(j: int, k: int, q: int) -> None:
        if q:
            for i in range(rows):
                s[i][j] -= q * s[i][k]
            for i in range(cols):
                v[i][j] -= q * v[i][k]

    def swap_rows(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in s:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def negate_row(i: int) -> None:
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pick pivot: smallest nonzero absolute value in the trailing block
        best = None
        for i in range(t, rows):
            si = s[i]
            for j in range(t, cols):
                val = si[j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)

        while True:
            # clear column t with row operations
            restart = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_sub(i, t, q)
                    if s[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear row t with column operations
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_sub(j, t, q)
                    if s[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # force divisibility: fold any non-multiple into this pivot
            pivot = s[t][t]
            offender = None
            for i in range(t + 1, rows):
                si = s[i]
                for j in range(t + 1, cols):
                    if si[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # add offending row onto row t

        if s[t][t] < 0:
            negate_row(t)
        t += 1

    return u, s, v


def diagonal(s: IntMatrix) -> list[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def integer_row_kernel(a: IntMatrix) -> list[list[int]]:
    """Basis rows for {v : v * a = 0} as an integer lattice."""
    rows, cols = _check_matrix(a)
    u, s, _ = _smith_form(a, rows, cols)
    diag = diagonal(s)
    rank = sum(1 for d in diag if d != 0)
    return [u[i][:] for i in range(rank, rows)]


def linear_system_solvable(a: IntMatrix, b: list[int]) -> bool:
    """Whether a * x = b has an integer solution x.

    Reads the answer off one reduction U*a*V = S: with y = V^-1 * x the
    system becomes S*y = U*b, so it is solvable exactly when every entry
    of U*b is divisible by the matching diagonal entry of S, and zero
    where that entry is 0 or the row lies below the diagonal.  The
    reduction does not depend on b, so callers with many right-hand
    sides for one matrix reduce it once with ``smith_normal_form`` and
    test each U*b the same way.
    """
    rows, cols = _check_matrix(a)
    if len(b) != rows:
        raise ValueError("right-hand side has wrong length")
    u, s, _ = _smith_form(a, rows, cols)
    for i in range(rows):
        d = s[i][i] if i < cols else 0
        c = sum(x * y for x, y in zip(u[i], b))
        if (c % d if d else c) != 0:
            return False
    return True


__all__ = [
    "IntMatrix", "identity_matrix", "mat_mul", "smith_normal_form", "diagonal",
    "integer_row_kernel", "linear_system_solvable",
]
