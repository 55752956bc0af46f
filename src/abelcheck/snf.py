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
reproducible run to run; ``oracle snf --json`` prints them.
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


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U*a*V = S.

    U and V are unimodular; S is diagonal with non-negative entries and
    each diagonal entry divides the next (zeros come last).
    """
    rows, cols = _check_matrix(a)
    return _smith_form(a, rows, cols)


def _smith_form(a: IntMatrix, rows: int, cols: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """The elimination behind every public function here; ``a`` must
    already have passed ``_check_matrix``, which gave rows and cols.

    At step t, rows and columns before t are zero off the diagonal, so
    S is updated in the trailing block only; U and V in full."""
    s = [row[:] for row in a]
    u = [[0] * rows for _ in range(rows)]
    for i in range(rows):
        u[i][i] = 1
    v = [[0] * cols for _ in range(cols)]
    for i in range(cols):
        v[i][i] = 1
    for t in range(min(rows, cols)):
        # pivot: smallest nonzero absolute value in the trailing block,
        # first in row-major order
        best = 0
        for i in range(t, rows):
            si = s[i]
            for j in range(t, cols):
                x = si[j]
                if x:
                    if x < 0:
                        x = -x
                    if not best or x < best:
                        best, pi, pj = x, i, j
        if not best:
            break
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for i in range(t, rows):
                si = s[i]
                si[t], si[pj] = si[pj], si[t]
            for vi in v:
                vi[t], vi[pj] = vi[pj], vi[t]

        # Each pass clears column t, then row t, then folds in a
        # non-multiple; a remainder swapped into the pivot (the breaks
        # below) or a fold starts the next pass.
        while True:
            # clear column t with row operations
            st, ut = s[t], u[t]
            for i in range(t + 1, rows):
                si = s[i]
                if si[t]:
                    q = si[t] // st[t]
                    if q:
                        for j in range(t, cols):
                            si[j] -= q * st[j]
                        ui = u[i]
                        for j in range(rows):
                            ui[j] -= q * ut[j]
                    if si[t]:
                        s[t], s[i] = si, st
                        u[t], u[i] = u[i], ut
                        break
            else:
                # clear row t with column operations
                for j in range(t + 1, cols):
                    if st[j]:
                        q = st[j] // st[t]
                        if q:
                            for i in range(t, rows):
                                si = s[i]
                                si[j] -= q * si[t]
                            for vi in v:
                                vi[j] -= q * vi[t]
                        if st[j]:
                            for i in range(t, rows):
                                si = s[i]
                                si[t], si[j] = si[j], si[t]
                            for vi in v:
                                vi[t], vi[j] = vi[j], vi[t]
                            break
                else:
                    # force divisibility: fold the first row holding a
                    # non-multiple onto this pivot
                    pivot = st[t]
                    for i in range(t + 1, rows):
                        si = s[i]
                        if any(si[j] % pivot for j in range(t + 1, cols)):
                            for j in range(t, cols):
                                st[j] += si[j]
                            ui = u[i]
                            for j in range(rows):
                                ut[j] += ui[j]
                            break
                    else:
                        break

        if s[t][t] < 0:
            s[t][t] = -s[t][t]
            u[t] = [-x for x in u[t]]

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

