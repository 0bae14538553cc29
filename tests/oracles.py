"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's divisors-only Smith
kernel and enumeration code paths: rank via fraction-free (Bareiss)
elimination, modular rank via straightforward Gaussian elimination, Smith
divisors via gcds of k x k minors, determinants via Bareiss, labeled
posets via brute force over all antisymmetric transitive relations,
parallel-path relations by listing every cover path, and homology of the
whole order complex, never its core, through the dense Smith form with
transforms.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd


def bareiss_rank(rows) -> int:
    """Rank over the rationals by fraction-free elimination."""
    m = [[int(v) for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def modp_rank(rows, p: int) -> int:
    """Rank over GF(p) by Gaussian elimination."""
    m = [[int(v) % p for v in row] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nr:
            break
    return rank


def det_int(rows) -> int:
    """Exact integer determinant (Bareiss)."""
    m = [[int(v) for v in row] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    assert all(len(row) == n for row in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_divisors(rows) -> list[int]:
    """Smith divisors from gcds of all k x k minors; small matrices only."""
    m = [[int(v) for v in row] for row in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    deltas = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                minor = det_int([[m[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        deltas.append(g)
    return [deltas[k] // deltas[k - 1] for k in range(1, len(deltas))]


def all_labeled_strict_orders(n: int):
    """Yield every strict partial order on range(n) as (lt_rows, covers).

    lt_rows is a list of bitmasks, covers a list of index pairs.  Brute
    force: three states per unordered pair, keep transitive outcomes.
    """
    pair_list = list(combinations(range(n), 2))
    for assignment in product((0, 1, 2), repeat=len(pair_list)):
        lt = [0] * n
        for (i, j), state in zip(pair_list, assignment):
            if state == 1:
                lt[i] |= 1 << j
            elif state == 2:
                lt[j] |= 1 << i
        ok = True
        for a in range(n):
            row = lt[a]
            rest = row
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                rest ^= low
                if lt[b] & ~row:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        covers = []
        for i in range(n):
            for j in range(n):
                if (lt[i] >> j) & 1:
                    between = False
                    rest = lt[i]
                    while rest:
                        low = rest & -rest
                        k = low.bit_length() - 1
                        rest ^= low
                        if (lt[k] >> j) & 1:
                            between = True
                            break
                    if not between:
                        covers.append((i, j))
        yield lt, covers


def random_integer_matrix(rng, max_dim: int = 6, bound: int = 9):
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return [
        [rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)
    ]


def random_poset_covers(rng, max_n: int = 8):
    """Random poset as (elements, covers): random DAG on an index order."""
    n = rng.randint(1, max_n)
    lt = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                lt[i] |= 1 << j
    # transitive closure along the index order
    for i in range(n - 1, -1, -1):
        rest = lt[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            lt[i] |= lt[j]
            rest &= ~lt[j]
    elements = [f"e{i}" for i in range(n)]
    covers = []
    for i in range(n):
        rest = lt[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            between = False
            r2 = lt[i]
            while r2:
                l2 = r2 & -r2
                k = l2.bit_length() - 1
                r2 ^= l2
                if (lt[k] >> j) & 1:
                    between = True
                    break
            if not between:
                covers.append((elements[i], elements[j]))
    return elements, covers


def is_forest(n: int, edges) -> bool:
    """Union-find cycle detection on an undirected edge list over range(n)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def cover_paths(elements, covers, src):
    """Every upward cover path from src, grouped by endpoint.

    Returns {dst: [path, ...]} with each path a tuple of cover pairs;
    paths are listed depth-first, upper covers taken in element order.
    """
    pos = {e: i for i, e in enumerate(elements)}
    up = {e: [] for e in elements}
    for lo, hi in covers:
        up[lo].append(hi)
    for lst in up.values():
        lst.sort(key=pos.__getitem__)
    out = {}
    acc = []

    def walk(vertex):
        for nxt in up[vertex]:
            acc.append((vertex, nxt))
            out.setdefault(nxt, []).append(tuple(acc))
            walk(nxt)
            acc.pop()

    walk(src)
    return out


def path_relation_rows(elements, covers):
    """Parallel-path relations as integer rows over the cover columns.

    For every comparable pair with m cover paths, the m - 1 rows
    (first path) - (j-th path).  Exponential in general; small posets only.
    """
    covers = [tuple(c) for c in covers]
    col = {edge: c for c, edge in enumerate(covers)}
    rows = []
    for src in elements:
        for paths in cover_paths(elements, covers, src).values():
            for other in paths[1:]:
                row = [0] * len(covers)
                for edge in paths[0]:
                    row[col[edge]] += 1
                for edge in other:
                    row[col[edge]] -= 1
                rows.append(row)
    return rows


def uncored_homology(P, n: int):
    """(betti, torsion) of H_n of the order complex of P itself.

    Uses the dense transform-tracking Smith form on the boundary maps of
    the uncored complex, so it shares neither beat-point removal nor the
    sparse kernel with `posetderiv.homology`.
    """
    from posetderiv import boundary_matrix, order_complex, smith_normal_form

    K = order_complex(P, n + 1)
    rank_n = 0 if n == 0 else len(smith_normal_form(boundary_matrix(K, n)).divisors)
    divisors = smith_normal_form(boundary_matrix(K, n + 1)).divisors
    return K.count(n) - rank_n - len(divisors), tuple(d for d in divisors if d > 1)
