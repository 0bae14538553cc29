"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's divisors-only Smith
kernel and enumeration code paths: rank via fraction-free (Bareiss)
elimination, modular rank via straightforward Gaussian elimination, Smith
divisors via gcds of k x k minors, determinants via Bareiss, labeled
posets via brute force over all antisymmetric transitive relations,
parallel-path relations by listing every cover path, the earlier relation
rows by walking each upward cone forward, the exact ones by testing every
element against each pair of down-covers, relation, boundary
and incidence matrices by filling dense row-major buffers, order complexes by a
recursive depth-first chain walk, homology of the
whole order complex, never its core, through a dense Smith form with
transforms (the package's loop before it went sparse), linear systems
through the explicit transforms u and v,
connected components by breadth-first search on the cover graph,
induced crowns by testing every subset of elements, the crown walk's
order by the same stack walk with one bit test per element and bounds
read by scanning every element, beat points by
counting cover pairs, cores by rebuilding the poset after each deletion,
joins and meets by comparing every pair of bounds, a crown's join and
meet from the bounds of all its elements (not of its uppers or lowers
alone), strict pairs and comparisons read bit by bit off the order
masks, canonical forms by one round of colour refinement and then a
brute-force search over every cell-respecting element order,
automorphisms by trying every element order that keeps the relation,
and poset classes by extending every class with a new top above each
down-set and keeping one poset per canonical form; the children of
canonical augmentation by a canonical search of every tied child, twins
or not.

Dense-matrix helpers build and multiply ``IntegerMatrix`` values for the
tests: ``matrix`` from dense rows, ``identity``, ``zeros``, ``dense_rows``,
``matmul`` and ``matvec``.
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


def matrix(rows, cols: int | None = None):
    """IntegerMatrix of dense rows; ``cols`` counts the columns when there
    is no row."""
    from posetderiv import IntegerMatrix

    rows = [list(row) for row in rows]
    if rows:
        cols = len(rows[0])
    assert all(len(row) == cols for row in rows), "ragged rows"
    sparse = tuple(tuple((j, int(v)) for j, v in enumerate(row) if v) for row in rows)
    return IntegerMatrix(len(rows), cols or 0, sparse)


def identity(n: int):
    return matrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def zeros(rows: int, cols: int):
    return matrix([[0] * cols for _ in range(rows)], cols)


def dense_rows(a) -> list[list[int]]:
    return [a.row(i) for i in range(a.rows)]


def matmul(a, b):
    """a * b, walking the sparse rows of both."""
    assert a.cols == b.rows, "dimension mismatch"
    out = []
    for row in a.sparse_rows:
        acc = [0] * b.cols
        for t, x in row:
            for j, y in b.sparse_rows[t]:
                acc[j] += x * y
        out.append(acc)
    return matrix(out, b.cols)


def matvec(a, vec) -> list:
    assert len(vec) == a.cols, "dimension mismatch"
    return [sum(x * vec[j] for j, x in row) for row in a.sparse_rows]


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


def strict_pairs(P) -> list[tuple[str, str]]:
    """Every (x, y) with x < y, ordered by element indices."""
    return [
        (P.elements[i], P.elements[j])
        for i in range(P.n)
        for j in range(P.n)
        if P.above[i] >> j & 1
    ]


def is_less(P, x: str, y: str) -> bool:
    return bool(P.above[P.index(x)] >> P.index(y) & 1)


def crown_elements(c) -> frozenset[str]:
    return frozenset(c.lower) | frozenset(c.upper)


def cover_graph_components(P) -> tuple[int, ...]:
    """Component number of each element by breadth-first search on the
    undirected cover graph, numbered in order of each component's first
    element."""
    neighbours = {x: [] for x in P.elements}
    for a, b in P.covers:
        neighbours[a].append(b)
        neighbours[b].append(a)
    label: dict = {}
    count = 0
    for start in P.elements:
        if start in label:
            continue
        label[start] = count
        queue = [start]
        for x in queue:
            for y in neighbours[x]:
                if y not in label:
                    label[y] = count
                    queue.append(y)
        count += 1
    return tuple(label[x] for x in P.elements)


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


def cone_walk_parallel_pairs(P) -> list[tuple]:
    """Parallel pairs (source, target, path_a, path_b) of the earlier
    relation walk, one per extra incoming cover in each upward cone: a
    larger generating set of the same relations.

    ref(x, z) = ref(x, w0) + (w0, z) for the first down-cover w0 of z in
    {x} | cone(x), fixed before any z above it is reached; every later
    such down-cover w gives the pair with path_b = ref(x, w) + (w, z).
    Pairs come by source index, then target index, then w.
    """
    names = P.elements
    out = []
    for x in range(P.n):
        inside = P.above[x] | 1 << x
        ref = {x: ()}
        extra = {}
        for z in P.topological_order:
            if P.above[x] >> z & 1:
                w0, *rest = [w for w in P.down_covers[z] if inside >> w & 1]
                ref[z] = ref[w0] + ((names[w0], names[z]),)
                extra[z] = rest
        for z in sorted(extra):
            for w in extra[z]:
                out.append((names[x], names[z], ref[z], ref[w] + ((names[w], names[z]),)))
    return out


def pair_walk_parallel_pairs(P) -> list[tuple]:
    """The package's parallel pairs (source, target, path_a, path_b), by
    testing every element against each pair of down-covers.

    A pair w1 < w2 of down-covers of z, read off the cover list, gives a
    pair with source m for each common lower bound m of w1 and w2 that
    lies below no other.  Its paths are ref(m, w1) + (w1, z) and
    ref(m, w2) + (w2, z), where ref(m, v) = ref(m, u) + (u, v) for the
    first down-cover u of v in {m} | cone(m), built forward from m in
    topological order.  Pairs come by source index, then target index,
    then (w1, w2).
    """
    names = P.elements
    less = [[bool(P.above[a] >> b & 1) for b in range(P.n)] for a in range(P.n)]
    downs = [sorted(P.index(lo) for lo, hi in P.covers if hi == z) for z in names]
    sources = {}
    for z in range(P.n):
        for i, w1 in enumerate(downs[z]):
            for w2 in downs[z][i + 1 :]:
                common = [y for y in range(P.n) if less[y][w1] and less[y][w2]]
                for m in common:
                    if not any(less[m][y] for y in common):
                        sources.setdefault(m, []).append((z, w1, w2))
    out = []
    for m in sorted(sources):
        ref = {m: ()}
        for v in P.topological_order:
            if less[m][v]:
                u = next(u for u in downs[v] if u == m or less[m][u])
                ref[v] = ref[u] + ((names[u], names[v]),)
        for z, w1, w2 in sorted(sources[m]):
            path_a = ref[w1] + ((names[w1], names[z]),)
            out.append((names[m], names[z], path_a, ref[w2] + ((names[w2], names[z]),)))
    return out


def sparse_relation_rows(P, pairs) -> list[tuple]:
    """Sparse rows (column, +-1) of parallel pairs, in order: +1 on
    path_a, -1 on path_b, zeros dropped."""
    col = {edge: c for c, edge in enumerate(P.covers)}
    rows = []
    for _, _, path_a, path_b in pairs:
        acc = {col[edge]: 1 for edge in path_a}
        for edge in path_b:
            acc[col[edge]] = acc.get(col[edge], 0) - 1
        rows.append(tuple(sorted((c, v) for c, v in acc.items() if v)))
    return rows


def dense_relation_entries(P) -> tuple[int, ...]:
    """The consistency matrix of P as a dense row-major tuple, filled by
    r * cols + c arithmetic from ``pair_walk_parallel_pairs``."""
    col = {edge: c for c, edge in enumerate(P.covers)}
    ncols = len(P.covers)
    pairs = pair_walk_parallel_pairs(P)
    entries = [0] * (len(pairs) * ncols)
    for r, (_, _, path_a, path_b) in enumerate(pairs):
        for edge in path_a:
            entries[r * ncols + col[edge]] += 1
        for edge in path_b:
            entries[r * ncols + col[edge]] -= 1
    return tuple(entries)


def dense_boundary_entries(K, d: int) -> tuple[int, ...]:
    """The boundary map d of the order complex K as a dense row-major tuple:
    one row per (d-1)-simplex, one column per d-simplex."""
    faces = K.simplices_by_dim[d - 1]
    cells = K.simplices_by_dim[d]
    row_index = {s: i for i, s in enumerate(faces)}
    ncols = len(cells)
    entries = [0] * (len(faces) * ncols)
    for c, simplex in enumerate(cells):
        for i in range(d + 1):
            face = simplex[:i] + simplex[i + 1 :]
            entries[row_index[face] * ncols + c] = -1 if i % 2 else 1
    return tuple(entries)


def dense_incidence_entries(P) -> tuple[int, ...]:
    """Signed incidence of the cover edges of P as a dense row-major tuple:
    one row per cover, -1 at its lower and +1 at its upper element."""
    n = P.n
    entries = [0] * (len(P.covers) * n)
    for r, (lo, hi) in enumerate(P.covers):
        entries[r * n + P.index(lo)] = -1
        entries[r * n + P.index(hi)] = 1
    return tuple(entries)


def _dense_smith_loop(s: list[list[int]], rows: int, cols: int):
    """Diagonalize the leading rows x cols block of s in place.

    Each step moves an entry of least absolute value to the pivot, clears
    its row and column by division with remainder, and when a remainder
    survives repeats; when the pivot fails to divide some later entry,
    that row is added to the pivot row first.  Rows and columns before
    the pivot are already clear, so every operation starts at the pivot
    index.  Pivots come from the block only, but row operations run over
    whole rows and column operations over every row of s: columns right
    of the block and rows below it (which need only cols entries) follow
    the elimination.  Returns the nonzero diagonal, each entry dividing
    the next.
    """
    lim = min(rows, cols)
    t = 0
    while t < lim:
        pos = None
        val = 0
        for i in range(t, rows):
            row = s[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not val or abs(x) < val):
                    pos = (i, j)
                    val = abs(x)
                    if val == 1:
                        break
            if val == 1:
                break
        if not val:
            break
        pi, pj = pos
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
        if pj != t:
            for row in s:
                row[t], row[pj] = row[pj], row[t]
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]

        top = s[t]
        pivot = top[t]
        dirty = False
        for i in range(t + 1, rows):
            ri = s[i]
            if ri[t]:
                q = ri[t] // pivot
                if q:
                    for c in range(t, len(ri)):
                        ri[c] -= q * top[c]
                if ri[t]:
                    dirty = True
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // pivot
                if q:
                    for i in range(t, len(s)):
                        row = s[i]
                        row[j] -= q * row[t]
                if top[j]:
                    dirty = True
        if dirty:
            continue

        # a unit pivot divides everything, so only a larger one needs the scan
        off = 0 if pivot == 1 else next(
            (
                i
                for i in range(t + 1, rows)
                if any(x % pivot for x in s[i][t + 1 : cols])
            ),
            0,
        )
        if off:
            s[t] = [x + y for x, y in zip(top, s[off])]
            continue
        t += 1
    return tuple(s[i][i] for i in range(lim) if s[i][i] != 0)


def dense_smith_normal_form(a):
    """Smith form with its unimodular transforms by a dense loop on
    [a | I_m] over I_n: the right block ends as u and the bottom rows as v."""
    from posetderiv.linalg import SmithDecomposition

    m, n = a.rows, a.cols
    s = [x + e for x, e in zip(dense_rows(a), dense_rows(identity(m)))]
    s += dense_rows(identity(n))
    divisors = _dense_smith_loop(s, m, n)
    return SmithDecomposition(
        u=matrix([row[n:] for row in s[:m]], m),
        s=matrix([row[:n] for row in s[:m]], n),
        v=matrix(s[m:], n),
        divisors=divisors,
    )


def recursive_order_complex(P, max_dim: int):
    """(elements, simplices_by_dim) of the order complex of P, by a
    depth-first walk that recurses once per chain element and appends
    each chain to its dimension's list as it is reached."""
    by_dim = [[] for _ in range(max_dim + 1)]
    chain = []

    def extend(vertex):
        chain.append(vertex)
        by_dim[len(chain) - 1].append(tuple(chain))
        if len(chain) <= max_dim:
            for nxt in range(P.n):
                if P.above[vertex] >> nxt & 1:
                    extend(nxt)
        chain.pop()

    for start in range(P.n):
        extend(start)
    return P.elements, tuple(map(tuple, by_dim))


def uncored_homology(P, n: int):
    """(betti, torsion) of H_n of the order complex of P itself.

    Uses the dense transform-tracking Smith form on the boundary maps of
    the uncored complex, so it shares neither beat-point removal nor the
    sparse kernel with `posetderiv.homology`.
    """
    from posetderiv import boundary_matrix, order_complex

    K = order_complex(P, n + 1)
    rank_n = 0 if n == 0 else len(dense_smith_normal_form(boundary_matrix(K, n)).divisors)
    divisors = dense_smith_normal_form(boundary_matrix(K, n + 1)).divisors
    return K.count(n) - rank_n - len(divisors), tuple(d for d in divisors if d > 1)


def transform_solve(a, b, k, snf=dense_smith_normal_form):
    """One solution of a * x = b in k, or None, through explicit transforms.

    Takes u and v from `snf` (by default the dense oracle above), forms
    c = u * b, solves d_i * y_i = c_i one divisor at a time (c_i = 0
    beyond the rank) and returns v * y, so it builds the m x m transform
    that `posetderiv.solve_linear` never materializes.  Solutions are not
    unique: with `posetderiv.smith_normal_form`, which pivots in the same
    order as `solve_linear`, the two give the same x; with the dense
    oracle they agree on solvability.
    """
    from posetderiv.linalg import _scalar_solve

    dec = snf(a)
    c = matvec(dec.u, [k.normalize(x) for x in b])
    y = [0] * a.cols
    for i, ci in enumerate(c):
        if i < len(dec.divisors):
            y[i] = _scalar_solve(dec.divisors[i], ci, k)
            if y[i] is None:
                return None
        elif not k.is_zero(ci):
            return None
    return [k.normalize(v) for v in matvec(dec.v, y)]


def brute_force_crowns(P, max_n: int) -> list[frozenset]:
    """Element sets of the induced crowns of P with 2 <= k <= max_n.

    Tries every subset of 2k elements and keeps those whose induced order
    is one alternating 2k-cycle: k pairwise-incomparable lowers (the
    minimal elements of the subset), k pairwise-incomparable uppers, each
    element comparable to exactly two others, and the comparability graph
    connected.
    """
    lt = lambda i, j: P.above[i] >> j & 1
    found = []
    for k in range(2, max_n + 1):
        for subset in combinations(range(P.n), 2 * k):
            lowers = [x for x in subset if not any(lt(y, x) for y in subset)]
            uppers = [x for x in subset if x not in lowers]
            if len(lowers) != k or any(lt(a, b) for a in uppers for b in uppers):
                continue
            nbrs = {x: [y for y in subset if lt(x, y) or lt(y, x)] for x in subset}
            if any(len(nb) != 2 for nb in nbrs.values()):
                continue
            seen = {subset[0]}
            stack = [subset[0]]
            while stack:
                for y in nbrs[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == 2 * k:
                found.append(frozenset(P.elements[x] for x in subset))
    return found


def stack_walk_crowns(P, max_n: int = 6) -> list[tuple]:
    """(lower, upper, join, meet) of each induced crown with 2 <= n <= max_n,
    in the walk order ``find_crowns`` documents.

    The same depth-first stack walk from each anchor, without a bound memo:
    the bits of a mask are tested one element at a time, and each crown's
    join (meet) is the element of the AND of its uppers' up-sets (lowers'
    down-sets) whose own up-set (down-set) holds that AND, found by testing
    every element of it.
    """
    above, below, names, n = P.above, P.below, P.elements, P.n
    bits = lambda mask: [i for i in range(n) if mask >> i & 1]
    ups = [above[i] | 1 << i for i in range(n)]
    downs = [below[i] | 1 << i for i in range(n)]
    near = [ups[i] | downs[i] for i in range(n)]

    def bound(mask, sets):
        found = [i for i in bits(mask) if not mask & ~sets[i]]
        return names[found[0]] if found else None

    crowns = []
    for a in range(n):
        stack, after_a = [], -(2 << a)
        lower_ok = ~near[a] & after_a
        for v in bits(above[a]):
            if closers := above[a] & -(2 << v) & ~near[v]:
                for u in bits(below[v] & lower_ok):
                    stack.append((u, (names[a], names[u]), (names[v],),
                                  downs[a] & downs[u], ups[v], near[v], closers))
        while stack:
            u, lnames, unames, lbound, ubound, block, closers = stack.pop()
            up = above[u]
            if found := up & closers:
                meet = bound(lbound, downs)
                for v in bits(found):
                    crowns.append((lnames, (names[v],) + unames, bound(ubound & ups[v], ups), meet))
            if len(lnames) == max_n or not (closers := closers & ~up):
                continue
            middle = up & ~(block | above[a])
            block |= up
            lower_ok = ~block & after_a
            for v in bits(middle):
                if vclosers := closers & ~near[v]:
                    for w in bits(below[v] & lower_ok):
                        stack.append((w, lnames + (names[w],), unames + (names[v],),
                                      lbound & downs[w], ubound & ups[v], block | near[v],
                                      vclosers))
    return crowns


def crown_bounds(P, crowns) -> list[tuple[str | None, str | None]]:
    """(join, meet) of each crown's whole element set, or None each.

    The route ``find_crowns`` replaced: intersect the upper (lower) bounds
    of all 2n elements, then keep the bound that lies below (above) every
    other one.
    """
    out = []
    for c in crowns:
        ub = lb = (1 << P.n) - 1
        for x in c.lower + c.upper:
            i = P.index(x)
            ub &= P.above[i] | 1 << i
            lb &= P.below[i] | 1 << i
        least = [i for i in range(P.n) if ub >> i & 1 and not ub & ~(P.above[i] | 1 << i)]
        most = [i for i in range(P.n) if lb >> i & 1 and not lb & ~(P.below[i] | 1 << i)]
        out.append(tuple(P.elements[b[0]] if b else None for b in (least, most)))
    return out


def cover_count_beat_points(P) -> list[str]:
    """Elements with exactly one upper or exactly one lower cover in P.covers."""
    ups = {x: 0 for x in P.elements}
    downs = {x: 0 for x in P.elements}
    for lo, hi in P.covers:
        ups[lo] += 1
        downs[hi] += 1
    return [x for x in P.elements if ups[x] == 1 or downs[x] == 1]


def iterated_core(P):
    """Core of P, rebuilding the poset after every beat-point deletion.

    Deletes the first beat point in element order, recomputes the covers
    of the induced order on the rest by looking for an element strictly
    between each comparable pair, and repeats until no beat point is left.
    """
    from posetderiv import Poset

    while True:
        beats = cover_count_beat_points(P)
        if not beats:
            return P
        keep = [P.index(x) for x in P.elements if x != beats[0]]
        lt = lambda i, j: P.above[i] >> j & 1
        covers = [
            (P.elements[a], P.elements[b])
            for a in keep
            for b in keep
            if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in keep)
        ]
        P = Poset([P.elements[a] for a in keep], covers)


def brute_force_join_meet(P, subset):
    """(join, meet) of subset: the upper bound below every upper bound, and
    the lower bound above every lower bound, or None each."""
    idxs = [P.index(x) for x in subset]

    def le(a, b):
        return a == b or bool(P.above[a] >> b & 1)

    ubs = [u for u in range(P.n) if all(le(s, u) for s in idxs)]
    lbs = [u for u in range(P.n) if all(le(u, s) for s in idxs)]
    least = [u for u in ubs if all(le(u, v) for v in ubs)]
    greatest = [u for u in lbs if all(le(v, u) for v in lbs)]
    return (
        P.elements[least[0]] if least else None,
        P.elements[greatest[0]] if greatest else None,
    )


def brute_force_least_greatest(P, mask: int):
    """(least, greatest) element index of the bitmask set, or None each."""
    members = [i for i in range(P.n) if mask >> i & 1]
    least = [u for u in members if all(v == u or P.above[u] >> v & 1 for v in members)]
    greatest = [u for u in members if all(v == u or P.below[u] >> v & 1 for v in members)]
    return (least[0] if least else None), (greatest[0] if greatest else None)


def brute_force_canonical_form(P) -> bytes:
    """A complete isomorphism invariant of P, by exhaustive search.

    Colour refinement on the strict order fixes an ordered cell
    partition; a backtracking search over every element order that
    respects the cells selects the lexicographically least relation
    encoding.  Equal for two posets iff they are isomorphic, but its
    bytes differ from ``canonical_form``'s, and its cost grows with the
    factorial of the cell sizes.
    """
    n = P.n
    if n == 0:
        return b"0:"
    above = [P.above[i] for i in range(n)]
    below = [P.below[i] for i in range(n)]

    def bits(mask):
        return [i for i in range(n) if (mask >> i) & 1]

    color = [0] * n
    ncolors = 1
    while True:
        keys = [
            (
                color[i],
                tuple(sorted(color[j] for j in bits(below[i]))),
                tuple(sorted(color[j] for j in bits(above[i]))),
            )
            for i in range(n)
        ]
        uniq = sorted(set(keys))
        remap = {k: c for c, k in enumerate(uniq)}
        color = [remap[k] for k in keys]
        if len(uniq) == ncolors:
            break
        ncolors = len(uniq)

    cells: list[list[int]] = [[] for _ in range(ncolors)]
    for i in range(n):
        cells[color[i]].append(i)
    cell_at = [c for c, cell in enumerate(cells) for _ in cell]

    best: list[int] | None = None
    cur: list[int] = []
    placed: list[int] = []
    used = [False] * n

    def key_for(v):
        k = 0
        for t, p in enumerate(placed):
            k |= ((above[p] >> v) & 1) << (2 * t)
            k |= ((above[v] >> p) & 1) << (2 * t + 1)
        return k

    def rec(pos):
        nonlocal best
        if pos == n:
            if best is None or cur < best:
                best = cur[:]
            return
        groups: dict[int, list[int]] = {}
        for v in cells[cell_at[pos]]:
            if not used[v]:
                groups.setdefault(key_for(v), []).append(v)
        kmin = min(groups)
        if best is not None and cur == best[:pos] and kmin > best[pos]:
            return
        cur.append(kmin)
        for v in groups[kmin]:
            used[v] = True
            placed.append(v)
            rec(pos + 1)
            placed.pop()
            used[v] = False
        cur.pop()

    rec(0)
    return (f"{n}:" + ",".join(map(str, best))).encode("ascii")


def brute_force_automorphisms(P) -> list[tuple[int, ...]]:
    """Every automorphism of P as an image tuple, by backtracking over all
    element orders that keep the strict order among the elements placed."""
    n = P.n
    above = [P.above[i] for i in range(n)]
    out = []
    image: list[int] = []

    def rec(i):
        if i == n:
            out.append(tuple(image))
            return
        for v in range(n):
            if v in image:
                continue
            if all(
                ((above[i] >> j) & 1) == ((above[v] >> w) & 1)
                and ((above[j] >> i) & 1) == ((above[w] >> v) & 1)
                for j, w in enumerate(image)
            ):
                image.append(v)
                rec(i + 1)
                image.pop()

    rec(0)
    return out


def dedup_enumerate_posets(n: int):
    """One poset per class on n elements, sorted by canonical form.

    Every class on k - 1 elements gets a new top above each down-set,
    every candidate gets a canonical form, and the first candidate of
    each form is kept.  The package's generator before it deduplicated
    by canonical augmentation.
    """
    from posetderiv import Poset, canonical_form

    level = {b"1:0": Poset(["x0"], [])}
    for k in range(1, n):
        nxt = {}
        for P in level.values():
            for mask in range(1 << k):
                if any(P.below[j] & ~mask for j in range(k) if (mask >> j) & 1):
                    continue
                new = f"x{k}"
                tops = [
                    (P.elements[j], new)
                    for j in range(k)
                    if (mask >> j) & 1 and not P.above[j] & mask
                ]
                Q = Poset(P.elements + (new,), P.covers + tuple(tops))
                nxt.setdefault(canonical_form(Q), Q)
        level = nxt
    for form in sorted(level):
        yield level[form]


def tie_search_children(P):
    """The children of P accepted by canonical deletion of a maximal element,
    deciding every tie by the child's canonical search and orbits.

    The package's ``_children`` before it settled a tie whose rivals are
    all twins of the new top without a search.
    """
    from posetderiv.poset import _canonical_search, _merge_orbits, _minimal
    from posetderiv.survey import _down_sets, _extend, _top_key

    n = P.n
    above, below = P.above, P.below
    gens = _canonical_search(above, below)[2] if n else []
    maximal = [(i, _top_key(below[i], P.down_covers[i], below)) for i in range(n) if not above[i]]
    for d in _down_sets(P, gens):
        tops = _minimal(d, above)
        key = _top_key(d, tops, below)
        others = [(i, k) for i, k in maximal if not d >> i & 1]
        if any(k > key for _, k in others):
            continue
        rivals = [i for i, k in others if k == key]
        child = _extend(P, d, tops)
        if rivals:
            _, lab, child_gens = _canonical_search(child.above, child.below)
            orbit: dict[int, list[int]] = {}
            for g, moved in child_gens:
                _merge_orbits(orbit, g, moved)
            rivals.append(n)
            first = min(rivals, key=lab.index)
            if not orbit.get(n, (1 << n,))[0] >> first & 1:
                continue
        yield child
