"""Order complexes of posets and exact integral simplicial homology."""

from __future__ import annotations

from collections import namedtuple

# poset.core is looked up at each call: this module may first load while
# bench/tracing.py has it wrapped, and a name bound then keeps the wrapper.
from . import poset
from .derivations import der_pot_from_divisors
from .errors import DimensionError
from .linalg import IntegerMatrix, Ring, _field_modulus, smith_divisors
from .poset import Poset, _bits, shape_stats


class OrderComplex(namedtuple("OrderComplex", "elements simplices_by_dim")):
    """Chains of a poset grouped by dimension.

    ``simplices_by_dim[d]`` lists the (d+1)-element chains as tuples of
    element indices, each tuple increasing in the poset order, the list
    sorted lexicographically by element position.  The tuple always has
    ``max_dim + 1`` slots; slots beyond the top dimension are empty.
    """

    __slots__ = ()

    @property
    def max_dim(self) -> int:
        return len(self.simplices_by_dim) - 1

    def count(self, d: int) -> int:
        if 0 <= d <= self.max_dim:
            return len(self.simplices_by_dim[d])
        return 0


class HomologySummary(namedtuple("HomologySummary", "dim betti torsion")):
    """Free rank and torsion of one integral homology group."""

    __slots__ = ()


class ConclusiveVerdict(
    namedtuple(
        "ConclusiveVerdict",
        "betti1 torsion1 soluble defective_uct conclusive_torsion_free",
    )
):
    """Degree-1 homology classification of a poset.

    ``soluble`` means H1 vanishes entirely; ``defective_uct`` means the
    free rank is positive, which by universal coefficients forces
    nonvanishing first cohomology over every nontrivial ring;
    ``conclusive_torsion_free`` records the torsion-free test on its own.
    The three flags are reported separately because defectiveness and
    torsion can coexist when the free rank is positive.
    """

    __slots__ = ()


def order_complex(P: Poset, max_dim: int) -> OrderComplex:
    """All chains of P with at most max_dim + 1 elements, by dimension.

    The walk takes starts and children in ascending order, so each
    dimension comes out sorted lexicographically."""
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(max_dim + 1)]
    chain: list[int] = []

    def extend(vertex):
        chain.append(vertex)
        by_dim[len(chain) - 1].append(tuple(chain))
        if len(chain) <= max_dim:
            for nxt in _bits(P.above_mask(vertex)):
                extend(nxt)
        chain.pop()

    for start in range(P.n):
        extend(start)
    del extend  # it holds itself: free the walk's state now, not at a later collection
    return OrderComplex(
        elements=P.elements,
        simplices_by_dim=tuple(map(tuple, by_dim)),
    )


def full_order_complex(P: Poset) -> OrderComplex:
    """The complete order complex, built up to the height of the poset."""
    h = shape_stats(P).height
    return order_complex(P, max(1, h - 1))


def boundary_matrix(K: OrderComplex, d: int) -> IntegerMatrix:
    """Signed boundary map from d-simplices to (d-1)-simplices.

    Rows follow the stored (d-1)-simplex order, columns the d-simplex
    order; omitting the i-th vertex contributes (-1)**i.  The cells are
    walked in column order, so each face's row comes out sorted.
    """
    if d < 1 or d > K.max_dim:
        raise DimensionError(f"no boundary in dimension {d}")
    faces = K.simplices_by_dim[d - 1]
    cells = K.simplices_by_dim[d]
    rows: list[list[tuple[int, int]]] = [[] for _ in faces]
    row_of = dict(zip(faces, rows))
    for cidx, simplex in enumerate(cells):
        for i in range(d + 1):
            row_of[simplex[:i] + simplex[i + 1 :]].append((cidx, -1 if i % 2 else 1))
    return IntegerMatrix._make((len(faces), len(cells), tuple(map(tuple, rows))))


def homology(P: Poset, n: int) -> HomologySummary:
    """Integral homology of the order complex in dimension n.

    The complex is built on core(P): removing a beat point is a strong
    deformation retraction of the order complex (Stong 1966; Barmak,
    LNM 2032, 2011), so every homology group is unchanged.
    betti = dim ker d_n - rank d_{n+1} over the rationals (d_0 is the
    zero map); torsion coefficients are the Smith divisors of d_{n+1}
    that exceed 1, already in divisibility order.  A complex on c
    vertices has no simplex of dimension c or more, so for n >= c the
    group is 0 and nothing is built.
    """
    if n < 0:
        raise DimensionError(f"homology dimension must be >= 0, got {n}")
    C = poset.core(P)
    if n >= C.n:
        return HomologySummary(dim=n, betti=0, torsion=())
    K = order_complex(C, n + 1)
    chains_n = K.count(n)
    if n == 0:
        rank_n = 0
    else:
        rank_n = len(smith_divisors(boundary_matrix(K, n)))
    kernel_dim = chains_n - rank_n
    divisors = smith_divisors(boundary_matrix(K, n + 1))
    return HomologySummary(
        dim=n,
        betti=kernel_dim - len(divisors),
        torsion=tuple(d for d in divisors if d > 1),
    )


def euler_characteristic(K: OrderComplex) -> int:
    """Alternating sum of simplex counts; needs the complete complex."""
    return sum(
        (-1) ** d * len(simps) for d, simps in enumerate(K.simplices_by_dim)
    )


def euler_by_moebius(P: Poset) -> int:
    """Euler characteristic of the order complex of P, building no complex.

    With a bottom 0 adjoined, chi = -sum over x of mu(0, x), where
    mu(0, x) = -1 - sum over y < x of mu(0, y) (Hall's theorem: the
    reduced Euler characteristic is mu of the bounded poset).  One pass
    over the ``below`` masks in topological order.
    """
    mu = [0] * P.n
    for x in P.topological_order():
        mu[x] = -1 - sum(mu[y] for y in _bits(P.below_mask(x)))
    return -sum(mu)


def classify(P: Poset) -> ConclusiveVerdict:
    h1 = homology(P, 1)
    torsion_free = not h1.torsion
    return ConclusiveVerdict(
        betti1=h1.betti,
        torsion1=h1.torsion,
        soluble=h1.betti == 0 and torsion_free,
        defective_uct=h1.betti >= 1,
        conclusive_torsion_free=torsion_free,
    )


def routes_agree(verdict: ConclusiveVerdict, der: int, pot: int, k: Ring) -> bool:
    """The cross-route identity over the field k.

    der - pot from the relation matrix must equal betti1 plus the number
    of H1 torsion coefficients that the characteristic of k divides, by
    universal coefficients.
    """
    p = _field_modulus(k)
    killed = 0 if p is None else sum(1 for t in verdict.torsion1 if t % p == 0)
    return der - pot == verdict.betti1 + killed


def identity_checks(P: Poset, verdict: ConclusiveVerdict, divisors, rings):
    """(ring, der, pot, agrees) for each ring: der and pot from the relation
    divisors, agrees by routes_agree against the homology verdict."""
    out = []
    for ring in rings:
        der, pot = der_pot_from_divisors(P, divisors, ring)
        out.append((ring, der, pot, routes_agree(verdict, der, pot, ring)))
    return out
