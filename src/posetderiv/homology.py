"""Order complexes of posets, exact integral simplicial homology, and H1
of a poset from its parent's in the sweep (the Mayer-Vietoris rule)."""

from __future__ import annotations

from collections import namedtuple

# poset.core is looked up at each call: this module may first load while
# bench/tracing.py has it wrapped, and a name bound then keeps the wrapper.
from . import poset
from .errors import DimensionError, SizeLimitError
from .linalg import IntegerMatrix, smith_divisors
from .poset import Poset, _bits, shape_stats

_CHAIN_LIMIT = 900  # elements in a chain; see order_complex


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

    @classmethod
    def from_h1(cls, betti1: int, torsion1: tuple[int, ...]) -> ConclusiveVerdict:
        """The verdict of H1 = Z^betti1 plus the cyclic groups of torsion1:
        the one place its flags are derived."""
        torsion_free = not torsion1
        return cls(betti1, torsion1, betti1 == 0 and torsion_free, betti1 >= 1, torsion_free)


def order_complex(P: Poset, max_dim: int) -> OrderComplex:
    """All chains of P with at most max_dim + 1 elements, by dimension.

    Each dimension extends every chain of the one below by each element
    above its top, ascending, so each comes out sorted lexicographically.
    The chain limit is _CHAIN_LIMIT elements: from that dimension up, a
    taller poset raises SizeLimitError before anything is built, since a
    chain of k elements alone spans 2**k - 1 simplices."""
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    if max_dim >= _CHAIN_LIMIT and shape_stats(P).height > _CHAIN_LIMIT:
        raise SizeLimitError(
            f"chains up to dimension {max_dim} pass the chain limit of {_CHAIN_LIMIT} elements"
        )
    above = P.above
    layer = [(v,) for v in range(P.n)]
    layers = [layer]
    for _ in range(max_dim):
        layer = [c + (v,) for c in layer for v in _bits(above[c[-1]])]
        layers.append(layer)
    return OrderComplex(P.elements, tuple(map(tuple, layers)))


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
    zero map, d_1 has rank V minus its own count of components); torsion
    coefficients are the Smith divisors of d_{n+1} that exceed 1, already
    in divisibility order.  A complex on c vertices has no simplex of
    dimension c or more, so for n >= c the group is 0 and nothing is built.
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
    elif n == 1:
        # d_1 has rank V - C, C the comparability graph's components.  This
        # walk counts them, not poset._components: derivations'
        # der_pot_from_divisors, behind relation_h1, keeps that union-find,
        # and a count both routes shared could be off in both, unseen.
        full = (1 << C.n) - 1
        rank_n = C.n - _components_meeting(full, full, C.above, C.below)
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
    for x in P.topological_order:
        mu[x] = -1 - sum(mu[y] for y in _bits(P.below[x]))
    return -sum(mu)


def classify(P: Poset) -> ConclusiveVerdict:
    h1 = homology(P, 1)
    return ConclusiveVerdict.from_h1(h1.betti, h1.torsion)


def _components_meeting(seeds: int, mask: int, above, below) -> int:
    """The number of components of the subposet on ``mask`` that meet ``seeds``."""
    count = 0
    while seeds:
        component = todo = seeds & -seeds
        while todo:
            x = todo.bit_length() - 1
            todo ^= 1 << x
            grown = (above[x] | below[x]) & mask & ~component
            component |= grown
            todo |= grown
        seeds &= ~component
        count += 1
    return count


def _new_top_h1(parent: ConclusiveVerdict, P: Poset) -> tuple | None:
    """(betti1, torsion1) of P from its parent's verdict, or None.

    P is its parent Q plus a new top t above a down-set d of Q, so K(P) is
    K(Q) with the cone over K(d) glued on along K(d), and the reduced
    Mayer-Vietoris sequence gives H1(P) = coker(H1(K(d)) -> H1(K(Q))) plus
    Z^(c(d) - c_Q(d)), where c(d) counts d's components and c_Q(d) the
    components of Q that d meets.  Two cases need no complex: a soluble
    parent, where H1(P) is that free part, and H1(K(d)) = 0, where H1(P)
    is H1(Q) plus it.  H1(K(d)) vanishes when t has at most one down-cover
    (d is empty or a cone; t is isolated or a beat point, Stong 1966, and
    the free part is 0), and when d's Hasse diagram is a forest, since its
    edges generate the edge-path group (Barmak, LNM 2032, 2011).
    """
    if len(P.down_covers[-1]) <= 1:
        return parent.betti1, parent.torsion1
    d, above, below = P.below[-1], P.above, P.below
    components = _components_meeting(d, d, above, below)
    if not parent.soluble:
        # d's Hasse diagram is a forest iff it has |d| - c(d) covers
        if sum(len(P.down_covers[x]) for x in _bits(d)) != d.bit_count() - components:
            return None
    # t is P's last element, so Q's elements are the bits below it
    free = components - _components_meeting(d, (1 << P.n - 1) - 1, above, below)
    return parent.betti1 + free, parent.torsion1
