"""Order complexes of posets and exact integral simplicial homology."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .linalg import IntegerMatrix, Ring, _field_modulus, smith_divisors
from .poset import Poset, _bits, core, shape_stats


@dataclass(frozen=True)
class OrderComplex:
    """Chains of a poset grouped by dimension.

    ``simplices_by_dim[d]`` lists the (d+1)-element chains as tuples of
    element indices, each tuple increasing in the poset order, the list
    sorted lexicographically by element position.  The tuple always has
    ``max_dim + 1`` slots; slots beyond the top dimension are empty.
    """

    elements: tuple[str, ...]
    simplices_by_dim: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def max_dim(self) -> int:
        return len(self.simplices_by_dim) - 1

    def count(self, d: int) -> int:
        if 0 <= d <= self.max_dim:
            return len(self.simplices_by_dim[d])
        return 0


@dataclass(frozen=True)
class HomologySummary:
    """Free rank and torsion of one integral homology group."""

    dim: int
    betti: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class ConclusiveVerdict:
    """Degree-1 homology classification of a poset.

    ``soluble`` means H1 vanishes entirely; ``defective_uct`` means the
    free rank is positive, which by universal coefficients forces
    nonvanishing first cohomology over every nontrivial ring;
    ``conclusive_torsion_free`` records the torsion-free test on its own.
    The three flags are reported separately because defectiveness and
    torsion can coexist when the free rank is positive.
    """

    betti1: int
    torsion1: tuple[int, ...]
    soluble: bool
    defective_uct: bool
    conclusive_torsion_free: bool


def order_complex(P: Poset, max_dim: int) -> OrderComplex:
    """All chains of P with at most max_dim + 1 elements, by dimension."""
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
    return OrderComplex(
        elements=P.elements,
        simplices_by_dim=tuple(tuple(sorted(lst)) for lst in by_dim),
    )


def full_order_complex(P: Poset) -> OrderComplex:
    """The complete order complex, built up to the height of the poset."""
    h = shape_stats(P).height
    return order_complex(P, max(1, h - 1))


def boundary_matrix(K: OrderComplex, d: int) -> IntegerMatrix:
    """Signed boundary map from d-simplices to (d-1)-simplices.

    Rows follow the stored (d-1)-simplex order, columns the d-simplex
    order; omitting the i-th vertex contributes (-1)**i.
    """
    if d < 1 or d > K.max_dim:
        raise DimensionError(f"no boundary in dimension {d}")
    faces = K.simplices_by_dim[d - 1]
    cells = K.simplices_by_dim[d]
    row_index = {s: i for i, s in enumerate(faces)}
    ncols = len(cells)
    entries = [0] * (len(faces) * ncols)
    for cidx, simplex in enumerate(cells):
        for i in range(d + 1):
            face = simplex[:i] + simplex[i + 1 :]
            entries[row_index[face] * ncols + cidx] = -1 if i % 2 else 1
    return IntegerMatrix(len(faces), ncols, tuple(entries))


def homology(P: Poset, n: int) -> HomologySummary:
    """Integral homology of the order complex in dimension n.

    The complex is built on core(P): removing a beat point is a strong
    deformation retraction of the order complex (Stong 1966; Barmak,
    LNM 2032, 2011), so every homology group is unchanged.
    betti = dim ker d_n - rank d_{n+1} over the rationals (d_0 is the
    zero map); torsion coefficients are the Smith divisors of d_{n+1}
    that exceed 1, already in divisibility order.
    """
    if n < 0:
        raise ValueError("dimension must be >= 0")
    K = order_complex(core(P), n + 1)
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
