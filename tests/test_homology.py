import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetderiv import (
    DimensionError,
    Poset,
    RATIONALS,
    beat_points,
    boundary_matrix,
    classify,
    consistency_matrix,
    enumerate_posets,
    euler_characteristic,
    full_order_complex,
    homology,
    order_complex,
    prime_field,
    rank_over,
    routes_agree,
    shape_stats,
)
from posetderiv import fixtures as fx
from posetderiv.homology import euler_by_moebius

from oracles import random_poset_covers, uncored_homology


def all_posets_up_to(n):
    for k in range(1, n + 1):
        yield from enumerate_posets(k)


# -- order complex -------------------------------------------------------


def test_complex_antichain():
    K = order_complex(fx.antichain(3), 2)
    assert [len(s) for s in K.simplices_by_dim] == [3, 0, 0]


def test_complex_rp2(rp2):
    K = order_complex(rp2, 2)
    assert [len(s) for s in K.simplices_by_dim] == [13, 36, 24]


def test_complex_chain3():
    K = order_complex(fx.chain(3), 2)
    assert [len(s) for s in K.simplices_by_dim] == [3, 3, 1]


def test_complex_chains_increase_in_poset_order():
    K = order_complex(fx.chain(3), 2)
    assert K.simplices_by_dim[2] == ((0, 1, 2),)
    assert K.simplices_by_dim[1] == ((0, 1), (0, 2), (1, 2))


# -- boundary matrices ------------------------------------------------------


def test_boundary_single_edge():
    P = Poset(["x", "y"], [("x", "y")])
    d1 = boundary_matrix(order_complex(P, 1), 1)
    assert d1.to_rows() == [[-1], [1]]


def test_boundary_composition_vanishes(rp2):
    K = order_complex(rp2, 2)
    d1, d2 = boundary_matrix(K, 1), boundary_matrix(K, 2)
    assert (d1.rows, d1.cols) == (13, 36)
    assert (d2.rows, d2.cols) == (36, 24)
    assert all(v == 0 for v in d1.mul(d2).entries)


def test_boundary_composition_random():
    rng = random.Random(13)
    for _ in range(25):
        elements, covers = random_poset_covers(rng, 8)
        P = Poset(elements, covers)
        K = full_order_complex(P)
        for d in range(2, K.max_dim + 1):
            lower = boundary_matrix(K, d - 1)
            upper = boundary_matrix(K, d)
            assert all(v == 0 for v in lower.mul(upper).entries)


def test_boundary_dimension_guard():
    K = order_complex(fx.chain(2), 1)
    with pytest.raises(DimensionError):
        boundary_matrix(K, 0)
    with pytest.raises(DimensionError):
        boundary_matrix(K, 2)


# -- homology -----------------------------------------------------------


def test_homology_crown2():
    h = homology(fx.crown(2), 1)
    assert (h.betti, h.torsion) == (1, ())


def test_homology_rp2(rp2):
    h = homology(rp2, 1)
    assert (h.betti, h.torsion) == (0, (2,))


def test_homology_of_rp2_ordinal_sum_rp2():
    # The order complex of an ordinal sum is the join of the two order
    # complexes, here RP^2 * RP^2.  With H~_1(RP^2) = Z/2 and no other
    # reduced homology, the join formula gives H~_3 = Z/2 (x) Z/2 = Z/2,
    # H~_4 = Tor(Z/2, Z/2) = Z/2 and nothing else.  The 26 elements have
    # no beat point, so the whole complex reaches the kernel.
    A = fx.rp2()
    lowers, uppers = {a for a, _ in A.covers}, {b for _, b in A.covers}
    tops = [e for e in A.elements if e not in lowers]
    bottoms = [e for e in A.elements if e not in uppers]
    P = Poset(
        [f"lo:{e}" for e in A.elements] + [f"hi:{e}" for e in A.elements],
        [(f"{side}:{a}", f"{side}:{b}") for side in ("lo", "hi") for a, b in A.covers]
        + [(f"lo:{a}", f"hi:{b}") for a in tops for b in bottoms],
    )
    assert (P.n, beat_points(P)) == (26, [])
    groups = [(h.betti, h.torsion) for h in (homology(P, n) for n in range(1, 5))]
    assert groups == [(0, ()), (0, ()), (0, (2,)), (0, (2,))]
    # d4 is 1920 x 1728 with 8640 nonzeros: a dense build holds 3.3M
    # cells, the sparse rows only the nonzeros
    tracemalloc.start()
    try:
        homology(P, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_homology_chain3():
    h = homology(fx.chain(3), 1)
    assert (h.betti, h.torsion) == (0, ())


def test_betti0_counts_components():
    for P in [fx.antichain(4), fx.chain(3), fx.crown(2), fx.rp2(), fx.s5()]:
        assert homology(P, 0).betti == shape_stats(P).component_count
    rng = random.Random(3)
    for _ in range(20):
        elements, covers = random_poset_covers(rng, 7)
        P = Poset(elements, covers)
        h0 = homology(P, 0)
        assert h0.betti == shape_stats(P).component_count
        assert h0.torsion == ()


def test_homology_isomorphism_invariant(rp2):
    rng = random.Random(8)
    names = list(rp2.elements)
    perm = names[:]
    rng.shuffle(perm)
    rename = dict(zip(names, perm))
    Q = Poset(
        [rename[e] for e in rp2.elements],
        [(rename[a], rename[b]) for a, b in rp2.covers],
    )
    assert homology(Q, 1) == homology(rp2, 1)


def test_graph_complexes_have_no_torsion():
    # posets of height <= 2 have one-dimensional order complexes
    for P in all_posets_up_to(6):
        if shape_stats(P).height <= 2:
            assert homology(P, 1).torsion == ()


def chain_product(*lengths):
    # product of chains: grid a x b for two lengths, B_k for k lengths of 2
    points = [()]
    for n in lengths:
        points = [p + (i,) for p in points for i in range(n)]
    name = "_".join
    covers = [
        (name(map(str, p)), name(map(str, p[:k] + (p[k] + 1,) + p[k + 1 :])))
        for p in points
        for k in range(len(p))
        if p[k] + 1 < lengths[k]
    ]
    return Poset([name(map(str, p)) for p in points], covers)


def test_cored_homology_matches_uncored_oracle():
    named = [fx.rp2(), fx.s5(), fx.crown(3), chain_product(3, 3), chain_product(2, 2, 2)]
    for P in list(all_posets_up_to(6)) + named:
        for n in (0, 1, 2):
            h = homology(P, n)
            assert (h.betti, h.torsion) == uncored_homology(P, n), (P, n)


# -- euler characteristic --------------------------------------------------


def test_euler_point():
    assert euler_characteristic(full_order_complex(fx.chain(1))) == 1


def test_euler_rp2(rp2):
    assert euler_characteristic(full_order_complex(rp2)) == 13 - 36 + 24 == 1


def test_euler_crown2():
    assert euler_characteristic(full_order_complex(fx.crown(2))) == 0


def test_euler_s5(s5):
    assert euler_characteristic(full_order_complex(s5)) == 0


def test_euler_by_moebius_matches_full_complex_on_small_classes():
    named = [fx.rp2(), fx.s5(), fx.crown(5), fx.chain(10), fx.antichain(4), fx.fence(7)]
    for P in list(all_posets_up_to(6)) + named:
        assert euler_by_moebius(P) == euler_characteristic(full_order_complex(P)), P


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True))
def test_euler_by_moebius_matches_full_complex(rng):
    elements, covers = random_poset_covers(rng, 11)
    rng.shuffle(elements)
    P = Poset(elements, covers)
    assert euler_by_moebius(P) == euler_characteristic(full_order_complex(P))



@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.randoms(use_true_random=True), st.integers(1, 3))
def test_order_complex_lists_each_dimension_in_increasing_order(rng, max_dim):
    elements, covers = random_poset_covers(rng, 12)
    rng.shuffle(elements)
    K = order_complex(Poset(elements, covers), max_dim)
    for simplices in K.simplices_by_dim:
        assert all(a < b for a, b in zip(simplices, simplices[1:]))


# -- classification ----------------------------------------------------------


def test_classify_rp2(rp2):
    v = classify(rp2)
    assert not v.soluble and not v.defective_uct and not v.conclusive_torsion_free


def test_classify_crown3():
    v = classify(fx.crown(3))
    assert v.defective_uct and v.conclusive_torsion_free and not v.soluble
    assert v.betti1 == 1


def test_classify_chain5():
    assert classify(fx.chain(5)).soluble


def test_classify_booleans_are_consistent():
    for P in all_posets_up_to(5):
        v = classify(P)
        if v.soluble:
            assert v.conclusive_torsion_free and not v.defective_uct


# -- cross-module dimension identity -----------------------------------------


def test_routes_agree_counts_killed_torsion(rp2):
    v = classify(rp2)
    assert routes_agree(v, 12, 12, RATIONALS)
    assert routes_agree(v, 13, 12, prime_field(2))
    assert not routes_agree(v, 12, 12, prime_field(2))
    assert routes_agree(v, 12, 12, prime_field(3))


def test_rank_homology_identity_small():
    fields = (RATIONALS, prime_field(2), prime_field(3))
    for P in all_posets_up_to(5):
        st = shape_stats(P)
        v = classify(P)
        m = consistency_matrix(P).matrix
        for k in fields:
            der = st.edge_count - rank_over(m, k)
            lhs = der - (st.vertex_count - st.component_count)
            p = k.n
            rhs = v.betti1 + (
                0 if p is None else sum(1 for t in v.torsion1 if t % p == 0)
            )
            assert lhs == rhs


def test_order_complex_leaves_no_reference_cycle():
    import gc

    P = chain_product(4, 5)
    gc.collect()
    gc.disable()
    try:
        order_complex(P, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()
