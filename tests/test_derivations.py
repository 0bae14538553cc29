import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from posetderiv import (
    CycleWalk,
    IntegerMatrix,
    NotComparableError,
    Poset,
    RATIONALS,
    circulation,
    consistency_matrix,
    der_pot_dims,
    enumerate_posets,
    from_cover_values,
    has_outer_derivation,
    is_potential,
    mod_ring,
    outer_witness,
    parallel_pairs,
    prime_field,
    rank_over,
    shape_stats,
    smith_normal_form,
)
from posetderiv import fixtures as fx
from posetderiv.derivations import relation_rows_into
from posetderiv.report import poset_from_json

from conftest import FIXTURE_DIR
from oracles import (
    cone_walk_parallel_pairs,
    cone_walk_relation_rows,
    dense_relation_entries,
    is_forest,
    modp_rank,
    path_relation_rows,
    random_poset_covers,
)
from test_poset import random_posets


def all_posets_up_to(n):
    for k in range(1, n + 1):
        yield from enumerate_posets(k)


# -- parallel pairs and the consistency matrix -------------------------------


def test_parallel_pairs_diamond(diamond):
    pairs = parallel_pairs(diamond)
    assert len(pairs) == 1
    pair = pairs[0]
    assert (pair.source, pair.target) == ("x", "y")
    assert pair.path_a == (("x", "a"), ("a", "y"))
    assert pair.path_b == (("x", "b"), ("b", "y"))


def test_parallel_pairs_crown2():
    assert parallel_pairs(fx.crown(2)) == []


def test_parallel_pairs_rp2(rp2):
    pairs = parallel_pairs(rp2)
    assert len(pairs) == 12
    endpoints = {(p.source, p.target) for p in pairs}
    assert endpoints == {
        (f"n{i}", f"m{j}") for i in (1, 2, 3) for j in (1, 2, 3, 4)
    }
    for p in pairs:
        assert len(p.path_a) == 2 and len(p.path_b) == 2


def test_rp2_rows_are_the_displayed_relations(rp2):
    # each row compares the two length-2 routes n_i -> a_k -> m_j, k < l
    cm = consistency_matrix(rp2)
    col = {edge: c for c, edge in enumerate(cm.column_edges)}
    for pair, row_start in zip(parallel_pairs(rp2), range(0, 12 * 24, 24)):
        row = cm.matrix.entries[row_start : row_start + 24]
        a_k = pair.path_a[0][1]
        a_l = pair.path_b[0][1]
        assert a_k < a_l
        expected = [0] * 24
        expected[col[(pair.source, a_k)]] = 1
        expected[col[(a_k, pair.target)]] = 1
        expected[col[(pair.source, a_l)]] = -1
        expected[col[(a_l, pair.target)]] = -1
        assert list(row) == expected


def test_consistency_matrix_shapes(rp2, diamond):
    assert consistency_matrix(fx.crown(2)).matrix.rows == 0
    assert consistency_matrix(fx.crown(2)).matrix.cols == 4
    dm = consistency_matrix(diamond)
    assert (dm.matrix.rows, dm.matrix.cols) == (1, 4)
    assert sorted(dm.matrix.row(0)) == [-1, -1, 1, 1]
    assert (consistency_matrix(rp2).matrix.rows, consistency_matrix(rp2).matrix.cols) == (12, 24)


def _stacked_diamonds(levels):
    # x0 < {a0,b0} < x1 < {a1,b1} < x2 ...; 2**levels monotone paths
    elements = []
    covers = []
    for i in range(levels):
        elements += [f"x{i}", f"a{i}", f"b{i}"]
        covers += [
            (f"x{i}", f"a{i}"),
            (f"x{i}", f"b{i}"),
            (f"a{i}", f"x{i + 1}"),
            (f"b{i}", f"x{i + 1}"),
        ]
    elements.append(f"x{levels}")
    return Poset(elements, covers)


def test_stacked_diamonds_relations_without_path_limit():
    # 16384 cover paths bottom to top, yet one row per extra incoming cover
    P = _stacked_diamonds(14)
    assert len(parallel_pairs(P)) == 287
    assert der_pot_dims(P, RATIONALS) == (42, 42)


def test_tree_relations_match_path_oracle(rp2, s5):
    # same Z-lattice as all parallel-path relations, never more rows
    for P in [*all_posets_up_to(6), rp2, s5, _stacked_diamonds(3)]:
        tree = consistency_matrix(P).matrix
        rows = path_relation_rows(P.elements, P.covers)
        assert tree.rows <= len(rows)
        oracle = IntegerMatrix.from_rows(rows, cols=len(P.covers))
        assert (
            smith_normal_form(tree).divisors == smith_normal_form(oracle).divisors
        )
        # the rows into each target partition the matrix
        into = [row for z in range(P.n) for row in relation_rows_into(P, z)]
        assert sorted(into) == sorted(tree.sparse_rows)


def _assert_cone_walk_rows(P):
    # exact pairs and rows, in order: the witness scan depends on row order
    assert parallel_pairs(P) == cone_walk_parallel_pairs(P)
    assert list(consistency_matrix(P).matrix.sparse_rows) == cone_walk_relation_rows(P)


def test_pairs_and_rows_equal_the_cone_walk_oracle():
    files = [json.loads(path.read_text()) for path in sorted(FIXTURE_DIR.glob("*.json"))]
    fixtures = [poset_from_json(obj) for obj in files if "elements" in obj]
    assert len(fixtures) == 5
    for P in [*all_posets_up_to(6), *fixtures, _stacked_diamonds(3), _stacked_diamonds(14)]:
        _assert_cone_walk_rows(P)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_posets(max_size=10))
def test_pairs_and_rows_equal_the_cone_walk_oracle_on_relabelled_posets(P):
    _assert_cone_walk_rows(P)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_posets(max_size=10))
def test_rows_into_each_target_partition_the_matrix_on_relabelled_posets(P):
    into = [row for z in range(P.n) for row in relation_rows_into(P, z)]
    assert sorted(into) == sorted(consistency_matrix(P).matrix.sparse_rows)


# -- dimensions and the rank criterion ----------------------------------------


def test_der_pot_dims_diamond(diamond):
    for k in (RATIONALS, prime_field(2), prime_field(3)):
        assert der_pot_dims(diamond, k) == (3, 3)


def test_der_pot_dims_crown2():
    for k in (RATIONALS, prime_field(2)):
        assert der_pot_dims(fx.crown(2), k) == (4, 3)


def test_der_pot_dims_rp2(rp2):
    assert der_pot_dims(rp2, prime_field(2)) == (13, 12)
    assert der_pot_dims(rp2, RATIONALS) == (12, 12)


def test_outer_existence(rp2):
    for k in (RATIONALS, prime_field(2), prime_field(3)):
        assert has_outer_derivation(fx.crown(2), k)
    assert has_outer_derivation(rp2, prime_field(2))
    for k in (RATIONALS, prime_field(3), prime_field(5), prime_field(7)):
        assert not has_outer_derivation(rp2, k)
    for k in (RATIONALS, prime_field(2)):
        assert not has_outer_derivation(fx.chain(4), k)


def test_rank_monotone_in_characteristic():
    for P in all_posets_up_to(5):
        m = consistency_matrix(P).matrix
        rq = rank_over(m, RATIONALS)
        for p in (2, 3):
            assert rank_over(m, prime_field(p)) <= rq


# -- transitive functions --------------------------------------------------


def test_zero_cover_values_extend(rp2):
    f = from_cover_values(rp2, mod_ring(2), {e: 0 for e in rp2.covers})
    assert f is not None
    assert all(v == 0 for v in f.values.values())
    assert len(f.values) == sum(1 for _ in rp2.strict_pairs())


def test_table1_extends_and_is_outer(rp2):
    f = from_cover_values(rp2, mod_ring(2), fx.table1_cover_values())
    assert f is not None
    assert f.values[("n1", "m2")] == 1  # 1 + 0 through a1
    assert is_potential(f) is None


def test_inconsistent_diamond_values(diamond):
    values = {("x", "a"): 1, ("a", "y"): 0, ("x", "b"): 0, ("b", "y"): 0}
    assert from_cover_values(diamond, mod_ring(2), values) is None


def test_extension_agrees_with_matrix_route():
    # direct cone-walk consistency == matrix product vanishing
    rng = random.Random(17)
    rings = (mod_ring(6), prime_field(3), RATIONALS)
    for P in all_posets_up_to(5):
        cm = consistency_matrix(P)
        for ring in rings:
            for _ in range(3):
                vec = [rng.randint(0, 5) for _ in P.covers]
                values = dict(zip(P.covers, vec))
                f = from_cover_values(P, ring, values)
                product = cm.matrix.mul_vector(vec)
                matrix_ok = all(ring.is_zero(v) for v in product)
                assert (f is not None) == matrix_ok


def test_is_potential_zero(rp2):
    f = from_cover_values(rp2, mod_ring(3), {e: 0 for e in rp2.covers})
    phi = is_potential(f)
    assert phi == {x: 0 for x in rp2.elements}


def test_is_potential_chain_rationals():
    P = fx.chain(3)
    f = from_cover_values(
        P, RATIONALS, {("c1", "c2"): 2, ("c2", "c3"): 3}
    )
    phi = is_potential(f)
    assert phi == {"c1": Fraction(0), "c2": Fraction(2), "c3": Fraction(5)}


def test_potentials_gauge_fixed_per_component():
    P = Poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    f = from_cover_values(P, mod_ring(5), {("a", "b"): 2, ("c", "d"): 3})
    phi = is_potential(f)
    assert phi == {"a": 0, "b": 2, "c": 0, "d": 3}


def test_random_potentials_are_recognized():
    rng = random.Random(29)
    for P in all_posets_up_to(5):
        for ring in (mod_ring(4), prime_field(5), RATIONALS):
            vertex = {x: ring.normalize(rng.randint(0, 9)) for x in P.elements}
            values = {
                (lo, hi): ring.sub(vertex[hi], vertex[lo]) for lo, hi in P.covers
            }
            f = from_cover_values(P, ring, values)
            assert f is not None  # row soundness: potentials satisfy all relations
            assert is_potential(f) is not None


# -- circulations ------------------------------------------------------------


def test_cycle_walk_validation():
    with pytest.raises(ValueError):
        CycleWalk(("a",))
    with pytest.raises(ValueError):
        CycleWalk(("a", "b"))
    with pytest.raises(ValueError):
        CycleWalk(("a", "a"))


def test_circulation_forward_backward_cancels(rp2):
    f = from_cover_values(rp2, mod_ring(2), fx.table1_cover_values())
    walk = CycleWalk(("n1", "a1", "m1", "a1", "n1"))
    assert circulation(f, walk) == 0


def test_circulation_table1_cycles(rp2):
    f = from_cover_values(rp2, mod_ring(2), fx.table1_cover_values())
    c1 = CycleWalk(("a1", "m1", "a6", "m4", "a3", "m2", "a1"))
    assert circulation(f, c1) == 1


def test_circulation_not_comparable(rp2):
    f = from_cover_values(rp2, mod_ring(2), fx.table1_cover_values())
    with pytest.raises(NotComparableError):
        circulation(f, CycleWalk(("a1", "a2", "a1")))


def test_potential_circulations_vanish():
    rng = random.Random(31)
    for P in all_posets_up_to(5):
        ring = mod_ring(6)
        vertex = {x: rng.randint(0, 5) for x in P.elements}
        values = {
            (lo, hi): ring.sub(vertex[hi], vertex[lo]) for lo, hi in P.covers
        }
        f = from_cover_values(P, ring, values)
        names = list(P.elements)
        for _ in range(5):
            walk = _random_closed_walk(P, names, rng)
            if walk is not None:
                assert circulation(f, walk) == 0


def _random_closed_walk(P, names, rng, tries=30):
    from posetderiv import Relation, leq

    start = rng.choice(names)
    walk = [start]
    for _ in range(rng.randint(2, 6)):
        nbrs = [
            y
            for y in names
            if y != walk[-1]
            and leq(P, walk[-1], y) in (Relation.LESS, Relation.GREATER)
        ]
        if not nbrs:
            return None
        walk.append(rng.choice(nbrs))
    back = [
        y
        for y in (start,)
        if walk[-1] != y
        and leq(P, walk[-1], y) in (Relation.LESS, Relation.GREATER)
    ]
    if not back:
        return None
    walk.append(start)
    return CycleWalk(tuple(walk))


# -- outer witnesses ----------------------------------------------------------


def test_outer_witness_rp2(rp2):
    w = outer_witness(rp2, 2)
    assert w is not None
    assert w.ring.label() == "mod:2"
    assert is_potential(w) is None
    cycles = [
        CycleWalk(("a1", "m1", "a6", "m4", "a3", "m2", "a1")),
        CycleWalk(("a1", "m1", "a2", "m3", "a4", "m2", "a1")),
        CycleWalk(("a5", "m4", "a6", "m1", "a2", "m3", "a5")),
    ]
    assert any(circulation(w, c) != 0 for c in cycles)


def test_outer_witness_rp2_p3(rp2):
    assert outer_witness(rp2, 3) is None


def test_outer_witness_crown2():
    P = fx.crown(2)
    w = outer_witness(P, 2)
    assert w is not None
    walk = CycleWalk(("x1", "y1", "x2", "y2", "x1"))
    assert circulation(w, walk) == 1


def test_outer_witness_on_every_small_poset():
    # a witness exists iff der > pot over GF(p), extends from its cover
    # values and is not potential; der comes from the dense oracle rank
    witnesses = 0
    for P in all_posets_up_to(6):
        entries = dense_relation_entries(P)
        e = len(P.covers)
        rows = [entries[r : r + e] for r in range(0, len(entries), e or 1)]
        for p in (2, 3):
            w = outer_witness(P, p)
            outer = e - modp_rank(rows, p) > P.n - P.component_count
            assert (w is not None) == outer
            if w is None:
                continue
            witnesses += 1
            covers = {edge: w.values[edge] for edge in P.covers}
            assert from_cover_values(P, w.ring, covers).values == w.values
            assert is_potential(w) is None
    assert witnesses == 160


# -- structural corollaries --------------------------------------------------


def test_no_parallel_paths_outer_iff_not_forest():
    for P in all_posets_up_to(6):
        if parallel_pairs(P):
            continue
        idx_edges = [(P.index(a), P.index(b)) for a, b in P.covers]
        forest = is_forest(P.n, idx_edges)
        assert has_outer_derivation(P, RATIONALS) == (not forest)


def test_fences_are_forests_and_soluble():
    for n in range(1, 8):
        P = fx.fence(n)
        assert parallel_pairs(P) == []
        assert not has_outer_derivation(P, RATIONALS)


def test_crowns_are_cyclic_and_defective():
    for n in range(2, 6):
        P = fx.crown(n)
        assert parallel_pairs(P) == []
        assert has_outer_derivation(P, RATIONALS)


def test_rp2_upper_half_cycle_space(rp2):
    # induced subposet on middle and top layers: 10 vertices, 12 edges
    names = [e for e in rp2.elements if e.startswith(("a", "m"))]
    covers = [c for c in rp2.covers if c[0].startswith("a")]
    upper = Poset(names, covers)
    st = shape_stats(upper)
    assert (st.vertex_count, st.edge_count, st.component_count) == (10, 12, 1)
    assert st.edge_count - st.vertex_count + st.component_count == 3
