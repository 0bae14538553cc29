import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetderiv import (
    CycleError,
    DuplicateError,
    NotReducedError,
    Poset,
    SizeLimitError,
    UnknownElementError,
    beat_points,
    canonical_form,
    core,
    find_crowns,
    shape_stats,
    transitive_reduction,
)
from posetderiv import fixtures as fx
from posetderiv.report import poset_from_json
from posetderiv.poset import _canonical_search, _least, _merge_orbits

from oracles import (
    all_labeled_strict_orders,
    brute_force_automorphisms,
    brute_force_canonical_form,
    brute_force_crowns,
    brute_force_join_meet,
    brute_force_least_greatest,
    cover_count_beat_points,
    cover_graph_components,
    crown_bounds,
    crown_elements,
    is_forest,
    is_less,
    iterated_core,
    random_poset_covers,
    stack_walk_crowns,
    strict_pairs,
)


def all_posets_up_to(n):
    from posetderiv import enumerate_posets

    for k in range(1, n + 1):
        yield from enumerate_posets(k)


# -- construction -----------------------------------------------------------


def test_single_point():
    P = Poset(["a"], [])
    assert P.n == 1
    assert P.covers == ()


def test_rp2_counts(rp2):
    assert rp2.n == 13
    assert len(rp2.covers) == 24


def test_redundant_cover_rejected():
    with pytest.raises(NotReducedError):
        Poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(CycleError):
        Poset(["x"], [("x", "x")])


def test_duplicates_rejected():
    with pytest.raises(DuplicateError):
        Poset(["x", "x"], [])
    with pytest.raises(DuplicateError):
        Poset(["x", "y"], [("x", "y"), ("x", "y")])


def test_unknown_element_rejected():
    with pytest.raises(UnknownElementError):
        Poset(["x"], [("x", "q")])


def test_transitive_reduction_utility():
    covers = transitive_reduction(
        ["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z"), ("x", "z")]
    )
    assert covers == [("x", "y"), ("y", "z")]
    with pytest.raises(CycleError):
        transitive_reduction(["x", "y"], [("x", "y"), ("y", "x")])



@pytest.mark.parametrize(
    "elements, covers, error, message",
    [
        (["x", "x"], [], DuplicateError, "duplicate element 'x'"),
        (["x"], [("q", "x")], UnknownElementError, "unknown element 'q' in covers"),
        (["x"], [("x", "q")], UnknownElementError, "unknown element 'q' in covers"),
        (["x"], [("x", "x")], CycleError, "self-pair on 'x'"),
    ],
)
def test_poset_and_transitive_reduction_check_cover_lists_alike(
    elements, covers, error, message
):
    for build in (Poset, transitive_reduction):
        with pytest.raises(error) as info:
            build(elements, covers)
        assert str(info.value) == message


# -- order queries ----------------------------------------------------------


def test_closure_is_idempotent_and_strict():
    rng = random.Random(11)
    for _ in range(25):
        elements, covers = random_poset_covers(rng, 7)
        P = Poset(elements, covers)
        lt = set(strict_pairs(P))
        for x, y in lt:
            assert x != y
            for z, w in lt:
                if y == z:
                    assert (x, w) in lt


# -- shape stats -------------------------------------------------------------


def test_shape_stats_antichain():
    st = shape_stats(fx.antichain(3))
    assert (st.vertex_count, st.edge_count, st.component_count) == (3, 0, 3)
    assert (st.height, st.minimal_count, st.maximal_count, st.middle_count) == (1, 3, 3, 0)


def test_shape_stats_rp2(rp2):
    st = shape_stats(rp2)
    assert (st.vertex_count, st.edge_count, st.component_count) == (13, 24, 1)
    assert (st.height, st.minimal_count, st.maximal_count, st.middle_count) == (3, 3, 4, 6)


def test_shape_stats_crown2():
    st = shape_stats(fx.crown(2))
    assert (st.vertex_count, st.edge_count, st.component_count) == (4, 4, 1)
    assert (st.height, st.minimal_count, st.maximal_count, st.middle_count) == (2, 2, 2, 0)


def test_isolated_elements_count_twice():
    st = shape_stats(fx.antichain(2))
    assert st.minimal_count + st.maximal_count + st.middle_count == st.vertex_count + 2


def test_edge_count_vs_components():
    # E >= V - C, equality exactly on forests
    for P in all_posets_up_to(6):
        st = shape_stats(P)
        idx_edges = [(P.index(a), P.index(b)) for a, b in P.covers]
        forest = is_forest(P.n, idx_edges)
        assert st.edge_count >= st.vertex_count - st.component_count
        assert (
            st.edge_count == st.vertex_count - st.component_count
        ) == forest


# -- beat points and cores ---------------------------------------------------


def test_beat_points_chain():
    assert beat_points(fx.chain(3)) == ["c1", "c2", "c3"]


def test_beat_points_rp2(rp2):
    assert beat_points(rp2) == []


def test_beat_points_crown2():
    assert beat_points(fx.crown(2)) == []


def test_core_chain_collapses():
    for n in (1, 2, 5, 8):
        assert core(fx.chain(n)).n == 1


def test_core_rp2_is_itself(rp2):
    assert core(rp2) is rp2 or core(rp2) == rp2


def test_core_diamond_collapses(diamond):
    assert core(diamond).n == 1


def test_core_idempotent_and_beat_free():
    rng = random.Random(23)
    for _ in range(30):
        elements, covers = random_poset_covers(rng, 8)
        C = core(Poset(elements, covers))
        assert beat_points(C) == []
        assert core(C) == C


# -- trusted construction ------------------------------------------------


def _chain_product(*lengths):
    # grid a x b for two lengths, B_k for k lengths of 2
    name = lambda p: "_".join(map(str, p))
    points = list(product(*map(range, lengths)))
    covers = [
        (name(p), name(p[:k] + (p[k] + 1,) + p[k + 1 :]))
        for p in points
        for k in range(len(p))
        if p[k] + 1 < lengths[k]
    ]
    return Poset(list(map(name, points)), covers)


def _assert_fields_validated(P):
    Q = Poset(P.elements, P.covers)
    for slot in Poset.__slots__:
        assert getattr(P, slot) == getattr(Q, slot), (slot, P.covers)


def test_trusted_children_and_cores_equal_validated_posets():
    from posetderiv.survey import _extend, _minimal

    rng = random.Random(17)
    named = [fx.fixture_poset(name) for name in ("rp2", "s5", "diamond", "fence:6")]
    named += [_chain_product(3, 3), _chain_product(4, 5), _chain_product(2, 2, 2, 2, 2)]
    named += [_relabeled(fx.crown(8), rng)]
    # beat points scattered among the survivors: the core renumbers several runs
    named += [_relabeled(_disjoint_union(fx.crown(3), fx.chain(3), fx.s5(), fx.fence(5)), rng)]
    for P in named:
        _assert_fields_validated(core(P))
        full = (1 << P.n) - 1
        for down_set in [0, full] + [below | 1 << i for i, below in enumerate(P.below)]:
            _assert_fields_validated(_extend(P, down_set, _minimal(down_set, P.above)))
    # every enumerated class is a trusted child
    for P in all_posets_up_to(7):
        _assert_fields_validated(P)
        _assert_fields_validated(core(P))


# -- crowns -------------------------------------------------------------


def _crown_is_induced(P, crown):
    n = crown.n
    elems = list(crown.lower) + list(crown.upper)
    assert len(set(elems)) == 2 * n
    expected = set()
    for i in range(n):
        expected.add((crown.lower[i], crown.upper[i]))
        expected.add((crown.lower[i], crown.upper[(i + 1) % n]))
    actual = {(x, y) for x in elems for y in elems if is_less(P, x, y)}
    return actual == expected


def test_crown_fixture_is_its_own_crown():
    P = fx.crown(2)
    crowns = find_crowns(P)
    assert len(crowns) == 1
    assert crowns[0].n == 2
    assert _crown_is_induced(P, crowns[0])


def test_diamond_has_no_crowns(diamond):
    assert find_crowns(diamond) == []


def test_rp2_crowns(rp2):
    crowns = find_crowns(rp2)
    assert len(crowns) == 54  # regression: includes every induced 2- and 3-crown
    assert any(
        set(c.lower) == {"n1", "n2"} and set(c.upper) == {"a2", "a3"}
        for c in crowns
    )
    for crown in crowns:
        assert _crown_is_induced(rp2, crown)
    assert {crown_elements(c) for c in crowns} == set(brute_force_crowns(rp2, 6))


def test_crown_fixtures_found_at_every_size():
    for n in range(2, 6):
        P = fx.crown(n)
        crowns = [c for c in find_crowns(P, max_n=6) if c.n == n]
        assert len(crowns) == 1
        assert _crown_is_induced(P, crowns[0])


def test_crowns_validated_on_small_posets():
    count = 0
    for P in all_posets_up_to(6):
        for crown in find_crowns(P, max_n=3):
            assert _crown_is_induced(P, crown)
            count += 1
    assert count > 0


def test_crowns_unique_up_to_symmetry():
    for P in all_posets_up_to(6):
        crowns = find_crowns(P, max_n=3)
        assert len({crown_elements(c) for c in crowns}) == len(crowns)


@st.composite
def random_posets(draw, max_size=9):
    """Random posets on up to max_size elements, listed in random order.

    A crown on 2k elements (k = 0, 2, 3 or 4) is planted and random pairs
    are added with a random density, each oriented by a random rank that
    puts the crown's lowers below its uppers and the other elements
    anywhere; transitive_reduction then turns the relation into covers.
    Added pairs may break the crown.
    """
    rng = draw(st.randoms(use_true_random=True))
    k = rng.choice((0, 2, 3, 4))
    n = rng.randint(max(1, 2 * k), max_size)
    density = rng.choice((0.05, 0.1, 0.2, 0.35))
    rank = [
        rng.uniform(-1, 0) if i < k else rng.uniform(1, 2) if i < 2 * k else rng.uniform(-1, 2)
        for i in range(n)
    ]
    pairs = {(i, k + i) for i in range(k)} | {(i, k + (i + 1) % k) for i in range(k)}
    pairs |= {
        (i, j)
        for i in range(n)
        for j in range(n)
        if rank[i] < rank[j] and rng.random() < density
    }
    elements = [f"e{i}" for i in range(n)]
    rng.shuffle(elements)
    relation = [(elements[i], elements[j]) for i, j in pairs]
    return Poset(elements, transitive_reduction(elements, relation))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets())
def test_find_crowns_matches_brute_force(P):
    for max_n in range(2, 5):
        found = [crown_elements(c) for c in find_crowns(P, max_n)]
        assert len(set(found)) == len(found)
        assert set(found) == set(brute_force_crowns(P, max_n))


def test_crown_join_and_meet_on_small_posets():
    # a crown's join is the join of its uppers and its meet the meet of its
    # lowers, since every lower lies below an upper
    bounded = 0
    for P in all_posets_up_to(6):
        for c in find_crowns(P):
            assert (c.join, c.meet) == brute_force_join_meet(P, crown_elements(c))
            bounded += c.join is not None or c.meet is not None
    assert bounded > 0  # some crowns do have a join or a meet


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets())
def test_crown_join_and_meet_match_oracles(P):
    crowns = find_crowns(P)
    assert [(c.join, c.meet) for c in crowns] == crown_bounds(P, crowns)
    for c in crowns:
        assert (c.join, c.meet) == brute_force_join_meet(P, crown_elements(c))


def test_find_crowns_keeps_the_stack_walk_order():
    # the same records in the same order, bounds included
    for P in [*all_posets_up_to(6), _chain_product(2, 2, 2, 2), _chain_product(2, 2, 2, 2, 2)]:
        assert find_crowns(P) == stack_walk_crowns(P)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets())
def test_find_crowns_keeps_the_stack_walk_order_on_random_posets(P):
    for max_n in range(2, 5):
        assert find_crowns(P, max_n) == stack_walk_crowns(P, max_n)


def test_crown_bounds_match_oracle_on_bench_sized_posets():
    # layered posets shaped like the bench lattice inputs: not lattices, so
    # bare crowns occur beside crowns with a join or a meet
    from test_cli import _layered  # test_cli imports this module

    shape = lambda cs: sorted((c.n, c.join is None, c.meet is None) for c in cs)
    kinds = set()
    for seed, sizes in enumerate(((5, 5, 5), (4, 6, 6, 4), (5, 6, 6, 5), (6, 6, 6, 6)) * 2):
        P = poset_from_json(_layered(seed, sizes))
        crowns = find_crowns(P)
        assert [(c.join, c.meet) for c in crowns] == crown_bounds(P, crowns)
        assert len({crown_elements(c) for c in crowns}) == len(crowns)
        assert shape(find_crowns(_relabeled(P, random.Random(seed)))) == shape(crowns)
        kinds |= {(c.join is None, c.meet is None) for c in crowns}
    assert kinds >= {(True, True), (False, True), (True, False)}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets(max_size=12), st.randoms(use_true_random=True))
def test_minimal_element_rule_matches_oracles(P, rng):
    # covers, beat points and cores come from poset._minimal
    C, D = core(P), iterated_core(P)
    assert (C.elements, C.covers) == (D.elements, D.covers)
    # the remapped masks give every field the validated poset has
    V = Poset(C.elements, C.covers)
    for field in ("above", "below", "down_covers", "topological_order", "component_ids", "component_count"):
        assert getattr(C, field) == getattr(V, field), field
    assert beat_points(P) == cover_count_beat_points(P)
    if not beat_points(P):
        assert C is P
    pairs = strict_pairs(P)
    rng.shuffle(pairs)
    assert transitive_reduction(P.elements, pairs) == list(P.covers)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(random_posets(max_size=12), st.randoms(use_true_random=True))
def test_least_and_greatest_match_brute_force(P, rng):
    # random_posets lists elements in random order, so labelings are
    # topological only by chance
    for _ in range(8):
        mask = rng.getrandbits(P.n)
        expected = brute_force_least_greatest(P, mask)
        assert (_least(mask, P.below, P.above), _least(mask, P.above, P.below)) == expected


# -- order fields -------------------------------------------------------


def _assert_order_fields(P):
    position = {i: k for k, i in enumerate(P.topological_order)}
    assert sorted(position) == list(range(P.n))
    for x, y in strict_pairs(P):
        assert position[P.index(x)] < position[P.index(y)], (x, y, P.covers)
    # the documented rule: ascending down-set size, ties by index
    by_size = sorted(range(P.n), key=lambda i: (P.below[i].bit_count(), i))
    assert list(P.topological_order) == by_size
    assert P.component_ids == cover_graph_components(P)
    assert P.component_count == len(set(P.component_ids))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_posets(max_size=12), st.randoms(use_true_random=True))
def test_order_fields_on_relabelled_posets(P, rng):
    _assert_order_fields(P)
    _assert_order_fields(_relabeled(P, rng))
    _assert_order_fields(core(P))


def test_order_fields_on_fixtures_and_small_classes():
    named = [fx.fixture_poset(name) for name in ("rp2", "s5", "diamond", "crown:3", "fence:6")]
    named += [fx.chain(4), fx.antichain(3), Poset((), ())]
    named += [_disjoint_union(fx.crown(2), fx.chain(3), fx.antichain(2), fx.fence(4))]
    for P in named:
        _assert_order_fields(P)
    for P in all_posets_up_to(6):
        _assert_order_fields(P)
        _assert_order_fields(core(P))


# -- canonical form ------------------------------------------------------


def test_canonical_form_isomorphic_chains():
    a = Poset(["x", "y"], [("x", "y")])
    b = Poset(["p", "q"], [("p", "q")])
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_distinguishes():
    two_chain = Poset(["x", "y"], [("x", "y")])
    assert canonical_form(two_chain) != canonical_form(fx.antichain(2))


def test_canonical_form_rp2_relabeled(rp2):
    rng = random.Random(99)
    names = list(rp2.elements)
    for _ in range(10):
        perm = names[:]
        rng.shuffle(perm)
        rename = dict(zip(names, perm))
        relabeled = Poset(
            [rename[e] for e in rp2.elements],
            [(rename[a], rename[b]) for a, b in rp2.covers],
        )
        assert canonical_form(relabeled) == canonical_form(rp2)


def test_canonical_form_permutation_invariance_exhaustive():
    # every permutation of every poset class with at most 6 elements
    for P in all_posets_up_to(6):
        base = canonical_form(P)
        names = list(P.elements)
        for perm in permutations(range(P.n)):
            rename = {names[i]: names[perm[i]] for i in range(P.n)}
            Q = Poset(
                sorted(rename.values()),
                [(rename[a], rename[b]) for a, b in P.covers],
            )
            assert canonical_form(Q) == base


def test_canonical_form_separates_labeled_classes():
    # all strict orders on 4 labeled points fall into exactly 16 classes
    forms = set()
    seen = 0
    for _, covers in all_labeled_strict_orders(4):
        elements = [f"v{i}" for i in range(4)]
        P = Poset(elements, [(f"v{i}", f"v{j}") for i, j in covers])
        forms.add(canonical_form(P))
        seen += 1
    assert seen == 219
    assert len(forms) == 16


@st.composite
def symmetric_posets(draw, max_size=12):
    """Random posets on up to max_size elements with planted symmetric parts.

    One to three groups are each either stacked above everything before
    them or set beside it.  A group is one to three disjoint equal copies
    of an antichain, a chain, a crown or a small random poset.  Sometimes a
    few random pairs, oriented by index (a linear extension), then break
    part of the symmetry.  Elements get random names in random order.
    """
    rng = draw(st.randoms(use_true_random=True))
    n = 0
    pairs = set()
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("antichain", "chain", "crown", "random"))
        if kind == "antichain":
            size, block = rng.randint(1, 4), []
        elif kind == "chain":
            size = rng.randint(2, 3)
            block = [(i, i + 1) for i in range(size - 1)]
        elif kind == "crown":
            k = rng.randint(2, 4)
            size = 2 * k
            block = [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)]
        else:
            size = rng.randint(2, 4)
            block = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.4]
        copies = min(rng.randint(1, 3), (max_size - n) // size)
        start = n
        for _ in range(copies):
            pairs |= {(n + i, n + j) for i, j in block}
            n += size
        if start and rng.random() < 0.5:
            pairs |= {(i, j) for i in range(start) for j in range(start, n)}
    n = max(n, 1)
    if n > 1 and rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    elements = names[:]
    rng.shuffle(elements)
    relation = [(names[i], names[j]) for i, j in pairs]
    return Poset(elements, transitive_reduction(elements, relation))


def _relabeled(P, rng):
    new = [f"r{i}" for i in range(P.n)]
    rng.shuffle(new)
    rename = dict(zip(P.elements, new))
    elements = [rename[e] for e in P.elements]
    rng.shuffle(elements)
    return Poset(elements, [(rename[a], rename[b]) for a, b in P.covers])


def _dual(P):
    return Poset(P.elements, [(b, a) for a, b in P.covers])


def _decoded(form):
    # "n:m0,m1,..." where m_k is the bitmask of the elements above element k
    count, _, body = form.decode("ascii").partition(":")
    masks = [int(m) for m in body.split(",")] if body else []
    elements = [f"v{i}" for i in range(int(count))]
    relation = [
        (elements[i], elements[j])
        for i, mask in enumerate(masks)
        for j in range(len(masks))
        if mask >> j & 1
    ]
    return Poset(elements, transitive_reduction(elements, relation))


def _disjoint_union(*posets):
    elements = [f"{k}.{e}" for k, P in enumerate(posets) for e in P.elements]
    covers = [(f"{k}.{a}", f"{k}.{b}") for k, P in enumerate(posets) for a, b in P.covers]
    return Poset(elements, covers)


def test_canonical_form_where_refinement_mixes_orbits():
    # every lower of a crown covers two uppers and every upper two lowers,
    # so refinement leaves all lowers of these unions in one cell, whatever
    # crown they lie in; only the search tells the orbits apart
    rng = random.Random(7)
    unions = [
        _disjoint_union(fx.crown(6)),
        _disjoint_union(fx.crown(3), fx.crown(3)),
        _disjoint_union(fx.crown(4), fx.crown(2)),
        _disjoint_union(fx.crown(2), fx.crown(2), fx.crown(2)),
        _disjoint_union(fx.crown(2), fx.crown(3), fx.crown(6)),
        _disjoint_union(fx.crown(5), fx.crown(3), fx.crown(2)),
    ]
    forms = [canonical_form(P) for P in unions]
    assert len(set(forms)) == len(forms)
    for P, form in zip(unions, forms):
        for _ in range(20):
            assert canonical_form(_relabeled(P, rng)) == form


def _incidence_poset(adjacent):
    # the vertices of a graph on Z4 x Z4 below its edges
    vertices = [(i, j) for i in range(4) for j in range(4)]
    edges = [(u, v) for u in vertices for v in vertices if u < v and adjacent(u, v)]
    elements = [str(w) for w in vertices] + [f"{u}-{v}" for u, v in edges]
    covers = [(str(w), f"{u}-{v}") for u, v in edges for w in (u, v)]
    return Poset(elements, covers)


def test_canonical_form_prunes_only_by_automorphisms_fixing_the_prefix():
    # the 4x4 rook's graph and the Shrikhande graph are both SRG(16, 6, 2, 2),
    # so refinement cannot tell their incidence posets apart; pruning by
    # orbits of automorphisms that move the prefix gives several forms here
    def rook(u, v):
        return u[0] == v[0] or u[1] == v[1]

    def shrikhande(u, v):
        d = ((v[0] - u[0]) % 4, (v[1] - u[1]) % 4)
        return d in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    P = _disjoint_union(_incidence_poset(rook), _incidence_poset(shrikhande))
    assert P.n == 128
    rng = random.Random(11)
    form = canonical_form(P)
    assert {canonical_form(_relabeled(P, rng)) for _ in range(30)} == {form}


def test_canonical_bytes_of_the_classes_up_to_seven_elements_are_pinned():
    # pins each certificate, the labelings that settle enumeration's ties
    # (through the representatives) and the yield order; a faster search
    # must keep all three
    import hashlib

    digest = hashlib.sha256()
    for P in all_posets_up_to(7):
        digest.update(canonical_form(P) + b" " + repr(P.covers).encode() + b"\n")
    assert digest.hexdigest() == "a9b8bc37616fcb1aef8467fcc0ee9389ceb8bd8660eb51bd560c15858525f323"


def _rook_shrikhande_union():
    def rook(u, v):
        return u[0] == v[0] or u[1] == v[1]

    def shrikhande(u, v):
        return ((v[0] - u[0]) % 4, (v[1] - u[1]) % 4) in {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

    return _disjoint_union(_incidence_poset(rook), _incidence_poset(shrikhande))


def test_canonical_search_cost_is_flat_across_relabelings(monkeypatch):
    # the search tree's size must not hinge on the labeling: a labeling whose
    # first leaves sit in an unlucky branch must still find the automorphisms
    # that prune the rest, by comparing each later leaf with every earlier one
    import posetderiv.poset as poset

    P = _rook_shrikhande_union()
    refine = poset._refine
    calls = []

    def counted(*args):
        calls[-1] += 1
        return refine(*args)

    monkeypatch.setattr(poset, "_refine", counted)
    for seed in range(10):
        calls.append(0)
        canonical_form(_relabeled(P, random.Random(seed)))
    assert max(calls) <= 1.5 * min(calls), calls


def test_canonical_search_orbit_work_is_quadratic_on_an_antichain(monkeypatch):
    # each node merges the generators that fix its prefix into its own orbit
    # table; rewriting a whole orbit on every merge made this cubic in n
    import posetderiv.poset as poset

    bits = poset._bits
    steps = [0]

    def counted(mask):
        for i in bits(mask):
            steps[0] += 1
            yield i

    n = 200
    P = fx.antichain(n)
    monkeypatch.setattr(poset, "_bits", counted)
    canonical_form(P)
    assert steps[0] <= 2 * n * n, steps


def test_canonical_search_takes_one_path_on_an_antichain(monkeypatch):
    # all its elements are twins: a node explores one child and skips its
    # twins, where the search proper explored each twin to find the swap
    import posetderiv.poset as poset

    refine = poset._refine
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return refine(*args)

    n = 200
    monkeypatch.setattr(poset, "_refine", counted)
    canonical_form(fx.antichain(n))
    assert calls[0] <= 2 * n, calls


def _orbit_partition(items, gens, act):
    # the orbits of ``items`` under the group the permutations generate
    orbit_of = {}
    for x in items:
        if x in orbit_of:
            continue
        orbit = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in gens:
                z = act(g, y)
                if z not in orbit:
                    orbit.add(z)
                    stack.append(z)
        orbit_of.update(dict.fromkeys(orbit, frozenset(orbit)))
    return set(orbit_of.values())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=5))
    )
)
def test_merge_orbits_matches_the_orbit_oracle(n_gens):
    n, gens = n_gens
    orbit = {}
    for g in gens:
        _merge_orbits(orbit, g, sum(1 << x for x in range(n) if g[x] != x))
    # every element of an orbit shares the orbit's list
    for x, shared in orbit.items():
        assert all(orbit[y] is shared for y in range(n) if shared[0] >> y & 1)
    found = {
        frozenset(y for y in range(n) if orbit.get(x, (1 << x,))[0] >> y & 1) for x in range(n)
    }
    assert found == _orbit_partition(range(n), gens, lambda g, x: g[x])


def _group_orbits(items, group, act):
    # the orbits of ``items`` under a group given by all its elements
    orbit_of = {}
    for x in items:
        if x not in orbit_of:
            orbit = frozenset(act(g, x) for g in group)
            orbit_of.update(dict.fromkeys(orbit, orbit))
    return set(orbit_of.values())


def _image(g, mask):
    return sum(1 << g[j] for j in range(len(g)) if (mask >> j) & 1)


def _assert_generators_complete(P):
    # the search's generators are automorphisms, and they move elements
    # and down-sets exactly as far as the whole automorphism group does
    n = P.n
    above = [P.above[i] for i in range(n)]
    gens = [g for g, _ in _canonical_search(above, [P.below[i] for i in range(n)])[2]]
    auts = brute_force_automorphisms(P)
    assert set(map(tuple, gens)) <= set(auts)
    point = lambda g, x: g[x]
    assert _orbit_partition(range(n), gens, point) == _group_orbits(range(n), auts, point)
    down_sets = [
        d
        for d in range(1 << n)
        if all(not P.below[j] & ~d for j in range(n) if (d >> j) & 1)
    ]
    assert _orbit_partition(down_sets, gens, _image) == _group_orbits(down_sets, auts, _image)


def test_search_generators_complete_on_small_classes():
    for P in all_posets_up_to(5):
        _assert_generators_complete(P)


@pytest.mark.parametrize(
    "name",
    ["diamond", "crown:2", "crown:3", "crown:4", "chain:8", "antichain:8", "fence:7", "fence:8"],
)
def test_search_generators_complete_on_fixtures(name):
    _assert_generators_complete(fx.fixture_poset(name))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    symmetric_posets(),
    symmetric_posets(max_size=7),
    symmetric_posets(max_size=7),
    st.randoms(use_true_random=True),
)
def test_canonical_form_on_symmetric_posets(P, Q, R, rng):
    form = canonical_form(P)
    for _ in range(3):
        assert canonical_form(_relabeled(P, rng)) == form
    assert canonical_form(_decoded(form)) == form
    # on up to 7 elements, forms agree exactly when the oracle's forms do
    small = [Q, _relabeled(Q, rng), _dual(Q), R, _dual(R)] + ([P] if P.n <= 7 else [])
    forms = [canonical_form(X) for X in small]
    oracle = [brute_force_canonical_form(X) for X in small]
    for i in range(len(small)):
        for j in range(i):
            assert (forms[i] == forms[j]) == (oracle[i] == oracle[j])


def test_too_deep_canonical_search_raises_size_limit_and_leaves_no_cycle():
    import gc

    P = fx.antichain(1200)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SizeLimitError, match="1200-element poset"):
            canonical_form(P)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("search", [canonical_form, find_crowns])
def test_searches_leave_no_reference_cycle(rp2, search):
    import gc

    gc.collect()
    gc.disable()
    try:
        search(rp2)
        assert gc.collect() == 0
    finally:
        gc.enable()
