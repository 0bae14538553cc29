import json
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from posetderiv import (
    IntegerMatrix,
    RATIONALS,
    Ring,
    UnsupportedRingError,
    InputError,
    boundary_matrix,
    consistency_matrix,
    derivations,
    kernel_basis,
    mod_ring,
    order_complex,
    poset_from_json,
    prime_field,
    rank_over,
    ring_from_string,
    smith_divisors,
    smith_normal_form,
    solve_linear,
)

from oracles import (
    bareiss_rank,
    dense_boundary_entries,
    dense_incidence_entries,
    dense_relation_entries,
    dense_rows,
    dense_smith_normal_form,
    det_int,
    identity,
    matmul,
    matrix,
    matvec,
    minor_gcd_divisors,
    modp_rank,
    random_integer_matrix,
    transform_solve,
    zeros,
)
from test_poset import all_posets_up_to, random_posets

from conftest import FIXTURE_DIR


def snf_invariants_hold(mat):
    """S = U*A*V, unimodular transforms, positive divisors in a chain."""
    a = matrix(mat)
    dec = smith_normal_form(a)
    if matmul(matmul(dec.u, a), dec.v) != dec.s:
        return False
    if det_int(dense_rows(dec.u)) not in (1, -1):
        return False
    if det_int(dense_rows(dec.v)) not in (1, -1):
        return False
    divisors = dec.divisors
    if any(d < 1 for d in divisors):
        return False
    for d1, d2 in zip(divisors, divisors[1:]):
        if d2 % d1:
            return False
    # diagonal shape: divisors then zeros
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            expect = divisors[i] if i == j and i < len(divisors) else 0
            if dec.s.row(i)[j] != expect:
                return False
    return True


def run_snf_trials(count, seed, max_dim=6, bound=9):
    rng = random.Random(seed)
    failures = []
    for t in range(count):
        mat = random_integer_matrix(rng, max_dim, bound)
        if not snf_invariants_hold(mat):
            failures.append(mat)
            continue
        a = matrix(mat)
        if rank_over(a, RATIONALS) != bareiss_rank(mat):
            failures.append(mat)
    return failures


# -- smith normal form ---------------------------------------------------


def test_snf_identity():
    dec = smith_normal_form(identity(3))
    assert dec.divisors == (1, 1, 1)


def test_snf_2x2_example():
    mat = [[2, 4], [2, 2]]
    dec = smith_normal_form(matrix(mat))
    assert dec.divisors == (2, 2)
    assert minor_gcd_divisors(mat) == [2, 2]


def test_snf_zero_matrix():
    dec = smith_normal_form(zeros(2, 3))
    assert dec.divisors == ()
    assert dec.u == identity(2)
    assert dec.v == identity(3)


def test_snf_empty_matrices():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        dec = smith_normal_form(zeros(rows, cols))
        assert dec.divisors == ()


def test_snf_divisors_match_minor_gcds():
    rng = random.Random(42)
    for _ in range(60):
        mat = random_integer_matrix(rng, 4, 6)
        a = matrix(mat)
        assert list(smith_normal_form(a).divisors) == minor_gcd_divisors(mat)


def test_snf_random_reconstruction():
    assert run_snf_trials(200, seed=2024) == []


def test_smith_divisors_match_oracles():
    rng = random.Random(91)
    for t in range(300):
        mat = random_integer_matrix(rng, 5, 6)
        if t % 3 == 1:
            # no entry of absolute value 1: the dense step does all the work
            mat = [[2 * x for x in row] for row in mat]
        elif t % 3 == 2:
            # mostly zeros, like boundary and relation matrices
            mat = [[x if rng.random() < 0.3 else 0 for x in row] for row in mat]
        a = matrix(mat)
        expected = smith_normal_form(a).divisors
        assert smith_divisors(a) == expected
        assert list(expected) == minor_gcd_divisors(mat)
        assert dense_smith_normal_form(a).divisors == expected
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        assert smith_divisors(zeros(rows, cols)) == ()
    assert smith_divisors(matrix([[2, 4], [2, 2]])) == (2, 2)
    assert smith_divisors(matrix([[1, 2], [3, 4], [0, 6]])) == (1, 2)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(random_posets(max_size=12))
def test_smith_divisors_match_on_relation_and_boundary_matrices(P):
    # the matrices the kernel really sees: sparse, mostly unit entries,
    # with fill-in and cancellation during elimination
    K = order_complex(P, 3)
    for a in [consistency_matrix(P).matrix] + [boundary_matrix(K, d) for d in (1, 2, 3)]:
        assert smith_divisors(a) == smith_normal_form(a).divisors
        assert smith_divisors(a) == dense_smith_normal_form(a).divisors


def _incidence(P):
    """The cover incidence matrix that is_potential solves against."""
    entries = dense_incidence_entries(P)
    return matrix([entries[r * P.n : (r + 1) * P.n] for r in range(len(P.covers))], P.n)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(random_posets(max_size=8))
def test_snf_invariants_on_producer_matrices(P):
    # u * a * v = s with unimodular u and v on the sparse matrices the
    # producers build, and the divisors of the dense oracle
    K = order_complex(P, 3)
    mats = [consistency_matrix(P).matrix, _incidence(P)]
    mats += [boundary_matrix(K, d) for d in (1, 2, 3)]
    for a in mats:
        dec = smith_normal_form(a)
        assert matmul(matmul(dec.u, a), dec.v) == dec.s
        assert det_int(dense_rows(dec.u)) in (1, -1)
        assert det_int(dense_rows(dec.v)) in (1, -1)
        assert dec.divisors == dense_smith_normal_form(a).divisors


# -- rank ------------------------------------------------------------------


def test_rank_examples():
    two = matrix([[2]])
    assert rank_over(two, RATIONALS) == 1
    assert rank_over(two, prime_field(2)) == 0
    assert rank_over(zeros(3, 2), RATIONALS) == 0
    assert rank_over(zeros(3, 2), prime_field(5)) == 0


def test_rank_agreement_with_elimination():
    rng = random.Random(77)
    for _ in range(80):
        mat = random_integer_matrix(rng, 6, 9)
        a = matrix(mat)
        assert rank_over(a, RATIONALS) == bareiss_rank(mat)
        for p in (2, 3, 5):
            assert rank_over(a, prime_field(p)) == modp_rank(mat, p)


def test_rank_unsupported_rings():
    a = identity(2)
    with pytest.raises(UnsupportedRingError):
        rank_over(a, mod_ring(4))
    # a prime modulus is a field, so rank is defined
    assert rank_over(a, mod_ring(3)) == 2


# -- solving -----------------------------------------------------------------


def test_solve_examples():
    one = matrix([[1]])
    two = matrix([[2]])
    assert solve_linear(one, [5], mod_ring(2)) == [1]
    assert solve_linear(two, [1], mod_ring(2)) is None
    assert solve_linear(two, [1], RATIONALS) == [Fraction(1, 2)]


def test_solve_integers_and_composite():
    two = matrix([[2]])
    x = solve_linear(two, [2], mod_ring(4))
    assert x is not None and (2 * x[0]) % 4 == 2
    assert solve_linear(two, [1], mod_ring(4)) is None


def test_solve_soundness_random():
    rng = random.Random(314)
    solved = 0
    unsolved = 0
    for _ in range(150):
        mat = random_integer_matrix(rng, 5, 6)
        if not mat or not mat[0]:
            continue
        a = matrix(mat)
        b = [rng.randint(-9, 9) for _ in range(a.rows)]
        for k in (RATIONALS, prime_field(2), prime_field(5), mod_ring(6)):
            x = solve_linear(a, b, k)
            if x is not None:
                solved += 1
                residual = matvec(a, x)
                assert all(k.is_zero(k.sub(r, t)) for r, t in zip(residual, b))
            else:
                unsolved += 1
                if k.tag == "prime_field":
                    p = k.n
                    aug = [row + [v] for row, v in zip(mat, b)]
                    assert modp_rank(aug, p) > modp_rank(mat, p)
                elif k.tag == "rationals":
                    aug = [row + [v] for row, v in zip(mat, b)]
                    assert bareiss_rank(aug) > bareiss_rank(mat)
    assert solved and unsolved



def test_solve_matches_the_transform_route():
    # solve_linear carries b as an extra column and never builds u.  With
    # the package's transforms it gives the same x; the dense oracle
    # pivots in another order, so it may pick another solution, but it
    # must agree on solvability.
    rng = random.Random(4242)
    rings = [RATIONALS, prime_field(2), prime_field(3)]
    rings += [mod_ring(4), mod_ring(6)]
    outcomes = {(k.label(), solved) for k in rings for solved in (True, False)}
    shapes = [(0, 0), (0, 3), (3, 0)] + [
        (rng.randint(1, 5), rng.randint(1, 5)) for _ in range(120)
    ]
    for rows, cols in shapes:
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        a = matrix(mat, cols)
        x0 = [rng.randint(-5, 5) for _ in range(cols)]
        for b in (matvec(a, x0), [rng.randint(-9, 9) for _ in range(rows)]):
            for k in rings:
                x = solve_linear(a, b, k)
                assert x == transform_solve(a, b, k, smith_normal_form)
                assert (x is None) == (transform_solve(a, b, k) is None)
                outcomes.discard((k.label(), x is not None))
                if x is not None:
                    residual = matvec(a, x)
                    assert all(k.is_zero(k.sub(r, t)) for r, t in zip(residual, b))
        # fractions on the right-hand side over the rationals
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rows)]
        x = solve_linear(a, b, RATIONALS)
        assert x == transform_solve(a, b, RATIONALS, smith_normal_form)
        assert (x is None) == (transform_solve(a, b, RATIONALS) is None)
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        a = zeros(rows, cols)
        assert solve_linear(a, [0] * rows, RATIONALS) == [0] * cols
        if rows:
            assert solve_linear(a, [1] * rows, RATIONALS) is None
    # every ring saw both a consistent and an inconsistent system
    assert not outcomes


def test_solve_rationals_takes_fractions_like_the_rescaled_route():
    # b with fractions gives what scaling b to integers and back gives
    rng = random.Random(2718)
    checked = 0
    for _ in range(100):
        mat = random_integer_matrix(rng, 5, 6)
        if not mat or not mat[0]:
            continue
        a = matrix(mat)
        x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(a.cols)]
        b = matvec(a, x0)
        scale = lcm(*(Fraction(v).denominator for v in b))
        scaled = solve_linear(a, [int(v * scale) for v in b], RATIONALS)
        assert scaled is not None
        assert solve_linear(a, b, RATIONALS) == [v / scale for v in scaled]
        checked += 1
    assert checked > 50


# -- kernels ---------------------------------------------------------------


def test_kernel_examples():
    assert kernel_basis(identity(2), RATIONALS) == []
    assert kernel_basis(matrix([[2]]), prime_field(2)) == [[1]]


def test_kernel_size_and_membership():
    rng = random.Random(55)
    for _ in range(60):
        mat = random_integer_matrix(rng, 5, 7)
        a = matrix(mat)
        for k in (RATIONALS, prime_field(2), prime_field(3)):
            basis = kernel_basis(a, k)
            assert len(basis) == a.cols - rank_over(a, k)
            for vec in basis:
                assert all(k.is_zero(v) for v in matvec(a, vec))
                assert any(not k.is_zero(v) for v in vec)


# -- sparse rows -----------------------------------------------------------


def test_producers_emit_the_dense_reference_matrices(monkeypatch):
    incidence = []
    solve = derivations.solve_linear

    def spy(a, b, k):
        incidence.append(a)
        return solve(a, b, k)

    monkeypatch.setattr(derivations, "solve_linear", spy)
    files = [json.loads(path.read_text()) for path in sorted(FIXTURE_DIR.glob("*.json"))]
    posets = list(all_posets_up_to(6)) + [
        poset_from_json(obj) for obj in files if "elements" in obj
    ]
    for P in posets:
        assert consistency_matrix(P).matrix.entries == dense_relation_entries(P)
        K = order_complex(P, 3)
        for d in (1, 2, 3):
            assert boundary_matrix(K, d).entries == dense_boundary_entries(K, d)
        if P.covers:
            f = derivations.from_cover_values(P, RATIONALS, dict.fromkeys(P.covers, 0))
            derivations.is_potential(f)
            assert incidence.pop().entries == dense_incidence_entries(P)

    dense = matrix([[0, 2, 0], [-1, 0, 3]])
    sparse = IntegerMatrix(2, 3, (((1, 2),), ((0, -1), (2, 3))))
    assert dense == sparse and hash(dense) == hash(sparse)
    for bad in (((2, 3), (0, -1)), ((1, 1), (1, 2)), ((0, 0),), ((3, 1),), ((-1, 1),)):
        with pytest.raises(ValueError):
            IntegerMatrix(1, 3, (bad,))


# -- rings -------------------------------------------------------------------


def test_ring_strings():
    assert ring_from_string("q") == RATIONALS
    assert ring_from_string("gf:7") == prime_field(7)
    assert ring_from_string("mod:6") == mod_ring(6)
    assert prime_field(7).label() == "gf:7"
    with pytest.raises(InputError):
        ring_from_string("zz")
    with pytest.raises(InputError):
        ring_from_string("gf:x")


def test_ring_validation():
    with pytest.raises(UnsupportedRingError):
        prime_field(6)
    with pytest.raises(UnsupportedRingError):
        mod_ring(1)
    with pytest.raises(ValueError):
        Ring("weird")


def test_integer_ring_is_gone():
    with pytest.raises(ValueError):
        Ring("integers")


def test_scalar_solve_matches_brute_force_over_every_small_modulus():
    # one gcd rule serves every Z/n; GF(p) is the case n = p
    from posetderiv.linalg import _is_prime, _scalar_solve

    for n in range(2, 31):
        k = mod_ring(n)
        for d in range(1, 2 * n + 1):
            for c in range(-n, n + 1):
                y = _scalar_solve(d, c, k)
                solvable = any((d * t - c) % n == 0 for t in range(n))
                assert (y is not None) == solvable, (n, d, c)
                if y is not None:
                    assert (d * y - c) % n == 0, (n, d, c, y)
                if _is_prime(n):
                    assert _scalar_solve(d, c, prime_field(n)) == y, (n, d, c)


def test_ring_arithmetic():
    m = mod_ring(5)
    assert m.add(3, 4) == 2
    assert m.sub(1, 3) == 3
    assert RATIONALS.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert RATIONALS.sub(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert m.is_zero(10)


def test_large_prime_field_parses_quickly():
    start = time.monotonic()
    assert ring_from_string("gf:1000000000000000003").n == 1000000000000000003
    assert time.monotonic() - start < 0.1


def test_strong_pseudoprime_is_rejected():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
    with pytest.raises(UnsupportedRingError):
        prime_field(3215031751)


def test_primality_agrees_with_trial_division():
    for n in range(2, 3000):
        prime = all(n % d for d in range(2, int(n**0.5) + 1))
        try:
            prime_field(n)
            accepted = True
        except UnsupportedRingError:
            accepted = False
        assert accepted == prime, n


def test_primality_beyond_exact_bound_is_refused():
    with pytest.raises(UnsupportedRingError, match="exact only below"):
        prime_field(3_317_044_064_679_887_385_961_981)
