import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from posetderiv import (
    INTEGERS,
    IntegerMatrix,
    RATIONALS,
    Ring,
    UnsupportedRingError,
    InputError,
    boundary_matrix,
    consistency_matrix,
    kernel_basis,
    mod_ring,
    order_complex,
    prime_field,
    rank_over,
    ring_from_string,
    smith_divisors,
    smith_normal_form,
    solve_linear,
)

from oracles import bareiss_rank, det_int, minor_gcd_divisors, modp_rank, random_integer_matrix
from test_poset import random_posets


def snf_invariants_hold(mat):
    """S = U*A*V, unimodular transforms, positive divisors in a chain."""
    a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
    dec = smith_normal_form(a)
    if dec.u.mul(a).mul(dec.v) != dec.s:
        return False
    if det_int(dec.u.to_rows()) not in (1, -1):
        return False
    if det_int(dec.v.to_rows()) not in (1, -1):
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
            if dec.s.entry(i, j) != expect:
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
        a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
        if rank_over(a, RATIONALS) != bareiss_rank(mat):
            failures.append(mat)
    return failures


# -- smith normal form ---------------------------------------------------


def test_snf_identity():
    dec = smith_normal_form(IntegerMatrix.identity(3))
    assert dec.divisors == (1, 1, 1)


def test_snf_2x2_example():
    mat = [[2, 4], [2, 2]]
    dec = smith_normal_form(IntegerMatrix.from_rows(mat))
    assert dec.divisors == (2, 2)
    assert minor_gcd_divisors(mat) == [2, 2]


def test_snf_zero_matrix():
    dec = smith_normal_form(IntegerMatrix.zeros(2, 3))
    assert dec.divisors == ()
    assert dec.u == IntegerMatrix.identity(2)
    assert dec.v == IntegerMatrix.identity(3)


def test_snf_empty_matrices():
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        dec = smith_normal_form(IntegerMatrix.zeros(rows, cols))
        assert dec.divisors == ()


def test_snf_divisors_match_minor_gcds():
    rng = random.Random(42)
    for _ in range(60):
        mat = random_integer_matrix(rng, 4, 6)
        a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
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
        a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
        expected = smith_normal_form(a).divisors
        assert smith_divisors(a) == expected
        assert list(expected) == minor_gcd_divisors(mat)
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        assert smith_divisors(IntegerMatrix.zeros(rows, cols)) == ()
    assert smith_divisors(IntegerMatrix.from_rows([[2, 4], [2, 2]])) == (2, 2)
    assert smith_divisors(IntegerMatrix.from_rows([[1, 2], [3, 4], [0, 6]])) == (1, 2)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(random_posets(max_size=12))
def test_smith_divisors_match_on_relation_and_boundary_matrices(P):
    # the matrices the kernel really sees: sparse, mostly unit entries,
    # with fill-in and cancellation during elimination
    K = order_complex(P, 3)
    for a in [consistency_matrix(P).matrix] + [boundary_matrix(K, d) for d in (1, 2, 3)]:
        assert smith_divisors(a) == smith_normal_form(a).divisors


# -- rank ------------------------------------------------------------------


def test_rank_examples():
    two = IntegerMatrix.from_rows([[2]])
    assert rank_over(two, RATIONALS) == 1
    assert rank_over(two, prime_field(2)) == 0
    assert rank_over(IntegerMatrix.zeros(3, 2), RATIONALS) == 0
    assert rank_over(IntegerMatrix.zeros(3, 2), prime_field(5)) == 0


def test_rank_agreement_with_elimination():
    rng = random.Random(77)
    for _ in range(80):
        mat = random_integer_matrix(rng, 6, 9)
        a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
        assert rank_over(a, RATIONALS) == bareiss_rank(mat)
        for p in (2, 3, 5):
            assert rank_over(a, prime_field(p)) == modp_rank(mat, p)


def test_rank_unsupported_rings():
    a = IntegerMatrix.identity(2)
    with pytest.raises(UnsupportedRingError):
        rank_over(a, mod_ring(4))
    with pytest.raises(UnsupportedRingError):
        rank_over(a, INTEGERS)
    # a prime modulus is a field, so rank is defined
    assert rank_over(a, mod_ring(3)) == 2


# -- solving -----------------------------------------------------------------


def test_solve_examples():
    one = IntegerMatrix.from_rows([[1]])
    two = IntegerMatrix.from_rows([[2]])
    assert solve_linear(one, [5], mod_ring(2)) == [1]
    assert solve_linear(two, [1], mod_ring(2)) is None
    assert solve_linear(two, [1], RATIONALS) == [Fraction(1, 2)]


def test_solve_integers_and_composite():
    two = IntegerMatrix.from_rows([[2]])
    assert solve_linear(two, [6], INTEGERS) == [3]
    assert solve_linear(two, [3], INTEGERS) is None
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
        a = IntegerMatrix.from_rows(mat)
        b = [rng.randint(-9, 9) for _ in range(a.rows)]
        for k in (RATIONALS, prime_field(2), prime_field(5), mod_ring(6), INTEGERS):
            x = solve_linear(a, b, k)
            if x is not None:
                solved += 1
                residual = a.mul_vector(x)
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



def test_solve_rationals_takes_fractions_like_the_rescaled_route():
    # b with fractions gives what scaling b to integers and back gives
    rng = random.Random(2718)
    checked = 0
    for _ in range(100):
        mat = random_integer_matrix(rng, 5, 6)
        if not mat or not mat[0]:
            continue
        a = IntegerMatrix.from_rows(mat)
        x0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(a.cols)]
        b = a.mul_vector(x0)
        scale = lcm(*(Fraction(v).denominator for v in b))
        scaled = solve_linear(a, [int(v * scale) for v in b], RATIONALS)
        assert scaled is not None
        assert solve_linear(a, b, RATIONALS) == [v / scale for v in scaled]
        checked += 1
    assert checked > 50


# -- kernels ---------------------------------------------------------------


def test_kernel_examples():
    assert kernel_basis(IntegerMatrix.identity(2), RATIONALS) == []
    assert kernel_basis(IntegerMatrix.from_rows([[2]]), prime_field(2)) == [[1]]


def test_kernel_size_and_membership():
    rng = random.Random(55)
    for _ in range(60):
        mat = random_integer_matrix(rng, 5, 7)
        a = IntegerMatrix.from_rows(mat, cols=len(mat[0]) if mat else 0)
        for k in (RATIONALS, prime_field(2), prime_field(3)):
            basis = kernel_basis(a, k)
            assert len(basis) == a.cols - rank_over(a, k)
            for vec in basis:
                assert all(k.is_zero(v) for v in a.mul_vector(vec))
                assert any(not k.is_zero(v) for v in vec)


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


def test_ring_arithmetic():
    m = mod_ring(5)
    assert m.add(3, 4) == 2
    assert m.sub(1, 3) == 3
    assert m.neg(2) == 3
    assert RATIONALS.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
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
