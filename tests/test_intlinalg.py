import random
from math import gcd

import pytest

from mixedchar import intlinalg
from mixedchar.intlinalg import (
    CohomologyBasis,
    FinAbGroup,
    IntMatrix,
    InducedMap,
    complex_cohomology,
    diagonal_of,
    integer_kernel,
    invariant_factors_dense,
    invariant_factors_sparse,
    matrix_rank,
    smith_normal_form,
    solve_exact,
)
from mixedchar.monomials import power_ideal
from mixedchar.subsets import bits_to_subsets, coboundary_sign_entries, size_masks
from mixedchar.taylor import TaylorComplex, transition_between
from mixedchar.textio import reisner_ideal

from .oracles import full_block_injective


def _det(M):
    # Bareiss, used only as an independent check on transform unimodularity
    n = M.nrows
    a = [r[:] for r in M.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return IntMatrix(m, n, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


def test_snf_diag_2_3_gives_1_6():
    D, U, W = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert diagonal_of(D) == [1, 6]


def test_snf_remultiplication_oracle_random():
    rng = random.Random(20240817)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = _random_matrix(rng, m, n)
        D, U, W = smith_normal_form(M)
        assert (U @ M @ W) == D
        assert abs(_det(U)) == 1
        assert abs(_det(W)) == 1
        diag = diagonal_of(D)
        for i in range(D.nrows):
            for j in range(D.ncols):
                if i != j:
                    assert D.rows[i][j] == 0
        nz = [d for d in diag if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # zeros only after all nonzero entries
        assert diag == nz + [0] * (len(diag) - len(nz))


def test_snf_4x5_shape_from_contract():
    rng = random.Random(5)
    M = _random_matrix(rng, 4, 5)
    D, U, W = smith_normal_form(M)
    assert (U.nrows, U.ncols, W.nrows, W.ncols) == (4, 4, 5, 5)
    assert (U @ M @ W) == D


def test_sparse_invariant_factors_agree_with_dense():
    rng = random.Random(99)
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = IntMatrix(m, n)
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.4:
                    M.rows[i][j] = rng.randint(-4, 4)
        entries = {
            (i, j): v for i, r in enumerate(M.rows) for j, v in enumerate(r) if v
        }
        r1, f1 = invariant_factors_sparse(entries, m, n)
        r2, f2 = invariant_factors_dense(M)
        assert (r1, f1) == (r2, f2)
    # rows with no unit entry are parked until an elimination changes them
    for _ in range(150):
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        M = IntMatrix(m, n)
        for i in range(m):
            values = (-1, 1, 2, -3) if rng.random() < 0.4 else (2, -2, 3, -3, 5)
            for j in range(n):
                if rng.random() < 0.5:
                    M.rows[i][j] = rng.choice(values)
        entries = {(i, j): v for i, r in enumerate(M.rows) for j, v in enumerate(r) if v}
        assert invariant_factors_sparse(entries, m, n) == invariant_factors_dense(M)


def test_integer_kernel_is_saturated_basis():
    rng = random.Random(4)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        M = _random_matrix(rng, m, n, -5, 5)
        basis = integer_kernel(M)
        assert len(basis) == n - matrix_rank(M)
        for v in basis:
            assert all(sum(M.rows[i][k] * v[k] for k in range(n)) == 0 for i in range(m))
        if basis:
            K = IntMatrix.from_cols(basis, n)
            D, _, _ = smith_normal_form(K)
            assert all(d == 1 for d in diagonal_of(D) if d != 0)
            assert matrix_rank(K) == len(basis)


def test_solve_exact():
    rng = random.Random(8)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = _random_matrix(rng, m, n, -4, 4)
        x = [rng.randint(-6, 6) for _ in range(n)]
        b = [sum(M.rows[i][k] * x[k] for k in range(n)) for i in range(m)]
        y = solve_exact(M, b)
        assert y is not None
        assert [sum(M.rows[i][k] * y[k] for k in range(n)) for i in range(m)] == b
    M = IntMatrix.from_rows([[2]])
    assert solve_exact(M, [3]) is None


def test_finabgroup_normalization_and_predicates():
    g = FinAbGroup.from_diagonal([1, 2, 0], ambient_rank=3)
    assert g == FinAbGroup(1, (2,))
    assert repr(g) == "Z + Z/2"
    assert FinAbGroup.cyclic(2).killed_by(2)
    assert not FinAbGroup.cyclic(4).killed_by(2)
    assert not FinAbGroup.free(1).killed_by(2)
    assert FinAbGroup.trivial().killed_by(1)
    assert FinAbGroup.cyclic(6).exponent() == 6
    assert FinAbGroup(0, (2, 6)).order() == 12
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 2))


def test_finabgroup_direct_sum_renormalizes_chain():
    a = FinAbGroup.cyclic(2)
    b = FinAbGroup.cyclic(3)
    assert a.direct_sum(b) == FinAbGroup.cyclic(6)
    c = FinAbGroup.cyclic(2).direct_sum(FinAbGroup.cyclic(2))
    assert c == FinAbGroup(0, (2, 2))
    d = FinAbGroup.cyclic(4).direct_sum(FinAbGroup.cyclic(6))
    assert d == FinAbGroup(0, (2, 12))


def test_complex_cohomology_times_two():
    # 0 -> Z --(x2)--> Z -> 0, cohomology at the target spot
    delta = IntMatrix.from_rows([[2]])
    assert complex_cohomology([delta], 1) == FinAbGroup.cyclic(2)
    assert complex_cohomology([delta], 0) == FinAbGroup.trivial()


def test_complex_cohomology_hollow_triangle():
    # coboundary of the triangle graph: rows edges 01, 02, 12, cols vertices
    d0 = IntMatrix.from_rows([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
    assert complex_cohomology([d0], 1) == FinAbGroup.free(1)
    assert complex_cohomology([d0], 0) == FinAbGroup.free(1)


def test_complex_cohomology_rejects_non_complex():
    a = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        complex_cohomology([a, a], 1)


def test_cohomology_basis_and_induced_map_identity():
    # quotient Z^2 / im(diag(2, 3)) with no outgoing map
    d_in = IntMatrix.from_rows([[2, 0], [0, 3]])
    basis = CohomologyBasis(d_in, None, 2)
    assert basis.group == FinAbGroup.cyclic(6)
    ident = InducedMap(basis, basis, IntMatrix.identity(2))
    assert ident.is_injective()
    assert not ident.is_zero()
    doubled = InducedMap(basis, basis, IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert not doubled.is_injective()  # x2 on Z/6 kills the element 3
    assert not doubled.equals(ident)


def test_induced_map_through_kernel():
    # complex 0 -> Z^2 --[[1,1]]--> Z -> 0 at spot 0: kernel is Z(1,-1)
    d_out = IntMatrix.from_rows([[1, 1]])
    basis = CohomologyBasis(None, d_out, 2)
    assert basis.group == FinAbGroup.free(1)
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    m = InducedMap(basis, basis, swap)
    assert m.is_injective()
    assert m.component_matrix() in ([[1]], [[-1]])


def _random_chain(rng):
    """Divisibility chain with 1s, p-powers, composites and trailing zeros."""
    chain = [1] * rng.randint(0, 3)
    d = 1
    for _ in range(rng.randint(0, 3)):
        d *= rng.choice((1, 2, 2, 3, 4, 5, 6, 9))
        chain.append(d)
    chain += [0] * rng.randint(0, 2)
    return chain or [1]


def _diagonal_basis(chain):
    """CohomologyBasis of Z^k / diag(chain), presented in its own coordinates."""
    k = len(chain)
    d_in = IntMatrix(k, k)
    for i, d in enumerate(chain):
        d_in.rows[i][i] = d
    basis = CohomologyBasis(d_in, None, k)
    assert basis.xdiag == chain
    return basis


def _well_defined_map(rng, xs, xt):
    """Presentation matrix P with xs_j * P[:, j] in the target relation lattice."""
    P = IntMatrix(len(xt), len(xs))
    for i, t in enumerate(xt):
        for j, s in enumerate(xs):
            if t == 0:
                step = 0 if s else 1
            else:
                step = t // gcd(t, s)  # gcd(t, 0) == t, so step 1 when s == 0
            P.rows[i][j] = step * rng.randint(-3, 3)
    return P


def test_reduced_kernel_block_agrees_with_full_presentation_oracle():
    rng = random.Random(20261017)
    seen_injective = seen_not = 0
    for _ in range(400):
        xs, xt = _random_chain(rng), _random_chain(rng)
        source, target = _diagonal_basis(xs), _diagonal_basis(xt)
        induced = InducedMap(source, target, _well_defined_map(rng, xs, xt))
        expected = full_block_injective(induced)
        assert induced.is_injective() == expected
        for p in (2, 3):
            assert induced.is_injective_localized(p) == full_block_injective(induced, p)
        seen_injective += expected
        seen_not += not expected
    assert seen_injective > 40 and seen_not > 40


@pytest.mark.parametrize("ell", [1, 2])
def test_reduced_kernel_block_on_reisner_transitions(ell):
    ideal = reisner_ideal()
    low = TaylorComplex(power_ideal(ideal, ell))
    high = TaylorComplex(power_ideal(ideal, ell + 1))
    pieces = low.support_scan(4).pieces
    assert len(pieces) == ell**6
    for k, piece in enumerate(pieces):
        induced = transition_between(low, high, ell, 4, piece.alpha, check_chain=k == 0).induced
        assert induced is not None
        assert induced.is_injective() == full_block_injective(induced)
        for p in (2, 3):
            assert induced.is_injective_localized(p) == full_block_injective(induced, p)


def _strand_shaped(rng, r, density):
    """Sign coboundary between random size-s and size-(s+1) subset families."""
    s = (r - 1) // 2
    masks = size_masks(r)
    cols = rows = 0
    for S in bits_to_subsets(masks[s]):
        if rng.random() < density:
            cols |= 1 << S
    for T in bits_to_subsets(masks[s + 1]):
        if rng.random() < density:
            rows |= 1 << T
    return coboundary_sign_entries(cols, rows)


def _dense_of(entries, m, n):
    M = IntMatrix(m, n)
    for (i, j), v in entries.items():
        M.rows[i][j] = v
    return M


def test_sparse_matches_dense_on_strand_shaped_matrices():
    rng = random.Random(31)
    biggest = 0
    for r, density, reps in ((5, 0.7, 30), (6, 0.6, 20), (8, 0.8, 4), (10, 0.95, 1)):
        for _ in range(reps):
            entries, m, n = _strand_shaped(rng, r, density)
            biggest = max(biggest, m)
            expected = invariant_factors_dense(_dense_of(entries, m, n))
            assert invariant_factors_sparse(entries, m, n) == expected
            # pivot order follows row and column labels; the answer must not
            rp, cp = list(range(m)), list(range(n))
            rng.shuffle(rp)
            rng.shuffle(cp)
            moved = {(rp[i], cp[j]): v for (i, j), v in entries.items()}
            assert invariant_factors_sparse(moved, m, n) == expected
    assert biggest >= 200


def test_parked_row_is_requeued_when_an_elimination_gives_it_a_unit(monkeypatch):
    # row 0 has no unit entry and is popped first; eliminating with row 1
    # turns it into (0, 1), which must then be pivoted on, leaving no core
    def no_core(M):
        raise AssertionError(f"dense core {M} left over")

    monkeypatch.setattr(intlinalg, "invariant_factors_dense", no_core)
    assert invariant_factors_sparse({(0, 0): 2, (0, 1): 3, (1, 0): 1, (1, 1): 1}, 2, 2) == (2, [])
