"""Tensor kernels against explicit-loop oracles and algebraic round trips."""

import itertools
import tracemalloc

import numpy as np
import pytest

from mpbasis import tensors as T


def loop_unfold(t, mode):
    """Index-by-index oracle for the unfolding convention."""
    dims = t.shape
    other = [d for d in range(t.ndim) if d != mode]
    out = np.zeros((dims[mode], int(np.prod([dims[d] for d in other], initial=1))))
    for idx in np.ndindex(*dims):
        col = 0
        stride = 1
        for d in other:
            col += idx[d] * stride
            stride *= dims[d]
        out[idx[mode], col] = t[idx]
    return out


def test_unfold_single_mode_is_identity_reshape():
    v = np.arange(4.0)
    assert np.array_equal(T.unfold(v, 0), v.reshape(4, 1))


def test_unfold_matches_loop_oracle_on_2x2x2():
    t = np.arange(8.0).reshape(2, 2, 2)
    got = T.unfold(t, 0)
    assert got.shape == (2, 4)
    assert np.array_equal(got, loop_unfold(t, 0))


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_unfold_matches_loop_oracle_random(mode):
    rng = np.random.default_rng(11)
    t = rng.standard_normal((3, 4, 2, 5))
    assert np.array_equal(T.unfold(t, mode), loop_unfold(t, mode))


def test_fold_unfold_round_trip_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ndim = rng.integers(1, 5)
        shape = tuple(rng.integers(1, 6, size=ndim))
        t = rng.standard_normal(shape)
        for d in range(ndim):
            assert np.array_equal(T.fold(T.unfold(t, d), d, shape), t)


def test_unfold_mode_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        T.unfold(np.zeros((2, 2)), 2)


def test_mode_multiply_identity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 4, 5))
    for d in range(3):
        assert np.array_equal(T.mode_multiply(t, np.eye(t.shape[d]), d), t)


def test_mode_multiply_matches_loop_oracle():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 4, 5))
    m = rng.standard_normal((2, 4))
    got = T.mode_multiply(t, m, 1)
    ref = np.zeros((3, 2, 5))
    for i in range(3):
        for r in range(2):
            for k in range(5):
                for j in range(4):
                    ref[i, r, k] += m[r, j] * t[i, j, k]
    assert np.allclose(got, ref, rtol=0, atol=1e-12)


def test_mode_multiply_commutes_on_distinct_modes():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 4, 5))
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((2, 4))
    left = T.mode_multiply(T.mode_multiply(t, a, 0), b, 1)
    right = T.mode_multiply(T.mode_multiply(t, b, 1), a, 0)
    assert np.allclose(left, right, rtol=1e-12)


def test_mode_multiply_shape_mismatch():
    with pytest.raises(ValueError, match="does not match mode"):
        T.mode_multiply(np.zeros((3, 4)), np.zeros((2, 5)), 1)


def test_mode_multiply_equals_unfold_multiply_fold():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((4, 3, 6))
    for d in range(3):
        m = rng.standard_normal((2, t.shape[d]))
        shape = list(t.shape)
        shape[d] = 2
        ref = T.fold(m @ T.unfold(t, d), d, shape)
        got = T.mode_multiply(t, m, d)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)


def test_khatri_rao_identity_columns():
    out = T.khatri_rao([np.eye(2), np.eye(2)])
    expect = np.zeros((4, 2))
    expect[:, 0] = np.kron(np.eye(2)[:, 0], np.eye(2)[:, 0])
    expect[:, 1] = np.kron(np.eye(2)[:, 1], np.eye(2)[:, 1])
    assert np.array_equal(out, expect)


def test_khatri_rao_matches_kron_loop():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    out = T.khatri_rao([a, b])
    for k in range(2):
        assert np.allclose(out[:, k], np.kron(a[:, k], b[:, k]), atol=1e-15)


def test_khatri_rao_single_matrix():
    a = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(T.khatri_rao([a]), a)


def test_khatri_rao_errors():
    with pytest.raises(ValueError, match="at least one"):
        T.khatri_rao([])
    with pytest.raises(ValueError, match="columns"):
        T.khatri_rao([np.zeros((2, 2)), np.zeros((2, 3))])


def test_gram_of_khatri_rao_orthonormal_factors():
    rng = np.random.default_rng(6)
    mats = [np.linalg.qr(rng.standard_normal((n, 3)))[0] for n in (5, 6, 7)]
    assert np.allclose(T.gram_of_khatri_rao(mats), np.eye(3), atol=1e-12)


def test_gram_of_khatri_rao_matches_materialized():
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((n, 4)) for n in (3, 5, 2)]
    kr = T.khatri_rao(mats)
    ref = kr.T @ kr
    got = T.gram_of_khatri_rao(mats)
    assert np.allclose(got, ref, rtol=1e-12)


def test_gram_of_khatri_rao_matches_materialized_large():
    # total Khatri-Rao dimension 10^4
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((n, 8)) for n in (25, 20, 20)]
    kr = T.khatri_rao(mats)
    assert kr.shape[0] == 10_000
    assert np.allclose(T.gram_of_khatri_rao(mats), kr.T @ kr, rtol=1e-12)


def test_gram_of_khatri_rao_single_factor():
    a = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(T.gram_of_khatri_rao([a]), a.T @ a)


def test_mttkrp_rank_one_construct_and_check():
    rng = np.random.default_rng(9)
    cols = [rng.standard_normal((n, 1)) for n in (4, 5, 6)]
    t = T.cp_to_tensor(cols)
    got = T.mttkrp(t, [cols[1], cols[2]], 0)
    scale = np.sum(cols[1] ** 2) * np.sum(cols[2] ** 2)
    assert np.allclose(got, cols[0] * scale, rtol=1e-12)


def test_mttkrp_matches_materialized():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((3, 4, 5, 2))
    mats = [rng.standard_normal((n, 3)) for n in t.shape]
    for d in range(4):
        others = [mats[j] for j in range(4) if j != d]
        ref = T.unfold(t, d) @ T.khatri_rao(others[::-1])
        assert np.allclose(T.mttkrp(t, others, d), ref, rtol=1e-12, atol=1e-12)


def test_mttkrp_zero_tensor():
    mats = [np.ones((4, 2)), np.ones((5, 2))]
    out = T.mttkrp(np.zeros((3, 4, 5)), mats, 0)
    assert np.array_equal(out, np.zeros((3, 2)))


def test_mttkrp_shape_errors():
    t = np.zeros((3, 4))
    with pytest.raises(ValueError, match="expected 1 factors"):
        T.mttkrp(t, [], 0)
    with pytest.raises(ValueError, match="expected"):
        T.mttkrp(t, [np.zeros((5, 2))], 0)


def outer(vectors):
    out = vectors[0]
    for v in vectors[1:]:
        out = np.multiply.outer(out, v)
    return out


def cp_by_outer_products(factors):
    """Oracle: explicit sum over components of the outer product of columns."""
    return sum(outer([f[:, j] for f in factors]) for j in range(factors[0].shape[1]))


def mttkrp_by_outer_products(t, mats, mode):
    """Oracle: column j contracts ``t`` with the rank-1 tensor of column j."""
    out = np.empty((t.shape[mode], mats[0].shape[1]))
    for j in range(out.shape[1]):
        w = outer([m[:, j] for m in mats])
        out[:, j] = np.tensordot(np.moveaxis(t, mode, 0), w, axes=t.ndim - 1)
    return out


def assert_rel(got, ref, tol=1e-12):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)


KERNEL_SHAPES = [(4, 3), (3, 4, 2), (3, 1, 4, 2), (2, 3, 1, 2, 3), (5, 2, 3, 2, 2)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_mttkrp_every_mode_matches_references(shape, k):
    rng = np.random.default_rng(14)
    t = rng.standard_normal(shape)
    mats = [rng.standard_normal((n, k)) for n in shape]
    for d in range(t.ndim):
        others = [m for j, m in enumerate(mats) if j != d]
        got = T.mttkrp(t, others, d)
        assert_rel(got, T.unfold(t, d) @ T.khatri_rao(others[::-1]))
        assert_rel(got, mttkrp_by_outer_products(t, others, d))


def test_mttkrp_non_contiguous_inputs():
    rng = np.random.default_rng(15)
    t = rng.standard_normal((4, 2, 3, 5)).transpose(2, 0, 3, 1)  # shape (3, 4, 5, 2)
    assert not t.flags.c_contiguous
    mats = [rng.standard_normal((3, n)).T for n in t.shape]  # Fortran-ordered views
    for d in range(t.ndim):
        others = [m for j, m in enumerate(mats) if j != d]
        got = T.mttkrp(t, others, d)
        assert_rel(got, T.unfold(t, d) @ T.khatri_rao(others[::-1]))
        assert_rel(got, mttkrp_by_outer_products(t, others, d))
        assert_rel(got, T.mttkrp(np.ascontiguousarray(t), others, d))


@pytest.mark.parametrize("mode", [0, 2])
def test_mttkrp_first_and_last_mode_do_not_copy_the_tensor(mode):
    rng = np.random.default_rng(16)
    t = rng.standard_normal((60, 50, 40))
    others = [rng.standard_normal((n, 3)) for d, n in enumerate(t.shape) if d != mode]
    tracemalloc.start()
    try:
        T.mttkrp(t, others, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes // 4


def test_mttkrp_peak_below_half_the_grid_khatri_rao_product():
    # the subject-mode MTTKRP of a projection: a 200 x 200 grid, 50 subjects,
    # K=30; the Khatri-Rao product of both grid factors alone is 9.6 MB
    rng = np.random.default_rng(19)
    t = rng.standard_normal((200, 200, 50))
    grid_factors = [rng.standard_normal((200, 30)) for _ in range(2)]
    tracemalloc.start()
    try:
        T.mttkrp(t, grid_factors, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (200 * 200 * 30 * 8) // 2


@pytest.mark.parametrize(
    "shape, split",
    [((15, 15, 15, 5), 2), ((10, 8, 100), 2), ((200, 200, 50), 1), ((4, 3), 1),
     ((3, 1, 4, 2), 1), ((1, 5), 1), ((5, 1), 1)],
)
def test_half_split_minimizes_the_two_half_sizes(shape, split):
    assert T.half_split(shape) == split


def test_half_split_needs_two_modes():
    with pytest.raises(ValueError, match="two modes"):
        T.half_split((7,))


PARTIAL_SHAPES = [(4, 3), (3, 4, 2), (3, 1, 4, 2), (2, 3, 1, 2, 3), (2, 3, 2, 1, 2, 3)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", PARTIAL_SHAPES)
def test_partial_mttkrp_matches_mttkrp_at_every_split(shape, k):
    rng = np.random.default_rng(20)
    t = rng.standard_normal(shape)
    mats = [rng.standard_normal((n, k)) for n in shape]
    for s in range(1, t.ndim):
        t_mat = t.reshape(int(np.prod(shape[:s])), -1)
        halves = [
            (range(0, s), (t_mat @ T.khatri_rao(mats[s:])).reshape(shape[:s] + (k,))),
            (range(s, t.ndim), (t_mat.T @ T.khatri_rao(mats[:s])).reshape(shape[s:] + (k,))),
        ]
        for modes, partial in halves:
            for d in modes:
                rest = [mats[j] for j in modes if j != d]
                got = T.partial_mttkrp_core(partial, rest, d - modes[0])
                others = [m for j, m in enumerate(mats) if j != d]
                assert_rel(got, T.mttkrp(t, others, d))
                assert_rel(got, mttkrp_by_outer_products(t, others, d))


def test_unchecked_cores_match_the_checked_kernels():
    rng = np.random.default_rng(21)
    mats = [rng.standard_normal((n, 3)) for n in (4, 2, 3)]
    assert np.array_equal(T.khatri_rao_core(mats), T.khatri_rao(mats))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", [(5,)] + KERNEL_SHAPES)
def test_cp_to_tensor_matches_references(shape, k):
    rng = np.random.default_rng(17)
    factors = [rng.standard_normal((n, k)) for n in shape]
    got = T.cp_to_tensor(factors)
    assert got.flags.c_contiguous
    assert_rel(got, cp_by_outer_products(factors))
    modes = "abcde"[: len(shape)]
    einsum = np.einsum(",".join(c + "k" for c in modes) + "->" + modes, *factors)
    assert_rel(got, einsum, tol=1e-15)
    if len(shape) == 2:  # the plain product, bit for bit
        assert np.array_equal(got, factors[0] @ factors[1].T)
    unfolded = factors[0] @ T.khatri_rao(factors[1:][::-1]).T if len(shape) > 1 else None
    if unfolded is not None:
        assert_rel(got, T.fold(unfolded, 0, shape))


def test_cp_to_tensor_non_contiguous_factors():
    rng = np.random.default_rng(18)
    factors = [rng.standard_normal((3, n)).T for n in (4, 1, 5, 2)]
    assert_rel(T.cp_to_tensor(factors), cp_by_outer_products(factors))


def test_frobenius_norm_preserved_by_unfolding():
    # same multiset of entries; summation order differs, so compare to ulp level
    rng = np.random.default_rng(12)
    t = rng.standard_normal((4, 3, 5, 2))
    ref = np.linalg.norm(t)
    for d in range(4):
        assert np.isclose(np.linalg.norm(T.unfold(t, d)), ref, rtol=1e-15, atol=0)


def test_property_round_trip_and_norm():
    # every shape of 1-4 modes with sizes 1-5: 780 shapes
    rng = np.random.default_rng(20)
    shapes = [s for n in range(1, 5) for s in itertools.product(range(1, 6), repeat=n)]
    assert len(shapes) == 780
    for shape in shapes:
        t = rng.standard_normal(shape)
        for d in range(t.ndim):
            mat = T.unfold(t, d)
            assert np.array_equal(T.fold(mat, d, shape), t)
            assert np.isclose(np.linalg.norm(mat), np.linalg.norm(t), rtol=1e-15, atol=0)

