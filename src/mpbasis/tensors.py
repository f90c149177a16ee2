"""Dense multiway-array kernels: unfoldings, mode products, Khatri-Rao algebra,
the matricized-tensor times Khatri-Rao product (MTTKRP) and the CP tensor.

Conventions, fixed once for the whole package:

* Tensors are C-contiguous ``float64`` numpy arrays (last index varies fastest
  in memory). Modes are 0-based.
* ``unfold(t, d)`` produces the ``n_d x prod(other dims)`` matrix whose columns
  are ordered with *earlier* modes varying fastest, so that a rank-1 tensor
  built from factor columns ``a_0, ..., a_{P-1}`` unfolds along mode ``d`` to
  ``a_d`` times the Kronecker row built from the remaining factors in
  *descending* mode order.
* ``khatri_rao([A, B])`` stacks columnwise Kronecker products ``kron(a_k, b_k)``
  with the second argument's index varying fastest.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "unfold",
    "fold",
    "mode_multiply",
    "khatri_rao",
    "gram_of_khatri_rao",
    "half_split",
    "mttkrp",
    "cp_to_tensor",
]


def _check_mode(tensor: np.ndarray, mode: int) -> None:
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for a {tensor.ndim}-mode tensor")


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding with earlier remaining modes varying fastest."""
    t = np.asarray(tensor)
    _check_mode(t, mode)
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold` for a tensor of the given full shape."""
    shape = tuple(int(s) for s in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    lead = (shape[mode],) + tuple(s for i, s in enumerate(shape) if i != mode)
    m = np.asarray(matrix)
    if m.size != int(np.prod(shape)):
        raise ValueError(f"cannot fold {m.shape} into shape {shape}")
    return np.moveaxis(np.reshape(m, lead, order="F"), 0, mode)


def mode_multiply(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``matrix`` (shape ``r x n_mode``) against mode ``mode``.

    Equivalent to ``fold(matrix @ unfold(tensor, mode), mode, new_shape)``.
    """
    t = np.asarray(tensor)
    m = np.asarray(matrix)
    _check_mode(t, mode)
    if m.ndim != 2 or m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix of shape {m.shape} does not match mode {mode} of size {t.shape[mode]}"
        )
    return np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)


def _check_factor_columns(mats: Sequence[np.ndarray]) -> None:
    if len(mats) == 0:
        raise ValueError("need at least one factor matrix")
    k = mats[0].shape[1]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[1] != k:
            raise ValueError(f"factor {i} has {m.shape[1]} columns, expected {k}")


def khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Columnwise Kronecker product; the last listed factor varies fastest."""
    _check_factor_columns(mats)
    return khatri_rao_core([np.asarray(m) for m in mats])


def khatri_rao_core(mats: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`khatri_rao` without its checks: ``mats`` is a nonempty list of
    2-d float arrays with equal column counts (the solver's own factors)."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def gram_of_khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Gram matrix of the Khatri-Rao product without materializing it.

    Uses the Hadamard identity: the Gram of a columnwise Kronecker stack is the
    elementwise product of the per-factor Gram matrices.
    """
    _check_factor_columns(mats)
    out = None
    for m in mats:
        g = np.asarray(m).T @ np.asarray(m)
        out = g if out is None else out * g
    return out


def half_split(shape: Sequence[int]) -> int:
    """Split point ``s`` of a tensor's modes into ``[0, s)`` and ``[s, P)``.

    Returns the ``s`` in ``1 .. P-1`` that minimizes ``prod(shape[:s]) +
    prod(shape[s:])`` (the first one on ties): the two halves then give the
    smallest Khatri-Rao products and partials. A C-contiguous tensor is a
    ``prod(shape[:s]) x prod(shape[s:])`` matrix without a copy.
    """
    shape = tuple(int(n) for n in shape)
    if len(shape) < 2:
        raise ValueError(f"need at least two modes to split, got shape {shape}")
    sizes = [math.prod(shape[:s]) + math.prod(shape[s:]) for s in range(1, len(shape))]
    return 1 + sizes.index(min(sizes))


def partial_mttkrp_core(partial: np.ndarray, mats: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """MTTKRP along ``mode`` of a tensor already contracted over its other half.

    ``partial`` has shape ``(n_0, ..., n_{m-1}, K)``: the modes of one half
    of a tensor, and the component axis left by contracting the other half
    with its Khatri-Rao product (one GEMM, as in :func:`mttkrp`). ``mats``
    holds one factor per half mode except ``mode``, in ascending mode order.
    Returns the ``n_mode x K`` matrix whose column ``k`` contracts
    ``partial[..., k]`` with column ``k`` of every factor in ``mats``: the
    modes after ``mode`` first, then those before it, each side with its
    Khatri-Rao product. The temporaries are at most the size of ``partial``
    divided by the sizes of the modes after ``mode``. Nothing is checked:
    ``partial`` and ``mats`` are float arrays whose shapes match (built by
    :func:`mttkrp` or the solver's sweep).
    """
    shape, k = partial.shape[:-1], partial.shape[-1]
    p = partial.reshape(math.prod(shape[:mode]), shape[mode], -1, k)
    if mode < len(shape) - 1:
        p = np.einsum("bnak,ak->bnk", p, khatri_rao_core(mats[mode:]))
    else:
        p = p[:, :, 0, :]
    if mode > 0:
        return np.einsum("bnk,bk->nk", p, khatri_rao_core(mats[:mode]))
    return p[0]


def mttkrp(tensor: np.ndarray, mats: Sequence[np.ndarray], mode: int) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product along ``mode``.

    ``mats`` holds one factor per tensor mode except ``mode``, in ascending
    mode order. The result equals
    ``unfold(tensor, mode) @ khatri_rao(mats reversed)``. The modes are cut
    at :func:`half_split`; one matrix product contracts the half without
    ``mode`` with the Khatri-Rao product of its factors, and
    :func:`partial_mttkrp_core` contracts the rest of the half with ``mode``. The
    ``prod(left) x prod(right)`` view of a C-contiguous tensor is not a copy,
    and no Khatri-Rao product of more than one half is formed.
    """
    t = np.asarray(tensor)
    _check_mode(t, mode)
    if len(mats) != t.ndim - 1:
        raise ValueError(f"expected {t.ndim - 1} factors, got {len(mats)}")
    other = [d for d in range(t.ndim) if d != mode]
    for d, m in zip(other, mats):
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != t.shape[d]:
            raise ValueError(
                f"factor for mode {d} has shape {m.shape}, expected ({t.shape[d]}, K)"
            )
    _check_factor_columns(mats)
    mats = [np.asarray(m) for m in mats]
    s = half_split(t.shape)
    t_mat = t.reshape(math.prod(t.shape[:s]), -1)
    if mode < s:
        partial = t_mat @ khatri_rao_core(mats[s - 1 :])
        return partial_mttkrp_core(partial.reshape(t.shape[:s] + (-1,)), mats[: s - 1], mode)
    partial = t_mat.T @ khatri_rao_core(mats[:s])
    return partial_mttkrp_core(partial.reshape(t.shape[s:] + (-1,)), mats[s:], mode - s)


def cp_to_tensor(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Materialize the sum of rank-1 outer products defined by factor columns.

    Computed as one matrix product of the Khatri-Rao products of the two
    halves of the modes cut at :func:`half_split`; that ``prod(left) x
    prod(right)`` matrix is the C-order tensor up to a reshape. Two factors
    give the plain product ``first @ last.T``.
    """
    _check_factor_columns(factors)
    shape = tuple(np.shape(f)[0] for f in factors)
    if len(factors) == 1:
        return np.asarray(factors[0]).sum(axis=1)
    s = half_split(shape)
    return (khatri_rao(factors[:s]) @ khatri_rao(factors[s:]).T).reshape(shape)

