"""Continuous representations built from marginal product basis functions.

An :class:`MPBModel` bundles the marginal basis systems, one coefficient
matrix per dimension and the per-subject coefficients. Each basis function is
a product of one smooth function per dimension, which makes inner products,
Laplacian penalties and projections of new gridded data computable from
marginal quantities alone. Evaluation and projection on a grid read each
marginal's evaluation matrix and thin SVD, and the Gram and Laplacian forms
each basis's quadrature matrices, from the set-up memo of :mod:`reduction`,
which the reduction of the training data filled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from . import reduction
from .errors import NumericalError
from .tensors import cp_to_tensor

# not called here: perfbench/tracer.py wraps these names on this module
from .tensors import gram_of_khatri_rao, mttkrp  # noqa: F401

__all__ = ["MPBModel"]


def _grids_equal(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass
class MPBModel:
    """Rank-K marginal product representation of a functional sample.

    Parameters
    ----------
    bases : list of marginal bases
        One basis system per dimension.
    coefs : list of ndarray
        Per-dimension coefficient matrices, each ``rank(basis_d) x K``.
    subject_coefs : ndarray
        ``N x K`` coefficients expressing each subject over the K product
        functions.
    mean_grids, mean_values : optional
        Gridded mean that was subtracted before fitting. It is added back
        only when evaluating on the identical grid; evaluation on any other
        grid raises instead of silently interpolating the mean.
    """

    bases: list
    coefs: list[np.ndarray]
    subject_coefs: np.ndarray
    mean_grids: list[np.ndarray] | None = None
    mean_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.bases) != len(self.coefs):
            raise ValueError("one coefficient matrix per basis is required")
        if len(self.bases) == 0:
            raise ValueError("at least one dimension is required")
        self.coefs = [np.asarray(c, dtype=float) for c in self.coefs]
        self.subject_coefs = np.asarray(self.subject_coefs, dtype=float)
        k = self.subject_coefs.shape[1] if self.subject_coefs.ndim == 2 else -1
        if k < 1:
            raise ValueError("subject_coefs must be an N x K matrix with K >= 1")
        for d, (b, c) in enumerate(zip(self.bases, self.coefs)):
            if c.shape != (b.rank, k):
                raise ValueError(
                    f"coefficient matrix {d} has shape {c.shape}, expected ({b.rank}, {k})"
                )
        if (self.mean_grids is None) != (self.mean_values is None):
            raise ValueError("mean_grids and mean_values must be given together")
        if self.mean_values is not None:
            self.mean_grids = [np.asarray(g, dtype=float) for g in self.mean_grids]
            self.mean_values = np.asarray(self.mean_values, dtype=float)
            if len(self.mean_grids) != len(self.bases):
                raise ValueError(
                    f"{len(self.mean_grids)} mean grids for {len(self.bases)} dimensions"
                )
            expect = tuple(len(g) for g in self.mean_grids)
            if self.mean_values.shape != expect:
                raise ValueError(
                    f"mean values shape {self.mean_values.shape} does not match grids {expect}"
                )

    @property
    def n_dims(self) -> int:
        return len(self.bases)

    @property
    def rank(self) -> int:
        return self.subject_coefs.shape[1]

    @property
    def n_subjects(self) -> int:
        return self.subject_coefs.shape[0]

    def marginal_values(self, grids: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per-dimension evaluations of the K marginal functions on grids, from
        each basis's evaluation matrix in the set-up memo (:func:`reduction.evaluation`)."""
        if len(grids) != self.n_dims:
            raise ValueError(f"expected {self.n_dims} grids, got {len(grids)}")
        return [reduction.evaluation(b, g) @ c for b, g, c in zip(self.bases, grids, self.coefs)]

    def evaluate_basis(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the K product basis functions at scattered points.

        ``points`` is ``n_points x D``; entry ``(i, k)`` of the result is the
        product over dimensions of the k-th marginal function at ``points[i]``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.n_dims:
            raise ValueError(f"points must have {self.n_dims} columns, got {pts.shape[1]}")
        out = np.ones((pts.shape[0], self.rank))
        for d, (b, c) in enumerate(zip(self.bases, self.coefs)):
            out *= b.evaluate(pts[:, d]) @ c
        return out

    def evaluate_subjects(self, grids: Sequence[np.ndarray]) -> np.ndarray:
        """Reconstruct every subject on a tensor grid.

        Returns a ``(len(g_1), ..., len(g_D), N)`` array. When a stored mean
        is present the grids must match the mean grid exactly.
        """
        out = cp_to_tensor(self.marginal_values(grids) + [self.subject_coefs])
        if self.mean_values is not None:
            out = out + self._mean_on(grids)[..., None]
        return out

    def _mean_on(self, grids: Sequence[np.ndarray]) -> np.ndarray:
        """The stored gridded mean; ``grids`` must equal the mean grid exactly."""
        if not _grids_equal([np.asarray(g, dtype=float) for g in grids], self.mean_grids):
            raise ValueError(
                "a gridded mean is stored but the evaluation grid differs from "
                "the mean grid; evaluate the mean separately instead"
            )
        return self.mean_values

    def _forms(self, name: str, *args) -> list[np.ndarray]:
        """Each dimension's K x K form ``c_d' Q_d c_d`` of the quadrature matrix
        ``Q_d`` of :mod:`basis` called ``name`` (:func:`reduction.quadrature`)."""
        return [
            c.T @ reduction.quadrature(b, name, *args) @ c for b, c in zip(self.bases, self.coefs)
        ]

    def gram_zeta(self) -> np.ndarray:
        """K x K matrix of pairwise inner products of the product functions.

        Entry ``(i, j)`` is the product over dimensions of the marginal
        quadratic forms through each basis Gram matrix.
        """
        out = reduce(np.multiply, self._forms("gram_matrix"))
        return 0.5 * (out + out.T)

    def laplacian_penalty_zeta(self) -> np.ndarray:
        """K x K matrix of inner products of Laplacians of the product functions.

        Sums, over ordered dimension pairs ``(d, a)``, the Hadamard product of
        one marginal form per dimension: the second-derivative penalty form
        at ``d`` when ``d == a``, else the transposed cross form at ``d`` and
        the cross form at ``a`` (not penalty forms: integration by parts of
        the mixed partials leaves boundary terms that need not vanish), and
        the Gram form elsewhere. The result is symmetric PSD up to roundoff.
        """
        j_forms = self._forms("gram_matrix")
        r_forms = self._forms("penalty_matrix", 2)
        e_forms = self._forms("cross_matrix")
        out = np.zeros((self.rank, self.rank))
        for d, a in itertools.product(range(self.n_dims), repeat=2):
            out += reduce(np.multiply, [
                r if b == d == a else e.T if b == d else e if b == a else j
                for b, (j, r, e) in enumerate(zip(j_forms, r_forms, e_forms))
            ])
        asym = np.linalg.norm(out - out.T)
        if asym > 1e-8 * max(np.linalg.norm(out), 1e-300):
            raise NumericalError(
                f"Laplacian penalty assembly lost symmetry (relative asymmetry {asym:.2e})"
            )
        return 0.5 * (out + out.T)

    def project(
        self, y_new: np.ndarray, grids: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Least-squares coefficients of new gridded observations.

        ``y_new`` is either a single ``(n_1, ..., n_D)`` array or a stack
        ``(n_1, ..., n_D, N)``. Returns ``(coefs, residual_norms)`` where
        ``coefs`` is ``N x K`` (or ``(K,)`` for a single observation) in the
        discrete inner product of the evaluated basis.

        A model fitted with a centered sample stores its gridded mean; then
        the grids must equal the mean grid exactly (as in
        :meth:`evaluate_subjects`) and the mean is subtracted from every
        observation first, so projecting the training data reproduces
        ``subject_coefs`` (up to the solver's coefficient penalty).

        The projection runs in compressed coordinates. With the thin SVD
        ``Phi_d = U_d S_d V_d'`` of each basis evaluated on its grid (no rank
        guard: a grid coarser than the basis rank works), the SVD that
        :func:`reduction.prepare` guards, from the same memo
        (:func:`reduction.factorization`), the evaluated
        product functions are ``(kron U_d) khatri_rao(S_d V_d' c_d)``, with
        ``c_d`` the coefficient matrices (:func:`reduction.forward_transform`).
        The coefficients are the QR
        least-squares solution of :func:`reduction.lstsq_compressed` against
        the small ``prod(m_d) x K`` matrix, so the conditioning of the
        evaluated basis is not squared. Each residual norm is the in-span
        residual plus the out-of-span energy of
        :func:`reduction.out_of_span_sq`, both formed directly, so it is
        accurate to a small multiple of machine epsilon times ``|y|`` for that
        subject, also when ``y`` lies in the span.
        """
        y = np.asarray(y_new, dtype=float)
        single = y.ndim == self.n_dims
        y, grids = reduction.check_inputs(y[..., None] if single else y, grids, self.bases)
        facs = [reduction.factorization(b, g) for b, g in zip(self.bases, grids)]
        if self.mean_values is not None:
            y = y - self._mean_on(grids)[..., None]
        g = reduction.compress(y, facs)
        coefs, resid_sq = reduction.lstsq_compressed(
            g,
            [reduction.forward_transform(f, c) for f, c in zip(facs, self.coefs)],
            reduction.out_of_span_sq(y, facs, g),
            "evaluated product basis is numerically dependent on this grid; "
            "projection is not unique",
        )
        resid = np.sqrt(resid_sq)
        if single:
            return coefs[0], resid[0]
        return coefs, resid
