"""Binary file formats: tensors, fitted models and eigen decompositions.

Tensor files carry a fixed header (magic ``MPBT``, version byte, mode count,
little-endian u64 dimensions) followed by the float64 payload with the last
index varying fastest. Model and eigen files share an envelope: a 4-byte
magic, a version byte, a u32 length-prefixed JSON header, then float64
little-endian payloads in the order listed in the header. Loads validate
magic, version, size and finiteness; every writer round-trips losslessly
through its reader.
"""

from __future__ import annotations

import json
import math
import os
import struct
from typing import BinaryIO

import numpy as np

from .basis import basis_from_dict
from .fpca import FPCAResult
from .jsonspec import COUNT, FINITE, NULL, STRING, Kind, check, either, list_of, obj
from .model import MPBModel

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_model",
    "read_model",
    "write_eigen",
    "read_eigen",
    "peek_kind",
]

TENSOR_MAGIC = b"MPBT"
MODEL_MAGIC = b"MPBM"
EIGEN_MAGIC = b"MPBE"
FORMAT_VERSION = 1


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated file while reading {what}")
    return data


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    # a NaN reaches both extremes and an inf one of them: no mask as large as arr
    if not (math.isfinite(arr.min(initial=0.0)) and math.isfinite(arr.max(initial=0.0))):
        raise ValueError(f"non-finite values in {what}")
    return arr


def _write_payload(fh: BinaryIO, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_payload(fh: BinaryIO, shape: tuple[int, ...], what: str) -> np.ndarray:
    """The float64 array of ``shape`` at the file position, read straight into
    it; a declared size beyond the bytes left is refused before any read."""
    size = 8 * math.prod(shape)
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated file while reading {what}")
    arr = np.empty(shape, dtype="<f8")
    if fh.readinto(memoryview(arr).cast("B")) != size:
        raise ValueError(f"truncated file while reading {what}")
    return _check_finite(arr.astype(float, copy=False), what)


def write_tensor(path, array: np.ndarray) -> None:
    """Write a dense float64 tensor with its dimension header."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim < 1:
        raise ValueError("tensor must have at least one mode")
    if 0 in arr.shape:  # the reader refuses a zero-length mode
        raise ValueError(f"invalid dimensions {arr.shape}")
    _check_finite(arr, "tensor payload")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<BB", FORMAT_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        _write_payload(fh, arr)


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor`, validating the header."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != TENSOR_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
        version, ndim = struct.unpack("<BB", _read_exact(fh, 2, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported tensor format version {version}")
        if ndim < 1:
            raise ValueError("tensor must have at least one mode")
        dims = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "dimensions"))
        if any(d < 1 for d in dims):
            raise ValueError(f"invalid dimensions {dims}")
        arr = _read_payload(fh, tuple(dims), "tensor payload")
        if fh.read(1):
            raise ValueError("trailing bytes after tensor payload")
    return arr


def _write_envelope(path, magic: bytes, header: dict, payloads: list[np.ndarray]) -> None:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<B", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in payloads:
            _write_payload(fh, arr)


def _read_envelope(path, magic: bytes, what: str, keys: tuple) -> tuple[dict, BinaryIO]:
    """The header, checked against ``keys`` (key table, required keys), and
    the open file positioned at the first payload."""
    fh = open(path, "rb")
    try:
        got = _read_exact(fh, 4, "magic")
        if got != magic:
            raise ValueError(f"bad magic {got!r}, expected {magic!r}")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported {what} format version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = json.loads(_read_exact(fh, hlen, "header"))
        return check(header, f"{what} header", *keys), fh
    except Exception:
        fh.close()
        raise


_SHAPE = list_of(COUNT, "a shape")
_BASIS = Kind("a basis specification", lambda v, _: basis_from_dict(v))
# each header's key table and required keys
_MODEL_HEADER = {
    "kind": STRING, "bases": list_of(_BASIS, "a list of basis specifications"),
    "rank": COUNT, "n_subjects": COUNT, "coef_shapes": list_of(_SHAPE, "a list of shapes"),
    "mean": either(NULL, obj({"shape": _SHAPE}, ("shape",))),
}, ("bases", "rank", "n_subjects", "coef_shapes")
_EIGEN_HEADER = {
    "kind": STRING, "rank": COUNT, "n_components": COUNT, "n_subjects": COUNT, "lambda": FINITE,
}, ("rank", "n_components", "n_subjects", "lambda")


def write_model(path, model: MPBModel) -> None:
    """Serialize a fitted model: JSON header plus coefficient payloads."""
    header = {
        "kind": "mpb-model",
        "bases": [b.to_dict() for b in model.bases],
        "rank": model.rank,
        "n_subjects": model.n_subjects,
        "coef_shapes": [list(c.shape) for c in model.coefs],
        "mean": None,
    }
    payloads = [*model.coefs, model.subject_coefs]
    if model.mean_values is not None:
        header["mean"] = {"shape": list(model.mean_values.shape)}
        for g in model.mean_grids:
            payloads.append(np.asarray(g, dtype=float))
        payloads.append(model.mean_values)
    _write_envelope(path, MODEL_MAGIC, header, payloads)


def read_model(path) -> MPBModel:
    header, fh = _read_envelope(path, MODEL_MAGIC, "model", _MODEL_HEADER)
    with fh:
        k, n = header["rank"], header["n_subjects"]
        coefs = [
            _read_payload(fh, tuple(shape), f"coefficients {d}")
            for d, shape in enumerate(header["coef_shapes"])
        ]
        subject_coefs = _read_payload(fh, (n, k), "subject coefficients")
        mean_grids = mean_values = None
        if header.get("mean") is not None:
            shape = tuple(header["mean"]["shape"])
            mean_grids = [_read_payload(fh, (s,), "mean grid") for s in shape]
            mean_values = _read_payload(fh, shape, "mean values")
        if fh.read(1):
            raise ValueError("trailing bytes after model payload")
    return MPBModel(
        bases=header["bases"],
        coefs=coefs,
        subject_coefs=subject_coefs,
        mean_grids=mean_grids,
        mean_values=mean_values,
    )


def write_eigen(path, result: FPCAResult) -> None:
    """Serialize an FPCA result (eigen coordinates, variances, scores)."""
    if result.scores is None:
        raise ValueError("scores must be computed before serializing")
    header = {
        "kind": "mpb-eigen",
        "rank": result.s.shape[0],
        "n_components": result.n_components,
        "n_subjects": result.scores.shape[0],
        "lambda": float(result.lam),
    }
    _write_envelope(
        path, EIGEN_MAGIC, header, [result.s, result.nu, result.scores, result.var_explained]
    )


def read_eigen(path) -> FPCAResult:
    header, fh = _read_envelope(path, EIGEN_MAGIC, "eigen", _EIGEN_HEADER)
    with fh:
        k, kk, n = header["rank"], header["n_components"], header["n_subjects"]
        s = _read_payload(fh, (k, kk), "eigenvector coordinates")
        nu = _read_payload(fh, (kk,), "eigenvalues")
        sc = _read_payload(fh, (n, kk), "scores")
        var = _read_payload(fh, (kk,), "variance fractions")
        if fh.read(1):
            raise ValueError("trailing bytes after eigen payload")
    lam = float(header["lambda"])
    return FPCAResult(s=s, nu=nu, scores=sc, lam=lam, var_explained=var)


def peek_kind(path) -> str:
    """Identify a file by its magic bytes: 'tensor', 'model' or 'eigen'."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    kinds = {TENSOR_MAGIC: "tensor", MODEL_MAGIC: "model", EIGEN_MAGIC: "eigen"}
    if magic not in kinds:
        raise ValueError(f"bad magic {magic!r}")
    return kinds[magic]
