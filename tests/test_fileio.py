"""Binary formats: lossless round trips and strict header validation."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from mpbasis.basis import BSplineBasis, FourierBasis
from mpbasis.fileio import (
    peek_kind,
    read_eigen,
    read_model,
    read_tensor,
    write_eigen,
    write_model,
    write_tensor,
)
from mpbasis.fpca import FPCAResult
from mpbasis.model import MPBModel


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(4,), (3, 5), (2, 3, 4, 5)]:
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.mpbt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_payload_is_read_once_into_the_result(tmp_path):
    # a bytes read plus a converting copy would peak at twice the payload
    arr = np.random.default_rng(1).standard_normal((64, 64, 96))  # 3 MiB
    path = tmp_path / "t.mpbt"
    write_tensor(path, arr)
    tracemalloc.start()
    try:
        back = read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * arr.nbytes
    assert back.dtype == np.float64 and back.flags.writeable
    assert np.array_equal(back, arr)


def test_tensor_header_layout(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "t.mpbt"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"MPBT"
    assert raw[4] == 1  # version
    assert raw[5] == 2  # ndim
    assert struct.unpack("<2Q", raw[6:22]) == (2, 3)
    payload = np.frombuffer(raw[22:], dtype="<f8")
    assert np.array_equal(payload, arr.reshape(-1))  # last index fastest


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.mpbt"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="bad magic"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    arr = np.ones((3, 3))
    path = tmp_path / "t.mpbt"
    write_tensor(path, arr)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(path)


@pytest.mark.parametrize("kind", ["tensor", "model"])
def test_declared_payload_beyond_the_file_is_refused_before_reading(tmp_path, kind):
    # a dimension of 2**61 declares at least 2**64 payload bytes; the size is
    # checked against the bytes left in the file, never handed to read()
    if kind == "tensor":
        path = tmp_path / "t.mpbt"
        path.write_bytes(b"MPBT" + struct.pack("<BBQ", 1, 1, 2**61) + bytes(16))
        with pytest.raises(ValueError, match="truncated file while reading tensor payload"):
            read_tensor(path)
    else:
        path = tmp_path / "m.mpbm"
        write_model(path, make_model(np.random.default_rng(5)))
        rewrite_header(path, lambda h: {**h, "coef_shapes": [[2**61, 3], [5, 3]]})
        with pytest.raises(ValueError, match="truncated file while reading coefficients 0"):
            read_model(path)


def test_tensor_trailing_bytes(tmp_path):
    arr = np.ones(3)
    path = tmp_path / "t.mpbt"
    write_tensor(path, arr)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(ValueError, match="trailing"):
        read_tensor(path)


def test_tensor_rejects_non_finite(tmp_path):
    path = tmp_path / "t.mpbt"
    with pytest.raises(ValueError, match="non-finite"):
        write_tensor(path, np.array([1.0, np.nan]))
    write_tensor(path, np.ones(2))
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-finite"):
        read_tensor(path)


def test_tensor_with_a_zero_length_mode_is_refused_on_write(tmp_path):
    # read_tensor refuses such a file, so write_tensor does not write one
    path = tmp_path / "t.mpbt"
    with pytest.raises(ValueError, match=r"invalid dimensions \(10, 12, 0\)"):
        write_tensor(path, np.ones((10, 12, 0)))
    assert not path.exists()


def test_tensor_bad_version(tmp_path):
    arr = np.ones(2)
    path = tmp_path / "t.mpbt"
    write_tensor(path, arr)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_tensor(path)


def make_model(rng, with_mean=False):
    bases = [BSplineBasis((0.0, 1.0), 6), FourierBasis((0.0, 2.0), 5, period=2.0)]
    coefs = [rng.standard_normal((6, 3)), rng.standard_normal((5, 3))]
    b = rng.standard_normal((4, 3))
    mean_grids = mean_values = None
    if with_mean:
        mean_grids = [np.linspace(0, 1, 8), np.linspace(0, 2, 7)]
        mean_values = rng.standard_normal((8, 7))
    return MPBModel(
        bases=bases,
        coefs=coefs,
        subject_coefs=b,
        mean_grids=mean_grids,
        mean_values=mean_values,
    )


@pytest.mark.parametrize("with_mean", [False, True])
def test_model_round_trip(tmp_path, with_mean):
    rng = np.random.default_rng(1)
    model = make_model(rng, with_mean)
    path = tmp_path / "m.mpbm"
    write_model(path, model)
    back = read_model(path)
    assert len(back.bases) == 2
    for b0, b1 in zip(model.bases, back.bases):
        assert b0.to_dict() == b1.to_dict()
    for c0, c1 in zip(model.coefs, back.coefs):
        assert np.array_equal(c0, c1)
    assert np.array_equal(back.subject_coefs, model.subject_coefs)
    if with_mean:
        assert np.array_equal(back.mean_values, model.mean_values)
        for g0, g1 in zip(model.mean_grids, back.mean_grids):
            assert np.array_equal(g0, g1)
    else:
        assert back.mean_values is None
    # model evaluation identical after the round trip
    grids = [np.linspace(0, 1, 8), np.linspace(0, 2, 7)] if with_mean else [
        np.linspace(0, 1, 5),
        np.linspace(0, 2, 6),
    ]
    assert np.array_equal(back.evaluate_subjects(grids), model.evaluate_subjects(grids))


def test_model_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    model = make_model(rng, with_mean=True)
    p1, p2 = tmp_path / "a.mpbm", tmp_path / "b.mpbm"
    write_model(p1, model)
    write_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_eigen_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    s = rng.standard_normal((5, 2))
    result = FPCAResult(
        s=s,
        nu=np.array([2.0, 1.0]),
        scores=rng.standard_normal((7, 2)),
        lam=0.25,
        var_explained=np.array([0.7, 0.95]),
    )
    path = tmp_path / "e.mpbe"
    write_eigen(path, result)
    back = read_eigen(path)
    assert np.array_equal(back.s, result.s)
    assert np.array_equal(back.nu, result.nu)
    assert np.array_equal(back.scores, result.scores)
    assert np.array_equal(back.var_explained, result.var_explained)
    assert back.lam == 0.25


def test_eigen_requires_scores(tmp_path):
    result = FPCAResult(
        s=np.eye(2), nu=np.ones(2), scores=None, lam=0.0, var_explained=np.ones(2)
    )
    with pytest.raises(ValueError, match="scores"):
        write_eigen(tmp_path / "e.mpbe", result)


def test_peek_kind(tmp_path):
    rng = np.random.default_rng(4)
    write_tensor(tmp_path / "t.mpbt", np.ones(3))
    write_model(tmp_path / "m.mpbm", make_model(rng))
    assert peek_kind(tmp_path / "t.mpbt") == "tensor"
    assert peek_kind(tmp_path / "m.mpbm") == "model"
    (tmp_path / "x.bin").write_bytes(b"ABCD1234")
    with pytest.raises(ValueError, match="bad magic"):
        peek_kind(tmp_path / "x.bin")


def rewrite_header(path, edit):
    """Rewrite the JSON header of a model or eigen file through ``edit``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[5:9])
    blob = json.dumps(edit(json.loads(raw[9 : 9 + hlen]))).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + hlen :])


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _drop_domain(h):
    return {**h, "bases": [{k: v for k, v in b.items() if k != "domain"} for b in h["bases"]]}


def _set_basis_field(key, value):
    return lambda h: {**h, "bases": [{**h["bases"][0], key: value}, *h["bases"][1:]]}


@pytest.mark.parametrize(
    "edit, match",
    [
        (_drop("rank"), "model header has no field 'rank'"),
        (lambda h: [h], "model header is not a JSON object"),
        (_drop_domain, "bspline basis specification has no field 'domain'"),
        (lambda h: {**h, "n_subjects": "4"}, "model header field 'n_subjects' is not a count"),
        (lambda h: {**h, "coef_shapes": [[6, 3], [5, -3]]}, "'coef_shapes' is not a list of shapes"),
        (_set_basis_field("domain", 5), "field 'domain' is not a list of two numbers: 5"),
        (_set_basis_field("rank", None), "field 'rank' is not an integer: None"),
        (_set_basis_field("rank", "7"), "field 'rank' is not an integer: '7'"),
        (_set_basis_field("domain", [0, 1, 2]), "field 'domain' is not a list of two numbers"),
        (_set_basis_field("rank", True), "bspline basis specification field 'rank' is not an"),
    ],
    ids=[
        "no_rank", "list", "no_domain", "string_count", "negative_shape",
        "number_domain", "null_rank", "string_rank", "three_value_domain", "bool_rank",
    ],
)
def test_model_header_errors_name_the_field(tmp_path, edit, match):
    path = tmp_path / "m.mpbm"
    write_model(path, make_model(np.random.default_rng(5), with_mean=True))
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=match):
        read_model(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (_drop("n_components"), "eigen header has no field 'n_components'"),
        (lambda h: [h], "eigen header is not a JSON object"),
        (lambda h: {**h, "lambda": None}, "eigen header field 'lambda' is not a number"),
    ],
    ids=["no_components", "list", "null_lambda"],
)
def test_eigen_header_errors_name_the_field(tmp_path, edit, match):
    result = FPCAResult(
        s=np.eye(3)[:, :2], nu=np.ones(2), scores=np.ones((4, 2)), lam=0.0,
        var_explained=np.ones(2),
    )
    path = tmp_path / "e.mpbe"
    write_eigen(path, result)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=match):
        read_eigen(path)
