import numpy as np
import pytest

from depthfusion import blas
from depthfusion import tensor as T
from depthfusion.gradcheck import run_suite
from depthfusion.tensor import Tensor

TOL = {np.float32: 1e-5, np.float64: 1e-12}
has_gemm = pytest.mark.skipif(
    blas._library() is None or not blas._library().gemm,
    reason="no cblas ?gemm found in this process")


def _operand(rng, shape, dtype, transposed, strided):
    """A 2-D view of the given shape: stored transposed when asked, and with
    a row (or column) stride larger than its extent when strided."""
    rows, cols = shape[::-1] if transposed else shape
    base = rng.normal(size=(rows, cols + 3 * strided)).astype(dtype)[:, strided:strided + cols]
    return base.T if transposed else base


def _check(got, want, dtype):
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= TOL[dtype] * np.abs(want).max()


@pytest.fixture
def numpy_refused(monkeypatch):
    """Fails any product that reaches np.matmul, so a test sees that the
    helper took the BLAS path."""
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: pytest.fail("np.matmul called"))


@has_gemm
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("accumulate", [False, True])
def test_gemm_matches_matmul(numpy_refused, dtype, ta, tb, strided, accumulate):
    rng = np.random.default_rng([ta, tb, strided, accumulate])
    a = _operand(rng, (7, 5), dtype, ta, strided)
    b = _operand(rng, (5, 9), dtype, tb, strided)
    c = _operand(rng, (7, 9), dtype, False, strided)
    want = a.astype(np.float64) @ b.astype(np.float64)
    if accumulate:
        want += c
    blas.gemm(a, b, c, accumulate=accumulate)
    _check(c, want, dtype)


@pytest.mark.parametrize("case", ["mixed dtypes", "no unit stride", "out transposed",
                                  "out overlaps a", "single row", "no cblas"])
@pytest.mark.parametrize("accumulate", [False, True])
def test_gemm_falls_back_to_numpy(monkeypatch, case, accumulate):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(4, 8))
    c = np.zeros((6, 8)) if case != "out transposed" else np.zeros((8, 6)).T
    if case == "mixed dtypes":
        a = a.astype(np.float32)
    elif case == "no unit stride":
        b = rng.normal(size=(8, 16))[::2, ::2]
    elif case == "out overlaps a":
        buf = rng.normal(size=(6, 12))
        a, c = buf[:, :4], buf[:, 4:]
    elif case == "single row":
        a, c = a[:1], c[:1]
    elif case == "no cblas":
        monkeypatch.setattr(blas, "_library", lambda: None)
    want = a @ b + (c if accumulate else 0)
    blas.gemm(a, b, c, accumulate=accumulate)
    _check(c, want, c.dtype.type)


def test_gemm_shape_errors_come_from_numpy():
    with pytest.raises(ValueError):
        blas.gemm(np.ones((3, 4)), np.ones((5, 2)), np.empty((3, 2)))
    with pytest.raises(ValueError):
        blas.gemm(np.ones((3, 4)), np.ones((4, 2)), np.empty((3, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_forward_same_on_numpy_fallback(monkeypatch, dtype, stride):
    rng = np.random.default_rng(stride)
    x = Tensor(rng.normal(size=(2, 6, 13, 11)), dtype=dtype)
    k = Tensor(rng.normal(size=(5, 6, 3, 3)), dtype=dtype)
    b = Tensor(rng.normal(size=5), dtype=dtype)
    fast = T.conv2d(x, k, b, stride=stride, padding=1).data
    monkeypatch.setattr(blas, "_library", lambda: None)
    slow = T.conv2d(x, k, b, stride=stride, padding=1).data
    assert np.abs(fast - slow).max() <= 1e-6 * np.abs(slow).max()


@pytest.mark.parametrize("fallback", [False, True])
def test_gradcheck_suite_on_both_paths(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(blas, "_library", lambda: None)
    records = run_suite(n_seeds=10, tol=1e-4)
    assert all(r["passed"] for r in records), records
