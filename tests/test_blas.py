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


def _stack(rng, shape, dtype, transposed=False):
    """A (count, rows, cols) stack, each matrix stored transposed when asked."""
    if transposed:
        return rng.normal(size=shape[:1] + shape[:0:-1]).astype(dtype).transpose(0, 2, 1)
    return rng.normal(size=shape).astype(dtype)


def _tap_sum(a, b, taps, cols):
    """The float64 sum that blas.tap_gemm computes."""
    return sum(a[t].astype(np.float64) @ b[i][:, o:o + cols].astype(np.float64)
               for t, (i, o) in enumerate(taps))


def _check(got, want, dtype):
    assert got.dtype == dtype
    assert np.abs(got - want).max() <= TOL[dtype] * np.abs(want).max()


def _refuse_numpy(monkeypatch):
    """Fails any product that reaches np.matmul, so a test sees that the
    helper took the BLAS path."""
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: pytest.fail("np.matmul called"))


@has_gemm
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("tb", [False, True])
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("accumulate", [False, True])
def test_gemm_matches_matmul(monkeypatch, dtype, ta, tb, strided, accumulate):
    """The tap sum equals a float64 one for every operand layout. Stacks as
    conv2d passes them take the BLAS path (np.matmul refused); a stack
    stored transposed is computed by numpy. ``strided`` reads ``b`` at
    column offsets and writes a column window of a wider array;
    ``accumulate`` sums three taps rather than one."""
    rng = np.random.default_rng([ta, tb, strided, accumulate])
    taps = [(1, 3 * strided), (0, 0), (1, 2 * strided)][:1 + 2 * accumulate]
    cols = 9
    a = _stack(rng, (len(taps), 7, 5), dtype, ta)
    b = _stack(rng, (2, 5, cols + 3 * strided), dtype, tb)
    buf = np.full((7, cols + 3 * strided), np.nan, dtype=dtype)
    want = _tap_sum(a, b, taps, cols)
    if not (ta or tb):
        _refuse_numpy(monkeypatch)
    blas.tap_gemm(a, b, taps, buf[:, :cols])
    _check(buf[:, :cols], want, dtype)
    assert np.isnan(buf[:, cols:]).all()


@pytest.mark.parametrize("case", ["mixed dtypes", "no unit stride", "out transposed",
                                  "out overlaps a", "single row", "no cblas"])
@pytest.mark.parametrize("accumulate", [False, True])
def test_gemm_falls_back_to_numpy(monkeypatch, case, accumulate):
    """Each tap is np.matmul when the check refuses an operand, when out has
    one row and when no cblas ?gemm is found; the sum stays right."""
    rng = np.random.default_rng(3)
    taps = [(1, 2), (0, 0)] if accumulate else [(1, 2)]
    a = _stack(rng, (len(taps), 6, 4), np.float64)
    b = _stack(rng, (2, 4, 10), np.float64)
    c = np.zeros((6, 8)) if case != "out transposed" else np.zeros((8, 6)).T
    if case == "mixed dtypes":
        a = a.astype(np.float32)
    elif case == "no unit stride":
        b = rng.normal(size=(2, 4, 20))[:, :, ::2]
    elif case == "out overlaps a":
        # a sits between out's first and last element, though no element is shared
        buf = np.zeros((6, 8 + a.size))
        buf[0, 8:] = a.ravel()
        a, c = buf[0, 8:].reshape(a.shape), buf[:, :8]
    elif case == "single row":
        a, c = a[:, :1], c[:1]
    elif case == "no cblas":
        monkeypatch.setattr(blas, "_library", lambda: None)
    want = _tap_sum(a, b, taps, 8)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: calls.append(1)
                        or matmul(*args, **kwargs))
    blas.tap_gemm(a, b, taps, c)
    assert len(calls) == len(taps)
    _check(c, want, c.dtype.type)


def test_gemm_shape_errors_come_from_numpy():
    with pytest.raises(ValueError):
        blas.tap_gemm(np.ones((1, 3, 4)), np.ones((1, 5, 2)), [(0, 0)], np.empty((3, 2)))
    with pytest.raises(ValueError):
        blas.tap_gemm(np.ones((1, 3, 4)), np.ones((1, 4, 2)), [(0, 0)], np.empty((3, 3)))


def _conv_reference(x, k, stride, padding):
    """Direct float64 cross-correlation, one kernel tap at a time."""
    x, k = x.astype(np.float64), k.astype(np.float64)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (xp.shape[2] - k.shape[2]) // stride + 1
    wo = (xp.shape[3] - k.shape[3]) // stride + 1
    y = np.zeros((x.shape[0], k.shape[0], ho, wo))
    for i in range(k.shape[2]):
        for j in range(k.shape[3]):
            window = xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride]
            y += np.einsum("oc,nchw->nohw", k[:, :, i, j], window)
    return y


@has_gemm
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size,stride", [(3, 1), (3, 2), (1, 1)])
def test_conv2d_forward_takes_the_blas_path(monkeypatch, dtype, size, stride):
    rng = np.random.default_rng([size, stride])
    x = rng.normal(size=(2, 6, 13, 11)).astype(dtype)
    k = rng.normal(size=(5, 6, size, size)).astype(dtype)
    _refuse_numpy(monkeypatch)
    got = T.conv2d(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype),
                   Tensor(np.zeros(5), dtype=dtype), stride=stride, padding=size // 2).data
    _check(got, _conv_reference(x, k, stride, size // 2), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_row_output_has_the_bits_of_a_matmul_loop(dtype):
    rng = np.random.default_rng(5)
    taps = [(0, 0), (1, 1), (0, 2), (1, 3)]
    a = _stack(rng, (4, 1, 6), dtype)
    b = _stack(rng, (2, 6, 40), dtype)
    want = np.empty((1, 37), dtype=dtype)
    for t, (i, o) in enumerate(taps):
        if t:
            want += np.matmul(a[t], b[i][:, o:o + 37])
        else:
            np.matmul(a[t], b[i][:, o:o + 37], out=want)
    got = blas.tap_gemm(a, b, taps, np.empty((1, 37), dtype=dtype))
    assert got.tobytes() == want.tobytes()


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
