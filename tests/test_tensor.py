import tracemalloc

import numpy as np
import pytest

from depthfusion import tensor as T
from depthfusion.tensor import ShapeError, Tensor


def t(data, grad=True, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


def test_conv2d_hand_value():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    k = t([[[[1.0, 0.0], [0.0, 1.0]]]])
    b = t([0.0])
    out = T.conv2d(x, k, b, stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 5.0


def test_conv2d_zero_kernel_gives_bias():
    rng = np.random.default_rng(0)
    x = t(rng.uniform(-1, 1, size=(2, 3, 5, 6)))
    k = t(np.zeros((4, 3, 3, 3)))
    b = t([1.0, -2.0, 0.5, 3.0])
    out = T.conv2d(x, k, b, stride=1, padding=1)
    for c in range(4):
        assert np.all(out.data[:, c] == b.data[c])


def test_conv2d_shape_validation():
    x = t(np.zeros((1, 3, 4, 4)))
    k = t(np.zeros((2, 5, 3, 3)))  # channel mismatch
    b = t(np.zeros(2))
    with pytest.raises(ShapeError):
        T.conv2d(x, k, b, stride=1, padding=1)


def test_conv2d_stride2_output_shape():
    x = t(np.zeros((1, 2, 8, 12)))
    k = t(np.zeros((5, 2, 3, 3)))
    b = t(np.zeros(5))
    out = T.conv2d(x, k, b, stride=2, padding=1)
    assert out.shape == (1, 5, 4, 6)


def _conv_reference(x, k, b, stride, pad, g):
    """Direct loops: the output and the gradients of sum(output * g)."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.zeros((n, cin, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    y = np.zeros((n, cout, ho, wo))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for img in range(n):
        for o in range(cout):
            for u in range(ho):
                for v in range(wo):
                    win = np.s_[img, :, u * stride:u * stride + kh,
                                v * stride:v * stride + kw]
                    y[img, o, u, v] = (xp[win] * k[o]).sum() + b[o]
                    gk[o] += g[img, o, u, v] * xp[win]
                    gxp[win] += g[img, o, u, v] * k[o]
    return y, gxp[:, :, pad:pad + h, pad:pad + w], gk, g.sum(axis=(0, 2, 3))


# (batch, cin, cout, kernel, stride, padding, height, width)
CONV_CASES = [
    (1, 1, 1, 1, 1, 0, 5, 6),
    (3, 3, 5, 3, 1, 1, 6, 7),
    (1, 6, 2, 3, 2, 1, 8, 9),
    (3, 1, 4, 7, 1, 0, 9, 8),
    (1, 3, 1, 7, 2, 1, 11, 10),
    (3, 6, 1, 3, 2, 0, 7, 8),
    (1, 5, 3, 1, 2, 1, 6, 6),
    (3, 4, 4, 3, 1, 0, 5, 5),
    (1, 3, 8, 3, 2, 1, 9, 7),
    (2, 3, 4, 3, 2, 1, 7, 9),
]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("n, cin, cout, k, stride, pad, h, w", CONV_CASES)
def test_conv2d_matches_direct_loops(n, cin, cout, k, stride, pad, h, w, dtype, tol):
    rng = np.random.default_rng(cin * 100 + cout * 10 + k)
    x = t(rng.normal(size=(n, cin, h, w)), dtype=dtype)
    kern = t(rng.normal(size=(cout, cin, k, k)), dtype=dtype)
    b = t(rng.normal(size=cout), dtype=dtype)
    out = T.conv2d(x, kern, b, stride=stride, padding=pad)
    g = rng.normal(size=out.shape).astype(dtype)
    grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=dtype)))
    want = _conv_reference(*(a.data.astype(np.float64) for a in (x, kern, b)),
                           stride, pad, g.astype(np.float64))
    for got, ref in zip((out.data, grads[x], grads[kern], grads[b]), want):
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def test_no_grad_records_no_graph():
    x = t(np.ones((1, 2, 4, 4)))
    k = t(np.ones((3, 2, 3, 3)))
    b = t(np.zeros(3))
    with T.no_grad():
        out = T.sigmoid(T.conv2d(x, k, b, stride=1, padding=1))
    assert not out.requires_grad
    assert out._backward_fn is None and out._parents == ()
    assert T.conv2d(x, k, b, stride=1, padding=1)._backward_fn is not None


def test_window_mean_shape_validation():
    x = t(np.ones((1, 2, 5, 6)))
    assert T.window_mean(x, 5).shape == (1, 2, 1, 2)
    with pytest.raises(ShapeError):
        T.window_mean(t(np.ones((2, 5, 6))), 3)
    with pytest.raises(ShapeError):
        T.window_mean(x, 6)


def test_bilinear_upsample_hand_values():
    x = t([[[[0.0, 1.0]]]])
    out = T.bilinear_upsample2x(x)
    assert out.shape == (1, 1, 2, 4)
    np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.25, 0.75, 1.0],
                               atol=0, rtol=0)


def test_bilinear_upsample_constant():
    x = t(np.full((1, 2, 3, 5), 0.7))
    out = T.bilinear_upsample2x(x)
    assert out.shape == (1, 2, 6, 10)
    assert np.all(out.data == 0.7)
    # single pixel extends to a constant 2x2 block
    one = T.bilinear_upsample2x(t([[[[3.0]]]]))
    assert np.all(one.data == 3.0)


def test_bilinear_upsample_linearity():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, size=(1, 1, 4, 6))
    b = rng.uniform(-1, 1, size=(1, 1, 4, 6))
    up = lambda arr: T.bilinear_upsample2x(t(arr)).data
    combined = up(2.5 * a - 0.3 * b)
    np.testing.assert_allclose(combined, 2.5 * up(a) - 0.3 * up(b), atol=1e-12)


def test_maxpool_forward_and_tiebreak():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = T.maxpool2x(x)
    assert out.data[0, 0, 0, 0] == 4.0
    # ties resolve to the first occurrence in row-major window order
    tied = t(np.full((1, 1, 2, 2), 5.0))
    out = T.maxpool2x(tied)
    grads = T.backward(T.sum_all(out))
    np.testing.assert_array_equal(grads[tied][0, 0],
                                  [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_gradient_routes_to_argmax():
    x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = T.maxpool2x(x)
    grads = T.backward(T.sum_all(out))
    np.testing.assert_array_equal(grads[x][0, 0], [[0.0, 0.0], [0.0, 1.0]])


def test_leaky_relu_values():
    x = t([-2.0, 0.0, 3.0])
    out = T.leaky_relu(x, 0.2)
    np.testing.assert_array_equal(out.data, [-0.4, 0.0, 3.0])
    with pytest.raises(ValueError):
        T.leaky_relu(x, 1.5)


def test_sigmoid_range_and_symmetry():
    x = t([-6.0, 0.0, 6.0])
    out = T.sigmoid(x)
    assert 0.0 < out.data[0] < out.data[1] < out.data[2] < 1.0
    assert out.data[1] == 0.5
    # symmetry: s(-x) = 1 - s(x)
    np.testing.assert_allclose(out.data[0], 1.0 - out.data[2], atol=1e-15)
    # extreme inputs stay finite
    big = T.sigmoid(t([-500.0, 500.0]))
    assert np.all(np.isfinite(big.data))


def test_clamp_passthrough_gradient():
    x = t([-2.0, 0.3, 2.0])
    out = T.clamp(x, 0.0, 1.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.3, 1.0])
    grads = T.backward(T.sum_all(out))
    np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])


def test_sum_and_mean_are_scalar_shaped():
    x = t(np.arange(6.0).reshape(1, 1, 2, 3))
    assert T.sum_all(x).shape == (1,)
    assert T.sum_all(x).item() == 15.0
    assert T.mean_all(x).item() == 2.5


def test_concat_channels():
    a = t(np.ones((1, 2, 3, 3)))
    b = t(np.zeros((1, 1, 3, 3)))
    out = T.concat_channels(a, b)
    assert out.shape == (1, 3, 3, 3)
    grads = T.backward(T.sum_all(out * out))
    assert grads[a].shape == a.shape and grads[b].shape == b.shape
    with pytest.raises(ShapeError):
        T.concat_channels(a, t(np.zeros((1, 1, 4, 3))))


def test_add_elementwise_broadcast_rules():
    a = t(np.ones((2, 3, 4, 4)))
    bias = t(np.ones((2, 1, 4, 4)))
    out = T.add_elementwise(a, bias)
    assert out.shape == (2, 3, 4, 4)
    with pytest.raises(ShapeError):
        T.add_elementwise(a, t(np.ones((2, 3, 4))))


def test_backward_requires_scalar_loss():
    x = t(np.ones((2, 2)))
    with pytest.raises(ValueError):
        T.backward(x + x)


def test_gradient_accumulates_over_reuse():
    x = t([3.0])
    y = x * x + x  # dy/dx = 2x + 1 = 7
    grads = T.backward(T.sum_all(y))
    np.testing.assert_allclose(grads[x], [7.0])


def test_forward_determinism():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=(2, 3, 8, 8)).astype(np.float32)
    k = rng.uniform(-1, 1, size=(4, 3, 3, 3)).astype(np.float32)
    b = rng.uniform(-1, 1, size=4).astype(np.float32)
    run = lambda: T.conv2d(Tensor(x), Tensor(k), Tensor(b),
                           stride=1, padding=1).data.tobytes()
    assert run() == run()


def _graph_nodes(root):
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_backward_releases_everything_but_leaf_gradients():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(2, 3, 6, 6)))
    k = t(rng.normal(size=(4, 3, 3, 3)))
    b = t(rng.normal(size=4))
    h = T.leaky_relu(T.conv2d(x, k, b, stride=1, padding=1), 0.2)
    up = T.bilinear_upsample2x(h)
    loss = T.mean_all(up * up) + T.sum_all(h)
    nodes = _graph_nodes(loss)
    leaves = [n for n in nodes if n._backward_fn is None]
    ops = [n for n in nodes if n._backward_fn is not None]
    assert {id(n) for n in leaves} == {id(x), id(k), id(b)} and len(ops) > 5
    data = {id(n): n.data.copy() for n in ops}
    grads = T.backward(loss)
    for n in ops:
        assert n.grad is None and n._backward_fn is None and n._parents == ()
        assert np.array_equal(n.data, data[id(n)])
    assert set(grads) == set(leaves)
    for leaf in leaves:
        assert grads[leaf] is leaf.grad and leaf.grad.shape == leaf.shape


def test_shared_gradient_is_not_written_by_a_later_sum():
    a = t(np.ones((2, 3)))
    b = t(np.ones((2, 3)))
    out = a + b  # add hands one gradient array to both operands
    c = a * 3.0  # a then accumulates a second gradient
    T.backward(T.sum_all(out) + T.sum_all(c))
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))


@pytest.mark.parametrize("block_bytes", [1, 2000])
@pytest.mark.parametrize("n, cin, cout, k, stride, pad, h, w",
                         [c for c in CONV_CASES if c[3] > 1])
def test_conv2d_backward_in_column_blocks(monkeypatch, block_bytes,
                                          n, cin, cout, k, stride, pad, h, w):
    # 1 byte gives one-column blocks, 2000 bytes blocks of 1 to 27 columns,
    # some spanning two images; the leaky slope is looked up 5 entries at a time
    monkeypatch.setattr(T, "_ROW_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(T, "_LOOKUP_BLOCK", 5)
    rng = np.random.default_rng(cin * 100 + cout * 10 + k)
    x = t(rng.normal(size=(n, cin, h, w)))
    kern = t(rng.normal(size=(cout, cin, k, k)))
    b = t(rng.normal(size=cout))
    out = T.conv2d(x, kern, b, stride=stride, padding=pad, leaky=0.2)
    g = rng.normal(size=out.shape)
    grads = T.backward(T.sum_all(out * t(g, grad=False)))
    want = _conv_reference(x.data, kern.data, b.data, stride, pad,
                           np.where(out.data >= 0, g, 0.2 * g))
    for got, ref in zip((grads[x], grads[kern], grads[b]), want[1:]):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _grads_from_whole_buffers(x, k, s, p, g, block_bytes):
    """conv2d's input and kernel gradients with its GEMMs in its order, but
    from the whole padded input and kernel matrices sliced from a tap-major
    kernel copy, as conv2d built them before it rebuilt the padded input
    per column block: the bits a backward pass must keep"""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    hs, ws = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    m = n * hs * ws
    xp = np.zeros((cin, n, hs * s, ws * s), dtype=x.dtype)
    xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    xf = xp.reshape(cin, n, hs, s, ws, s).transpose(3, 5, 0, 1, 2, 4).reshape(s * s, cin, m)
    taps = [(a, b, i, j) for a in range(min(s, kh)) for b in range(min(s, kw))
            for i in range(a, kh, s) for j in range(b, kw, s)]
    offsets = [(i // s) * ws + j // s for _, _, i, j in taps]
    kt = k[:, :, [t[2] for t in taps], [t[3] for t in taps]].transpose(2, 0, 1).copy()
    phases = {}
    for t, (a, b, _, _) in enumerate(taps):
        phases.setdefault(a * s + b, []).append(t)
    d = max(offsets)
    gz = np.zeros((cout, d + m), dtype=x.dtype)
    gz[:, d:].reshape(cout, n, hs, ws)[:, :, :g.shape[2], :g.shape[3]] = g.transpose(1, 0, 2, 3)
    gk = np.zeros((len(taps) * cout, cin), dtype=x.dtype)
    gx = np.zeros((s * s, cin, m), dtype=x.dtype)
    width = max(1, block_bytes // (len(taps) * cout * x.itemsize))
    for c0 in range(0, m, width):
        c1 = min(c0 + width, m)
        rows = np.concatenate([gz[:, d - o + c0:d - o + c1] for o in offsets])
        for blk, ts in phases.items():
            r = rows[ts[0] * cout:(ts[-1] + 1) * cout]
            gk[ts[0] * cout:(ts[-1] + 1) * cout] += r @ xf[blk, :, c0:c1].T
            kmat = kt[ts[0]:ts[-1] + 1].transpose(2, 0, 1).reshape(cin, -1)
            gx[blk, :, c0:c1] = kmat @ r
    gx = gx.reshape(s, s, cin, n, hs, ws).transpose(2, 3, 4, 0, 5, 1)
    gx = gx.reshape(cin, n, hs * s, ws * s)[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3)
    full = np.zeros_like(k)
    for t, (_, _, i, j) in enumerate(taps):
        full[:, :, i, j] = gk[t * cout:(t + 1) * cout]
    return gx, full


@pytest.mark.parametrize("block_bytes", [2000, 4 << 20])
@pytest.mark.parametrize("n, cin, cout, stride, h, w", [
    (1, 32, 32, 2, 6, 6),  # one-tap phases of 20 columns, which BLAS sums
    (2, 8, 8, 2, 9, 7),    # apart from numpy's own matmul loop
    (1, 16, 8, 1, 12, 10), (2, 3, 8, 1, 5, 9)])
def test_conv2d_backward_keeps_the_bits_of_whole_buffers(monkeypatch, block_bytes,
                                                        n, cin, cout, stride, h, w):
    monkeypatch.setattr(T, "_ROW_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(n * 1000 + cin * 10 + stride)
    xs = rng.normal(size=(n, cin, h, w)).astype(np.float32)
    ks = rng.normal(size=(cout, cin, 3, 3)).astype(np.float32)
    x, k = t(xs, dtype=np.float32), t(ks, dtype=np.float32)
    out = T.conv2d(x, k, t(np.zeros(cout), dtype=np.float32), stride=stride, padding=1)
    g = rng.normal(size=out.shape).astype(np.float32)
    grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=np.float32)))
    gx, gk = _grads_from_whole_buffers(xs, ks, stride, 1, g, block_bytes)
    assert grads[x].tobytes() == gx.tobytes()
    assert grads[k].tobytes() == gk.tobytes()


def test_conv2d_graph_keeps_no_padded_input():
    # backward pads the input again and builds its kernel matrices from the
    # kernel, so a graph node holds its output alone: not the padded input
    # (about 1 MB) nor a tap-major kernel copy (147 kB)
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(1, 64, 48, 80)), dtype=np.float32)
    k = t(rng.normal(size=(64, 64, 3, 3)), dtype=np.float32)
    b = t(np.zeros(64), dtype=np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, k, b, stride=1, padding=1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert grown < out.data.nbytes + (64 << 10), grown


@pytest.mark.parametrize("contiguous", [True, False])
def test_leaky_grad_holds_its_result_and_one_block(contiguous):
    # the slope lookup turns one block of one-byte indices into 8-byte ones
    # at a time, not all 491,520 of a 32x96x160 gradient (3.9 MB) at once
    rng = np.random.default_rng(5)
    g = rng.normal(size=(1, 32, 98, 162)).astype(np.float32)[:, :, 1:-1, 1:-1]
    if contiguous:
        g = np.ascontiguousarray(g)
    nonneg = rng.normal(size=g.shape) >= 0
    want = np.array([0.2, 1], dtype=np.float32).take(nonneg.view(np.uint8)) * g
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = T._leaky_grad(g, nonneg, 0.2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert peak < got.nbytes + 8 * T._LOOKUP_BLOCK + (64 << 10), peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.999])
def test_leaky_relu_is_bitwise_the_where_form(dtype, alpha):
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-30, 30, 200),
                        [0.0, -0.0, 1e-45, -1e-45]]).astype(dtype)
    g = np.concatenate([rng.normal(size=200), [1.0, -1.0, -0.0, 0.0]]).astype(dtype)
    a = t(x, dtype=dtype)
    out = T.leaky_relu(a, alpha)
    grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=dtype)))
    mask = x >= 0
    want = np.where(mask, x, alpha * x)
    want_g = np.where(mask, g, alpha * g)
    assert out.data.dtype == grads[a].dtype == dtype
    assert out.data.tobytes() == want.tobytes()
    assert grads[a].tobytes() == want_g.tobytes()


def _up2_last_reference(x):
    xm1 = np.concatenate([x[..., :1], x[..., :-1]], axis=-1)
    xp1 = np.concatenate([x[..., 1:], x[..., -1:]], axis=-1)
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    out[..., 0::2] = 0.25 * xm1 + 0.75 * x
    out[..., 1::2] = 0.75 * x + 0.25 * xp1
    return out


def _up2_last_transpose_reference(g):
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = 0.75 * ge + 0.75 * go
    gx[..., :-1] += 0.25 * ge[..., 1:]
    gx[..., 0] += 0.25 * ge[..., 0]
    gx[..., 1:] += 0.25 * go[..., :-1]
    gx[..., -1] += 0.25 * go[..., -1]
    return gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 3, 1, 5), (1, 2, 4, 1),
                                   (2, 3, 5, 7)])
def test_bilinear_upsample_matches_swapaxes_formula(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape).astype(dtype)
    a = t(x, dtype=dtype)
    out = T.bilinear_upsample2x(a)
    g = rng.normal(size=out.shape).astype(dtype)
    grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=dtype)))
    up, up_t = _up2_last_reference, _up2_last_transpose_reference
    want = up(up(x).swapaxes(2, 3)).swapaxes(2, 3)
    want_g = up_t(up_t(g.swapaxes(2, 3)).swapaxes(2, 3))
    assert out.data.flags.c_contiguous and out.data.dtype == dtype
    ulp = np.spacing(np.abs(want).astype(dtype))
    assert np.all(np.abs(out.data - want) <= ulp)
    # the adjoint sums its four terms in another order
    eps = np.finfo(dtype).eps
    assert np.abs(grads[a] - want_g).max() <= 4 * eps * np.abs(g).max()


def _zeros_and_negatives(rng, shape, dtype):
    """Normal values with a quarter +0.0 and a quarter -0.0."""
    a = rng.normal(size=shape)
    pick = rng.integers(0, 4, size=shape)
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    return a.astype(dtype)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_fused_conv_leaky_is_bitwise_the_composition(alpha, dtype, stride):
    rng = np.random.default_rng(stride)
    xs = _zeros_and_negatives(rng, (2, 3, 6, 8), dtype)
    ks = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
    ks[1] = 0.0  # output channel 1 is exactly its bias, +0.0
    bs = np.array([0.5, 0.0, -0.5, 0.0], dtype=dtype)
    z = T.conv2d(t(xs), t(ks), t(bs), stride, 1).data
    assert (z == 0).any() and (z < 0).any()
    g = _zeros_and_negatives(rng, z.shape, dtype)
    results = []
    for fused in (True, False):
        x, k, b = t(xs, dtype=dtype), t(ks, dtype=dtype), t(bs, dtype=dtype)
        if fused:
            out = T.conv2d(x, k, b, stride, 1, leaky=alpha)
        else:
            out = T.leaky_relu(T.conv2d(x, k, b, stride, 1), alpha)
        grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=dtype)))
        results.append([out.data] + [grads[v] for v in (x, k, b)])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_upsample_into_skip_is_bitwise_the_composition(dtype):
    rng = np.random.default_rng(7)
    xs = _zeros_and_negatives(rng, (2, 3, 3, 5), dtype)
    ss = _zeros_and_negatives(rng, (2, 2, 6, 10), dtype)
    g = _zeros_and_negatives(rng, (2, 5, 6, 10), dtype)
    results = []
    for fused in (True, False):
        x, skip = t(xs, dtype=dtype), t(ss, dtype=dtype)
        if fused:
            out = T.bilinear_upsample2x(x, skip)
        else:
            out = T.concat_channels(T.bilinear_upsample2x(x), skip)
        grads = T.backward(T.sum_all(out * t(g, grad=False, dtype=dtype)))
        results.append([out.data, grads[x], grads[skip]])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ShapeError):
        T.bilinear_upsample2x(t(xs), t(ss[:, :, :5]))


def _unfused_forward(model, fused, pre, up):
    """Model.forward with separate leaky_relu and concat_channels nodes.
    Appends the arrays only this form keeps in its graph: each conv's
    pre-activation to ``pre``, each decoder stage's upsampled input to ``up``."""
    cfg, p = model.config, model.params

    def conv(name, x, stride=1):
        z = T.conv2d(x, p[f"{name}.kernel"], p[f"{name}.bias"], stride=stride, padding=1)
        pre.append(z.data)
        return T.leaky_relu(z, cfg.leaky_alpha)

    x, skips = fused, []
    for s in range(1, cfg.encoder_stages + 1):
        skips.append(conv(f"enc{s}.conv", x))
        x = conv(f"enc{s}.down", skips[-1], stride=2)
    for s in range(cfg.encoder_stages, 0, -1):
        u = T.bilinear_upsample2x(x)
        up.append(u.data)
        x = conv(f"dec{s}.conv2", conv(f"dec{s}.conv1", T.concat_channels(u, skips[s - 1])))
    return T.sigmoid(T.conv2d(x, p["head.kernel"], p["head.bias"], stride=1, padding=1))


def _traced_growth(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_model_graph_keeps_one_array_per_layer():
    # the fused forward gives the same bits as the unfused composition, and
    # its graph holds less by the pre-activations and upsampled inputs,
    # less the one-byte masks kept in place of the pre-activations
    from depthfusion.model import FusionMode, ModelConfig, build_model
    model = build_model(ModelConfig(input_height=32, input_width=64, base_channels=8,
                                    fusion_mode=FusionMode.CONCAT_TRUNCATE))
    rng = np.random.default_rng(3)
    rgb = Tensor(rng.uniform(size=(1, 3, 32, 64)).astype(np.float32))
    sparse = Tensor(rng.uniform(size=(1, 1, 32, 64)).astype(np.float32))
    pre, up = [], []
    fused, fused_bytes = _traced_growth(lambda: model.predict(rgb, sparse))
    unfused, unfused_bytes = _traced_growth(
        lambda: _unfused_forward(model, model.fuse_input(rgb, sparse), pre, up))
    assert fused.data.tobytes() == unfused.data.tobytes()
    weight_grads = []
    for out in (fused, unfused):
        for w in model.params.values():
            w.zero_grad()
        grads = T.backward(T.mean_all(out))
        weight_grads.append([grads[w].tobytes() for w in model.params.values()])
    assert weight_grads[0] == weight_grads[1]
    saved = sum(a.nbytes - a.size for a in pre) + sum(a.nbytes for a in up)
    assert unfused_bytes - fused_bytes >= saved, (unfused_bytes, fused_bytes, saved)


def test_sample_backward_peak_is_bounded():
    # one 96x160 concat sample's backward under the training losses: each
    # conv drops its output gradient once it is on the padded grid, and
    # builds its padded input a column block at a time, so the traced peak
    # over the start of the forward reads 31.3 MB, where a graph keeping
    # tap-major kernel copies and a backward holding the whole padded
    # input beside the input gradient read 44.8 MB
    from depthfusion.losses import loss_total
    from depthfusion.model import FusionMode, ModelConfig, build_model
    from depthfusion.trainer import TrainConfig
    model = build_model(ModelConfig(fusion_mode=FusionMode.CONCAT_TRUNCATE))
    rng = np.random.default_rng(0)
    rgb, sparse, target = (Tensor(a.astype(np.float32)) for a in (
        rng.uniform(size=(1, 3, 96, 160)),
        rng.uniform(size=(1, 1, 96, 160)) * (rng.uniform(size=(1, 1, 96, 160)) < 0.05),
        rng.uniform(0.01, 0.5, size=(1, 1, 96, 160))))
    cfg = TrainConfig()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = loss_total(model.predict(rgb, sparse), target, cfg.loss_weights, cfg.loss_kind)
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.params.values())
    assert peak < 36e6, peak
