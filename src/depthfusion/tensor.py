"""Dense NCHW tensors with reverse-mode automatic differentiation.

Only the operations the depth network actually needs are implemented:
convolution (cross-correlation convention), leaky ReLU, 2x max pooling,
2x bilinear upsampling (align_corners=False, edge clamped), channel
concatenation, elementwise arithmetic and full reductions. Training runs
in float32; float64 exists for finite-difference gradient checks.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .blas import tap_gemm

__all__ = [
    "Tensor",
    "ShapeError",
    "add_elementwise",
    "backward",
    "bilinear_upsample2x",
    "clamp",
    "concat_channels",
    "conv1x1",
    "conv2d",
    "leaky_relu",
    "maxpool2x",
    "mean_all",
    "no_grad",
    "sigmoid",
    "sum_all",
    "tslice",
    "window_mean",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


def _as_array(data, dtype):
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A dense numeric array plus optional linkage into the autodiff graph.

    ``data`` is a numpy array (float32 or float64). Gradients accumulate by
    sum into ``.grad`` when ``backward`` runs; only leaves keep theirs
    once it returns. Tensors are treated as
    immutable once used in the graph; the optimizer alone mutates ``.data``
    of leaf weights between steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False, dtype=None,
                 _parents=(), _backward_fn=None, _op=""):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op!r})"

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))


def _wrap(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside record no graph: their outputs get no parents and no
    backward closure, so a forward-only pass frees each buffer once used."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _records(parents) -> bool:
    """Whether an op on ``parents`` joins the graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data, parents, backward_fn, op):
    # each op defines backward_fn before calling _make; the closure reads
    # the op's `out` by name when it runs, after _make has returned it
    req = _records(parents)
    return Tensor(data, requires_grad=req,
                  _parents=tuple(parents) if req else (),
                  _backward_fn=backward_fn if req else None, _op=op)


def _accumulate(t: Tensor, g: np.ndarray):
    # a gradient is stored as given and never written in place: add hands
    # one array to both operands, and other ops pass on views of theirs
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
    else:
        t.grad = (t.grad + g).astype(t.data.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accumulate(a, _unbroadcast(out.grad, a.shape))
        _accumulate(b, _unbroadcast(out.grad, b.shape))

    out = _make(data, (a, b), bw, "add")
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accumulate(a, _unbroadcast(out.grad, a.shape))
        _accumulate(b, _unbroadcast(-out.grad, b.shape))

    out = _make(data, (a, b), bw, "sub")
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accumulate(a, _unbroadcast(out.grad * b.data, a.shape))
        _accumulate(b, _unbroadcast(out.grad * a.data, b.shape))

    out = _make(data, (a, b), bw, "mul")
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")

    def bw():
        _accumulate(a, _unbroadcast(out.grad / b.data, a.shape))
        _accumulate(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

    out = _make(data, (a, b), bw, "div")
    return out


def add_elementwise(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; equal shapes, or a 1-channel b broadcast over a's channels."""
    if a.shape != b.shape:
        ok = (len(a.shape) == 4 and len(b.shape) == 4
              and b.shape[1] == 1 and a.shape[0] == b.shape[0]
              and a.shape[2:] == b.shape[2:])
        if not ok:
            raise ShapeError(
                f"add_elementwise: incompatible shapes {a.shape} and {b.shape}")
    return add(a, b)


def abs_(a: Tensor) -> Tensor:
    def bw():
        _accumulate(a, out.grad * np.sign(a.data))

    out = _make(np.abs(a.data), (a,), bw, "abs")
    return out


def sigmoid(a: Tensor) -> Tensor:
    # evaluated in the branch-stable form to avoid overflow for large |x|
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)

    def bw():
        _accumulate(a, out.grad * s * (1.0 - s))

    out = _make(s, (a,), bw, "sigmoid")
    return out


def _check_alpha(alpha):
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"leaky_relu: alpha must be in [0, 1), got {alpha}")


# mask entries per slope lookup in _leaky_grad: take turns each block's
# one-byte indices into 8-byte ones, 512 kB here, not 8 bytes per entry
_LOOKUP_BLOCK = 1 << 16


def _leaky_grad(g: np.ndarray, nonneg: np.ndarray, alpha: float) -> np.ndarray:
    """The gradient through a leaky ReLU: g where its input was >= 0 and
    alpha*g elsewhere. The slope (1 or alpha) is looked up by the boolean
    mask ``nonneg`` and multiplied by g, which gives the same bits as
    scaling g by alpha and copying g over it where the mask is set, in a
    quarter of the time. The lookup writes the result array a block at a
    time (mode "clip" lets ``take`` write into it unbuffered; the indices
    are 0 and 1), so it holds the result and one block of indices at most;
    the result is C-contiguous."""
    slope = np.empty(g.shape, dtype=g.dtype)
    flat, index = slope.reshape(-1), nonneg.reshape(-1).view(np.uint8)
    lut = np.array([alpha, 1], dtype=g.dtype)
    for i in range(0, flat.size, _LOOKUP_BLOCK):
        lut.take(index[i:i + _LOOKUP_BLOCK], out=flat[i:i + _LOOKUP_BLOCK], mode="clip")
    slope *= g
    return slope


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    """x for x >= 0, alpha*x otherwise; alpha in [0, 1).

    Computed as max(alpha*x, x), which picks the same value for every
    finite x, signed zeros included, since alpha*x <= x exactly when x >= 0.
    ``conv2d(..., leaky=alpha)`` computes the same, in place on its output.
    """
    _check_alpha(alpha)
    y = a.data * alpha
    np.maximum(y, a.data, out=y)

    def bw():
        _accumulate(a, _leaky_grad(out.grad, a.data >= 0, alpha))

    out = _make(y, (a,), bw, "leaky_relu")
    return out


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient is passed through strictly inside the range."""
    inside = (a.data > lo) & (a.data < hi)

    def bw():
        _accumulate(a, out.grad * inside)

    out = _make(np.clip(a.data, lo, hi), (a,), bw, "clamp")
    return out


def sum_all(a: Tensor) -> Tensor:
    def bw():
        _accumulate(a, np.broadcast_to(out.grad.reshape(()), a.shape))

    out = _make(a.data.sum(dtype=a.dtype).reshape(1), (a,), bw, "sum")
    return out


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bw():
        _accumulate(a, np.broadcast_to(out.grad.reshape(()) / n, a.shape))

    out = _make((a.data.sum(dtype=a.dtype) / n).reshape(1), (a,), bw, "mean")
    return out


def tslice(a: Tensor, key) -> Tensor:
    """Basic (non-fancy) slicing with gradient scatter into the source."""

    def bw():
        g = np.zeros_like(a.data)
        g[key] = out.grad
        _accumulate(a, g)

    out = _make(a.data[key], (a,), bw, "slice")
    return out


# ---------------------------------------------------------------------------
# structured ops


def _check_concat(op, a_shape, b_shape):
    if len(a_shape) != 4 or len(b_shape) != 4:
        raise ShapeError(f"{op}: both inputs must be 4-D NCHW")
    if a_shape[0] != b_shape[0] or a_shape[2:] != b_shape[2:]:
        raise ShapeError(f"{op}: batch/spatial mismatch {a_shape} vs {b_shape}")


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    _check_concat("concat_channels", a.shape, b.shape)
    ca = a.shape[1]

    def bw():
        _accumulate(a, out.grad[:, :ca])
        _accumulate(b, out.grad[:, ca:])

    out = _make(np.concatenate([a.data, b.data], axis=1), (a, b), bw, "concat")
    return out


# cap on the shifted-row stack of a conv2d backward pass; larger stacks are
# built and multiplied in column blocks, and each block's columns of the
# padded input are built for that block alone. The block edges set the
# order in which the kernel gradient sums, so changing this cap changes its
# bits. Stacks above glibc's 32 MB mmap threshold would map and fault fresh
# pages on every call, and a train step runs one backward pass per core at
# once: on 2 vCPUs 96x160 batch-2 training peaked at 209 MB of RSS with
# 16 MB blocks and at 177 MB with 4 MB blocks, and was no faster per step
# with the larger blocks.
_ROW_BLOCK_BYTES = 4 << 20


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0, leaky: float | None = None) -> Tensor:
    """2-D cross-correlation with zero padding (no kernel flip).

    Implicit GEMM (the accumulating "kn2row" form of Anderson et al.,
    "Low-memory GEMM-based convolution algorithms for deep neural
    networks", 2017). The input is padded into a (channels, N*Hp*Wp)
    matrix, the batch folded into the pixel axis, so kernel tap (i, j)
    multiplies the view starting at column i*Wp + j; outputs are computed
    on the padded grid and cropped. For stride s the padded image is first
    split into s x s phase images (space-to-depth): tap (i, j) then reads
    phase (i % s, j % s) at offset (i//s, j//s). The whole tap list is one
    call to ``blas.tap_gemm``, which checks the operands once and makes one
    ?gemm per tap: the first writes the output and the others add into it
    (beta = 1), with no temporary (numpy's matmul plus += where the loaded
    BLAS has no cblas ?gemm, and for a one-channel output, whose product
    numpy computes with ?gemv).

    The graph keeps the output (and the mask below) and references to x,
    kernel and bias, but no tap-major kernel copy and no padded input
    (Chen et al., "Training Deep Nets with Sublinear Memory Cost", 2016:
    backward builds both again from ``kernel.data`` and ``x.data``).
    Backward holds one large buffer at a time beside the input gradient:
    it drops the output gradient, and its leaky product, once they are
    copied onto the padded grid, before the input gradient exists; then
    one pass over column blocks of at most ``_ROW_BLOCK_BYTES`` stacks the
    shifted gradient rows once for both GEMMs, and builds the padded
    input's columns of that block alone for the kernel gradient. The sums
    are those of the whole-buffer form; one 96x160 concat sample's
    backward then peaks at 31.3 MB traced, against 44.8 MB.

    With ``leaky=alpha`` the output is ``leaky_relu(z, alpha)`` of the
    biased conv z, with the same bits, applied in place on z (the in-place
    activation of Rota Bulo et al., "In-Place Activated BatchNorm for
    Memory-Optimized Training of DNNs", CVPR 2018). The graph keeps a
    one-byte mask z >= 0 in place of z, and no mask under ``no_grad``;
    backward multiplies the incoming gradient by the slope it gives.
    """
    if len(x.shape) != 4 or len(kernel.shape) != 4:
        raise ShapeError(
            f"conv2d: expected 4-D input and kernel, got {x.shape} and {kernel.shape}")
    n, cin, h, w = x.shape
    cout, ck, kh, kw = kernel.shape
    if ck != cin:
        raise ShapeError(
            f"conv2d: input channels {x.shape} do not match kernel {kernel.shape}")
    if bias.shape != (cout,):
        raise ShapeError(
            f"conv2d: bias shape {bias.shape} does not match kernel {kernel.shape}")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: bad stride={stride} or padding={padding}")
    if leaky is not None:
        _check_alpha(leaky)
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(
            f"conv2d: kernel {kernel.shape} larger than padded input {x.shape}")

    s, p, dt = stride, padding, x.dtype
    ho = (h + 2 * p - kh) // s + 1
    wo = (w + 2 * p - kw) // s + 1
    hs, ws = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)  # phase image extents
    m = n * hs * ws
    xd = x.data

    def padded(r0, r1):
        """Rows r0:r1 of the padded input's s*s phase images, the batch
        stacked along the rows of an (n*hs, ws) grid, as an (s*s, cin,
        (r1 - r0)*ws) stack; built from ``x.data``, so the graph keeps none"""
        xf = np.zeros((s * s, cin, r1 - r0, ws), dtype=dt)
        for a in range(s):
            for b in range(s):
                # phase pixel (u, v) is input pixel (u*s + a - p, v*s + b - p),
                # so rows u0:u1 and columns v0:v1 of each image are inside
                u0, u1 = -((a - p) // s), -((a - p - h) // s)
                v0, v1 = -((b - p) // s), -((b - p - w) // s)
                for img in range(r0 // hs, (r1 - 1) // hs + 1):
                    lo, hi = max(r0, img * hs + u0), min(r1, img * hs + u1)
                    if lo < hi:
                        i0 = (lo - img * hs) * s + a - p
                        xf[a * s + b, :, lo - r0:hi - r0, v0:v1] = \
                            xd[img, :, i0:i0 + (hi - lo - 1) * s + 1:s, v0 * s + b - p::s]
        return xf.reshape(s * s, cin, -1)

    # tap (i, j) reads phase a*s + b = (i % s)*s + j % s at column offset
    # (i // s)*ws + j // s; taps[t0:t1] are the taps of each phase
    taps, phases, ki, kj = [], [], [], []
    for a in range(min(s, kh)):
        for b in range(min(s, kw)):
            t0 = len(taps)
            for i in range(a, kh, s):
                for j in range(b, kw, s):
                    taps.append((a * s + b, (i // s) * ws + j // s))
                    ki.append(i)
                    kj.append(j)
            phases.append((a * s + b, t0, len(taps)))
    d = max(o for _, o in taps)
    cols = m - d  # output pixels sit in the first `cols` grid columns

    # one GEMM per tap on shifted views, which BLAS reads in place; the
    # tap-major kernel copy (taps, cout, cin) lives for this call only
    y = np.empty((cout, m), dtype=dt)  # columns from `cols` on are never read
    tap_gemm(kernel.data[:, :, ki, kj].transpose(2, 0, 1).copy(), padded(0, n * hs),
             taps, y[:, :cols])
    data = np.empty((n, cout, ho, wo), dtype=dt)
    np.add(y.reshape(cout, n, hs, ws)[:, :, :ho, :wo].transpose(1, 0, 2, 3),
           bias.data.reshape(1, cout, 1, 1), out=data)
    del y
    if leaky is not None:
        nonneg = data >= 0 if _records((x, kernel, bias)) else None
        np.maximum(data * leaky, data, out=data)

    def bw():
        # the output gradient and its leaky product are dropped once gz
        # holds them, before the large buffers below exist
        g, out.grad = out.grad, None
        if leaky is not None:
            g = _leaky_grad(g, nonneg, leaky)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        # the output gradient on the padded grid, behind d zero columns
        gz = np.zeros((cout, d + m), dtype=dt)
        gz[:, d:].reshape(cout, n, hs, ws)[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        del g
        # gk[t*cout + c] is the gradient of kernel tap t's (cout, cin) slice
        gk = gx = None
        if kernel.requires_grad:
            gk = np.zeros((len(taps) * cout, cin), dtype=dt)
        if x.requires_grad:
            # the GEMMs overwrite every column of each phase that has a tap;
            # a 1x1 kernel at stride 2 leaves three phases unwritten
            gx = (np.empty if len(phases) == s * s else np.zeros)((s * s, cin, m), dtype=dt)
            # kmat[blk] is (cin, phase taps * cout), the kernel of phase blk,
            # the transpose of a C-contiguous (taps, cout, cin) stack as in
            # forward: a one-tap phase is then a transposed view, which BLAS
            # takes; a strided one would take numpy's own matmul loop, and a
            # C-contiguous copy changed the sums too
            kmat = {}
            for blk, _, _ in phases:
                kt = np.ascontiguousarray(
                    kernel.data[:, :, blk // s::s, blk % s::s].transpose(2, 3, 0, 1))
                kmat[blk] = kt.reshape(-1, cout, cin).transpose(2, 0, 1).reshape(cin, -1)
        # input pixel q meets the gradient of output pixel q - o through
        # tap o, which is column d - o + q of gz; both gradients are one
        # GEMM per phase against this stack of shifted rows, built for at
        # most _ROW_BLOCK_BYTES of columns at a time, and so is the padded
        # input the kernel gradient reads
        width = max(1, _ROW_BLOCK_BYTES // (len(taps) * cout * gz.itemsize))
        stack = np.empty((len(taps) * cout, min(width, m)), dtype=dt)
        for c0 in range(0, m, width):
            c1 = min(c0 + width, m)
            rows = stack[:, :c1 - c0]
            for t, (_, o) in enumerate(taps):
                rows[t * cout:(t + 1) * cout] = gz[:, d - o + c0:d - o + c1]
            if gk is not None:  # from the whole grid rows holding columns c0:c1
                xf = padded(c0 // ws, -(-c1 // ws))[:, :, c0 % ws:c0 % ws + c1 - c0]
                for blk, t0, t1 in phases:
                    gk[t0 * cout:t1 * cout] += rows[t0 * cout:t1 * cout] @ xf[blk].T
                del xf
            if gx is not None:
                for blk, t0, t1 in phases:
                    np.matmul(kmat[blk], rows[t0 * cout:t1 * cout], out=gx[blk, :, c0:c1])
        if gk is not None:
            full = np.empty(kernel.shape, dtype=dt)
            full[:, :, ki, kj] = gk.reshape(len(taps), cout, cin).transpose(1, 2, 0)
            _accumulate(kernel, full)
        if gx is not None:
            # back from phase images to the padded image, then crop
            gx = gx.reshape(s, s, cin, n, hs, ws).transpose(2, 3, 4, 0, 5, 1)
            gx = gx.reshape(cin, n, hs * s, ws * s)[:, :, p:p + h, p:p + w]
            _accumulate(x, gx.transpose(1, 0, 2, 3))

    out = _make(data, (x, kernel, bias), bw, "conv2d")
    return out


def conv1x1(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Per-pixel channel mixing; a conv2d with a 1x1 kernel, stride 1, no padding."""
    if len(kernel.shape) != 4 or kernel.shape[2:] != (1, 1):
        raise ShapeError(f"conv1x1: kernel must be [C',C,1,1], got {kernel.shape}")
    return conv2d(x, kernel, bias, stride=1, padding=0)


def _box_sum(a: np.ndarray, window: int) -> np.ndarray:
    """Sums of every `window` consecutive entries along the last axis, as
    differences of a float64 running sum."""
    c = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumsum(a, axis=-1, dtype=np.float64, out=c[..., 1:])
    return c[..., window:] - c[..., :-window]


def window_mean(x: Tensor, window: int) -> Tensor:
    """Mean over every valid window x window square of each channel: a
    separable box filter, equal to a valid conv2d with a constant kernel."""
    if len(x.shape) != 4:
        raise ShapeError(f"window_mean: expected 4-D input, got {x.shape}")
    if not 1 <= window <= min(x.shape[2:]):
        raise ShapeError(f"window_mean: window {window} does not fit {x.shape}")
    scale = 1.0 / (window * window)

    def box_mean(a):
        rows = _box_sum(a, window).swapaxes(2, 3)
        return (_box_sum(rows, window).swapaxes(2, 3) * scale).astype(x.dtype)

    def bw():
        # the adjoint of a valid box sum is the box sum of the gradient
        # zero-padded by window - 1 on every side
        k = window - 1
        _accumulate(x, box_mean(np.pad(out.grad, ((0, 0), (0, 0), (k, k), (k, k)))))

    out = _make(box_mean(x.data), (x,), bw, "window_mean")
    return out


def maxpool2x(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; gradient goes to the first max in row-major order."""
    if len(x.shape) != 4:
        raise ShapeError(f"maxpool2x: expected 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x: extents must be even, got {x.shape}")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, h // 2, w // 2, 4)
    arg = win.argmax(axis=-1)  # argmax picks the first occurrence on ties

    def bw():
        g = np.zeros((n, c, h // 2, w // 2, 4), dtype=x.dtype)
        np.put_along_axis(g, arg[..., None], out.grad[..., None], axis=-1)
        g = g.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        _accumulate(x, g.reshape(n, c, h, w))

    out = _make(np.take_along_axis(win, arg[..., None], axis=-1)[..., 0],
                (x,), bw, "maxpool2x")
    return out


def _up2_index(axis):
    """Index tuples into the pairs axis of an (..., n, 2, ...) view."""
    ax = (slice(None),) * axis
    return (ax + (slice(1, None),), ax + (slice(None, -1),),
            ax + (slice(None, 1),), ax + (slice(-1, None),),
            ax + (slice(None), 0), ax + (slice(None), 1))


def _up2(x: np.ndarray, axis: int) -> np.ndarray:
    """Double one axis with align_corners=False bilinear weights, edges
    clamped: out[2i] = 0.75 x[i] + 0.25 x[i-1] and out[2i+1] = 0.75 x[i] +
    0.25 x[i+1], each formed as (x - q)[i] + q[i -/+ 1] with q = x/4."""
    n = x.shape[axis]
    lo, hi, first, last, even, odd = _up2_index(axis)
    q = x / 4
    r = x - q
    out = np.empty(x.shape[:axis] + (n, 2) + x.shape[axis + 1:], dtype=x.dtype)
    ev, od = out[even], out[odd]
    np.add(r[lo], q[hi], out=ev[lo])
    np.add(r[first], q[first], out=ev[first])
    np.add(r[hi], q[lo], out=od[hi])
    np.add(r[last], q[last], out=od[last])
    return out.reshape(x.shape[:axis] + (2 * n,) + x.shape[axis + 1:])


def _up2_T(g: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of _up2 applied to an output-sized gradient."""
    n = g.shape[axis] // 2
    lo, hi, first, last, even, odd = _up2_index(axis)
    g = g.reshape(g.shape[:axis] + (n, 2) + g.shape[axis + 1:])
    ge, go = g[even], g[odd]
    gr = ge + go  # the gradient of r
    gq = np.empty_like(gr)  # the gradient of q: ge[i+1] + go[i-1], clamped
    gq[hi] = ge[lo]
    gq[last] = go[last]
    gq[lo] += go[hi]
    gq[first] += ge[first]
    # x reaches the output through r = x - x/4 and q = x/4
    gr *= 0.75
    gq *= 0.25
    gr += gq
    return gr


def bilinear_upsample2x(x: Tensor, skip: Tensor | None = None) -> Tensor:
    """Double H and W; sample centers at (i+0.5)/2 - 0.5, edges clamped.

    Given ``skip``, returns ``concat_channels(bilinear_upsample2x(x), skip)``
    as one node, with the same bits: the upsampled array is freed once
    copied, where the two-node form kept it in the graph.
    """
    if len(x.shape) != 4:
        raise ShapeError(f"bilinear_upsample2x: expected 4-D input, got {x.shape}")
    data = _up2(_up2(x.data, 3), 2)
    c = x.shape[1]
    if skip is not None:
        _check_concat("bilinear_upsample2x", data.shape, skip.shape)
        data = np.concatenate([data, skip.data], axis=1)

    def bw():
        g = out.grad
        _accumulate(x, _up2_T(_up2_T(g[:, :c], 2), 3))
        if skip is not None:
            _accumulate(skip, g[:, c:])

    out = _make(data, (x,) if skip is None else (x, skip), bw, "upsample2x")
    return out


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Propagate gradients from a scalar loss through the recorded graph.

    Returns a map {tensor: gradient array} over the leaves reachable from
    the loss: the requires_grad tensors no op produced, such as weights and
    inputs. Repeated use of a tensor accumulates by sum. Only leaf
    gradients survive: each op node drops its ``.grad``, its backward
    closure and its parents as soon as its closure has run, which frees
    the buffers the closure saved while the walk goes on. ``.data`` is
    kept. Returned arrays may be read-only views that share memory with
    each other, so callers must not write into them.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    grads = {}
    # reversed topological order: every consumer of a node has passed its
    # gradient on before the node is popped, and once popped the walk holds
    # no reference to it
    while topo:
        node = topo.pop()
        if node._backward_fn is None:
            if node.requires_grad and node.grad is not None:
                grads[node] = node.grad
            continue
        node._backward_fn()
        # the closure references its own output tensor; dropping it breaks
        # that cycle and frees the saved buffers now, not at the next gc pass
        node._backward_fn = None
        node._parents = ()
        node.grad = None
    return grads
