"""Fusion encoder-decoder for sparse-to-dense depth regression.

Input front-ends for three modality modes (RGB only, channel concatenation
truncated back to 3 channels by a 1x1 convolution, elementwise addition of
the sparse channel), a strided-conv pyramid encoder with channel doubling,
and a decoder of bilinear 2x upsampling + skip concatenation + two 3x3
convolutions producing half the concatenated channels. The head is a 3x3
convolution to one channel followed by a sigmoid, so the network predicts a
normalized reciprocal depth in (0, 1).
"""

from __future__ import annotations

import ast
import contextlib
import math
import numbers
import os
import struct
from dataclasses import dataclass, asdict, fields
from enum import Enum

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .losses import ReciprocalCodec

CHECKPOINT_MAGIC = "depthfusion-checkpoint-v1"


class FusionMode(Enum):
    RGB_ONLY = "rgb"
    CONCAT_TRUNCATE = "concat"
    ELEMENTWISE_ADD = "add"


@dataclass
class ModelConfig:
    input_height: int = 96
    input_width: int = 160
    base_channels: int = 16
    encoder_stages: int = 4
    fusion_mode: FusionMode = FusionMode.RGB_ONLY
    leaky_alpha: float = 0.2
    d_min: float = 0.5
    d_max: float = 80.0
    seed: int = 0

    def __post_init__(self):
        self.fusion_mode = FusionMode(self.fusion_mode)
        for f in fields(self):  # each int and float field, by its default
            value = getattr(self, f.name)
            kind = {int: numbers.Integral, float: numbers.Real}.get(type(f.default))
            if kind and (isinstance(value, bool) or not isinstance(value, kind)
                         or not math.isfinite(value)):
                what = "an integer" if kind is numbers.Integral else "a finite number"
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if not 0 <= self.leaky_alpha < 1:
            raise ValueError(f"leaky_alpha must be in [0, 1), got {self.leaky_alpha}")
        if self.encoder_stages < 1 or self.base_channels < 1:
            raise ValueError("encoder_stages and base_channels must be >= 1")
        div = 2 ** self.encoder_stages
        if self.input_height % div or self.input_width % div:
            raise ValueError(
                f"input {self.input_height}x{self.input_width} not divisible "
                f"by 2^{self.encoder_stages}")
        self.codec()  # ReciprocalCodec rejects a bad d_min, d_max pair

    def codec(self) -> ReciprocalCodec:
        return ReciprocalCodec(d_min=self.d_min, d_max=self.d_max)


def _he_conv(rng, cout, cin, kh, kw, dtype):
    std = np.sqrt(2.0 / (cin * kh * kw))
    return rng.normal(0.0, std, size=(cout, cin, kh, kw)).astype(dtype)


def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every weight of the model ``config`` describes,
    in the order ``Model`` draws and a checkpoint stores them."""
    shapes = {}

    def conv(name, cout, cin, k=3):
        shapes[f"{name}.kernel"] = (cout, cin, k, k)
        shapes[f"{name}.bias"] = (cout,)

    if config.fusion_mode is FusionMode.CONCAT_TRUNCATE:
        conv("fuse", 3, 4, k=1)
    cin = 3
    for s in range(1, config.encoder_stages + 1):
        cout = config.base_channels * 2 ** (s - 1)
        conv(f"enc{s}.conv", cout, cin)
        conv(f"enc{s}.down", cout, cout)
        cin = cout
    for s in range(config.encoder_stages, 0, -1):
        cat = cin + config.base_channels * 2 ** (s - 1)  # upsampled + skip
        conv(f"dec{s}.conv1", cat // 2, cat)
        conv(f"dec{s}.conv2", cat // 2, cat // 2)
        cin = cat // 2
    conv("head", 1, cin)
    return shapes


# head bias starts at the logit of a mid-range reciprocal target, not zero:
# with zero bias the sigmoid sits at 0.5 while most targets are far below
# it, and low-step overfitting stalls
_HEAD_BIAS = -2.5


def _draw_weights(config: ModelConfig, dtype) -> dict[str, np.ndarray]:
    """He-normal kernels drawn from ``config.seed`` in ``weight_shapes``
    order, zero biases, and ``_HEAD_BIAS`` for the head."""
    rng = np.random.default_rng(config.seed)
    weights = {}
    for name, shape in weight_shapes(config).items():
        if len(shape) == 4:
            weights[name] = _he_conv(rng, *shape, dtype)
        else:
            weights[name] = np.full(shape, _HEAD_BIAS if name == "head.bias" else 0.0,
                                    dtype=dtype)
    return weights


class Model:
    """Weight container plus the forward pass. Build via ``build_model``.

    ``weights`` maps each name of ``weight_shapes(config)`` to its array;
    without it the weights are drawn (``_draw_weights``).
    """

    def __init__(self, config: ModelConfig, dtype=np.float32,
                 weights: dict[str, np.ndarray] | None = None):
        self.config = config
        self.dtype = np.dtype(dtype)
        if weights is None:
            weights = _draw_weights(config, self.dtype)
        self.params: dict[str, Tensor] = {name: Tensor(weights[name], requires_grad=True)
                                          for name in weight_shapes(config)}

    # -- forward ------------------------------------------------------------

    def fuse_input(self, rgb: Tensor, sparse: Tensor | None) -> Tensor:
        """Combine RGB and the sparse reciprocal-depth channel into 3 channels.

        ``sparse`` holds normalized reciprocal depths in [0, 1] with 0 for
        missing measurements; it is required except in RGB-only mode.
        """
        mode = self.config.fusion_mode
        if mode is FusionMode.RGB_ONLY:
            return rgb
        if sparse is None:
            raise ValueError(f"fusion mode {mode.value} requires a sparse channel")
        if rgb.shape[0] != sparse.shape[0] or rgb.shape[2:] != sparse.shape[2:] \
                or sparse.shape[1] != 1:
            raise T.ShapeError(
                f"fuse_input: rgb {rgb.shape} vs sparse {sparse.shape}")
        if mode is FusionMode.CONCAT_TRUNCATE:
            stacked = T.concat_channels(rgb, sparse)
            return T.conv1x1(stacked, self.params["fuse.kernel"],
                             self.params["fuse.bias"])
        return T.add_elementwise(rgb, sparse)

    def forward(self, fused: Tensor) -> Tensor:
        """Normalized reciprocal depth in (0, 1). Each conv but the head
        applies its leaky ReLU in place (``conv2d(..., leaky=)``), and each
        decoder stage upsamples straight into its skip concatenation
        (``bilinear_upsample2x(x, skip)``), so the graph keeps one array
        per layer. Each decoder stage pops its skip, drops its upsampled
        input once concatenated and the concatenation once ``conv1`` has
        run, so under ``no_grad`` no activation outlives its last
        consumer; with a graph, the nodes keep what backward needs."""
        cfg = self.config
        if fused.shape[1] != 3 or fused.shape[2] != cfg.input_height \
                or fused.shape[3] != cfg.input_width:
            raise T.ShapeError(
                f"forward: input {fused.shape} does not match configured "
                f"3x{cfg.input_height}x{cfg.input_width}")

        def conv(name, x, stride=1):
            return T.conv2d(x, self.params[f"{name}.kernel"], self.params[f"{name}.bias"],
                            stride=stride, padding=1, leaky=cfg.leaky_alpha)

        x = fused
        skips = []
        for s in range(1, cfg.encoder_stages + 1):
            skips.append(conv(f"enc{s}.conv", x))
            x = conv(f"enc{s}.down", skips[-1], stride=2)
        for s in range(cfg.encoder_stages, 0, -1):
            # each assignment drops the array it replaces: the skip and the
            # upsampled input once concatenated, the concatenation once
            # conv1 has read it
            x = T.bilinear_upsample2x(x, skips.pop())
            x = conv(f"dec{s}.conv1", x)
            x = conv(f"dec{s}.conv2", x)
        logits = T.conv2d(x, self.params["head.kernel"], self.params["head.bias"],
                          stride=1, padding=1)
        return T.sigmoid(logits)

    def predict(self, rgb: Tensor, sparse: Tensor | None) -> Tensor:
        return self.forward(self.fuse_input(rgb, sparse))

    def predict_depth(self, rgb: np.ndarray, sparse: np.ndarray | None) -> np.ndarray:
        """Metric depth map(s) in meters, clamped to [d_min, d_max]; builds
        no autograd graph.

        ``rgb``: (N,3,H,W) or (H,W,3); ``sparse``: (N,1,H,W) or (H,W) in
        meters with 0 = no measurement (encoded internally).
        """
        codec = self.config.codec()
        single = rgb.ndim == 3
        if single:
            rgb_n = rgb.transpose(2, 0, 1)[None]
            sparse_n = None if sparse is None else sparse[None, None]
        else:
            rgb_n = rgb
            sparse_n = sparse
        rgb_t = Tensor(rgb_n.astype(self.dtype))
        sparse_t = None
        if self.config.fusion_mode is not FusionMode.RGB_ONLY:
            if sparse_n is None:
                raise ValueError("this model requires a sparse input")
            sparse_t = Tensor(encode_sparse(sparse_n, codec).astype(self.dtype))
        with T.no_grad():
            pred = self.predict(rgb_t, sparse_t).data
        depth = codec.decode(pred.astype(np.float64))
        return depth[0, 0] if single else depth[:, 0]


def encode_sparse(sparse_meters: np.ndarray, codec: ReciprocalCodec) -> np.ndarray:
    """Encode nonzero depths to reciprocal targets, keeping the 0 sentinel."""
    s = np.asarray(sparse_meters, dtype=np.float64)
    return np.where(s > 0, codec.encode(np.maximum(s, codec.d_min)), 0.0)


def build_model(config: ModelConfig, dtype=np.float32) -> Model:
    return Model(config, dtype=dtype)


# ---------------------------------------------------------------------------
# checkpoint format: UTF-8 text header (key=value lines), then named tensors
# as {u32 name length, name bytes, u32 rank, u32 extents..., f32 LE data}


def save_checkpoint(path, model: Model, extra: dict | None = None,
                    moments: dict[str, np.ndarray] | None = None):
    """``extra`` carries scalar training state (epoch, lr, adam_t, ...)."""
    cfg = asdict(model.config)
    cfg["fusion_mode"] = model.config.fusion_mode.value
    tensors = dict(model.params.items())
    named = {name: t.data for name, t in tensors.items()}
    if moments:
        named.update(moments)
    # written beside the target and renamed over it, so a write that fails
    # part-way leaves the previous checkpoint intact
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(f"{CHECKPOINT_MAGIC}\n".encode("utf-8"))
            for k in fields(ModelConfig):
                f.write(f"config.{k.name}={cfg[k.name]!r}\n".encode("utf-8"))
            for k in sorted(extra or {}):
                f.write(f"state.{k}={extra[k]!r}\n".encode("utf-8"))
            f.write(f"tensors={len(named)}\n".encode("utf-8"))
            for name, arr in named.items():
                nb = name.encode("utf-8")
                a32 = np.ascontiguousarray(arr, dtype="<f4")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                f.write(struct.pack("<I", a32.ndim))
                for ext in a32.shape:
                    f.write(struct.pack("<I", ext))
                f.write(a32)  # from the array's own buffer, with no copy
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (model, extra state dict, optimizer moment arrays).

    The file is read as it is parsed: the header line by line, then each
    tensor's bytes straight into its float32 array (``readinto``), once
    its name and shape are checked against ``weight_shapes`` of the
    header's config and the file is known to hold its bytes. So loading
    holds one copy of each tensor, and a header that declares more data
    than the file holds allocates nothing for it. The model is built from
    the weights read, with none drawn. Every malformation is a ValueError
    naming the file, and the tensor where there is one: a bad header, a
    config ``ModelConfig`` rejects, a truncated file, trailing bytes, a
    tensor count other than the header's, a name that is neither a weight
    of the configured model nor an Adam moment (``adam.m.*``, ``adam.v.*``)
    of one, a repeated name, a rank or shape other than the config's, a
    NaN or infinite value, and a missing weight.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def room(nbytes, what):
            if nbytes > size - f.tell():
                raise ValueError(f"{path}: file is truncated in {what}")

        def take(nbytes, what):
            room(nbytes, what)
            return f.read(nbytes)

        def header_line():
            line = f.readline()
            if not line.endswith(b"\n"):
                raise ValueError(f"{path}: file is truncated in the header")
            return line[:-1].decode("utf-8", errors="replace")

        if header_line() != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a depthfusion checkpoint")
        cfg_kv = {}
        extra = {}
        n_tensors = None
        while n_tensors is None:
            line = header_line()
            key, _, value = line.partition("=")
            try:
                if key == "tensors":
                    n_tensors = int(value)
                elif key.startswith("config."):
                    cfg_kv[key[len("config."):]] = ast.literal_eval(value)
                elif key.startswith("state."):
                    extra[key[len("state."):]] = ast.literal_eval(value)
                else:
                    raise ValueError("unknown key")
            except (ValueError, SyntaxError):
                raise ValueError(f"{path}: bad header line {line!r}") from None
        # older v1 files carry the reciprocal scale h, which the codec never read
        cfg_kv.pop("h_reciprocal", None)
        try:
            config = ModelConfig(**cfg_kv)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad config: {exc}") from None
        shapes = weight_shapes(config)
        seen, weights, moments = set(), {}, {}
        for k in range(n_tensors):
            if f.tell() == size:
                raise ValueError(f"{path}: the header declares {n_tensors} tensors, "
                                 f"the file holds {k}")
            where = f"tensor {k + 1} of {n_tensors}"
            (nlen,) = struct.unpack("<I", take(4, where))
            name = take(nlen, where).decode("utf-8", errors="replace")
            is_moment = name.startswith(("adam.m.", "adam.v."))
            weight = name[len("adam.m."):] if is_moment else name
            if weight not in shapes:
                raise ValueError(f"{path}: tensor {name!r} is neither a weight of the "
                                 "configured model nor an Adam moment of one")
            if name in seen:
                raise ValueError(f"{path}: tensor {name!r} appears twice")
            seen.add(name)
            where = f"tensor {name!r}"
            expected = shapes[weight]
            (rank,) = struct.unpack("<I", take(4, where))
            if rank != len(expected):
                raise ValueError(f"{path}: tensor {name!r} has rank {rank}, the "
                                 f"config gives shape {expected}")
            shape = struct.unpack(f"<{rank}I", take(4 * rank, where))
            if shape != expected:
                raise ValueError(f"{path}: tensor {name!r} has shape {shape}, the "
                                 f"config gives {expected}")
            room(4 * math.prod(shape), where)
            arr = np.empty(shape, dtype="<f4")
            if f.readinto(arr) != arr.nbytes:  # the file shrank while read
                raise ValueError(f"{path}: file is truncated in {where}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: tensor {name!r} holds a NaN or infinite value")
            if is_moment:
                moments[name] = arr
            else:
                weights[name] = arr.astype(np.float32, copy=False)
        if f.tell() != size:
            raise ValueError(f"{path}: {size - f.tell()} trailing bytes after the "
                             f"{n_tensors} tensors the header declares")
    missing = [name for name in shapes if name not in seen]
    if missing:
        raise ValueError(f"{path}: weight {missing[0]!r} is missing")
    return Model(config, weights=weights), extra, moments
