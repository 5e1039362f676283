import struct
import tracemalloc

import numpy as np
import pytest

from depthfusion import tensor as T
from depthfusion.gradcheck import check
from depthfusion.losses import loss_total
from depthfusion.model import (FusionMode, ModelConfig, build_model,
                               encode_sparse, load_checkpoint,
                               save_checkpoint)
from depthfusion.tensor import Tensor

TINY = ModelConfig(input_height=16, input_width=16, base_channels=2,
                   encoder_stages=2, fusion_mode=FusionMode.CONCAT_TRUNCATE)


def _inputs(cfg, seed=0, batch=1):
    rng = np.random.default_rng(seed)
    rgb = rng.uniform(0, 1, size=(batch, 3, cfg.input_height, cfg.input_width))
    sparse = np.zeros((batch, 1, cfg.input_height, cfg.input_width))
    sparse[:, :, ::4, ::4] = rng.uniform(0.1, 1.0,
                                         size=sparse[:, :, ::4, ::4].shape)
    return rgb, sparse


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(input_height=50, input_width=160)  # not divisible by 16
    with pytest.raises(ValueError):
        ModelConfig(encoder_stages=0)
    bad = [({"base_channels": 2.0}, "base_channels must be an integer"),
           ({"seed": True}, "seed must be an integer"),
           ({"leaky_alpha": 1.0}, "leaky_alpha must be in [0, 1)"),
           ({"leaky_alpha": -0.1}, "leaky_alpha must be in [0, 1)"),
           ({"d_max": float("inf")}, "d_max must be a finite number"),
           ({"d_min": float("nan")}, "d_min must be a finite number"),
           ({"d_min": 100.0}, "bad codec parameters"),
           ({"fusion_mode": 3}, "3 is not a valid FusionMode")]
    for kwargs, message in bad:
        with pytest.raises(ValueError) as info:
            ModelConfig(**kwargs)
        assert message in str(info.value)
    assert ModelConfig(seed=np.int64(3), d_min=1).seed == 3


def test_forward_output_shape_and_range():
    model = build_model(TINY)
    rgb, sparse = _inputs(TINY)
    out = model.predict(Tensor(rgb), Tensor(sparse))
    assert out.shape == (1, 1, 16, 16)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_predict_depth_within_bounds():
    model = build_model(TINY)
    rgb, sparse = _inputs(TINY)
    # (H, W, 3) single-image path with a sparse raster in meters
    depth = model.predict_depth(rgb[0].transpose(1, 2, 0), sparse[0, 0] * 40)
    assert depth.shape == (16, 16)
    assert depth.min() >= TINY.d_min and depth.max() <= TINY.d_max


def test_seeded_init_is_deterministic():
    a = build_model(TINY)
    b = build_model(TINY)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    from dataclasses import replace
    c = build_model(replace(TINY, seed=1))
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params)


def test_fusion_modes_input_handling():
    rgb, sparse = _inputs(TINY)
    rgb_t, sparse_t = Tensor(rgb), Tensor(sparse)

    add_cfg = ModelConfig(input_height=16, input_width=16, base_channels=2,
                          encoder_stages=2, fusion_mode=FusionMode.ELEMENTWISE_ADD)
    model = build_model(add_cfg)
    fused = model.fuse_input(rgb_t, sparse_t)
    np.testing.assert_allclose(fused.data, rgb + sparse)
    with pytest.raises(ValueError):
        model.fuse_input(rgb_t, None)

    rgb_only = build_model(ModelConfig(input_height=16, input_width=16,
                                       base_channels=2, encoder_stages=2))
    assert rgb_only.fuse_input(rgb_t, None) is rgb_t
    assert "fuse.kernel" not in rgb_only.params

    concat = build_model(TINY)
    # identity-like truncation: select the rgb channels, ignore sparse
    eye = np.zeros((3, 4, 1, 1), dtype=np.float32)
    eye[0, 0] = eye[1, 1] = eye[2, 2] = 1.0
    concat.params["fuse.kernel"].data[:] = eye
    concat.params["fuse.bias"].data[:] = 0.0
    fused = concat.fuse_input(rgb_t, sparse_t)
    np.testing.assert_allclose(fused.data, rgb, atol=1e-6)


def test_sparse_channel_changes_output_in_fusion_modes():
    model = build_model(TINY)
    rgb, sparse = _inputs(TINY)
    d1 = model.predict_depth(rgb, np.full_like(sparse, 5.0))
    d2 = model.predict_depth(rgb, np.full_like(sparse, 50.0))
    assert not np.array_equal(d1, d2)


def test_encode_sparse_keeps_sentinel():
    from depthfusion.losses import ReciprocalCodec
    codec = ReciprocalCodec()
    s = np.array([[0.0, 5.0], [80.0, 0.25]])
    enc = encode_sparse(s, codec)
    assert enc[0, 0] == 0.0
    assert enc[0, 1] == codec.d_min / 5.0
    assert enc[1, 1] == 1.0  # below d_min clamps to d_min


def test_end_to_end_gradcheck_tiny():
    cfg = ModelConfig(input_height=8, input_width=8, base_channels=2,
                      encoder_stages=1, fusion_mode=FusionMode.CONCAT_TRUNCATE)
    model = build_model(cfg, dtype=np.float64)
    rng = np.random.default_rng(0)
    rgb = Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 8, 8)), requires_grad=True)
    sparse = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 8, 8)), requires_grad=True)
    gt = Tensor(rng.uniform(0.1, 0.9, size=(1, 1, 8, 8)))
    weights = list(model.params.values())

    def fn(*ts):
        return loss_total(model.predict(rgb, sparse), gt, ssim_window=3)

    ok, err = check(fn, weights + [rgb, sparse], tol=1e-3)
    assert ok, f"end-to-end max relative error {err}"


def test_checkpoint_round_trip_byte_stable(tmp_path):
    model = build_model(TINY)
    extra = {"epoch": 3, "lr": 2e-5, "t": 17}
    moments = {f"adam.m.{n}": np.zeros_like(p.data)
               for n, p in model.params.items()}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, model, extra=extra, moments=moments)
    model2, extra2, moments2 = load_checkpoint(p1)
    assert model2.config == TINY
    assert extra2 == extra
    for name in model.params:
        np.testing.assert_array_equal(model2.params[name].data,
                                      model.params[name].data)
    save_checkpoint(p2, model2, extra=extra2, moments=moments2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loading_draws_no_weights(tmp_path, monkeypatch):
    from depthfusion import model as MD
    model = build_model(TINY)
    assert {n: p.shape for n, p in model.params.items()} == MD.weight_shapes(TINY)
    assert list(model.params) == list(MD.weight_shapes(TINY))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)

    def draw(*args):
        raise AssertionError("load_checkpoint drew a kernel")

    monkeypatch.setattr(MD, "_he_conv", draw)
    back, _, _ = load_checkpoint(path)
    for name, p in model.params.items():
        got = back.params[name].data
        assert got.dtype == np.float32 and got.flags.writeable and got.flags.c_contiguous
        assert got.tobytes() == p.data.tobytes()


def test_checkpoint_random_models_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    model = build_model(TINY)
    for i in range(5):
        for p in model.params.values():
            p.data[:] = rng.normal(size=p.data.shape).astype(np.float32)
        path = tmp_path / f"m{i}.ckpt"
        save_checkpoint(path, model)
        back, _, _ = load_checkpoint(path)
        for name in model.params:
            np.testing.assert_array_equal(back.params[name].data,
                                          model.params[name].data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_predict_depth_builds_no_graph_and_matches_graph_forward():
    model = build_model(TINY)
    rgb, sparse = _inputs(TINY, seed=3, batch=2)
    sparse_m = sparse * 40.0
    codec = TINY.codec()
    with T.no_grad():
        out = model.predict(Tensor(rgb.astype(np.float32)),
                            Tensor(encode_sparse(sparse_m, codec).astype(np.float32)))
    assert out._backward_fn is None and out._parents == ()
    graph = model.predict(Tensor(rgb.astype(np.float32)),
                          Tensor(encode_sparse(sparse_m, codec).astype(np.float32)))
    assert graph._backward_fn is not None
    expected = codec.decode(graph.data.astype(np.float64))[:, 0]
    assert model.predict_depth(rgb, sparse_m).tobytes() == expected.tobytes()


def _traced_peak(fn):
    """The traced peak while ``fn`` runs, over what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_predict_depth_peak_is_bounded():
    # each decoder stage drops its skip and upsampled input once
    # concatenated, and the concatenation once conv1 has read it: a 96x160
    # concat frame peaks at 13.1 MB traced, where holding every skip and
    # the concatenation through conv2 read 14.9 MB
    model = build_model(ModelConfig(fusion_mode=FusionMode.CONCAT_TRUNCATE))
    rng = np.random.default_rng(0)
    rgb = rng.uniform(size=(96, 160, 3))
    sparse = rng.uniform(1, 50, size=(96, 160)) * (rng.uniform(size=(96, 160)) < 0.05)
    expected = model.predict_depth(rgb, sparse)
    peak = _traced_peak(lambda: model.predict_depth(rgb, sparse))
    assert peak < 13.3e6, peak
    assert model.predict_depth(rgb, sparse).tobytes() == expected.tobytes()


def test_loading_holds_one_copy_of_each_tensor(tmp_path):
    # each tensor is read straight into its array: the traced peak stays
    # within 1 MB of the tensors' bytes, where reading the whole file and
    # copying each tensor out of it took twice them
    model = build_model(ModelConfig(fusion_mode=FusionMode.CONCAT_TRUNCATE))
    moments = {f"adam.{kind}.{name}": np.full(p.shape, 1e-3, np.float32)
               for kind in "mv" for name, p in model.params.items()}
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, extra={"epoch": 1}, moments=moments)
    tensor_bytes = sum(p.data.nbytes for p in model.params.values()) \
        + sum(a.nbytes for a in moments.values())
    loaded = []
    peak = _traced_peak(lambda: loaded.append(load_checkpoint(path)))
    assert peak < tensor_bytes + 1e6, (peak, tensor_bytes)
    back, _, back_moments = loaded[0]
    for name, p in model.params.items():
        assert back.params[name].data.tobytes() == p.data.tobytes()
    assert {k: v.tobytes() for k, v in back_moments.items()} == \
        {k: v.tobytes() for k, v in moments.items()}


def test_header_larger_than_file_is_refused_before_allocating(tmp_path):
    # a config of 2^20 base channels gives enc1.conv.kernel 113 MB; the
    # file ends after that tensor's shape, so nothing is allocated for it
    blob = _saved(tmp_path, build_model(TINY)).read_bytes()
    header = blob[:blob.index(b"tensors=")].replace(b"config.base_channels=2\n",
                                                    b"config.base_channels=1048576\n")
    name = b"enc1.conv.kernel"
    bad = tmp_path / "big.ckpt"
    bad.write_bytes(header + b"tensors=1\n" + struct.pack("<I", len(name)) + name
                    + struct.pack("<5I", 4, 1 << 20, 3, 3, 3))
    errors = []

    def load():
        with pytest.raises(ValueError) as info:
            load_checkpoint(bad)
        errors.append(str(info.value))

    peak = _traced_peak(load)
    assert errors == [f"{bad}: file is truncated in tensor 'enc1.conv.kernel'"]
    assert peak < 1e6, peak


@pytest.mark.parametrize("name,value", [("enc1.conv.kernel", np.nan),
                                        ("adam.v.head.bias", np.inf),
                                        ("adam.m.fuse.kernel", -np.inf)])
def test_checkpoint_rejects_non_finite_values(tmp_path, name, value):
    model = build_model(TINY)
    moments = {f"adam.{kind}.{w}": np.zeros(p.shape, np.float32)
               for kind in "mv" for w, p in model.params.items()}
    arrays = {w: p.data for w, p in model.params.items()} | moments
    arrays[name].flat[-1] = value
    path = _saved(tmp_path, model, moments=moments)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: tensor {name!r} holds a NaN or infinite value"


def _saved(tmp_path, model, **kwargs):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, **kwargs)
    return path


def test_checkpoint_rejects_wrong_shape(tmp_path):
    model = build_model(TINY)
    model.params["head.kernel"] = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="'head.kernel' has shape"):
        load_checkpoint(_saved(tmp_path, model))


def test_checkpoint_rejects_missing_weight(tmp_path):
    model = build_model(TINY)
    del model.params["enc1.conv.bias"]
    with pytest.raises(ValueError, match="'enc1.conv.bias' is missing"):
        load_checkpoint(_saved(tmp_path, model))


def test_checkpoint_rejects_unknown_tensor(tmp_path):
    model = build_model(TINY)
    bias = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="'adam.q.fuse.bias' is neither"):
        load_checkpoint(_saved(tmp_path, model, moments={"adam.q.fuse.bias": bias}))
    with pytest.raises(ValueError, match="'adam.m.nope' is neither"):
        load_checkpoint(_saved(tmp_path, model, moments={"adam.m.nope": bias}))


def test_checkpoint_rejects_bad_length(tmp_path):
    model = build_model(TINY)
    blob = _saved(tmp_path, model).read_bytes()
    n = len(model.params)
    bad = tmp_path / "bad.ckpt"
    cases = [
        (blob[:-3], "truncated in tensor 'head.bias'"),
        (blob[:-4], "truncated in tensor 'head.bias'"),
        (blob + b"\0", "1 trailing bytes"),
        (blob.replace(f"tensors={n}\n".encode(), f"tensors={n + 1}\n".encode()),
         f"declares {n + 1} tensors, the file holds {n}"),
        (blob.replace(f"tensors={n}\n".encode(), f"tensors={n - 1}\n".encode()),
         "trailing bytes"),
        (blob[:40], "truncated in the header"),
    ]
    for data, message in cases:
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(bad)


def test_checkpoint_rejects_bad_config(tmp_path):
    blob = _saved(tmp_path, build_model(TINY)).read_bytes()
    bad = tmp_path / "bad.ckpt"
    cases = [
        (b"config.fusion_mode='concat'", b"config.fusion_mode='zzz'",
         "'zzz' is not a valid FusionMode"),
        (b"config.input_height=16", b"config.input_height=18",
         "input 18x16 not divisible by 2^2"),
        (b"config.base_channels=2", b"config.base_channels=2.0",
         "base_channels must be an integer, got 2.0"),
        (b"config.leaky_alpha=0.2", b"config.leaky_alpha='x'",
         "leaky_alpha must be a finite number, got 'x'"),
    ]
    for good, wrong, message in cases:
        assert good in blob
        bad.write_bytes(blob.replace(good, wrong))
        with pytest.raises(ValueError) as info:
            load_checkpoint(bad)
        assert str(info.value) == f"{bad}: bad config: {message}"


def test_checkpoint_with_reciprocal_scale_line_still_loads(tmp_path):
    # v1 files written before ModelConfig.h_reciprocal was dropped carry it
    model = build_model(TINY)
    blob = _saved(tmp_path, model).read_bytes()
    anchor = b"config.leaky_alpha=0.2\n"
    assert anchor in blob and b"h_reciprocal" not in blob
    old = tmp_path / "old.ckpt"
    old.write_bytes(blob.replace(anchor, anchor + b"config.h_reciprocal=10.0\n"))
    back, _, _ = load_checkpoint(old)
    assert back.config == TINY
    for name in model.params:
        np.testing.assert_array_equal(back.params[name].data,
                                      model.params[name].data)


def test_checkpoint_write_failing_part_way_keeps_previous_file(tmp_path):
    model = build_model(TINY)
    path = _saved(tmp_path, model, extra={"epoch": 1})
    before = path.read_bytes()
    # the header and every weight are written before the bad moment raises
    with pytest.raises(TypeError):
        save_checkpoint(path, model, extra={"epoch": 2},
                        moments={"adam.m.fuse.bias": object()})
    assert path.read_bytes() == before
    assert load_checkpoint(path)[1] == {"epoch": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
