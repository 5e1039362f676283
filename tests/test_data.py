from dataclasses import replace

import numpy as np
import pytest

from depthfusion import data as D


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(10):
        h, w = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        # quantize to the stored 8-bit grid so the round trip is exact
        rgb = rng.integers(0, 256, size=(h, w, 3)) / 255.0
        path = tmp_path / "img.ppm"
        D.save_ppm(rgb, path)
        np.testing.assert_array_equal(D.load_ppm(path), rgb)


def test_pgm_round_trip_and_scale(tmp_path):
    path = tmp_path / "d.pgm"
    depth = np.array([[5.0, 0.0], [80.0, 0.5]])
    D.save_depth_pgm(depth, path)
    raw = path.read_bytes()
    body = raw[raw.index(b"65535\n") + 6:]
    stored = np.frombuffer(body, dtype=">u2").reshape(2, 2)
    assert stored[0, 0] == 1280  # 5.0 m * 256
    assert stored[0, 1] == 0     # zero sentinel survives
    np.testing.assert_array_equal(D.load_depth_pgm(path), depth)


def test_pgm_random_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "d.pgm"
    for _ in range(10):
        h, w = int(rng.integers(2, 16)), int(rng.integers(2, 16))
        depth = rng.integers(0, 80 * 256, size=(h, w)) / 256.0
        D.save_depth_pgm(depth, path)
        np.testing.assert_array_equal(D.load_depth_pgm(path), depth)


def test_pnm_header_errors(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        D.load_ppm(path)  # wrong magic
    path.write_bytes(b"P6\n2 2\n255\nxxx")
    with pytest.raises(ValueError):
        D.load_ppm(path)  # truncated


def test_pnm_truncated_and_garbage_inputs(tmp_path):
    path = tmp_path / "bad.pgm"
    D.save_depth_pgm(np.full((4, 5), 2.0), path)
    good = path.read_bytes()
    assert good.startswith(b"P5\n5 4\n65535\n")
    cases = [
        (good[:5], "malformed header token b'' at byte 5"),  # truncated header
        (good[:-3], "truncated pixel data at byte 50"),
        (good[:13], "truncated pixel data at byte 13"),  # no pixels at all
        (b"P5\n5 x 65535\n" + good[13:], "malformed header token b'x' at byte 5"),
        (bytes(range(256)), "bad magic at byte 0"),  # garbage
    ]
    for raw, message in cases:
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            D.load_depth_pgm(path)
        assert str(info.value).startswith(str(path))
        assert message in str(info.value)
    ppm = tmp_path / "bad.ppm"
    D.save_ppm(np.zeros((4, 5, 3)), ppm)
    ppm.write_bytes(ppm.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated pixel data"):
        D.load_ppm(ppm)


def test_sample_round_trip(tmp_path):
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=5)
    D.save_sample(s, tmp_path)
    back = D.load_sample(tmp_path, s.sample_id)
    assert back.weather == s.weather and back.seed == 5
    # stored at 8-bit / fixed-point precision
    assert np.abs(back.rgb - s.rgb).max() <= 0.5 / 255.0
    assert np.abs(back.gt - s.gt).max() <= 0.5 / 256.0
    np.testing.assert_array_equal(back.sparse > 0, s.sparse > 0)


@pytest.mark.parametrize("meta, message", [
    (b"id=s\nweather day\n", ":2: expected key=value, got 'weather day'"),
    (b"id=s\nseed=x\n", ":2: seed='x' is not an integer"),
    (b"\x89\xff\xfe\x00binary\n", ":1: expected key=value"),
])
def test_malformed_meta_errors_name_the_file(tmp_path, meta, message):
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=5)
    paths = D.save_sample(s, tmp_path)
    with open(paths["meta"], "wb") as f:
        f.write(meta)
    with pytest.raises(ValueError) as info:
        D.load_sample(tmp_path, s.sample_id)
    assert str(info.value).startswith(f"{paths['meta']}{message}")


def test_generator_determinism():
    spec = D.SceneSpec(width=32, height=32)
    a = D.generate_sample(spec, seed=42)
    b = D.generate_sample(spec, seed=42)
    np.testing.assert_array_equal(a.rgb, b.rgb)
    np.testing.assert_array_equal(a.sparse, b.sparse)
    np.testing.assert_array_equal(a.gt, b.gt)
    c = D.generate_sample(spec, seed=43)
    assert not np.array_equal(a.gt, c.gt)


def test_zero_primitive_scene_matches_plane_oracle(monkeypatch):
    monkeypatch.setattr(D, "N_PRIMITIVES", 0)
    spec = D.SceneSpec(width=32, height=32)
    s = D.generate_sample(spec, seed=0)
    oracle = np.clip(D.ground_plane_depth(spec), D.D_MIN, D.D_MAX)
    np.testing.assert_allclose(s.gt, oracle, atol=1e-12)


def test_radar_noise_bounded_and_in_band():
    spec = D.SceneSpec(width=64, height=48, radar_returns=60)
    for seed in range(5):
        s = D.generate_sample(spec, seed=seed)
        vs, us = np.nonzero(s.sparse)
        assert len(vs) > 0
        clipped_gt = np.clip(s.gt, D.D_MIN, D.D_MAX)
        err = np.abs(s.sparse[vs, us] - clipped_gt[vs, us])
        # returns carry Gaussian range noise, clipped, plus fixed-point
        # quantization; clamping at d_min/d_max can only shrink the error
        assert err.max() <= 4.0 * D.RADAR_NOISE_SIGMA + 0.5 / 256.0


def test_weather_affects_rgb_not_depth():
    base = dict(width=32, height=32)
    day = D.generate_sample(D.SceneSpec(weather="day", **base), seed=9)
    fog = D.generate_sample(D.SceneSpec(weather="fog", **base), seed=9)
    np.testing.assert_array_equal(day.gt, fog.gt)
    assert not np.array_equal(day.rgb, fog.rgb)


def test_unknown_weather_rejected():
    with pytest.raises(ValueError):
        D.SceneSpec(weather="hail")


# scene constants that were once SceneSpec fields: no value can be passed
SCENE_CONSTANTS = ("radar_noise_sigma", "radar_band_frac", "d_min", "d_max",
                   "camera_height", "intrinsics")


@pytest.mark.parametrize("field, value", [
    ("radar_returns", -1), ("radar_returns", 2.5), ("radar_returns", True),
    ("width", 0), ("height", -4), ("width", 16.0),
    ("radar_noise_sigma", -0.1), ("radar_noise_sigma", float("nan")),
    ("radar_noise_sigma", float("inf")),
    ("radar_band_frac", 0.0), ("radar_band_frac", 1.5),
    ("radar_band_frac", float("nan")),
    ("d_min", 0.0), ("d_min", float("nan")), ("d_max", 0.5), ("d_max", 0.1),
    ("d_max", float("inf")), ("camera_height", 0.0), ("camera_height", -1.5),
    ("camera_height", float("nan"))])
def test_scene_spec_refuses_bad_fields(field, value):
    error = TypeError if field in SCENE_CONSTANTS else ValueError
    with pytest.raises(error, match=field):
        D.SceneSpec(**{field: value})


def test_scene_spec_accepts_the_edges():
    D.SceneSpec(width=1, height=1, radar_returns=0)


def test_scene_spec_intrinsics_follow_the_size():
    with pytest.raises(TypeError, match="intrinsics"):
        D.SceneSpec(intrinsics=D.SceneSpec().intrinsics)
    intr = D.SceneSpec(width=64, height=32).intrinsics
    assert (intr.fx, intr.fy, intr.cx, intr.cy) == (57.6, 57.6, 32.0, 16.0)
    assert (intr.width, intr.height) == (64, 32)
    assert replace(D.SceneSpec(), width=64, height=32).intrinsics == intr


def replay_augment(seed):
    """(flip, contrast, f, brightness, b): the decisions and factors that
    ``augment`` draws from ``default_rng(seed)``, in its documented order."""
    twin = np.random.default_rng(seed)
    flip = twin.uniform() < D.P_FLIP
    contrast = twin.uniform() < D.P_CONTRAST
    f = twin.uniform(*D.CONTRAST_RANGE)
    brightness = twin.uniform() < D.P_BRIGHTNESS
    b = twin.uniform(*D.BRIGHTNESS_RANGE)
    return flip, contrast, f, brightness, b


def seed_where(flip, contrast, brightness):
    """The first seed whose replayed decisions are the given ones."""
    for seed in range(1000):
        f, c, _, b, _ = replay_augment(seed)
        if (f, c, b) == (flip, contrast, brightness):
            return seed


def test_augment_flip_is_involution_and_aligned():
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=1)
    seed = seed_where(True, False, False)
    once = D.augment(s, np.random.default_rng(seed))
    twice = D.augment(once, np.random.default_rng(seed))
    np.testing.assert_array_equal(twice.rgb, s.rgb)
    np.testing.assert_array_equal(twice.sparse, s.sparse)
    np.testing.assert_array_equal(twice.gt, s.gt)
    np.testing.assert_array_equal(once.rgb, s.rgb[:, ::-1])
    np.testing.assert_array_equal(once.sparse, s.sparse[:, ::-1])
    np.testing.assert_array_equal(once.gt, s.gt[:, ::-1])


def test_augment_identity_when_disabled():
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=2)
    out = D.augment(s, np.random.default_rng(seed_where(False, False, False)))
    np.testing.assert_array_equal(out.rgb, s.rgb)
    np.testing.assert_array_equal(out.sparse, s.sparse)
    np.testing.assert_array_equal(out.gt, s.gt)


def test_augment_contrast_formula():
    rgb = np.array([[[0.2] * 3, [0.6] * 3]])  # mean 0.4
    s = D.Sample(rgb=rgb, sparse=np.zeros((1, 2)), gt=np.ones((1, 2)))
    seed = seed_where(False, True, False)
    f = replay_augment(seed)[2]
    assert D.CONTRAST_RANGE[0] <= f < D.CONTRAST_RANGE[1] and f != 1.0
    out = D.augment(s, np.random.default_rng(seed))
    np.testing.assert_allclose(out.rgb[0, 0], 0.4 + (0.2 - 0.4) * f, atol=1e-12)
    np.testing.assert_allclose(out.rgb[0, 1], 0.4 + (0.6 - 0.4) * f, atol=1e-12)


def test_augment_brightness_formula():
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=4)
    seed = seed_where(False, False, True)
    b = replay_augment(seed)[4]
    assert D.BRIGHTNESS_RANGE[0] <= b < D.BRIGHTNESS_RANGE[1] and b != 1.0
    out = D.augment(s, np.random.default_rng(seed))
    np.testing.assert_array_equal(out.rgb, np.clip(s.rgb * b, 0.0, 1.0))
    np.testing.assert_array_equal(out.sparse, s.sparse)
    np.testing.assert_array_equal(out.gt, s.gt)


def test_augment_determinism_per_rng_seed():
    s = D.generate_sample(D.SceneSpec(width=32, height=32), seed=3)
    seed = seed_where(True, True, True)
    _, _, f, _, b = replay_augment(seed)
    a = D.augment(s, np.random.default_rng(seed))
    again = D.augment(s, np.random.default_rng(seed))
    for name in ("rgb", "sparse", "gt"):
        np.testing.assert_array_equal(getattr(a, name), getattr(again, name))
    flipped = s.rgb[:, ::-1]
    mean = flipped.mean()
    contrasted = np.clip(mean + (flipped - mean) * f, 0.0, 1.0)
    np.testing.assert_array_equal(a.rgb, np.clip(contrasted * b, 0.0, 1.0))
    np.testing.assert_array_equal(a.gt, s.gt[:, ::-1])


def test_generate_dataset_and_listing(tmp_path):
    spec = D.SceneSpec(width=32, height=32)
    ids = D.generate_dataset(tmp_path, 5, {"day": 0.5, "fog": 0.5}, seed=0,
                             spec=spec)
    assert ids == [f"{i:06d}" for i in range(5)]
    assert D.list_sample_ids(tmp_path) == ids
    weathers = {D.load_sample(tmp_path, i).weather for i in ids}
    assert weathers <= {"day", "fog"}
    with pytest.raises(ValueError):
        D.generate_dataset(tmp_path, 1, {"blizzard": 1.0}, seed=0)


def test_batch_iterator_properties(tmp_path):
    spec = D.SceneSpec(width=32, height=32)
    D.generate_dataset(tmp_path, 5, {"day": 1.0}, seed=0, spec=spec)
    batches = list(D.batch_iterator(tmp_path, batch_size=2, seed=7, epoch=1))
    assert len(batches) == 2  # partial batch dropped
    seen = [s.sample_id for b in batches for s in b]
    assert len(set(seen)) == 4
    again = list(D.batch_iterator(tmp_path, batch_size=2, seed=7, epoch=1))
    assert [s.sample_id for b in again for s in b] == seen
    other_epoch = list(D.batch_iterator(tmp_path, batch_size=2, seed=7, epoch=2))
    assert [s.sample_id for b in other_epoch for s in b] != seen
