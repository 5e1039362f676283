"""Dataset plumbing: file formats, a procedural scene generator with weather
corruption and simulated radar returns, online augmentation, and batching.

Formats are deliberately compression-free: RGB as binary PPM (P6), depth as
16-bit binary PGM (P5) storing meters * 256 (KITTI-style fixed point, 0 =
no measurement / invalid).
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (CameraIntrinsics, PointCloud, RigidPose,
                       project_points, read_key_values)

WEATHERS = ("day", "night", "fog", "rain", "cloudy")
DEPTH_SCALE = 256.0  # stored uint16 = meters * 256
FOG_BETA = 0.08  # extinction per meter
D_MIN, D_MAX = 0.5, 80.0  # generated depth range, meters
CAMERA_HEIGHT = 1.5  # meters above the ground plane (y points down)
RADAR_NOISE_SIGMA = 0.1  # meters
RADAR_BAND_FRAC = 0.5  # vertical band (fraction of height) around horizon

# augmentation: each transform's probability and its factor's range
P_FLIP = P_CONTRAST = P_BRIGHTNESS = 0.5
CONTRAST_RANGE = (0.9, 1.1)
BRIGHTNESS_RANGE = (0.75, 1.25)


@dataclass
class Sample:
    rgb: np.ndarray      # (H, W, 3) in [0, 1]
    sparse: np.ndarray   # (H, W) meters, 0 = no measurement
    gt: np.ndarray       # (H, W) meters, dense
    sample_id: str = "sample"
    weather: str = "day"
    seed: int = 0


@dataclass
class SceneSpec:
    width: int = 160
    height: int = 96
    n_primitives: int = 8
    weather: str = "day"
    radar_returns: int = 40
    intrinsics: CameraIntrinsics = field(init=False)  # pinhole from the size

    def __post_init__(self):
        if self.weather not in WEATHERS:
            raise ValueError(f"unknown weather {self.weather!r}, expected {WEATHERS}")
        for name, low in (("width", 1), ("height", 1), ("radar_returns", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        f = 0.9 * self.width
        self.intrinsics = CameraIntrinsics(
            fx=f, fy=f, cx=self.width / 2.0, cy=self.height / 2.0,
            width=self.width, height=self.height)


# ---------------------------------------------------------------------------
# scene generation


def _ray_grid(intr: CameraIntrinsics):
    u = np.arange(intr.width)
    v = np.arange(intr.height)
    px = (u[None, :] - intr.cx) / intr.fx
    py = (v[:, None] - intr.cy) / intr.fy
    dx = np.broadcast_to(px, (intr.height, intr.width))
    dy = np.broadcast_to(py, (intr.height, intr.width))
    return dx, dy  # dz == 1 everywhere


def ground_plane_depth(spec: SceneSpec) -> np.ndarray:
    """Analytic z-depth of the ground plane y = CAMERA_HEIGHT; sky gets D_MAX."""
    _, dy = _ray_grid(spec.intrinsics)
    depth = np.full(dy.shape, D_MAX)
    below = dy > 1e-9
    depth[below] = CAMERA_HEIGHT / dy[below]
    return np.clip(depth, D_MIN, D_MAX)


def _intersect_sphere(dx, dy, center, radius):
    # rays o=0, dir=(dx, dy, 1); returns z-depth of nearest hit, inf if miss
    a = dx * dx + dy * dy + 1.0
    b = -2.0 * (dx * center[0] + dy * center[1] + center[2])
    c = center @ center - radius * radius
    disc = b * b - 4 * a * c
    hit = disc >= 0
    t = np.full(dx.shape, np.inf)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = (-b - sq) / (2 * a)
    t[hit & (t0 > 0)] = t0[hit & (t0 > 0)]
    return t  # dz == 1, so z-depth equals t


def _intersect_box(dx, dy, bmin, bmax):
    # slab test against an axis-aligned box; returns z-depth or inf
    t_near = np.zeros(dx.shape)
    t_far = np.full(dx.shape, np.inf)
    for d_axis, lo, hi in ((dx, bmin[0], bmax[0]),
                           (dy, bmin[1], bmax[1]),
                           (np.ones_like(dx), bmin[2], bmax[2])):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = lo / d_axis
            t2 = hi / d_axis
        parallel = np.abs(d_axis) < 1e-12
        tlo = np.where(parallel, np.where((lo <= 0) & (0 <= hi), -np.inf, np.inf),
                       np.minimum(t1, t2))
        thi = np.where(parallel, np.where((lo <= 0) & (0 <= hi), np.inf, -np.inf),
                       np.maximum(t1, t2))
        t_near = np.maximum(t_near, tlo)
        t_far = np.minimum(t_far, thi)
    hit = (t_near <= t_far) & (t_far > 0)
    t = np.where(hit, np.where(t_near > 0, t_near, t_far), np.inf)
    return t


def _apply_weather(rgb, depth, weather, rng):
    if weather == "day":
        return rgb
    if weather == "fog":
        transmittance = np.exp(-FOG_BETA * depth)[..., None]
        return rgb * transmittance + 0.5 * (1.0 - transmittance)
    if weather == "night":
        noise = rng.normal(0.0, 0.02, size=rgb.shape)
        return np.clip(rgb * 0.25 + noise, 0.0, 1.0)
    if weather == "rain":
        out = rgb.copy()
        h, w, _ = rgb.shape
        n_streaks = max(1, (h * w) // 200)
        us = rng.integers(0, w, size=n_streaks)
        vs = rng.integers(0, h, size=n_streaks)
        lengths = rng.integers(2, max(3, h // 8), size=n_streaks)
        for u, v, ln in zip(us, vs, lengths):
            out[v:v + ln, u] = np.clip(out[v:v + ln, u] + 0.35, 0.0, 1.0)
        return out
    if weather == "cloudy":
        mean = rgb.mean()
        return np.clip(mean + (rgb - mean) * 0.8, 0.0, 1.0)
    raise ValueError(f"unknown weather {weather!r}")


def generate_sample(spec: SceneSpec, seed: int) -> Sample:
    """Ray-cast a random box/sphere scene over a ground plane.

    Groundtruth depth is exact; RGB is albedo shaded by depth with weather
    applied to RGB only; the sparse raster comes from noisy surface returns
    inside an elevation band, pushed through the projection pipeline.
    """
    rng = np.random.default_rng(seed)
    intr = spec.intrinsics
    dx, dy = _ray_grid(intr)

    depth = ground_plane_depth(spec)
    # ground albedo: depth stripes so RGB carries range information on clear days
    stripe = (np.floor(depth / 5.0) % 2).astype(np.float64)
    albedo = np.stack([0.35 + 0.25 * stripe,
                       0.45 + 0.15 * stripe,
                       0.30 + 0.20 * stripe], axis=-1)
    sky = dy <= 1e-9
    albedo[sky] = (0.65, 0.75, 0.9)

    for _ in range(spec.n_primitives):
        z = rng.uniform(2.0, 60.0)
        x = rng.uniform(-0.55, 0.55) * z  # keep mostly in the frustum
        size = rng.uniform(0.5, 3.0)
        color = rng.uniform(0.2, 0.95, size=3)
        if rng.uniform() < 0.5:
            center = np.array([x, CAMERA_HEIGHT - size, z])
            t = _intersect_sphere(dx, dy, center, size)
        else:
            half = np.array([size, size, size]) * rng.uniform(0.5, 1.0, size=3)
            center = np.array([x, CAMERA_HEIGHT - half[1], z])
            t = _intersect_box(dx, dy, center - half, center + half)
        closer = t < depth
        depth = np.where(closer, t, depth)
        albedo[closer] = color

    depth = np.clip(depth, D_MIN, D_MAX)
    shade = 1.0 / (1.0 + depth / 15.0)
    rgb = np.clip(albedo * (0.25 + 0.75 * shade[..., None]), 0.0, 1.0)
    rgb = np.clip(_apply_weather(rgb, depth, spec.weather, rng), 0.0, 1.0)

    # simulated radar: noisy depth returns in a horizontal band, rasterized
    # through the same projection path as real point clouds
    n_ret = int(rng.poisson(spec.radar_returns))
    band = max(1, int(RADAR_BAND_FRAC * intr.height / 2))
    v_lo = max(0, int(intr.cy) - band // 2)
    v_hi = min(intr.height, int(intr.cy) + band)
    pts = []
    for _ in range(n_ret):
        u = int(rng.integers(0, intr.width))
        v = int(rng.integers(v_lo, v_hi))
        noise = float(np.clip(rng.normal(0.0, RADAR_NOISE_SIGMA),
                              -3.5 * RADAR_NOISE_SIGMA,
                              3.5 * RADAR_NOISE_SIGMA))
        d = depth[v, u] + noise
        d = float(np.clip(d, D_MIN, D_MAX))
        pts.append([(u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d])
    cloud = PointCloud(np.array(pts).reshape(-1, 3))
    sparse = project_points(cloud, RigidPose.identity(), intr)

    return Sample(rgb=rgb.astype(np.float64), sparse=sparse, gt=depth,
                  sample_id=f"s{seed:08d}", weather=spec.weather, seed=seed)


# ---------------------------------------------------------------------------
# augmentation


def augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """Online augmentation; draws consume rng in a fixed order.

    Order: flip decision, contrast decision, contrast factor, brightness
    decision, brightness factor. Factors are drawn even when the transform is
    skipped so the stream stays aligned. Flip applies to rgb, sparse and gt
    together; contrast (around the image mean) and brightness touch rgb only.
    """
    rgb, sparse, gt = sample.rgb, sample.sparse, sample.gt
    if rng.uniform() < P_FLIP:
        rgb = rgb[:, ::-1].copy()
        sparse = sparse[:, ::-1].copy()
        gt = gt[:, ::-1].copy()
    do_contrast = rng.uniform() < P_CONTRAST
    f = rng.uniform(*CONTRAST_RANGE)
    if do_contrast:
        mean = rgb.mean()
        rgb = np.clip(mean + (rgb - mean) * f, 0.0, 1.0)
    do_brightness = rng.uniform() < P_BRIGHTNESS
    b = rng.uniform(*BRIGHTNESS_RANGE)
    if do_brightness:
        rgb = np.clip(rgb * b, 0.0, 1.0)
    return replace(sample, rgb=rgb, sparse=sparse, gt=gt)


# ---------------------------------------------------------------------------
# PPM / PGM


def _read_pnm_header(raw: bytes, path, magic_expected):
    if raw[:2] != magic_expected:
        raise ValueError(f"{path}: bad magic at byte 0, expected "
                         f"{magic_expected!r}, got {raw[:2]!r}")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":  # comment to end of line
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tok = raw[start:pos]
        if not tok.isdigit():
            raise ValueError(f"{path}: malformed header token {tok!r} at byte {start}")
        fields.append(int(tok))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    return width, height, maxval, pos


def save_ppm(rgb: np.ndarray, path):
    """RGB in [0, 1] to binary PPM (P6, maxval 255)."""
    h, w, _ = rgb.shape
    data = np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def load_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    w, h, maxval, pos = _read_pnm_header(raw, path, b"P6")
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    need = w * h * 3
    body = raw[pos:pos + need]
    if len(body) != need:
        raise ValueError(f"{path}: truncated pixel data at byte {pos + len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3) / 255.0


def save_depth_pgm(depth: np.ndarray, path):
    """Depth in meters to 16-bit binary PGM; stored value = meters * 256."""
    h, w = depth.shape
    data = np.clip(np.round(depth * DEPTH_SCALE), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(data.tobytes())


def load_depth_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    w, h, maxval, pos = _read_pnm_header(raw, path, b"P5")
    if maxval != 65535:
        raise ValueError(f"{path}: expected maxval 65535, got {maxval}")
    need = w * h * 2
    body = raw[pos:pos + need]
    if len(body) != need:
        raise ValueError(f"{path}: truncated pixel data at byte {pos + len(body)}")
    return np.frombuffer(body, dtype=">u2").reshape(h, w).astype(np.float64) / DEPTH_SCALE


# ---------------------------------------------------------------------------
# sample/dataset IO


def sample_paths(directory, sample_id):
    return {
        "rgb": os.path.join(directory, f"{sample_id}_rgb.ppm"),
        "sparse": os.path.join(directory, f"{sample_id}_sparse.pgm"),
        "gt": os.path.join(directory, f"{sample_id}_gt.pgm"),
        "meta": os.path.join(directory, f"{sample_id}_meta.txt"),
    }


def save_sample(sample: Sample, directory):
    os.makedirs(directory, exist_ok=True)
    paths = sample_paths(directory, sample.sample_id)
    save_ppm(sample.rgb, paths["rgb"])
    save_depth_pgm(sample.sparse, paths["sparse"])
    save_depth_pgm(sample.gt, paths["gt"])
    with open(paths["meta"], "w", encoding="utf-8") as f:
        f.write(f"id={sample.sample_id}\n")
        f.write(f"weather={sample.weather}\n")
        f.write(f"seed={sample.seed}\n")
    return paths


# the keys of a sample's ``_meta.txt``, all required, with how each is read
_META_KEYS = {"id": str, "weather": WEATHERS, "seed": int}


def load_sample(directory, sample_id) -> Sample:
    """A ``_meta.txt`` that ``read_key_values`` rejects under ``_META_KEYS``
    is a ValueError naming the file, the line and the key; so is a sparse
    or ground-truth map whose size differs from the RGB image's, naming
    the map's file and both sizes."""
    paths = sample_paths(directory, sample_id)
    meta = read_key_values(paths["meta"], _META_KEYS)
    rgb = load_ppm(paths["rgb"])
    maps = {}
    for key in ("sparse", "gt"):
        maps[key] = load_depth_pgm(paths[key])
        if maps[key].shape != rgb.shape[:2]:
            (h, w), (hr, wr) = maps[key].shape, rgb.shape[:2]
            raise ValueError(f"{paths[key]}: size {w}x{h} differs from the "
                             f"RGB image's {wr}x{hr} ({paths['rgb']})")
    return Sample(rgb=rgb, sparse=maps["sparse"], gt=maps["gt"],
                  sample_id=meta["id"], weather=meta["weather"],
                  seed=meta["seed"])


def list_sample_ids(directory):
    ids = sorted(f[:-len("_meta.txt")] for f in os.listdir(directory)
                 if f.endswith("_meta.txt"))
    return ids


def generate_dataset(out_dir, count, weather_mix, seed,
                     spec: SceneSpec | None = None):
    """Write `count` samples; weather_mix is {weather: fraction} (normalized)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base = spec or SceneSpec()
    names = list(weather_mix.keys())
    for nm in names:
        if nm not in WEATHERS:
            raise ValueError(f"unknown weather {nm!r} in mix")
    probs = np.array([weather_mix[n] for n in names], dtype=np.float64)
    if probs.sum() <= 0:
        raise ValueError("weather mix fractions must sum to a positive value")
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    ids = []
    for i in range(count):
        weather = names[int(rng.choice(len(names), p=probs))]
        sample_seed = int(rng.integers(0, 2 ** 31 - 1))
        s = generate_sample(replace(base, weather=weather), sample_seed)
        s.sample_id = f"{i:06d}"
        save_sample(s, out_dir)
        ids.append(s.sample_id)
    return ids


def batch_iterator(directory, batch_size=2, seed=0, epoch=1):
    """Deterministically shuffled batches for one epoch; partial batch dropped."""
    ids = list_sample_ids(directory)
    if not ids:
        raise ValueError(f"dataset directory {directory} is empty")
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(ids))
    for start in range(0, len(ids) - batch_size + 1, batch_size):
        chunk = order[start:start + batch_size]
        yield [load_sample(directory, ids[i]) for i in chunk]
