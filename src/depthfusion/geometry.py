"""Pinhole projection between 3-D point clouds and sparse depth rasters.

Depth is the camera-frame z coordinate in meters; a zero pixel means
"no measurement". Colliding points keep the nearest return (z-buffer).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive: fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside "
                             f"{self.width}x{self.height} image")


@dataclass
class RigidPose:
    """Rotation (3x3 row-major) and translation mapping sensor frame to camera frame."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if not np.allclose(self.rotation.T @ self.rotation, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")

    @staticmethod
    def identity():
        return RigidPose()


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) meters, sensor frame
    intensity: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")
        if self.intensity is not None:
            self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
            if self.intensity.shape[0] != self.points.shape[0]:
                raise ValueError("intensity length does not match point count")

    def __len__(self):
        return self.points.shape[0]


def project_points(cloud: PointCloud, pose: RigidPose,
                   intrinsics: CameraIntrinsics) -> np.ndarray:
    """Rasterize a point cloud into an HxW sparse depth image.

    Points behind the camera and outside the image are discarded; pixel
    assignment rounds u,v with floor(x + 0.5); pixel collisions keep the
    smallest depth.
    """
    sparse = np.zeros((intrinsics.height, intrinsics.width), dtype=np.float64)
    if len(cloud) == 0:
        return sparse
    cam = cloud.points @ pose.rotation.T + pose.translation
    z = cam[:, 2]
    front = z > 0
    cam = cam[front]
    z = z[front]
    u = np.floor(intrinsics.fx * cam[:, 0] / z + intrinsics.cx + 0.5).astype(np.int64)
    v = np.floor(intrinsics.fy * cam[:, 1] / z + intrinsics.cy + 0.5).astype(np.int64)
    ok = (u >= 0) & (u < intrinsics.width) & (v >= 0) & (v < intrinsics.height)
    u, v, z = u[ok], v[ok], z[ok]
    # deterministic min-depth reduction per pixel
    flat = v * intrinsics.width + u
    order = np.lexsort((z, flat))
    flat, z = flat[order], z[order]
    first = np.ones(flat.shape[0], dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    sparse.reshape(-1)[flat[first]] = z[first]
    return sparse


def backproject(sparse: np.ndarray, intrinsics: CameraIntrinsics) -> PointCloud:
    """Lift every nonzero pixel of a sparse depth image to a camera-frame point."""
    sparse = np.asarray(sparse, dtype=np.float64)
    v, u = np.nonzero(sparse > 0)
    d = sparse[v, u]
    x = (u - intrinsics.cx) * d / intrinsics.fx
    y = (v - intrinsics.cy) * d / intrinsics.fy
    return PointCloud(np.stack([x, y, d], axis=1))


# ---------------------------------------------------------------------------
# file formats


def save_cloud_csv(cloud: PointCloud, path):
    with open(path, "w", encoding="utf-8") as f:
        # repr of a Python float is shortest-exact, so the round trip is lossless
        if cloud.intensity is not None:
            f.write("x,y,z,intensity\n")
            for p, i in zip(cloud.points, cloud.intensity):
                f.write(f"{float(p[0])!r},{float(p[1])!r},"
                        f"{float(p[2])!r},{float(i)!r}\n")
        else:
            f.write("x,y,z\n")
            for p in cloud.points:
                f.write(f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}\n")


def _parse(text, kind, path, lineno, key):
    """``text`` read as ``kind``: int, finite float, bool (``true`` or
    ``false``, any case), str, an Enum or a tuple of allowed strings; if it
    is not one, a ValueError naming the file, the line and the key."""
    if kind is bool:
        value = {"true": True, "false": False}.get(text.lower())
        what = "true or false"
    elif kind in (int, float):
        try:
            value = kind(text)
            value = value if math.isfinite(value) else None
        except ValueError:
            value = None
        what = "an integer" if kind is int else "a finite number"
    elif kind is str:
        value = text
    else:
        choices = ({c: c for c in kind} if isinstance(kind, tuple)
                   else {m.value: m for m in kind})
        value = choices.get(text)
        what = "one of " + ", ".join(choices)
    if value is None:
        raise ValueError(f"{path}:{lineno}: {key}={text!r} is not {what}")
    return value


def read_key_values(path, schema, required=True):
    """The ``key=value`` lines of a text file as ``{key: value}``, each
    stripped and read by ``_parse`` as ``schema[key]``; blank lines and
    ``#`` comments are skipped. A line without ``=``, a key not in
    ``schema``, a repeated key, a bad value and, if ``required``, a key the
    file lacks are ValueErrors naming the file, the line and the key.
    Undecodable bytes are read as U+FFFD, so they reach those checks."""
    values = {}
    lineno = 0
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in schema:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = _parse(text, schema[key], path, lineno, key)
    missing = [key for key in schema if required and key not in values]
    if missing:
        raise ValueError(f"{path}: missing key {missing[0]!r} "
                         f"(the file ends at line {lineno})")
    return values


def load_cloud_csv(path) -> PointCloud:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        header = f.readline().strip()
        if header not in ("x,y,z", "x,y,z,intensity"):
            raise ValueError(f"{path}: bad point-cloud header {header!r}")
        keys = header.split(",")
        has_i = len(keys) == 4
        pts, inten = [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(keys):
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"{len(keys)} fields, got {len(parts)}")
            vals = [_parse(p, float, path, lineno, k) for p, k in zip(parts, keys)]
            pts.append(vals[:3])
            if has_i:
                inten.append(vals[3])
    pts = np.array(pts, dtype=np.float64).reshape(-1, 3)
    return PointCloud(pts, np.array(inten) if has_i else None)


# the keys of a calibration file in the order ``save_calibration`` writes
# them (the CameraIntrinsics fields, the rotation row by row, the
# translation), each with how its value is read
_CALIBRATION_KEYS = {
    "fx": float, "fy": float, "cx": float, "cy": float, "width": int,
    "height": int, **{f"r{i}{j}": float for i in range(3) for j in range(3)},
    **{f"t{i}": float for i in range(3)},
}


def save_calibration(intrinsics: CameraIntrinsics, pose: RigidPose, path):
    values = [*astuple(intrinsics), *pose.rotation.reshape(-1), *pose.translation]
    with open(path, "w", encoding="utf-8") as f:
        for (key, kind), value in zip(_CALIBRATION_KEYS.items(), values):
            f.write(f"{key}={kind(value)!r}\n")


def load_calibration(path):
    """Intrinsics and pose from the file ``save_calibration`` writes. Every
    key is required; a file ``read_key_values`` rejects and an invalid
    camera or pose are ValueErrors naming the file."""
    kv = read_key_values(path, _CALIBRATION_KEYS)
    values = [kv[key] for key in _CALIBRATION_KEYS]
    try:
        return CameraIntrinsics(*values[:6]), RigidPose(values[6:15], values[15:])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
