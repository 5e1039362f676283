"""Pinhole projection between 3-D point clouds and sparse depth rasters.

Depth is the camera-frame z coordinate in meters; a zero pixel means
"no measurement". Colliding points keep the nearest return (z-buffer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _number(text, path, lineno, key, kind=float):
    """``kind(text)`` if that is finite, else a ValueError naming the file,
    the line and the key."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{path}:{lineno}: {key}={text!r} is not {what}")
    return value


def read_key_values(path):
    """Yields ``(line number, key, value)`` for each ``key=value`` line of a
    text file, key and value stripped. Blank lines and ``#`` comments are
    skipped; a line without ``=`` is a ValueError naming the file and the
    line. Undecodable bytes are read as U+FFFD, so they reach the caller's
    checks of keys and values."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            k, v = line.split("=", 1)
            yield lineno, k.strip(), v.strip()


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
            vals = [_number(p, path, lineno, k) for p, k in zip(parts, keys)]
            pts.append(vals[:3])
            if has_i:
                inten.append(vals[3])
    pts = np.array(pts, dtype=np.float64).reshape(-1, 3)
    return PointCloud(pts, np.array(inten) if has_i else None)


def save_calibration(intrinsics: CameraIntrinsics, pose: RigidPose, path):
    keys = {
        "fx": float(intrinsics.fx), "fy": float(intrinsics.fy),
        "cx": float(intrinsics.cx), "cy": float(intrinsics.cy),
        "width": int(intrinsics.width), "height": int(intrinsics.height),
    }
    r = pose.rotation
    for i in range(3):
        for j in range(3):
            keys[f"r{i}{j}"] = float(r[i, j])
    for i in range(3):
        keys[f"t{i}"] = float(pose.translation[i])
    with open(path, "w", encoding="utf-8") as f:
        for k, v in keys.items():
            f.write(f"{k}={v!r}\n")


def load_calibration(path):
    """Intrinsics and pose from the key=value file ``save_calibration``
    writes. A missing key, a value that is not a number and an invalid
    camera or pose are ValueErrors naming the file, and the line and key
    where there is one."""
    kv = {k: (v, lineno) for lineno, k, v in read_key_values(path)}

    def get(key, kind=float):
        if key not in kv:
            raise ValueError(f"{path}: missing key {key!r}")
        text, lineno = kv[key]
        return _number(text, path, lineno, key, kind)

    camera = dict(fx=get("fx"), fy=get("fy"), cx=get("cx"), cy=get("cy"),
                  width=get("width", int), height=get("height", int))
    r = np.array([[get(f"r{i}{j}") for j in range(3)] for i in range(3)])
    t = np.array([get(f"t{i}") for i in range(3)])
    try:
        return CameraIntrinsics(**camera), RigidPose(r, t)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
