import numpy as np
import pytest

from depthfusion.geometry import (CameraIntrinsics, PointCloud, RigidPose,
                                  backproject, load_calibration,
                                  load_cloud_csv, project_points,
                                  save_calibration, save_cloud_csv)

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0,
                        width=64, height=48)


def test_pinhole_hand_example():
    cloud = PointCloud(np.array([[1.0, 0.5, 5.0]]))
    sparse = project_points(cloud, RigidPose.identity(), INTR)
    # u = 100*1/5 + 32 = 52, v = 100*0.5/5 + 24 = 34
    assert sparse[34, 52] == 5.0
    assert np.count_nonzero(sparse) == 1


def test_backproject_hand_example():
    sparse = np.zeros((48, 64))
    sparse[34, 52] = 5.0
    cloud = backproject(sparse, INTR)
    assert len(cloud) == 1
    np.testing.assert_allclose(cloud.points[0], [1.0, 0.5, 5.0], atol=1e-12)


def test_principal_ray_lands_on_principal_point():
    cloud = PointCloud(np.array([[0.0, 0.0, 7.0]]))
    sparse = project_points(cloud, RigidPose.identity(), INTR)
    assert sparse[24, 32] == 7.0


def test_points_behind_camera_are_culled():
    cloud = PointCloud(np.array([[0.0, 0.0, -3.0], [0.0, 0.0, 0.0]]))
    sparse = project_points(cloud, RigidPose.identity(), INTR)
    assert np.count_nonzero(sparse) == 0


def test_zbuffer_keeps_minimum_depth():
    # all three land on the principal point; the nearest must win
    cloud = PointCloud(np.array([[0.0, 0.0, 9.0],
                                 [0.0, 0.0, 2.0],
                                 [0.0, 0.0, 5.0]]))
    sparse = project_points(cloud, RigidPose.identity(), INTR)
    assert sparse[24, 32] == 2.0


def test_round_trip_identity_50_rasters():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sparse = np.zeros((48, 64))
        n = int(rng.integers(5, 40))
        vs = rng.integers(0, 48, size=n)
        us = rng.integers(0, 64, size=n)
        sparse[vs, us] = rng.uniform(1.0, 60.0, size=n)
        cloud = backproject(sparse, INTR)
        again = project_points(cloud, RigidPose.identity(), INTR)
        np.testing.assert_array_equal(again, sparse)


def test_pose_transform_applies_before_projection():
    pose = RigidPose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 3.0]))
    cloud = PointCloud(np.array([[0.0, 0.0, 2.0]]))
    sparse = project_points(cloud, pose, INTR)
    assert sparse[24, 32] == 5.0


def test_rotation_validation():
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        RigidPose(rotation=bad, translation=np.zeros(3))
    flip = np.diag([1.0, 1.0, -1.0])  # orthonormal but det -1
    with pytest.raises(ValueError):
        RigidPose(rotation=flip, translation=np.zeros(3))


def test_cloud_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.uniform(-50, 50, size=(30, 3))
    inten = rng.uniform(0, 1, size=30)
    path = tmp_path / "cloud.csv"
    save_cloud_csv(PointCloud(pts, inten), path)
    back = load_cloud_csv(path)
    np.testing.assert_array_equal(back.points, pts)
    np.testing.assert_array_equal(back.intensity, inten)
    # without intensity
    save_cloud_csv(PointCloud(pts), path)
    back = load_cloud_csv(path)
    np.testing.assert_array_equal(back.points, pts)
    assert back.intensity is None


def test_cloud_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        load_cloud_csv(path)
    path.write_text("x,y,z\n1,2\n")
    with pytest.raises(ValueError):
        load_cloud_csv(path)


def test_calibration_round_trip(tmp_path):
    theta = 0.3
    rot = np.array([[np.cos(theta), 0, np.sin(theta)],
                    [0, 1, 0],
                    [-np.sin(theta), 0, np.cos(theta)]])
    pose = RigidPose(rotation=rot, translation=np.array([0.1, -0.2, 1.5]))
    path = tmp_path / "calib.txt"
    save_calibration(INTR, pose, path)
    intr2, pose2 = load_calibration(path)
    assert intr2 == INTR
    np.testing.assert_array_equal(pose2.rotation, rot)
    np.testing.assert_array_equal(pose2.translation, pose.translation)


def test_cloud_csv_errors_name_path_line_and_key(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [
        (b"x,y,z\n1,2,3\n4,abc,6\n", ":3: y='abc' is not a finite number"),
        (b"x,y,z,intensity\n1,2,3,nan\n", ":2: intensity='nan' is not a finite number"),
        (b"x,y,z\n1,2,3\n4,5", ":3: expected 3 fields, got 2"),  # truncated
        (b"", "bad point-cloud header ''"),
        (bytes(range(256)), "bad point-cloud header"),  # garbage
    ]
    for raw, message in cases:
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            load_cloud_csv(path)
        assert str(info.value).startswith(str(path))
        assert message in str(info.value)


def test_calibration_errors_name_path_line_and_key(tmp_path):
    path = tmp_path / "calib.txt"
    save_calibration(INTR, RigidPose.identity(), path)
    good = path.read_text().splitlines()
    assert good[2] == "cx=32.0" and good[4] == "width=64"
    cases = [
        ([line for line in good if not line.startswith("cy=")], "missing key 'cy'"),
        (good[:4], "missing key 'width'"),  # truncated
        (good[:2] + ["cx=abc"] + good[3:], ":3: cx='abc' is not a finite number"),
        (good[:4] + ["width=64.5"] + good[5:], ":5: width='64.5' is not an integer"),
        (good[:2] + ["cx=1000.0"] + good[3:], "principal point (1000.0, 24.0)"),
    ]
    for lines, message in cases:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_calibration(path)
        assert str(info.value).startswith(str(path))
        assert message in str(info.value)
    path.write_bytes(bytes(range(256)))  # garbage
    with pytest.raises(ValueError, match=":1: expected key=value"):
        load_calibration(path)
