"""Every input format against a table of corrupted files: each variant of a
small valid file either loads or raises a ValueError naming its path, and
the CLI exits 1 on the ones that do not load."""

import json
from pathlib import Path

import numpy as np
import pytest

from depthfusion import data as D
from depthfusion import geometry as G
from depthfusion.cli import _train_configs, build_parser, main
from depthfusion.model import (FusionMode, ModelConfig, build_model,
                               load_checkpoint, save_checkpoint)

# the bytes put in place of each of a file's first 400 bytes
SUBSTITUTES = b"\x00\xff=\n9.-e# "
CLI_CASES_PER_FORMAT = 3


def variants(good):
    """``good`` cut at every length, then with each of ``SUBSTITUTES`` at
    each of its first 400 bytes."""
    for n in range(len(good)):
        yield f"cut at {n}", good[:n]
    for i in range(min(len(good), 400)):
        for b in SUBSTITUTES:
            if good[i] != b:
                yield f"byte {i} = {bytes([b])!r}", good[:i] + bytes([b]) + good[i + 1:]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small valid file of each format, with how to load it and the
    CLI arguments that read it."""
    root = tmp_path_factory.mktemp("corruption")
    split, out = root / "split", root / "out"
    rng = np.random.default_rng(0)
    sample = D.generate_sample(D.SceneSpec(width=16, height=16), seed=3)
    sample.sample_id = "000000"
    paths = D.save_sample(sample, split)
    ckpt = root / "model.ckpt"
    model = build_model(ModelConfig(input_height=2, input_width=2, base_channels=1,
                                    encoder_stages=1,
                                    fusion_mode=FusionMode.CONCAT_TRUNCATE))
    save_checkpoint(ckpt, model, extra={"epoch": 1},
                    moments={"adam.m.head.bias": np.zeros(1, np.float32)})
    D.save_ppm(rng.uniform(size=(3, 4, 3)), root / "rgb.ppm")
    D.save_depth_pgm(rng.uniform(1, 50, size=(3, 4)), root / "depth.pgm")
    G.save_cloud_csv(G.PointCloud(rng.uniform(1, 9, size=(3, 3)),
                                  rng.uniform(size=3)), root / "cloud.csv")
    G.save_calibration(D.SceneSpec(width=8, height=8).intrinsics,
                       G.RigidPose.identity(), root / "calib.txt")
    (root / "train.cfg").write_text(
        "# run\nepochs=2\nlr0=0.001\naugment=true\nloss_kind=l1\n"
        "fusion_mode=concat\ninput_height=32\nw_edge=0.5\n")

    def train_configs(path):
        return _train_configs(build_parser().parse_args(
            ["train", "--train-dir", str(split), "--config", str(path)]))

    # format: (file, load, CLI arguments that read the file)
    return {
        "ppm": (root / "rgb.ppm", D.load_ppm,
                ["densify", "--sparse", root / "depth.pgm", "--guide",
                 root / "rgb.ppm", "--out", out]),
        "pgm": (root / "depth.pgm", D.load_depth_pgm,
                ["densify", "--sparse", root / "depth.pgm", "--guide",
                 root / "rgb.ppm", "--out", out]),
        "csv": (root / "cloud.csv", G.load_cloud_csv,
                ["project", "--cloud", root / "cloud.csv", "--calibration",
                 root / "calib.txt", "--out", out]),
        "calibration": (root / "calib.txt", G.load_calibration,
                        ["project", "--cloud", root / "cloud.csv",
                         "--calibration", root / "calib.txt", "--out", out]),
        "train config": (root / "train.cfg", train_configs,
                         ["train", "--train-dir", split, "--config",
                          root / "train.cfg", "--out", out]),
        "meta": (Path(paths["meta"]), lambda path: D.load_sample(split, "000000"),
                 ["eval", "--checkpoint", ckpt, "--split-dir", split, "--out", out]),
        "checkpoint": (ckpt, load_checkpoint,
                       ["eval", "--checkpoint", ckpt, "--split-dir", split,
                        "--out", out]),
    }


@pytest.mark.parametrize("fmt", ["ppm", "pgm", "csv", "calibration",
                                 "train config", "meta", "checkpoint"])
def test_corrupted_input_loads_or_names_its_path(files, fmt, capsys):
    path, load, argv = files[fmt]
    good = path.read_bytes()
    load(path)
    wrong, rejected = [], []
    try:
        for what, blob in variants(good):
            path.write_bytes(blob)
            try:
                load(path)
            except ValueError as exc:
                if str(path) in str(exc):
                    rejected.append(blob)
                else:
                    wrong.append(f"{what}: {exc!r}")
            except Exception as exc:  # noqa: BLE001 - anything else is a fault
                wrong.append(f"{what}: {exc!r}")
        assert not wrong, f"{len(wrong)} variants, e.g. " + "; ".join(wrong[:3])
        assert rejected
        step = max(1, len(rejected) // CLI_CASES_PER_FORMAT)
        for blob in rejected[::step][:CLI_CASES_PER_FORMAT]:
            path.write_bytes(blob)
            assert main([str(a) for a in argv]) == 1
            err = json.loads(capsys.readouterr().err.splitlines()[-1])
            assert err["code"] == 1 and str(path) in err["error"]
    finally:
        path.write_bytes(good)
    assert not argv[argv.index("--out") + 1].exists()
