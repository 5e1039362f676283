import json
import shutil

import numpy as np
import pytest

from depthfusion import cli
from depthfusion import data as D
from depthfusion import geometry as G
from depthfusion import metrics as M
from depthfusion.cli import _train_configs, build_parser, depth_colormap, main
from depthfusion.densify import DensifyConfig, densify
from depthfusion.losses import PixelLossKind
from depthfusion.model import (FusionMode, Model, ModelConfig, build_model,
                               load_checkpoint, save_checkpoint)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset plus a 2-epoch fusion checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--count", "4", "--out", str(data),
                 "--seed", "1", "--width", "32", "--height", "32"]) == 0
    assert main(["train", "--train-dir", str(data), "--out", str(run),
                 "--epochs", "2", "--width", "32", "--height", "32",
                 "--fusion", "concat", "--seed", "0"]) == 0
    return {"root": root, "data": data,
            "ckpt": run / "last.ckpt"}


def test_gen_data_writes_samples(workspace):
    ids = D.list_sample_ids(workspace["data"])
    assert len(ids) == 4
    s = D.load_sample(workspace["data"], ids[0])
    assert s.rgb.shape == (32, 32, 3)


def test_predict_outputs_and_determinism(workspace):
    data, root = workspace["data"], workspace["root"]
    out1, out2 = root / "p1.pgm", root / "p2.pgm"
    args = ["predict", "--checkpoint", str(workspace["ckpt"]),
            "--rgb", str(data / "000000_rgb.ppm"),
            "--sparse", str(data / "000000_sparse.pgm")]
    assert main(args + ["--out", str(out1), "--vis", str(root / "v.ppm")]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    depth = D.load_depth_pgm(out1)
    assert depth.shape == (32, 32) and depth.min() > 0
    vis = D.load_ppm(root / "v.ppm")
    assert vis.shape == (32, 32, 3)


def test_predict_fusion_requires_sparse(workspace, capsys):
    code = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                 "--rgb", str(workspace["data"] / "000000_rgb.ppm"),
                 "--out", str(workspace["root"] / "x.pgm")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["code"] == 1 and "sparse" in err["error"]


def test_eval_divisor_flag_and_outputs(workspace):
    root, data = workspace["root"], workspace["data"]
    out_gt, out_pred = root / "eval_gt", root / "eval_pred"
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--split-dir", str(data), "--out", str(out_gt)]) == 0
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--split-dir", str(data), "--out", str(out_pred),
                 "--ard-divisor", "pred"]) == 0
    agg_gt = json.loads((out_gt / "aggregate.json").read_text())
    agg_pred = json.loads((out_pred / "aggregate.json").read_text())
    assert agg_gt["divisor_convention"] == "gt"
    assert agg_pred["divisor_convention"] == "pred"
    assert agg_gt["ard"] != agg_pred["ard"]
    per = [json.loads(l) for l in (out_gt / "per_sample.jsonl")
           .read_text().splitlines()]
    assert len(per) == 4
    assert (out_gt / "summary.csv").read_text().startswith("sample_id,")


def test_eval_scores_each_frame_before_loading_the_next(workspace, monkeypatch,
                                                        capsys):
    root, data = workspace["root"], workspace["data"]
    split = root / "order"
    split.mkdir()
    for sample_id in D.list_sample_ids(data):
        for path in D.sample_paths(data, sample_id).values():
            shutil.copy(path, split)
    (split / "000002_gt.pgm").unlink()
    calls = []

    def record(name, fn, frame=lambda args: None):
        def wrapped(*args, **kwargs):
            calls.append((name, frame(args)))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(D, "load_sample",
                        record("load", D.load_sample, lambda args: args[1]))
    monkeypatch.setattr(Model, "predict_depth",
                        record("predict", Model.predict_depth))
    monkeypatch.setattr(M, "compute_metrics", record("score", M.compute_metrics))
    assert main(["eval", "--checkpoint", str(workspace["ckpt"]),
                 "--split-dir", str(split), "--out", str(root / "order_out")]) == 0
    assert calls == [step for sample_id in ("000000", "000001", "000003")
                     for step in (("load", sample_id), ("predict", None),
                                  ("score", None))]
    assert "sample 000002 has no groundtruth" in capsys.readouterr().err
    agg = json.loads((root / "order_out" / "aggregate.json").read_text())
    assert agg["skipped_samples"] == 1


def test_project_round_trip(workspace):
    root = workspace["root"]
    s = D.load_sample(workspace["data"], "000001")
    intr = D.SceneSpec(width=32, height=32).intrinsics
    cloud = G.backproject(s.sparse, intr)
    G.save_cloud_csv(cloud, root / "cloud.csv")
    G.save_calibration(intr, G.RigidPose.identity(), root / "calib.txt")
    assert main(["project", "--cloud", str(root / "cloud.csv"),
                 "--calibration", str(root / "calib.txt"),
                 "--out", str(root / "proj.pgm")]) == 0
    proj = D.load_depth_pgm(root / "proj.pgm")
    np.testing.assert_array_equal(proj > 0, s.sparse > 0)


def test_densify_command(workspace):
    root, data = workspace["root"], workspace["data"]
    code = main(["densify", "--sparse", str(data / "000002_sparse.pgm"),
                 "--guide", str(data / "000002_rgb.ppm"),
                 "--max-iterations", "20000",
                 "--out", str(root / "dense.pgm")])
    assert code == 0
    dense = D.load_depth_pgm(root / "dense.pgm")
    assert np.all(dense > 0)


def test_densify_flags_default_to_the_config(workspace, monkeypatch):
    root, data = workspace["root"], workspace["data"]
    seen = []
    monkeypatch.setattr(cli, "densify", lambda sparse, guide, cfg: seen.append(cfg)
                        or densify(sparse, guide, cfg))
    code = main(["densify", "--sparse", str(data / "000002_sparse.pgm"),
                 "--guide", str(data / "000002_rgb.ppm"),
                 "--out", str(root / "dense_default.pgm")])
    assert code in (0, 2) and seen == [DensifyConfig()]


def test_gen_data_count_and_defaults(workspace, capsys):
    root = workspace["root"]
    for count in ("0", "-3"):
        assert main(["gen-data", "--count", count, "--out", str(root / "none")]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == f"count must be >= 1, got {count}"
    assert not (root / "none").exists()
    assert main(["gen-data", "--count", "1", "--out", str(root / "default")]) == 0
    s = D.load_sample(root / "default", "000000")
    spec = D.SceneSpec()
    assert s.rgb.shape == (spec.height, spec.width, 3)


def test_gen_data_refuses_negative_radar_returns(workspace, capsys):
    assert main(["gen-data", "--count", "1", "--out", str(workspace["root"] / "neg"),
                 "--radar-returns", "-5"]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "radar_returns must be an integer >= 0, got -5"


def test_bad_input_exits_one(workspace, capsys):
    assert main(["gen-data", "--count", "1", "--out",
                 str(workspace["root"] / "w"),
                 "--weather-mix", "day-1.0"]) == 1
    capsys.readouterr()


def test_malformed_inputs_exit_one(workspace, capsys):
    root, data = workspace["root"], workspace["data"]
    bad = root / "malformed"
    bad.mkdir()
    s = D.load_sample(data, "000001")
    G.save_cloud_csv(G.backproject(s.sparse, D.SceneSpec(width=32, height=32).intrinsics),
                     bad / "cloud.csv")
    G.save_calibration(D.SceneSpec(width=32, height=32).intrinsics,
                       G.RigidPose.identity(), bad / "calib.txt")
    # calibration, meta and train config share one reader: an unknown key, a
    # repeated key, a bad value and a missing required key (train config
    # keys are all optional) each name the path, the line and the key
    calib = (bad / "calib.txt").read_text().splitlines()
    assert len(calib) == 18 and calib[4] == "width=32"
    calibs = {"colour": calib + ["colour=red"], "fx": calib + ["fx=1e9"],
              "width": calib[:4] + ["width=32.5"] + calib[5:], "t2": calib[:-1]}
    for name, lines in calibs.items():
        (bad / f"calib_{name}.txt").write_text("\n".join(lines) + "\n")
    (bad / "garbage.csv").write_text("x,y,z\n1,2,abc\n")
    (bad / "short.txt").write_text("fx=10.0\nfy=10.0\ncx=5.0\n")
    (bad / "short.pgm").write_bytes((data / "000002_sparse.pgm").read_bytes()[:-7])
    (bad / "garbage.ppm").write_bytes(bytes(range(256)) * 4)
    configs = {"epoch": "epochs=1\nepoch=5\n", "batchsize": "batchsize=7\n",
               "augment": "augment=maybe\n", "epochs": "# run\nepochs=abc\n",
               "lr0": "lr0=nan\n", "decay": "lr_decay_factor=inf\n",
               "w_edge": "w_edge=NaN\n", "w_pixel": "w_pixel=inf\n",
               "h": "h_reciprocal=10.0\n", "repeat": "epochs=1\nepochs=5\n",
               "fusion": "fusion_mode=zzz\n", "height": "input_height=40\n"}
    for name, text in configs.items():
        (bad / f"{name}.cfg").write_text(text)
    (bad / "binary.cfg").write_bytes(b"\xff\xfeepochs=1\n")
    meta = (data / "000001_meta.txt").read_bytes()
    assert meta.startswith(b"id=000001\nweather=day\nseed=") and meta.count(b"\n") == 3
    metas = {"noeq": b"id=000001\nweather day\n", "seed": b"id=000001\nseed=x\n",
             "binary": b"\x89\xff\xfe\x00binary\n", "colour": meta + b"colour=red\n",
             "repeat": meta + b"seed=5\n",
             "weather": meta.replace(b"weather=day", b"weather=zzz"),
             "noweather": meta.replace(b"weather=day\n", b"")}
    for name, text in metas.items():
        split = bad / f"split_{name}"
        split.mkdir()
        for path in D.sample_paths(data, "000001").values():
            shutil.copy(path, split)
        (split / "000001_meta.txt").write_bytes(text)
    for key in ("sparse", "gt"):  # a 32x16 map beside a 32x32 RGB image
        split = bad / f"split_{key}_size"
        split.mkdir()
        for path in D.sample_paths(data, "000001").values():
            shutil.copy(path, split)
        D.save_depth_pgm(np.full((16, 32), 5.0), split / f"000001_{key}.pgm")

    def copy_frame(name):  # sample 000001 alone in bad/split_<name>
        split = bad / f"split_{name}"
        split.mkdir()
        for path in D.sample_paths(data, "000001").values():
            shutil.copy(path, split)
        return split

    D.save_depth_pgm(np.zeros((32, 32)), copy_frame("gt_unmeasured") / "000001_gt.pgm")
    gt = D.load_depth_pgm(data / "000001_gt.pgm")
    gt[:4] = 0.0  # 4 unmeasured rows
    D.save_depth_pgm(gt, copy_frame("gt_holes") / "000001_gt.pgm")
    (copy_frame("no_gt") / "000001_gt.pgm").unlink()
    wide = D.generate_sample(D.SceneSpec(width=64, height=32), seed=5)
    wide.sample_id = "000001"
    D.save_sample(wide, bad / "split_wide")
    out = str(bad / "never.pgm")

    def gen(mix):
        return ["gen-data", "--count", "1", "--out", bad / "gen", "--weather-mix", mix]

    def train(config):
        return ["train", "--train-dir", data, "--out", bad / "run",
                "--config", bad / config]

    def fit(train_dir=data, val_dir=data):  # one 32x32 epoch into bad/run
        return ["train", "--train-dir", train_dir, "--val-dir", val_dir,
                "--out", bad / "run", "--epochs", "1", "--batch-size", "1",
                "--width", "32", "--height", "32"]

    def frame(name, kind):
        return str(bad / f"split_{name}" / f"000001_{kind}")

    def evaluate(name):
        return ["eval", "--checkpoint", workspace["ckpt"], "--split-dir",
                bad / f"split_{name}", "--out", bad / "eval"]

    def meta(name):
        return str(bad / f"split_{name}" / "000001_meta.txt")

    def project(calibration):
        return ["project", "--cloud", bad / "cloud.csv", "--calibration",
                bad / calibration, "--out", out]

    cases = [
        (["project", "--cloud", bad / "garbage.csv", "--calibration",
          bad / "calib.txt", "--out", out], "garbage.csv:2: z='abc'"),
        (project("short.txt"), "short.txt: missing key 'cy' (the file ends at line 3)"),
        (project("calib_colour.txt"), "calib_colour.txt:19: unknown key 'colour'"),
        (project("calib_fx.txt"), "calib_fx.txt:19: repeated key 'fx'"),
        (project("calib_width.txt"), "calib_width.txt:5: width='32.5' is not an integer"),
        (project("calib_t2.txt"), "calib_t2.txt: missing key 't2' (the file ends at line 17)"),
        (["densify", "--sparse", bad / "short.pgm", "--guide",
          data / "000002_rgb.ppm", "--out", out], "truncated pixel data"),
        (["densify", "--sparse", data / "000002_sparse.pgm", "--guide",
          bad / "garbage.ppm", "--out", out], "garbage.ppm: bad magic"),
        (["densify", "--sparse", data / "000002_sparse.pgm", "--guide",
          data / "000002_rgb.ppm", "--out", out, "--tolerance", "nan"],
         "tolerance must be positive and finite, got nan"),
        (train("epoch.cfg"), "epoch.cfg:2: unknown key 'epoch'"),
        (train("batchsize.cfg"), "batchsize.cfg:1: unknown key 'batchsize'"),
        (train("h.cfg"), "h.cfg:1: unknown key 'h_reciprocal'"),
        (train("augment.cfg"), "augment.cfg:1: augment='maybe' is not true or false"),
        (train("epochs.cfg"), "epochs.cfg:2: epochs='abc' is not an integer"),
        (train("binary.cfg"), "binary.cfg:1: unknown key"),
        (train("lr0.cfg"), "lr0.cfg:1: lr0='nan' is not a finite number"),
        (train("decay.cfg"), "decay.cfg:1: lr_decay_factor='inf' is not a finite number"),
        (train("w_edge.cfg"), "w_edge.cfg:1: w_edge='NaN' is not a finite number"),
        (train("w_pixel.cfg"), "w_pixel.cfg:1: w_pixel='inf' is not a finite number"),
        (train("repeat.cfg"), "repeat.cfg:2: repeated key 'epochs'"),
        (train("fusion.cfg"), "fusion.cfg:1: fusion_mode='zzz' is not one of rgb, concat, add"),
        (train("height.cfg"), "height.cfg: bad config: input 40x160 not divisible by 2^4"),
        (gen("day:nan"), "--weather-mix: bad entry 'day:nan'"),
        (gen("day:inf"), "--weather-mix: bad entry 'day:inf'"),
        (gen("fog:0.5,day:-1"), "--weather-mix: bad entry 'day:-1'"),
        (gen("day:abc"), "--weather-mix: bad entry 'day:abc'"),
        (gen("day:1,day:2"), "--weather-mix: 'day' is repeated in entry 'day:2'"),
        (evaluate("noeq"), meta("noeq") + ":2: expected key=value"),
        (evaluate("seed"), meta("seed") + ":2: seed='x' is not an integer"),
        (evaluate("binary"), meta("binary") + ":1: expected key=value"),
        (evaluate("colour"), meta("colour") + ":4: unknown key 'colour'"),
        (evaluate("repeat"), meta("repeat") + ":4: repeated key 'seed'"),
        (evaluate("weather"), meta("weather")
         + ":2: weather='zzz' is not one of day, night, fog, rain, cloudy"),
        (evaluate("noweather"), meta("noweather")
         + ": missing key 'weather' (the file ends at line 2)"),
        (evaluate("sparse_size"), str(bad / "split_sparse_size" / "000001_sparse.pgm")
         + ": size 32x16 differs from the RGB image's 32x32"),
        (evaluate("gt_size"), str(bad / "split_gt_size" / "000001_gt.pgm")
         + ": size 32x16 differs from the RGB image's 32x32"),
        (evaluate("gt_unmeasured"), str(bad / "split_gt_unmeasured" / "000001_gt.pgm")
         + ": no pixel has a measured depth"),
        # every frame is checked before the first train step, so none of
        # these writes a checkpoint or a log record (bad/run stays absent)
        (fit(val_dir=bad / "split_gt_unmeasured"),
         frame("gt_unmeasured", "gt.pgm") + ": no pixel has a measured depth"),
        (fit(val_dir=bad / "split_wide"), frame("wide", "rgb.ppm")
         + ": size 64x32 differs from the checkpoint's configured 32x32"),
        (fit(val_dir=bad / "split_no_gt"), frame("no_gt", "gt.pgm") + ": does not exist"),
        (fit(bad / "split_gt_holes"), frame("gt_holes", "gt.pgm")
         + ": 128 of 1024 pixels have no measured depth"),
        (fit(bad / "split_wide"), frame("wide", "rgb.ppm")
         + ": size 64x32 differs from the checkpoint's configured 32x32"),
    ]
    for argv, message in cases:
        assert main([str(a) for a in argv]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 1 and message in err["error"]
    assert not (bad / "never.pgm").exists()
    assert not (bad / "run").exists()
    assert not (bad / "eval").exists()
    assert not (bad / "gen").exists()


def test_train_config_file_is_read_and_flags_override_it(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# comment\nepochs = 3\nbatch_size=4\naugment=False\n"
                   "loss_kind=berhu\nw_edge=0.5\nfusion_mode=add\nmodel_seed=7\n")
    args = build_parser().parse_args(["train", "--train-dir", "d", "--config",
                                      str(cfg), "--epochs", "5"])
    tcfg, mcfg, model_keys = _train_configs(args)
    assert model_keys == ("fusion_mode", "seed")
    assert (tcfg.epochs, tcfg.batch_size, tcfg.augment) == (5, 4, False)
    assert tcfg.loss_kind is PixelLossKind.BERHU
    assert tcfg.loss_weights.w_edge == 0.5 and tcfg.loss_weights.w_ssim == 1.0
    assert mcfg.fusion_mode is FusionMode.ELEMENTWISE_ADD and mcfg.seed == 7
    assert (mcfg.input_height, mcfg.input_width) == (96, 160)


def test_runtime_failure_exits_two(workspace, capsys):
    # the inputs are sound, but the output cannot be written: its parent
    # is a regular file
    data = workspace["data"]
    code = main(["predict", "--checkpoint", str(workspace["ckpt"]),
                 "--rgb", str(data / "000000_rgb.ppm"),
                 "--sparse", str(data / "000000_sparse.pgm"),
                 "--out", str(data / "000000_rgb.ppm" / "never.pgm")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["code"] == 2


def test_missing_input_exits_one_naming_the_path(workspace, capsys):
    root, data, ckpt = workspace["root"], workspace["data"], workspace["ckpt"]
    missing = root / "missing"
    rgb, sparse = data / "000000_rgb.ppm", data / "000000_sparse.pgm"
    eval_out, pgm_out = ["--out", root / "never"], ["--out", root / "never.pgm"]
    # (arguments, the input they cannot read)
    cases = [
        (["eval", "--checkpoint", missing / "model.ckpt", "--split-dir", data]
         + eval_out, missing / "model.ckpt"),
        (["eval", "--checkpoint", ckpt, "--split-dir", missing] + eval_out, missing),
        (["predict", "--checkpoint", ckpt, "--rgb", missing / "rgb.ppm",
          "--sparse", sparse] + pgm_out, missing / "rgb.ppm"),
        (["predict", "--checkpoint", ckpt, "--rgb", rgb, "--sparse", data]
         + pgm_out, data),
        (["densify", "--sparse", sparse, "--guide", missing / "guide.ppm"]
         + pgm_out, missing / "guide.ppm"),
        (["project", "--cloud", missing / "cloud.csv", "--calibration", rgb]
         + pgm_out, missing / "cloud.csv"),
        (["train", "--train-dir", data, "--config", missing / "train.cfg"]
         + eval_out, missing / "train.cfg"),
        (["train", "--train-dir", data, "--resume", missing / "last.ckpt"]
         + eval_out, missing / "last.ckpt"),
        (["train", "--train-dir", missing] + eval_out, missing),
    ]
    for argv, path in cases:
        assert main([str(a) for a in argv]) == 1, argv
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 1 and err["error"].startswith(f"{path}: cannot read: ")
    assert not (root / "never").exists() and not (root / "never.pgm").exists()


def test_resume_keeps_the_model_settings_that_are_set(workspace, capsys):
    root, data = workspace["root"], workspace["data"]
    wide = root / "concat160.ckpt"
    save_checkpoint(wide, build_model(ModelConfig(fusion_mode=FusionMode.CONCAT_TRUNCATE)),
                    extra={"epoch": 1, "lr": 1e-4, "adam_t": 2})
    (root / "rgb.cfg").write_text("fusion_mode=rgb\n")
    out = ["--train-dir", data, "--out", root / "never_run"]
    cases = [
        (["--fusion", "rgb", "--width", "64", "--resume", wide],
         f"{wide}: the checkpoint has config.input_width=160, but input_width=64 was set"),
        (["--config", root / "rgb.cfg", "--resume", wide],
         f"{wide}: the checkpoint has config.fusion_mode='concat', "
         "but fusion_mode='rgb' was set"),
    ]
    for argv, message in cases:
        assert main(["train"] + [str(a) for a in out + argv]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 1 and message in err["error"]
    assert not (root / "never_run").exists()
    # settings that are not set follow the checkpoint, and settings equal to
    # the checkpoint's are accepted: both resume to the uninterrupted run
    run = workspace["ckpt"].parent
    for name, flags in (("plain", []),
                        ("same", ["--fusion", "concat", "--width", "32",
                                  "--height", "32", "--seed", "0"])):
        resumed = root / f"resumed_{name}"
        assert main(["train", "--train-dir", str(data), "--out", str(resumed),
                     "--epochs", "2", "--resume", str(run / "epoch_001.ckpt")]
                    + flags) == 0
        for ckpt in ("epoch_002.ckpt", "last.ckpt"):
            assert (resumed / ckpt).read_bytes() == (run / ckpt).read_bytes()


def test_resume_state_is_checked(workspace, capsys):
    root, data = workspace["root"], workspace["data"]
    model = build_model(ModelConfig(input_height=32, input_width=32))
    cases = [(None, "state.epoch must be an integer >= 0; it is missing"),
             ({"epoch": "x", "adam_t": 2}, "state.epoch must be an integer >= 0; got 'x'"),
             ({"epoch": -1, "adam_t": 2}, "state.epoch must be an integer >= 0; got -1"),
             ({"epoch": 1}, "state.adam_t must be an integer >= 0; it is missing"),
             ({"epoch": 1, "adam_t": 1.5}, "state.adam_t must be an integer >= 0; got 1.5")]
    for i, (extra, message) in enumerate(cases):
        ckpt = root / f"state{i}.ckpt"
        save_checkpoint(ckpt, model, extra=extra)
        assert main(["train", "--train-dir", str(data), "--out",
                     str(root / "never_run"), "--resume", str(ckpt)]) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["code"] == 1 and err["error"] == f"{ckpt}: {message}"
    assert not (root / "never_run").exists()


def test_resume_past_the_requested_epochs_exits_one(workspace, capsys):
    root, data = workspace["root"], workspace["data"]
    ckpt = workspace["ckpt"].parent / "epoch_002.ckpt"
    out = root / "never_resumed"
    assert main(["train", "--train-dir", str(data), "--out", str(out),
                 "--epochs", "1", "--resume", str(ckpt)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == (f"{ckpt}: the checkpoint has state.epoch=2, "
                            "past the requested epochs=1")
    assert not out.exists()
    # as many epochs as the checkpoint has is a run with nothing left to train
    assert main(["train", "--train-dir", str(data), "--out", str(out),
                 "--epochs", "2", "--resume", str(ckpt)]) == 0
    assert "finished 0 epochs" in capsys.readouterr().out


def test_truncated_checkpoint_exits_one(workspace, capsys):
    bad = workspace["root"] / "truncated.ckpt"
    bad.write_bytes(workspace["ckpt"].read_bytes()[:-10])
    code = main(["predict", "--checkpoint", str(bad),
                 "--rgb", str(workspace["data"] / "000000_rgb.ppm"),
                 "--sparse", str(workspace["data"] / "000000_sparse.pgm"),
                 "--out", str(workspace["root"] / "never.pgm")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["code"] == 1 and "truncated" in err["error"]


def test_non_finite_checkpoint_exits_one(workspace, capsys):
    model, extra, moments = load_checkpoint(workspace["ckpt"])
    model.params["enc1.conv.kernel"].data[0, 0, 0, 0] = np.nan
    bad = workspace["root"] / "nan.ckpt"
    save_checkpoint(bad, model, extra=extra, moments=moments)
    out = workspace["root"] / "nan_eval"
    assert main(["eval", "--checkpoint", str(bad), "--split-dir",
                 str(workspace["data"]), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == (f"{bad}: tensor 'enc1.conv.kernel' holds a NaN or "
                            "infinite value")
    assert not out.exists()


def test_frame_of_another_size_exits_one_naming_its_file(workspace, capsys):
    root, data, ckpt = workspace["root"], workspace["data"], str(workspace["ckpt"])
    wide = root / "wide"
    assert main(["gen-data", "--count", "1", "--out", str(wide), "--seed", "3",
                 "--width", "64", "--height", "32"]) == 0
    capsys.readouterr()
    message = "size 64x32 differs from the checkpoint's configured 32x32"

    def fails(argv, path):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"error": f"{path}: {message}", "code": 1}

    out = root / "wide_eval"
    fails(["eval", "--checkpoint", ckpt, "--split-dir", str(wide), "--out", str(out)],
          wide / "000000_rgb.ppm")
    assert not out.exists()
    predict = ["predict", "--checkpoint", ckpt, "--out", str(root / "wide.pgm")]
    fails(predict + ["--rgb", str(wide / "000000_rgb.ppm"),
                     "--sparse", str(data / "000000_sparse.pgm")], wide / "000000_rgb.ppm")
    fails(predict + ["--rgb", str(data / "000000_rgb.ppm"),
                     "--sparse", str(wide / "000000_sparse.pgm")],
          wide / "000000_sparse.pgm")
    assert not (root / "wide.pgm").exists()


def test_train_with_fewer_samples_than_batch_exits_one(workspace, capsys):
    one = workspace["root"] / "one"
    assert main(["gen-data", "--count", "1", "--out", str(one), "--seed", "2",
                 "--width", "32", "--height", "32"]) == 0
    code = main(["train", "--train-dir", str(one), "--out",
                 str(workspace["root"] / "run1"), "--epochs", "1",
                 "--width", "32", "--height", "32"])
    assert code == 1
    assert "batch_size" in capsys.readouterr().err


def test_depth_colormap_shape_and_range():
    depth = np.linspace(0.5, 80.0, 12).reshape(3, 4)
    rgb = depth_colormap(depth, 0.5, 80.0)
    assert rgb.shape == (3, 4, 3)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0
    # near and far map to different colors
    assert not np.allclose(rgb[0, 0], rgb[2, 3])


def test_gradcheck_command_quick(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "ops passed" in out
