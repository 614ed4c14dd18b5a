"""End-to-end command tests (tiny configurations, in-process)."""

import os
from dataclasses import fields

import numpy as np
import pytest

from nsnet.cli import RUN_KEYS, TRAIN_KEYS, build_parser, main
from nsnet.data import read_feature_file, write_feature_file
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig, SamplerModel, save_checkpoint
from nsnet.training import TrainConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_tree(tmp_path, capsys):
    """synth + prototypes for a 2-class toy problem."""
    data = tmp_path / "data"
    code, out, err = run([
        "synth", "--out-dir", str(data), "--classes", "2",
        "--videos-per-class", "3", "--val-videos-per-class", "2",
        "--frames", "6", "--light-dim", "8", "--guiding-dim", "8",
        "--salient-fraction", "0.5", "--noise-sigma", "0.2", "--seed", "3"], capsys)
    assert code == 0, err
    protos = tmp_path / "protos.nsf"
    code, out, err = run(["prototypes", "--manifest", str(data / "train.nsm"),
                          "--out", str(protos)], capsys)
    assert code == 0, err
    return data, protos


class TestFlopsCommand:
    def test_published_budget(self, capsys):
        code, out, _ = run(["flops", "--k", "5", "--frames", "16"], capsys)
        assert code == 0
        assert out.strip() == "25.99"

    def test_custom_cost_table(self, tmp_path, capsys):
        table = tmp_path / "costs.txt"
        table.write_text("recognizer_per_frame=1.0\nextractor_per_frame=0\n"
                         "encoder=0\nvgm=0\nfsm=0\n")
        code, out, _ = run(["flops", "--cost-table", str(table),
                            "--k", "7", "--frames", "4"], capsys)
        assert code == 0
        assert out.strip() == "7.00"


class TestSynthCommand:
    def test_rejects_bad_fraction(self, tmp_path, capsys):
        code, _, err = run(["synth", "--out-dir", str(tmp_path / "x"),
                            "--salient-fraction", "1.5"], capsys)
        assert code != 0
        assert "salient_fraction" in err

    def test_deterministic_output_tree(self, tmp_path, capsys):
        args = ["synth", "--classes", "2", "--videos-per-class", "2",
                "--frames", "4", "--light-dim", "4", "--guiding-dim", "4",
                "--seed", "9", "--val-videos-per-class", "0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out-dir", str(a)], capsys)[0] == 0
        assert run(args + ["--out-dir", str(b)], capsys)[0] == 0
        rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert rel == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for r in rel:
            assert (a / r).read_bytes() == (b / r).read_bytes()


class TestTrainPipeline:
    def write_config(self, tmp_path, data, protos, out_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"train_manifest={data / 'train.nsm'}\n"
            f"val_manifest={data / 'val.nsm'}\n"
            f"prototypes={protos}\n"
            f"out_dir={out_dir}\n"
            "# tiny desk run\n"
            "epochs=2\nbatch_size=3\nbase_lr=0.05\nlr_decay_epochs=1\n"
            "frames=4\nheads=2\nencoder_layers=1\n"
            "dropout_cls=0.5\nk=2\nseed=11\n")
        return cfg

    def test_full_pipeline(self, tiny_tree, tmp_path, capsys):
        data, protos = tiny_tree
        out_dir = tmp_path / "run"
        cfg = self.write_config(tmp_path, data, protos, out_dir)
        code, out, err = run(["train", "--config", str(cfg)], capsys)
        assert code == 0, err
        assert (out_dir / "best.nsc1").exists()
        assert (out_dir / "metrics.csv").exists()

        saliency = tmp_path / "saliency.csv"
        code, _, err = run(["sample", "--checkpoint", str(out_dir / "best.nsc1"),
                            "--manifest", str(data / "val.nsm"),
                            "--k", "2", "--out", str(saliency)], capsys)
        assert code == 0, err
        lines = saliency.read_text().strip().splitlines()
        assert lines[0] == "video_id,frame,s_f,s_v,fused,selected"
        assert len(lines) == 1 + 4 * 4  # 4 val videos x 4 observation frames
        selected_per_video = {}
        for line in lines[1:]:
            vid, _, _, _, _, sel = line.split(",")
            selected_per_video[vid] = selected_per_video.get(vid, 0) + int(sel)
        assert all(count == 2 for count in selected_per_video.values())

        frontier = tmp_path / "frontier.csv"
        code, _, err = run(["eval", "--checkpoint", str(out_dir / "best.nsc1"),
                            "--manifest", str(data / "val.nsm"),
                            "--k-list", "2,4", "--out", str(frontier)], capsys)
        assert code == 0, err
        rows = frontier.read_text().strip().splitlines()
        assert rows[0] == "method,K,top1,mAP,recall,gflops"
        assert len(rows) == 1 + 5 * 2  # 5 methods x 2 budgets

    def test_flag_overrides_beat_config(self, tiny_tree, tmp_path, capsys):
        data, protos = tiny_tree
        out_dir = tmp_path / "run2"
        cfg = self.write_config(tmp_path, data, protos, out_dir)
        code, _, err = run(["train", "--config", str(cfg), "--epochs", "1",
                            "--lr-decay-epochs", ""], capsys)
        assert code == 0, err
        lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense=1\n")
        code, _, err = run(["train", "--config", str(bad)], capsys)
        assert code != 0
        assert "unknown configuration key" in err

    def test_missing_paths_fail_before_work(self, tmp_path, capsys):
        code, _, err = run(["train", "--train-manifest", str(tmp_path / "nope.nsm"),
                            "--out-dir", str(tmp_path / "o"),
                            "--prototypes", str(tmp_path / "nope.nsf")], capsys)
        assert code != 0
        assert "does not exist" in err or "missing" in err


@pytest.fixture
def checkpoint(tmp_path, capsys):
    """The smallest useful checkpoint (under 1 KB) and a manifest it fits."""
    data = tmp_path / "data"
    code, _, err = run([
        "synth", "--out-dir", str(data), "--classes", "2",
        "--videos-per-class", "1", "--val-videos-per-class", "1",
        "--frames", "2", "--light-dim", "3", "--guiding-dim", "3",
        "--seed", "5"], capsys)
    assert code == 0, err
    cfg = ModelConfig(input_dim=3, num_classes=2, max_frames=2, encoder_layers=1,
                      heads=1)
    path = tmp_path / "model.nsc1"
    save_checkpoint(SamplerModel(cfg, np.random.default_rng(0)), str(path))
    return path, data / "val.nsm"


def assert_one_error_line(code, err):
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


class TestCheckpointBoundary:
    """A malformed checkpoint or sidecar ends `nsnet eval` with exit 1 and a
    single `error:` line, never a traceback or a silently loaded model."""

    def eval_args(self, path, manifest, tmp_path):
        return ["eval", "--checkpoint", str(path), "--manifest", str(manifest),
                "--k-list", "2", "--out", str(tmp_path / "frontier.csv")]

    def test_valid_checkpoint_evaluates(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        assert code == 0, err

    def test_every_truncation_is_one_error_line(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        blob = path.read_bytes()
        cut = tmp_path / "cut.nsc1"
        (tmp_path / "cut.nsc1.cfg").write_text((tmp_path / "model.nsc1.cfg").read_text())
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            code, _, err = run(self.eval_args(cut, manifest, tmp_path), capsys)
            line = assert_one_error_line(code, err)
            assert str(cut) in line, (size, line)

    @staticmethod
    def with_first_entry_repeated(blob):
        """The checkpoint with its first parameter entry appended again and
        the header count raised to match."""
        name_len = int.from_bytes(blob[8:10], "little")
        at = 10 + name_len
        rank = int.from_bytes(blob[at:at + 4], "little")
        dims = np.frombuffer(blob, dtype="<u4", count=rank, offset=at + 4)
        end = at + 4 + 4 * rank + 4 * int(np.prod(dims))
        count = int.from_bytes(blob[4:8], "little") + 1
        return blob[:4] + count.to_bytes(4, "little") + blob[8:] + blob[8:end]

    @pytest.mark.parametrize("mutate, message", [
        (with_first_entry_repeated, "duplicate parameter 'pos_embedding'"),
        (lambda blob: blob.replace(b"fsm.b", b"fsm.x"), "unexpected parameter 'fsm.x'"),
        (lambda blob: blob + b"\x00", "trailing bytes"),
    ])
    def test_bad_parameter_table(self, checkpoint, tmp_path, capsys, mutate, message):
        path, manifest = checkpoint
        path.write_bytes(mutate(path.read_bytes()))
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        assert message in assert_one_error_line(code, err)

    @pytest.mark.parametrize("key, replacement, message", [
        ("gamma", "gamma=().__class__.__base__.__subclasses__().__len__() * 0.0",
         "not a literal"),
        ("heads", "heads=int('2')", "not a literal"),
        ("heads", "heads='2'", "heads must be int"),
        (None, "foo=1", "unknown model configuration key 'foo'"),
        (None, "gamma=0.2", "duplicate key 'gamma'"),
    ])
    def test_bad_sidecar_line(self, checkpoint, tmp_path, capsys, key, replacement,
                              message):
        path, manifest = checkpoint
        sidecar = tmp_path / "model.nsc1.cfg"
        lines = sidecar.read_text().splitlines()
        if key is None:
            lines.append(replacement)
            lineno = len(lines)
        else:
            lineno = next(i for i, line in enumerate(lines, start=1)
                          if line.startswith(key + "="))
            lines[lineno - 1] = replacement
        sidecar.write_text("\n".join(lines) + "\n")
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        line = assert_one_error_line(code, err)
        assert f"{sidecar}:{lineno}: " in line, line
        assert message in line, line

    def test_non_finite_parameter(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        cfg = ModelConfig(input_dim=3, num_classes=2, max_frames=2, encoder_layers=1,
                          heads=1)
        model = SamplerModel(cfg, np.random.default_rng(0))
        model.fsm_w.value[:] = np.nan
        save_checkpoint(model, str(path))
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        line = assert_one_error_line(code, err)
        assert f"{path}: parameter 'fsm.w' has non-finite values" in line, line

    def test_sidecar_missing_key(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        sidecar = tmp_path / "model.nsc1.cfg"
        lines = [line for line in sidecar.read_text().splitlines()
                 if not line.startswith("input_dim=")]
        sidecar.write_text("\n".join(lines) + "\n")
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        line = assert_one_error_line(code, err)
        assert "missing model configuration keys ['input_dim']" in line, line


class TestEmptyManifest:
    @pytest.mark.parametrize("command", ["eval", "train", "sample", "prototypes"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, command):
        path, _ = checkpoint
        empty = tmp_path / "empty.nsm"
        empty.write_text("NSM1 C=2\n")
        out = str(tmp_path / "out")
        argv = {"eval": ["eval", "--checkpoint", str(path), "--manifest", str(empty),
                         "--k-list", "2", "--out", out],
                "sample": ["sample", "--checkpoint", str(path), "--manifest", str(empty),
                           "--k", "2", "--out", out],
                "train": ["train", "--train-manifest", str(empty), "--out-dir", out,
                          "--ns-labels", "false"],
                "prototypes": ["prototypes", "--manifest", str(empty), "--out", out]}
        error = assert_one_error_line(*run(argv[command], capsys)[::2])
        assert f"{empty}: lists no videos" in error, error
        assert not os.path.exists(out)


class TestInputTruncation:
    """Every byte-prefix of a manifest, or of a feature file it lists, ends
    `nsnet eval` with exit 1 and one `error:` line, unless the prefix is
    itself a well-formed manifest: it then evaluates."""

    def eval_error(self, checkpoint, manifest, tmp_path, capsys):
        """None when `nsnet eval` succeeds, else its one error line."""
        code, _, err = run(["eval", "--checkpoint", str(checkpoint), "--manifest",
                            str(manifest), "--k-list", "2", "--out", str(tmp_path / "f.csv")],
                           capsys)
        return None if code == 0 else assert_one_error_line(code, err)

    def test_manifest_prefixes(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        blob = manifest.read_bytes()
        records = [line.split("\t") for line in blob.decode().splitlines()[1:]]
        cut = manifest.parent / "cut.nsm"   # beside it, so relative paths resolve
        evaluated = 0
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            lines = blob[:size].decode().splitlines()[1:]
            # a record may stop after its logits path: the mask is optional
            well_formed = bool(lines) and lines[-1].split("\t") in (
                records[len(lines) - 1][:5], records[len(lines) - 1])
            error = self.eval_error(path, cut, tmp_path, capsys)
            assert (error is None) == well_formed, (size, blob[:size], error)
            evaluated += well_formed
        # each of the two records with and without its mask, and the first
        # one also with its newline
        assert evaluated == 5

    def test_feature_file_prefixes(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        light = manifest.parent / "feats" / "val_c000_v0000.light.nsf"
        blob = light.read_bytes()
        for size in range(len(blob)):
            light.write_bytes(blob[:size])
            error = self.eval_error(path, manifest, tmp_path, capsys)
            assert error is not None and str(light) in error, (size, error)


class TestNonFiniteFeatures:
    """A feature file holding NaN or inf ends `nsnet eval` and `nsnet sample`
    with exit 1 and one `error:` line naming the video."""

    @pytest.mark.parametrize("kind, name", [("light", "light_features"),
                                            ("guide", "guiding_features"),
                                            ("logits", "recognizer_logits")])
    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, kind, name, command):
        _, manifest = checkpoint
        video = "val_c001_v0000"
        feature = manifest.parent / "feats" / f"{video}.{kind}.nsf"
        values = read_feature_file(str(feature))
        values[-1, -1] = np.inf if kind == "logits" else np.nan
        write_feature_file(str(feature), values)
        argv = [command, "--checkpoint", str(tmp_path / "model.nsc1"),
                "--manifest", str(manifest), "--out", str(tmp_path / "out.csv")]
        argv += ["--k-list", "2"] if command == "eval" else ["--k", "2"]
        code, _, err = run(argv, capsys)
        line = assert_one_error_line(code, err)
        assert f"{video}: {name} has non-finite values" in line, line
        assert not (tmp_path / "out.csv").exists()


class TestArgumentErrors:
    """A zero or negative size, or a malformed K list, ends the command with
    exit 1 and one `error:` line naming the flag (or run-file key) that set
    it; 0 is never read as "unset"."""

    @pytest.mark.parametrize("command, extra, flag", [
        ("eval", ["--frames", "0"], "--frames must be >= 1, got 0"),
        ("eval", ["--k-list", "2,x"], "--k-list: must be an integer, got 'x'"),
        ("eval", ["--k-list", ""], "--k-list: must be an integer, got ''"),
        ("eval", ["--k-list", "2,0"], "--k-list: K must be >= 1, got 0"),
        ("sample", ["--frames", "0"], "--frames must be >= 1, got 0"),
        ("sample", ["--k", "0"], "--k must be >= 1, got 0"),
        ("train", ["--k", "0"], "--k must be >= 1, got 0"),
        ("train", ["--max-frames", "0"], "--max-frames must be >= 1, got 0"),
        ("train", ["--frames", "0"], "--frames must be >= 1, got 0"),
        ("train", ["--config", "{config}"], "k in {config} must be >= 1, got 0"),
        ("flops", ["--frames", "-2"], "--frames must be >= 0, got -2"),
        ("flops", ["--k", "-1"], "--k must be >= 0, got -1"),
        ("eval", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("synth", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("eval", ["--seed", str(2 ** 64)], f"--seed must be < 2**64, got {2 ** 64}"),
    ], ids=["eval-frames", "eval-k-list-word", "eval-k-list-empty", "eval-k-list-zero",
            "sample-frames", "sample-k", "train-k", "train-max-frames", "train-frames",
            "train-config-k", "flops-frames", "flops-k", "eval-seed", "synth-seed",
            "eval-seed-above-uint64"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, command, extra, flag):
        path, manifest = checkpoint
        config = tmp_path / "run.cfg"
        config.write_text("k=0\n")
        out = tmp_path / "out"
        argv = {"eval": ["--checkpoint", str(path), "--manifest", str(manifest),
                         "--k-list", "2", "--out", str(out)],
                "sample": ["--checkpoint", str(path), "--manifest", str(manifest),
                           "--k", "2", "--out", str(out)],
                "train": ["--train-manifest", str(manifest), "--out-dir", str(out),
                          "--ns-labels", "false", "--epochs", "1", "--lr-decay-epochs", ""],
                "flops": ["--k", "2", "--frames", "4"],
                "synth": ["--out-dir", str(out), "--classes", "2", "--videos-per-class", "1",
                          "--frames", "2", "--light-dim", "3", "--guiding-dim", "3"]}[command]
        extra = [arg.format(config=config) for arg in extra]
        error = assert_one_error_line(*run([command] + argv + extra, capsys)[::2])
        assert error == "error: " + flag.format(config=config)
        assert not out.exists()


class TestCheckpointFit:
    """`eval` and `sample` reject a manifest whose class count or light
    feature width is not the checkpoint's, naming both files, before any
    forward."""

    @pytest.mark.parametrize("flags, message", [
        (["--classes", "3"], "has num_classes=2 but manifest {manifest} has C=3"),
        (["--light-dim", "4"], "has input_dim=3 but manifest {manifest} has light width 4"),
    ], ids=["classes", "light-width"])
    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, command, flags, message):
        path, _ = checkpoint
        other = tmp_path / "other"
        assert run(["synth", "--out-dir", str(other), "--classes", "2",
                    "--videos-per-class", "1", "--val-videos-per-class", "0", "--frames", "2",
                    "--light-dim", "3", "--guiding-dim", "3", "--seed", "5"] + flags,
                   capsys)[0] == 0
        manifest = other / "train.nsm"
        out = tmp_path / "out.csv"
        argv = [command, "--checkpoint", str(path), "--manifest", str(manifest),
                "--out", str(out)]
        argv += ["--k-list", "2"] if command == "eval" else ["--k", "2"]
        error = assert_one_error_line(*run(argv, capsys)[::2])
        assert error == f"error: checkpoint {path} " + message.format(manifest=manifest)
        assert not out.exists()


class TestTrainFit:
    """`train` rejects a val manifest or prototype bank whose class count or
    feature widths are not the train manifest's, naming both files, before
    any epoch runs or out_dir is made."""

    @staticmethod
    def synth(root, capsys, *flags):
        """A 2-class toy dataset, 3-wide features unless ``flags`` say
        otherwise, and the prototypes of its train split."""
        assert run(["synth", "--out-dir", str(root), "--classes", "2",
                    "--videos-per-class", "1", "--val-videos-per-class", "1",
                    "--frames", "2", "--light-dim", "3", "--guiding-dim", "3",
                    "--seed", "5", *flags], capsys)[0] == 0
        protos = root / "protos.nsf"
        assert run(["prototypes", "--manifest", str(root / "train.nsm"),
                    "--out", str(protos)], capsys)[0] == 0
        return root / "train.nsm", root / "val.nsm", protos

    @pytest.mark.parametrize("flags, key, message", [
        (["--classes", "3"], "prototypes", "C=2 but prototypes {other} has C=3"),
        (["--classes", "3"], "val_manifest", "C=2 but val_manifest {other} has C=3"),
        (["--light-dim", "4"], "val_manifest", "D_l=3 but val_manifest {other} has D_l=4"),
        (["--guiding-dim", "4"], "val_manifest", "D_g=3 but val_manifest {other} has D_g=4"),
        (["--guiding-dim", "4"], "prototypes", "D_g=3 but prototypes {other} has D_g=4"),
    ], ids=["prototype-classes", "val-classes", "val-light-width", "val-guiding-width",
            "prototype-guiding-width"])
    def test_one_error_line(self, tmp_path, capsys, flags, key, message):
        train_manifest, val_manifest, protos = self.synth(tmp_path / "data", capsys)
        _, other_val, other_protos = self.synth(tmp_path / "other", capsys, *flags)
        files = {"val_manifest": val_manifest, "prototypes": protos}
        files[key] = other = {"val_manifest": other_val, "prototypes": other_protos}[key]
        out = tmp_path / "run"
        error = assert_one_error_line(*run(self.train_args(
            train_manifest, files["val_manifest"], files["prototypes"], out), capsys)[::2])
        assert error == (f"error: train_manifest {train_manifest} has "
                         + message.format(other=other))
        assert not out.exists()

    @staticmethod
    def train_args(train_manifest, val_manifest, protos, out):
        return ["train", "--train-manifest", str(train_manifest), "--out-dir", str(out),
                "--val-manifest", str(val_manifest), "--prototypes", str(protos),
                "--frames", "2", "--heads", "1", "--encoder-layers", "1",
                "--epochs", "1", "--lr-decay-epochs", ""]

    def test_matching_files_train(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run(self.train_args(*self.synth(tmp_path / "data", capsys), out),
                           capsys)
        assert code == 0, err
        assert (out / "last.nsc1").exists()


class TestFloatFlags:
    """Every float flag is parsed by `data.finite_float`: nan or inf is a
    usage error naming the flag, and nothing is written."""

    @pytest.mark.parametrize("command, flag", [
        ("synth", "--noise-sigma"), ("synth", "--salient-fraction"),
        ("prototypes", "--epsilon"), ("sample", "--ratio"), ("eval", "--ratio")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rejected(self, checkpoint, tmp_path, capsys, command, flag, value):
        path, manifest = checkpoint
        out = tmp_path / "out"
        argv = {"synth": ["--out-dir", str(out)],
                "prototypes": ["--manifest", str(manifest), "--out", str(out)],
                "sample": ["--checkpoint", str(path), "--manifest", str(manifest),
                           "--k", "2", "--out", str(out)],
                "eval": ["--checkpoint", str(path), "--manifest", str(manifest),
                         "--k-list", "2", "--out", str(out)]}[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command] + argv + [flag, value])
        assert excinfo.value.code != 0
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        table = tmp_path / "costs.txt"
        table.write_text("recognizer_per_frame=1.0\n")
        assert run(["flops", "--cost-table", str(table), "--k", "2", "--frames", "1"],
                   capsys)[:2] == (0, "2.64\n")
        code, _, err = run(["synth", "--out-dir", str(tmp_path / "data"), "--classes", "2",
                            "--videos-per-class", "1", "--val-videos-per-class", "0",
                            "--frames", "2", "--light-dim", "3", "--guiding-dim", "3",
                            "--seed", "5"],
                           capsys)
        assert code == 0, err
        # the cost table of the first call must not leak into this one
        assert run(["flops", "--k", "5", "--frames", "16"], capsys)[:2] == (0, "25.99\n")


class TestHelp:
    @pytest.mark.parametrize("command", ["synth", "prototypes", "train", "sample",
                                         "eval", "flops"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--" in capsys.readouterr().out


def test_run_config_parsing(tiny_tree, tmp_path, capsys, monkeypatch):
    data, protos = tiny_tree
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"train_manifest={data / 'train.nsm'}\nprototypes={protos}\n"
                        f"out_dir={tmp_path / 'run'}\n"
                        "epochs=30\nlr_decay_epochs=10,20\nshift_augment=false\n"
                        "# comment line\nratio=0.4\n")
    seen = {}

    def capture(records, num_classes, bank, model_cfg, train_cfg, **kwargs):
        seen.update(model=model_cfg, train=train_cfg, fusion=kwargs["fusion_cfg"])
        raise RuntimeError("configuration captured")

    monkeypatch.setattr("nsnet.cli.train", capture)
    assert run(["train", "--config", str(cfg_file)], capsys)[0] == 1
    assert seen["train"].epochs == 30
    assert seen["train"].lr_decay_epochs == (10, 20)
    assert seen["train"].presample.shift_augment is False
    assert seen["fusion"].ratio == 0.4
    assert seen["model"].gamma == 0.2  # untouched default


class TestTrainKeys:
    """The `train` keys are the run-level keys plus the configuration
    fields not filled from the data, and `--help` shows each owner's default."""

    def test_keys(self):
        assert set(RUN_KEYS) == {"train_manifest", "val_manifest", "prototypes", "out_dir",
                                 "max_frames", "frames", "shift_augment", "fusion",
                                 "ratio", "k"}
        model = {f.name for f in fields(ModelConfig)} - {"input_dim", "num_classes"}
        training = {f.name for f in fields(TrainConfig)} - {"presample"}
        assert set(TRAIN_KEYS) == set(RUN_KEYS) | model | training

    def test_help_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        presample, fusion = TrainConfig().presample, FusionConfig()
        defaults = {f.name: f.default for f in fields(ModelConfig) + fields(TrainConfig)}
        defaults.update(train_manifest=None, val_manifest=None, prototypes=None,
                        out_dir=None, max_frames=None, k=None, frames=presample.frames,
                        shift_augment=presample.shift_augment, fusion=fusion.mode,
                        ratio=fusion.ratio)
        assert (presample.frames, presample.shift_augment) == (16, True)
        for key in TRAIN_KEYS:
            assert f"--{key.replace('_', '-')} " in text, key
            assert f"override {key} (default {defaults[key]})" in text, key


class TestKeyValueFiles:
    """A bad line in a cost table, a run configuration or a prototype `.meta`
    file ends the command with exit 1 and one `error:` line naming path:line."""

    BAD_LINES = [("nonsense=1", "unknown"), ("{key}=abc", "{key} must be"),
                 ("{key}=nan", "{key} must be"), ("{key}=-inf", "{key} must be")]

    @pytest.mark.parametrize("line, message", BAD_LINES + [("encoder=1", "duplicate")])
    def test_cost_table(self, tmp_path, capsys, line, message):
        table = tmp_path / "costs.txt"
        table.write_text("encoder=0.5\n" + line.format(key="vgm") + "\n")
        code, _, err = run(["flops", "--cost-table", str(table), "--k", "2",
                            "--frames", "4"], capsys)
        error = assert_one_error_line(code, err)
        assert f"{table}:2: " in error and message.format(key="vgm") in error, error

    @pytest.mark.parametrize("key", ["epochs", "gamma", "ratio"])
    @pytest.mark.parametrize("line, message",
                             BAD_LINES + [("seed=2", "duplicate")])
    def test_run_config(self, tmp_path, capsys, key, line, message):
        config = tmp_path / "run.cfg"
        config.write_text("seed=1\n" + line.format(key=key) + "\n")
        error = assert_one_error_line(*run(["train", "--config", str(config)], capsys)[::2])
        assert f"{config}:2: " in error and message.format(key=key) in error, error

    @pytest.mark.parametrize("line, message",
                             BAD_LINES + [("manifest_sha256=1", "duplicate")])
    def test_prototype_meta(self, tiny_tree, tmp_path, capsys, line, message):
        data, protos = tiny_tree
        meta = tmp_path / "protos.nsf.meta"
        meta.write_text("manifest_sha256=0\n" + line.format(key="epsilon_percent") + "\n")
        code, _, err = run(["train", "--train-manifest", str(data / "train.nsm"),
                            "--prototypes", str(protos), "--out-dir", str(tmp_path / "run"),
                            "--epochs", "1", "--lr-decay-epochs", ""], capsys)
        error = assert_one_error_line(code, err)
        assert f"{meta}:2: " in error, error
        assert message.format(key="epsilon_percent") in error, error
        assert not (tmp_path / "run").exists()
