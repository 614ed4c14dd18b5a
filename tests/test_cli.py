"""End-to-end command tests (tiny configurations, in-process)."""

import ctypes
import errno
import inspect
import os
import shutil
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import nsnet.cli
import nsnet.data
import nsnet.model
import nsnet.supervision
from nsnet.cli import RUN_KEYS, TRAIN_KEYS, build_parser, keep_heap, main
from nsnet.data import generate_synthetic_dataset, load_manifest, read_feature_file, \
    write_feature_file
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig, SamplerModel, save_checkpoint
from nsnet.training import TrainConfig, train


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
    def test_flags_are_the_generator_parameters(self, tmp_path, capsys):
        """Each flag's value reaches ``generate_synthetic_dataset`` under its
        parameter name: with every flag off its default, the command writes
        the bytes the library call with those values writes."""
        flags = [("--classes", "num_classes", 3), ("--videos-per-class", "videos_per_class", 2),
                 ("--val-videos-per-class", "val_videos_per_class", 1),
                 ("--frames", "num_frames", 5), ("--light-dim", "light_dim", 6),
                 ("--guiding-dim", "guiding_dim", 7),
                 ("--salient-fraction", "salient_fraction", 0.4),
                 ("--noise-sigma", "noise_sigma", 0.1), ("--seed", "seed", 11)]
        values = {name: value for _, name, value in flags}
        argv = ["synth", *(x for flag, _, value in flags for x in (flag, str(value)))]
        parsed = vars(build_parser().parse_args(argv + ["--out-dir", str(tmp_path / "cli")]))
        defaults = vars(build_parser().parse_args(["synth", "--out-dir", "unused"]))
        assert set(inspect.signature(generate_synthetic_dataset).parameters) == \
            set(parsed) - {"command", "func"}
        assert all(parsed[key] == v != defaults[key] for key, v in values.items())
        assert run(argv + ["--out-dir", str(tmp_path / "cli")], capsys)[0] == 0
        generate_synthetic_dataset(str(tmp_path / "lib"), **values)
        files = [sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
                 for root in (tmp_path / "cli", tmp_path / "lib")]
        assert files[0] == files[1] and files[0]
        for name in files[0]:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

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
         "must be a finite number"),
        ("heads", "heads=int('2')", "must be an int"),
        ("heads", "heads='2'", "must be an int"),
        (None, "foo=1", "unknown model configuration key 'foo'"),
        (None, "gamma=0.2", "duplicate key 'gamma'"),
        ("heads", "heads=0x2", "integer, got '0x2'"),
        ("heads", "heads=True", "integer, got 'True'"),
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
        assert f"{sidecar}:{lineno}: {'' if key is None else key + ' '}" in line, line
        assert message in line, line

    @pytest.mark.parametrize("key, value, shape", [
        ("input_dim", 1000000, "(2, 1000000)"), ("max_frames", 1000000000, "(1000000000, 3)")])
    def test_sidecar_sizes_the_file_lacks(self, checkpoint, tmp_path, capsys, key, value, shape):
        """A sidecar whose sizes no machine could allocate is checked
        against the checkpoint's shapes before anything of its size is."""
        path, manifest = checkpoint
        sidecar = tmp_path / "model.nsc1.cfg"
        sidecar.write_text("".join(f"{key}={value}\n" if line.startswith(key + "=") else line
                                   for line in sidecar.read_text().splitlines(keepends=True)))
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        line = assert_one_error_line(code, err)
        assert f"{path}: parameter 'pos_embedding' has shape (2, 3), expected {shape}" in line

    @pytest.mark.parametrize("layers, count, message", [
        pytest.param(layers, count, message, id=f"{layers}-{message}")
        for layers, count, message in [
            (100000000, None, "the sidecar's 100000000 encoder layers need 1600000007 "
                              "parameters, the checkpoint has 23 in {size} bytes"),
            (2, None, "checkpoint is missing parameter 'enc1.ln1_gain'"),
            # a header that declares 2**32 - 1 entries sizes nothing
            (100000000, 0xFFFFFFFF, "truncated checkpoint: parameter 23 name length needs "
                                    "2 bytes at offset {size}, file has {size}")]])
    def test_sidecar_layers_the_file_lacks(self, checkpoint, tmp_path, capsys, monkeypatch,
                                           layers, count, message):
        """The parameter table grows with the sidecar's encoder_layers: the
        file's names are checked against one layer's table, and the whole
        table is built only once the file has shown it holds that many
        entries; a table the file could hold still names the first missing
        entry."""
        path, manifest = checkpoint
        honest = nsnet.model.parameter_table
        monkeypatch.setattr(nsnet.model, "parameter_table", lambda config: pytest.fail(
            "table built") if config.encoder_layers > 2 else honest(config))
        if count is not None:
            blob = bytearray(path.read_bytes())
            blob[4:8] = count.to_bytes(4, "little")
            path.write_bytes(bytes(blob))
        sidecar = tmp_path / "model.nsc1.cfg"
        sidecar.write_text(sidecar.read_text().replace("encoder_layers=1\n",
                                                       f"encoder_layers={layers}\n"))
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        line = assert_one_error_line(code, err)
        assert f"{path}: {message.format(size=path.stat().st_size)}" in line, line

    def test_sidecar_ffn_dim_none_loads(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        sidecar = tmp_path / "model.nsc1.cfg"
        lines = ["ffn_dim=None" if line.startswith("ffn_dim=") else line
                 for line in sidecar.read_text().splitlines()]
        sidecar.write_text("\n".join(lines) + "\n")
        assert ModelConfig.from_file(str(sidecar)).ffn_dim == 3   # input_dim
        code, _, err = run(self.eval_args(path, manifest, tmp_path), capsys)
        assert code == 0, err

    def test_non_finite_parameter(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        cfg = ModelConfig(input_dim=3, num_classes=2, max_frames=2, encoder_layers=1,
                          heads=1)
        model = SamplerModel(cfg, np.random.default_rng(0))
        model.params["fsm.w"].value[:] = np.nan
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


class TestNonUtf8Text:
    """A byte that is not UTF-8 in any text input ends the command with one
    `error:` line naming the file and the line that holds it."""

    @pytest.mark.parametrize("reader", ["run configuration", "manifest", "checkpoint sidecar",
                                        "cost table"])
    def test_one_error_line_names_the_line(self, checkpoint, tmp_path, capsys, reader):
        path, manifest = checkpoint
        scored = ["--checkpoint", str(path), "--manifest", str(manifest),
                  "--out", str(tmp_path / "x.csv")]
        config, costs = tmp_path / "run.cfg", tmp_path / "costs.txt"
        text, argv = {
            "run configuration": (config, ["train", "--config", str(config)]),
            "manifest": (manifest, ["eval", *scored, "--k-list", "1"]),
            "checkpoint sidecar": (tmp_path / "model.nsc1.cfg", ["sample", *scored, "--k", "1"]),
            "cost table": (costs, ["flops", "--k", "1", "--frames", "2",
                                   "--cost-table", str(costs)]),
        }[reader]
        # the byte on line 2, after the file's first line (or a comment)
        lines = text.read_bytes().splitlines(keepends=True) if text.exists() else [b"# new\n"]
        text.write_bytes(b"".join(lines[:1] + [b"# \xff\n"] + lines[1:]))
        line = assert_one_error_line(*run(argv, capsys)[::2])
        assert f"{text}:2: not UTF-8 text: can't decode byte 0xff" in line, line


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


# The kinds of feature file each command opens, by file suffix: "train" runs
# without pseudo labels, "train-val" adds a validation split.
KINDS_READ = {"eval": {"light", "logits", "mask"}, "sample": {"light"},
              "prototypes": {"guide", "logits"}, "train": {"light"},
              "train-val": {"light", "logits", "mask"}}


def outputs(argv, out, capsys):
    """A run's exit code, stdout and stderr, and the bytes of every file it
    wrote at ``out``: the file, a sidecar beside it or a directory's files.
    They are removed afterwards, so the same command can run again."""
    code, stdout, err = run(argv, capsys)
    files = {}
    for path in sorted(out.parent.glob(out.name + "*")):
        inside = sorted(path.iterdir()) if path.is_dir() else [path]
        files.update((str(f.relative_to(out.parent)), f.read_bytes()) for f in inside)
        shutil.rmtree(path) if path.is_dir() else path.unlink()
    return code, stdout, err, files


class TestFaultsFoundOnRead:
    """Each file is checked as it is read, its width held to the first file
    of its kind read, and a command opens only the kinds it uses. A wrong
    width, a truncated file or a bad magic in the last video, or in the
    first, ends a command that reads the file with exit 1, one `error:`
    line naming the file, and no output; any other command writes what it
    writes on the clean split."""

    FAULTS = [("light", "width"), ("guide", "width"), ("logits", "width"), ("mask", "width"),
              ("light", "truncated"), ("mask", "truncated"), ("guide", "magic"),
              ("logits", "magic")]
    COMMANDS = ["eval", "sample", "prototypes", "train", "train-val"]

    @pytest.mark.parametrize("kind, fault", FAULTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_error_line(self, checkpoint, tmp_path, capsys, command, kind, fault):
        self.check(checkpoint, tmp_path, capsys, command, kind, fault, "val_c001_v0000")

    @pytest.mark.parametrize("kind, fault", FAULTS + [("guide", "truncated")])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_fault_in_the_first_video(self, checkpoint, tmp_path, capsys, command, kind,
                                      fault):
        """A light or guiding file that is wider than the rest sets its
        kind's width, so the error names the next video's file."""
        self.check(checkpoint, tmp_path, capsys, command, kind, fault, "val_c000_v0000")

    @staticmethod
    def check(checkpoint, tmp_path, capsys, command, kind, fault, video):
        path, manifest = checkpoint
        feature = manifest.parent / "feats" / f"{video}.{kind}.nsf"
        blob = feature.read_bytes()
        out = tmp_path / "out"
        model = ["--checkpoint", str(path), "--manifest", str(manifest), "--out", str(out)]
        train = ["train", "--out-dir", str(out), "--ns-labels", "false", "--frames", "2",
                 "--heads", "1", "--epochs", "1", "--lr-decay-epochs", ""]
        argv = {"eval": ["eval", *model, "--k-list", "2"],
                "sample": ["sample", *model, "--k", "2"],
                "prototypes": ["prototypes", "--manifest", str(manifest), "--out", str(out)],
                "train": train + ["--train-manifest", str(manifest)],
                "train-val": train + ["--train-manifest", str(manifest.parent / "train.nsm"),
                                      "--val-manifest", str(manifest)]}[command]
        clean = outputs(argv, out, capsys) if kind not in KINDS_READ[command] else None
        named = feature
        if fault == "width":   # one more column, a well-formed file
            values = read_feature_file(str(feature))
            write_feature_file(str(feature), np.hstack([values, values[:, :1]]))
            if video == "val_c000_v0000" and kind in ("light", "guide"):
                named = feature.parent / f"val_c001_v0000.{kind}.nsf"
        else:
            feature.write_bytes(blob[:-1] if fault == "truncated" else b"NSF0" + blob[4:])
        if clean is not None:
            assert clean[0] == 0 and clean[3], clean[2]
            assert outputs(argv, out, capsys) == clean
            return
        error = assert_one_error_line(*run(argv, capsys)[::2])
        assert error.startswith(f"error: {named}: "), error
        if fault == "width":
            assert f"of manifest {manifest}" in error, error
        assert not out.exists()


class TestNonFiniteFeatures:
    """A feature file holding NaN or inf ends `nsnet eval` and `nsnet sample`
    with exit 1 and one `error:` line naming the video, when the command
    reads that kind; otherwise it writes what it writes on the clean split."""

    @pytest.mark.parametrize("kind, name", [("light", "light_features"),
                                            ("guide", "guiding_features"),
                                            ("logits", "recognizer_logits")])
    @pytest.mark.parametrize("command", ["eval", "sample"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, kind, name, command):
        _, manifest = checkpoint
        video = "val_c001_v0000"
        feature = manifest.parent / "feats" / f"{video}.{kind}.nsf"
        argv = [command, "--checkpoint", str(tmp_path / "model.nsc1"),
                "--manifest", str(manifest), "--out", str(tmp_path / "out.csv")]
        argv += ["--k-list", "2"] if command == "eval" else ["--k", "2"]
        clean = outputs(argv, tmp_path / "out.csv", capsys) \
            if kind not in KINDS_READ[command] else None
        values = read_feature_file(str(feature)).copy()   # the read is a read-only view
        values[-1, -1] = np.inf if kind == "logits" else np.nan
        write_feature_file(str(feature), values)
        if clean is not None:
            assert clean[0] == 0 and clean[3], clean[2]
            assert outputs(argv, tmp_path / "out.csv", capsys) == clean
            return
        code, _, err = run(argv, capsys)
        line = assert_one_error_line(code, err)
        assert f"{video}: {name} has non-finite values" in line, line
        assert not (tmp_path / "out.csv").exists()


class TestPrototypeFile:
    """A prototype bank is its one NSF1 file: `prototypes` writes nothing
    beside it and `train` reads nothing beside it."""

    @staticmethod
    def train_argv(data, protos, out):
        return ["train", "--train-manifest", str(data / "train.nsm"), "--prototypes", str(protos),
                "--out-dir", str(out), "--epochs", "1", "--lr-decay-epochs", ""]

    def test_a_stale_meta_is_ignored(self, tiny_tree, tmp_path, capsys):
        data, protos = tiny_tree
        assert [p.name for p in tmp_path.glob("protos*")] == ["protos.nsf"]
        argv = self.train_argv(data, protos, tmp_path / "run")
        clean = outputs(argv, tmp_path / "run", capsys)
        # as an older version might have left it, malformed
        (tmp_path / "protos.nsf.meta").write_bytes(b"epsilon_percent=thirty\n\xff\n")
        assert clean[0] == 0 and clean[3], clean[2]
        assert outputs(argv, tmp_path / "run", capsys) == clean

    def test_non_finite_entry_names_the_file(self, tiny_tree, tmp_path, capsys):
        data, protos = tiny_tree
        values = read_feature_file(str(protos)).copy()   # the read is a read-only view
        values[1, 2] = np.nan
        write_feature_file(str(protos), values)
        code, _, err = run(self.train_argv(data, protos, tmp_path / "run"), capsys)
        line = assert_one_error_line(code, err)
        assert f"{protos}: prototypes contain non-finite values" in line, line
        assert not (tmp_path / "run").exists()


class TestMissingFiles:
    """A listed file is looked for only when a command reads its kind."""

    def test_missing_guiding_file_leaves_the_frontier(self, checkpoint, tmp_path, capsys):
        path, manifest = checkpoint
        out = tmp_path / "frontier.csv"
        argv = ["eval", "--checkpoint", str(path), "--manifest", str(manifest),
                "--k-list", "1,2", "--out", str(out)]
        clean = outputs(argv, out, capsys)
        assert clean[0] == 0 and clean[3], clean[2]
        (manifest.parent / "feats" / "val_c000_v0000.guide.nsf").unlink()
        assert outputs(argv, out, capsys) == clean

    def test_missing_val_light_file_ends_train(self, checkpoint, tmp_path, capsys):
        _, manifest = checkpoint
        light = manifest.parent / "feats" / "val_c001_v0000.light.nsf"
        light.unlink()
        out = tmp_path / "run"
        error = assert_one_error_line(*run([
            "train", "--train-manifest", str(manifest.parent / "train.nsm"),
            "--val-manifest", str(manifest), "--out-dir", str(out), "--ns-labels", "false",
            "--frames", "2", "--heads", "1", "--epochs", "1", "--lr-decay-epochs", ""],
            capsys)[::2])
        assert error == f"error: {manifest}:3: missing light file {light}"
        assert not out.exists()


class TestReadsByKind:
    """Each command reads each video's files of the kinds it uses once, and
    never opens another (`eval` and `sample` no guiding file, not even a
    header): the feature reads of a run, by split and kind, all through
    `read_feature_file`, and every feature file opened."""

    @pytest.mark.parametrize("command, train_kinds, val_kinds", [
        ("prototypes", ("guide", "logits"), ()),
        ("train", ("light",), ("light", "logits", "mask")),
        ("train-ns", ("light", "guide"), ("light", "logits", "mask")),
        ("eval", (), ("light", "logits", "mask")),
        ("sample", (), ("light",)),
    ])
    def test_reads(self, tiny_tree, tmp_path, capsys, monkeypatch, command, train_kinds,
                   val_kinds):
        data, protos = tiny_tree
        checkpoint = tmp_path / "model.nsc1"
        save_checkpoint(SamplerModel(ModelConfig(input_dim=8, num_classes=2, max_frames=4,
                                                 encoder_layers=1, heads=1),
                                     np.random.default_rng(0)), str(checkpoint))
        out = str(tmp_path / "out")
        scored = ["--checkpoint", str(checkpoint), "--manifest", str(data / "val.nsm"),
                  "--out", out]
        train = ["train", "--train-manifest", str(data / "train.nsm"), "--val-manifest",
                 str(data / "val.nsm"), "--out-dir", out, "--frames", "4", "--heads", "1",
                 "--epochs", "1", "--lr-decay-epochs", ""]
        argv = {"prototypes": ["prototypes", "--manifest", str(data / "train.nsm"),
                               "--out", out],
                "train": [*train, "--ns-labels", "false"],
                "train-ns": [*train, "--prototypes", str(protos)],
                "eval": ["eval", *scored, "--k-list", "1,2"],
                "sample": ["sample", *scored, "--k", "2"]}[command]
        reads, opens = Counter(), Counter()

        def split_kind(path):   # feats/<split>_c<class>_v<video>.<kind>.nsf
            video, kind, _ = os.path.basename(path).split(".")
            return video.split("_")[0], kind

        def counted(path, *dtype):
            reads[split_kind(path)] += 1
            return read_feature_file(path, *dtype)

        def counted_open(file, *args, **kwargs):
            if os.path.basename(os.path.dirname(file)) == "feats":
                opens[split_kind(file)] += 1
            return open(file, *args, **kwargs)

        videos = {split: len(load_manifest(str(data / f"{split}.nsm")).entries)
                  for split in ("train", "val")}
        monkeypatch.setattr(nsnet.data, "read_feature_file", counted)
        monkeypatch.setattr(nsnet.data, "open", counted_open, raising=False)
        code, _, err = run(argv, capsys)
        assert code == 0, err
        expected = Counter({**{("train", kind): videos["train"] for kind in train_kinds},
                            **{("val", kind): videos["val"] for kind in val_kinds}})
        assert reads == expected and opens == expected


class TestArgumentErrors:
    """A zero or negative size, or a malformed K list, ends the command with
    exit 1 and one `error:` line naming the flag that set it, or for a
    `train` setting its key, as `TrainConfig` does; 0 is never read as
    "unset"."""

    @pytest.mark.parametrize("command, extra, flag", [
        ("eval", ["--k-list", "2,x"], "--k-list: must be an integer, got 'x'"),
        ("eval", ["--k-list", ""], "--k-list: must be an integer, got ''"),
        ("eval", ["--k-list", "2,0"], "--k-list: K must be >= 1, got 0"),
        ("sample", ["--k", "0"], "--k must be >= 1, got 0"),
        ("train", ["--k", "0"], "k must be >= 1, got 0"),
        ("train", ["--frames", "0"], "frames must be >= 1, got 0"),
        ("train", ["--config", "{config}"], "k must be >= 1, got 0"),
        ("flops", ["--frames", "-2"], "--frames must be >= 0, got -2"),
        ("flops", ["--k", "-1"], "--k must be >= 0, got -1"),
        ("eval", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("synth", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("eval", ["--seed", str(2 ** 64)], f"--seed must be < 2**64, got {2 ** 64}"),
        ("synth", ["--val-videos-per-class", "-3"], "val_videos_per_class must be >= 0, got -3"),
        ("train", ["--frames", "8", "--k", "9", "--heads", "1"],
         "k=9 out of range for 8 observation frames"),
        ("train", ["--decay-factor", "-1"], "decay_factor must be >= 0, got -1.0"),
    ], ids=["eval-k-list-word", "eval-k-list-empty", "eval-k-list-zero",
            "sample-k", "train-k", "train-frames",
            "train-config-k", "flops-frames", "flops-k", "eval-seed", "synth-seed",
            "eval-seed-above-uint64", "synth-val-videos-per-class", "train-k-above-frames",
            "train-decay-factor"])
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


class TestSettingsBeforeReads:
    """A setting that no input can make valid, or that does not fit the
    checkpoint or the other settings, ends the command with exit 1 and one
    `error:` line before any feature file is read."""

    @pytest.fixture
    def data(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out-dir", str(data), "--classes", "2",
                    "--videos-per-class", "2", "--val-videos-per-class", "2",
                    "--frames", "16", "--light-dim", "8", "--guiding-dim", "8",
                    "--seed", "5"], capsys)[0] == 0
        assert run(["prototypes", "--manifest", str(data / "train.nsm"),
                    "--out", str(data / "protos.nsf")], capsys)[0] == 0
        return data

    @pytest.fixture
    def reads(self, data, monkeypatch):
        """Every feature file read from here on, the prototype bank's too."""
        reads = []

        def counted(path, *dtype):
            reads.append(path)
            return read_feature_file(path, *dtype)

        for module in (nsnet.data, nsnet.supervision):
            monkeypatch.setattr(module, "read_feature_file", counted)
        return reads

    @pytest.mark.parametrize("command, extra, message", [
        ("eval", ["--k-list", "2,40"], "k=40 out of range for 16 observation frames"),
        ("eval", ["--k-list", "2,4,2"], "--k-list: repeated K 2"),
        ("eval", ["--ratio", "1.5"], "ratio must be in [0, 1], got 1.5"),
        ("eval", ["--cost-table", "{costs}"], "{costs}:1: vgm must be >= 0, got '-1'"),
        ("sample", ["--k", "40"], "k=40 out of range for 16 observation frames"),
        ("prototypes", ["--epsilon", "0"], "epsilon_percent must be in (0, 100], got 0.0"),
        ("train", ["--ratio", "1.5"], "ratio must be in [0, 1], got 1.5"),
        ("train", ["--heads", "5"], "input_dim 8 not divisible by heads 5"),
        ("train", ["--heads", "0"], "all size fields must be positive"),
        ("train", ["--dropout-cls", "1.0"], "dropout_cls must be in [0, 1), got 1.0"),
        ("train", ["--gamma", "-1"], "gamma must be finite and >= 0, got -1.0"),
        ("train", ["--frames", "4", "--k", "5"], "k=5 out of range for 4 observation frames"),
        ("train", ["--momentum", "1.0"], "momentum must be in [0, 1), got 1.0"),
        ("train", ["--base-lr", "-1"], "learning_rate must be >= 0, got -1.0"),
        ("train", ["--decay-factor", "-1"], "decay_factor must be >= 0, got -1.0"),
        ("train", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("train", ["--out-dir", ""], "train needs at least train_manifest and out_dir"),
        ("train-ns", ["--frames", "4", "--k", "5"],
         "k=5 out of range for 4 observation frames"),
        ("prototypes", ["--out", ""], "--out must name a file, got ''"),
        ("eval", ["--out", ""], "--out must name a file, got ''"),
        ("sample", ["--out", ""], "--out must name a file, got ''"),
    ], ids=["eval-k-list", "eval-repeated-k", "eval-ratio", "eval-cost-table", "sample-k",
            "prototypes-epsilon", "train-ratio", "train-heads", "train-zero-heads",
            "train-dropout-cls",
            "train-gamma", "train-k-above-frames", "train-momentum", "train-base-lr",
            "train-decay-factor", "train-seed", "train-empty-out-dir",
            "train-ns-labels-k-above-frames", "prototypes-empty-out", "eval-empty-out",
            "sample-empty-out"])
    def test_one_error_line_and_no_read(self, data, reads, tmp_path, capsys, command, extra,
                                        message):
        checkpoint = tmp_path / "model.nsc1"
        save_checkpoint(SamplerModel(ModelConfig(input_dim=8, num_classes=2, max_frames=16,
                                                 encoder_layers=1, heads=1),
                                     np.random.default_rng(0)), str(checkpoint))
        costs = tmp_path / "costs.txt"
        costs.write_text("vgm=-1\n")
        out = tmp_path / "out"
        model = ["--checkpoint", str(checkpoint), "--manifest", str(data / "val.nsm"),
                 "--out", str(out)]
        train = ["train", "--train-manifest", str(data / "train.nsm"),
                 "--val-manifest", str(data / "val.nsm"), "--out-dir", str(out),
                 "--epochs", "1", "--lr-decay-epochs", ""]
        argv = {"eval": ["eval", *model, "--k-list", "2"],
                "sample": ["sample", *model, "--k", "2"],
                "prototypes": ["prototypes", "--manifest", str(data / "train.nsm"),
                               "--out", str(out)],
                "train": [*train, "--ns-labels", "false"],
                "train-ns": [*train, "--prototypes", str(data / "protos.nsf")],
                }[command] + [arg.format(costs=costs) for arg in extra]
        code, stdout, err = run(argv, capsys)
        assert message.format(costs=costs) in assert_one_error_line(code, err)
        # the light width the heads must split is the first light file's: `train`
        # reads its first block of light files, and nothing else, before that check
        opened = [e.light_path for e in load_manifest(str(data / "train.nsm")).entries] \
            if extra == ["--heads", "5"] else []
        assert reads == opened and stdout == ""
        assert not out.exists()

    def test_library_train_checks_the_capacity(self, data, reads, tmp_path):
        manifest = load_manifest(str(data / "train.nsm"))
        with pytest.raises(ValueError, match="max_frames=8 is not the observation length "
                                             "frames=16"):
            train(manifest.blocks(("light",)), None,
                  ModelConfig(input_dim=8, num_classes=2, max_frames=8, heads=1),
                  TrainConfig(epochs=1, lr_decay_epochs=(), frames=16, ns_labels=False),
                  out_dir=str(tmp_path / "out"))
        assert reads == []
        assert not (tmp_path / "out").exists()


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
        (["--guiding-dim", "4"], "prototypes", "D_g=3 but prototypes {other} has D_g=4"),
    ], ids=["prototype-classes", "val-classes", "val-light-width", "prototype-guiding-width"])
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

    def test_val_guiding_width_is_never_read(self, tmp_path, capsys):
        """Validation reads no guiding file, so its width is not held to the
        train split's: widening every val guiding file changes nothing."""
        train_manifest, val_manifest, protos = self.synth(tmp_path / "data", capsys)
        argv = self.train_args(train_manifest, val_manifest, protos, tmp_path / "run")
        clean = outputs(argv, tmp_path / "run", capsys)
        assert clean[0] == 0 and clean[3], clean[2]
        for entry in load_manifest(str(val_manifest)).entries:
            values = read_feature_file(entry.guiding_path)
            write_feature_file(entry.guiding_path, np.hstack([values, values]))
        assert outputs(argv, tmp_path / "run", capsys) == clean

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


class TestHeapPolicy:
    """`main` raises glibc's trim and mmap thresholds once per process,
    before the subcommand runs; a C library that cannot be loaded or has
    no `mallopt` is skipped, and `train()` called directly leaves the
    allocator alone."""

    @pytest.fixture
    def use_library(self, monkeypatch):
        def use(cdll):
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            keep_heap.cache_clear()
        yield use
        keep_heap.cache_clear()   # the next `main` sets the real library again

    @pytest.fixture
    def calls(self, use_library):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        use_library(lambda name: SimpleNamespace(mallopt=Mallopt()))
        return calls

    def test_set_once_before_the_subcommand(self, calls, monkeypatch, capsys):
        monkeypatch.setattr(nsnet.cli, "sampler_gflops",
                            lambda *args: calls.append("flops") or 25.99)
        assert run(["flops", "--k", "5", "--frames", "16"], capsys)[:2] == (0, "25.99\n")
        assert run(["flops", "--k", "5", "--frames", "16"], capsys)[:2] == (0, "25.99\n")
        assert calls == [(-1, 256 << 20), (-3, 32 << 20), "flops", "flops"]

    @pytest.mark.parametrize("library", ["no-mallopt", "unloadable"])
    def test_missing_mallopt_is_skipped(self, library, use_library, capsys):
        def unloadable(name):
            raise OSError("no C library")

        use_library({"no-mallopt": lambda name: SimpleNamespace(),
                     "unloadable": unloadable}[library])
        assert run(["flops", "--k", "5", "--frames", "16"], capsys) == (0, "25.99\n", "")

    def test_train_leaves_the_allocator_alone(self, tiny_tree, calls, tmp_path):
        data, _ = tiny_tree
        blocks = load_manifest(str(data / "train.nsm")).blocks(("light",))
        keep_heap.cache_clear()
        calls.clear()
        train(blocks, None, ModelConfig(input_dim=8, num_classes=2, max_frames=6,
                                         encoder_layers=1, heads=1),
              TrainConfig(epochs=1, lr_decay_epochs=(), frames=6, ns_labels=False),
              out_dir=str(tmp_path / "library_run"))
        assert calls == []


class TestWriteFailures:
    """A failed write (here a full disk) ends every writing command with
    exit 1 and one `error:` line naming the artifact, and leaves no
    temporary file behind."""

    @pytest.mark.parametrize("command", ["synth", "prototypes", "train", "eval", "sample"])
    def test_one_error_line(self, checkpoint, tmp_path, capsys, monkeypatch, command):
        path, manifest = checkpoint
        data, out = manifest.parent, tmp_path / "out"
        model = ["--checkpoint", str(path), "--manifest", str(manifest), "--out", str(out)]
        argv, target = {
            "synth": (["synth", "--out-dir", str(out), "--classes", "2",
                       "--videos-per-class", "1", "--frames", "2", "--light-dim", "3",
                       "--guiding-dim", "3"], out / "feats" / "train_c000_v0000.light.nsf"),
            "prototypes": (["prototypes", "--manifest", str(data / "train.nsm"),
                            "--out", str(out)], out),
            "train": (["train", "--train-manifest", str(data / "train.nsm"),
                       "--out-dir", str(out), "--ns-labels", "false", "--frames", "2",
                       "--heads", "1", "--epochs", "1", "--lr-decay-epochs", ""],
                      out / "last.nsc1"),
            "eval": (["eval", *model, "--k-list", "2"], out),
            "sample": (["sample", *model, "--k", "2"], out),
        }[command]

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, payload):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(fdopen(fd, mode)))
        error = assert_one_error_line(*run(argv, capsys)[::2])
        assert error == (f"error: failed writing {target}: "
                         f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
        assert not list(tmp_path.rglob(".tmp-*"))


class TestHelp:
    @pytest.mark.parametrize("command", ["synth", "prototypes", "train", "sample",
                                         "eval", "flops"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_defaults_shown_only_where_they_exist(self, command, capsys):
        """A required flag shows no default, and the cost table's default
        is its own words, once; the others show theirs."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "(default: None)" not in text
        assert text.count("(default: built-in table)") == (command == "eval")
        assert f"(default: {FusionConfig.mode})" in text
        assert f"(default: {FusionConfig.ratio})" in text


def test_run_config_parsing(tiny_tree, tmp_path, capsys, monkeypatch):
    data, protos = tiny_tree
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"train_manifest={data / 'train.nsm'}\nprototypes={protos}\n"
                        f"out_dir={tmp_path / 'run'}\n"
                        "epochs=30\nlr_decay_epochs=10,20\nshift_augment=false\n"
                        "# comment line\nratio=0.4\n")
    seen = {}

    def capture(blocks, bank, model_cfg, train_cfg, **kwargs):
        seen.update(model=model_cfg, train=train_cfg)
        raise RuntimeError("configuration captured")

    monkeypatch.setattr("nsnet.cli.train", capture)
    assert run(["train", "--config", str(cfg_file)], capsys)[0] == 1
    assert seen["train"].epochs == 30
    assert seen["train"].lr_decay_epochs == (10, 20)
    assert seen["train"].shift_augment is False
    assert seen["train"].ratio == 0.4
    assert seen["model"].gamma == 0.2  # untouched default


class TestTrainKeys:
    """The `train` keys are the four paths plus the configuration fields
    not filled from the data or from `frames`, and `--help` shows each
    owner's default."""

    def test_keys(self):
        assert set(RUN_KEYS) == {"train_manifest", "val_manifest", "prototypes", "out_dir"}
        model = {f.name for f in fields(ModelConfig)} - {"input_dim", "num_classes",
                                                         "max_frames"}
        training = {f.name for f in fields(TrainConfig)}
        assert set(TRAIN_KEYS) == set(RUN_KEYS) | model | training
        assert len(TRAIN_KEYS) == 24

    def test_help_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        defaults = {f.name: f.default for f in fields(ModelConfig) + fields(TrainConfig)}
        defaults.update(dict.fromkeys(RUN_KEYS))
        fusion = FusionConfig()
        assert (defaults["fusion"], defaults["ratio"], defaults["k"]) == \
            (fusion.mode, fusion.ratio, None)
        assert (defaults["frames"], defaults["shift_augment"]) == (16, True)
        for key in TRAIN_KEYS:
            assert f"--{key.replace('_', '-')} " in text, key
            assert f"override {key} (default {defaults[key]})" in text, key


class TestKeyValueFiles:
    """A bad line in a cost table or a run configuration ends the command
    with exit 1 and one `error:` line naming path:line."""

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
