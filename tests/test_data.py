"""Round-trip, layout and pre-sampling tests for the storage layer."""

import math
import os
import re
import struct
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import feature_block, video_record

from nsnet import data
from nsnet.autodiff import softmax_values
from nsnet.data import (
    BLOCK,
    KINDS,
    SCORED_KINDS,
    FeatureBlock,
    FeatureFormatError,
    ManifestEntry,
    PresampleConfig,
    VideoRecord,
    generate_synthetic_dataset,
    load_manifest,
    presample,
    presample_indices,
    read_feature_file,
    write_feature_file,
    write_manifest,
)
from nsnet.cli import load_run_config
from nsnet.evaluation import ScoredVideos, load_cost_table
from nsnet.model import ModelConfig
from nsnet.supervision import PrototypeBank, save_prototypes


@pytest.fixture(params=[0o022, 0o027], ids=["umask022", "umask027"])
def umask(request):
    previous = os.umask(request.param)
    yield request.param
    os.umask(previous)


class TestAtomicWrite:
    """An artifact gets the permissions the umask gives any new file."""

    def test_mode_follows_the_umask(self, tmp_path, umask):
        path = tmp_path / "a.bin"
        data.atomic_write_bytes(str(path), b"x")
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
        data.atomic_write_bytes(str(path), b"y")   # a replaced file too
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
        assert path.read_bytes() == b"y" and os.listdir(tmp_path) == ["a.bin"]

    def test_every_synthetic_file(self, tmp_path, umask):
        generate_synthetic_dataset(str(tmp_path), num_classes=2, videos_per_class=1,
                                   num_frames=2, light_dim=4, guiding_dim=4,
                                   salient_fraction=0.5, noise_sigma=0.1, seed=0,
                                   val_videos_per_class=1)
        modes = {os.stat(p).st_mode & 0o777 for p in tmp_path.rglob("*") if p.is_file()}
        assert modes == {0o666 & ~umask}

    @pytest.mark.parametrize("write", [
        lambda path: data.write_csv(path, ["a"], [[1]]),
        lambda path: write_feature_file(path, np.ones((1, 1))),
        lambda path: save_prototypes(PrototypeBank(np.ones((2, 1))), path),
    ], ids=["write_csv", "write_feature_file", "save_prototypes"])
    def test_empty_path_opens_no_file(self, tmp_path, monkeypatch, write):
        # "" resolves to the working directory, whose parent held the temporary file
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        opened, real_open = [], os.open
        monkeypatch.setattr(os, "open", lambda name, *rest: opened.append(name)
                            or real_open(name, *rest))
        with pytest.raises(ValueError, match="must name a file"):
            write("")
        assert opened == [] and os.listdir(tmp_path) == ["cwd"]


class TestFeatureFileLayout:
    def test_single_value_layout(self, tmp_path):
        path = str(tmp_path / "one.nsf")
        write_feature_file(path, np.array([[42.0]]))
        blob = Path(path).read_bytes()
        assert len(blob) == 16
        assert blob[:4] == b"NSF1"
        assert struct.unpack("<II", blob[4:12]) == (1, 1)
        assert struct.unpack("<f", blob[12:]) == (42.0,)

    def test_round_trip_is_bitwise_at_f32(self, tmp_path):
        rng = np.random.default_rng(42)
        matrix = rng.standard_normal((7, 5))
        path = str(tmp_path / "m.nsf")
        write_feature_file(path, matrix)
        back = read_feature_file(path)
        assert back.dtype == np.float32 and not back.flags.writeable
        np.testing.assert_array_equal(back, matrix.astype(np.float32))
        write_feature_file(str(tmp_path / "m2.nsf"), back)
        assert Path(path).read_bytes() == (tmp_path / "m2.nsf").read_bytes()

    def test_file_size_formula(self, tmp_path):
        path = str(tmp_path / "f.nsf")
        write_feature_file(path, np.zeros((3, 4)))
        assert len(Path(path).read_bytes()) == 4 + 4 + 4 + 48

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nsf"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(FeatureFormatError, match="magic"):
            read_feature_file(str(path))

    def test_truncation_cites_byte_counts(self, tmp_path):
        path = str(tmp_path / "t.nsf")
        write_feature_file(path, np.zeros((3, 4)))
        Path(path).write_bytes(Path(path).read_bytes()[:-4])
        with pytest.raises(FeatureFormatError, match="expected 60 bytes, got 56"):
            read_feature_file(str(path))


def _record_with_tagged_frames(n, c=3, seed=0):
    """Every per-frame array carries the frame index in column 0."""
    rng = np.random.default_rng(seed)
    tag = np.arange(float(n)).reshape(-1, 1)
    light = np.hstack([tag, rng.standard_normal((n, 2))])
    logits = np.hstack([tag, rng.standard_normal((n, c - 1))])
    mask = (np.arange(n) % 2).astype(np.float64)
    return video_record(dict(video_id="tagged", label=0, light=light, logits=logits, mask=mask))


class TestPresample:
    def test_short_video_is_tiled(self):
        idx = presample_indices(3, PresampleConfig(frames=8))
        np.testing.assert_array_equal(idx, [0, 1, 2, 0, 1, 2, 0, 1])

    def test_segment_center_formula(self):
        idx = presample_indices(10, PresampleConfig(frames=5))
        np.testing.assert_array_equal(idx, [1, 3, 5, 7, 9])

    def test_identity_when_lengths_match(self):
        for n in (1, 4, 9):
            idx = presample_indices(n, PresampleConfig(frames=n))
            np.testing.assert_array_equal(idx, np.arange(n))
            record = _record_with_tagged_frames(n)
            assert presample(record, PresampleConfig(frames=n)) is record

    def test_indices_nondecreasing_and_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            t = int(rng.integers(1, n + 1))
            idx = presample_indices(n, PresampleConfig(frames=t))
            assert idx.shape == (t,)
            assert np.all(np.diff(idx) >= 0)
            assert idx.min() >= 0 and idx.max() < n

    def test_shift_stays_in_range(self):
        rng = np.random.default_rng(3)
        cfg = PresampleConfig(frames=5)
        for _ in range(200):
            idx = presample_indices(23, cfg, rng)
            assert idx.shape == (5,)
            assert idx.min() >= 0 and idx.max() < 23

    def test_shift_stream_is_one_draw_per_long_video(self):
        # N < T, N = T, N > T and N >> T, mixed, at T = 4
        counts = np.array([3, 4, 9, 1, 23, 4, 2, 8, 5, 4000, 157, 1, 64])
        drawn, reference = np.random.default_rng(11), np.random.default_rng(11)
        rows = presample_indices(counts, PresampleConfig(4), drawn)
        expected = []
        for c in counts.tolist():
            centers = [int((i + 0.5) * c / 4) for i in range(4)] if c >= 4 else \
                [i % c for i in range(4)]
            offset = reference.integers(0, c // 4 + 1) if c >= 4 else 0
            expected.append([min(i + offset, c - 1) for i in centers])
        np.testing.assert_array_equal(rows, expected)
        assert drawn.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("shift", [False, True])
    def test_frame_count_array_stacks_the_scalar_calls(self, shift):
        # N < T, N = T and N > T, mixed, at T = 4
        counts = np.array([3, 4, 9, 1, 23, 4, 2, 8, 5])
        cfg = PresampleConfig(frames=4)
        batched, one_by_one = (np.random.default_rng(5) if shift else None for _ in range(2))
        rows = presample_indices(counts, cfg, batched)
        stacked = np.stack([presample_indices(int(n), cfg, one_by_one) for n in counts])
        assert rows.dtype == stacked.dtype and rows.shape == (len(counts), 4)
        assert rows.tobytes() == stacked.tobytes()
        if shift:
            assert batched.bit_generator.state == one_by_one.bit_generator.state

    def test_short_videos_draw_no_offset(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        rows = presample_indices(np.array([1, 3]), PresampleConfig(frames=4), rng)
        np.testing.assert_array_equal(rows, [[0, 0, 0, 0], [0, 1, 2, 0]])
        assert rng.bit_generator.state == before

    def test_alignment_across_parallel_arrays(self):
        record = _record_with_tagged_frames(11)
        out = presample(record, PresampleConfig(frames=4))
        assert out.num_frames == 4
        tags = out.light_features[:, 0]
        np.testing.assert_array_equal(out.recognizer_logits[:, 0], tags)
        np.testing.assert_array_equal(out.saliency_mask, tags.astype(int) % 2)

    def test_output_always_has_exactly_t_frames(self):
        record = _record_with_tagged_frames(6)
        for t in (1, 3, 6, 10, 17):
            assert presample(record, PresampleConfig(frames=t)).num_frames == t


class TestSyntheticDataset:
    def test_zero_noise_oracle_recognizer_is_exact(self, tmp_path):
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=3, videos_per_class=2, num_frames=10,
            light_dim=8, guiding_dim=8, salient_fraction=0.4, noise_sigma=0.0,
            seed=5, val_videos_per_class=0)
        split = load_manifest(train).read(("guiding", "logits", "mask"))
        for label, guiding, logits, mask in zip(split.labels, *map(split.per_video, (
                "guiding", "logits", "mask"))):
            salient = mask == 1.0
            assert np.all(logits.argmax(axis=1)[salient] == label)
            # zero-noise salient guiding features sit exactly on the centroid
            feats = guiding[salient]
            assert np.allclose(feats, feats[0])
            assert logits[salient, label].max() == 0.0

    def test_full_salient_fraction(self, tmp_path):
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=2, videos_per_class=1, num_frames=6,
            light_dim=4, guiding_dim=4, salient_fraction=1.0, noise_sigma=0.1,
            seed=1, val_videos_per_class=0)
        split = load_manifest(train).read(("mask",))
        assert split.lengths == [6, 6]
        np.testing.assert_array_equal(split.arrays["mask"], np.ones(12))

    def test_oracle_ranking_recall(self, tmp_path):
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=10, videos_per_class=20, num_frames=16,
            light_dim=16, guiding_dim=16, salient_fraction=0.25, noise_sigma=0.1,
            seed=11, val_videos_per_class=0)
        k = math.ceil(0.25 * 16)
        recalls = []
        split = load_manifest(train).read(("logits", "mask"))
        for label, logits, mask in zip(split.labels, split.per_video("logits"),
                                       split.per_video("mask")):
            order = np.argsort(-logits[:, label], kind="stable")
            chosen = set(order[:k].tolist())
            planted = set(np.flatnonzero(mask).tolist())
            recalls.append(len(chosen & planted) / len(planted))
        assert np.mean(recalls) >= 0.95

    def test_same_seed_is_byte_identical(self, tmp_path):
        kwargs = dict(num_classes=2, videos_per_class=2, num_frames=5,
                      light_dim=4, guiding_dim=6, salient_fraction=0.5,
                      noise_sigma=0.3, seed=123, val_videos_per_class=1)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_synthetic_dataset(str(a_dir), **kwargs)
        generate_synthetic_dataset(str(b_dir), **kwargs)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="salient_fraction"):
            generate_synthetic_dataset(str(tmp_path), 2, 1, 4, 4, 4, 1.5, 0.1, 0, 0)
        with pytest.raises(ValueError, match="classes"):
            generate_synthetic_dataset(str(tmp_path), 1, 1, 4, 4, 4, 0.5, 0.1, 0, 0)


class TestManifest:
    def test_round_trip_and_validation(self, tmp_path):
        train, val = generate_synthetic_dataset(
            str(tmp_path), num_classes=2, videos_per_class=3, num_frames=4,
            light_dim=3, guiding_dim=5, salient_fraction=0.5, noise_sigma=0.2,
            seed=2, val_videos_per_class=2)
        manifest = load_manifest(train)
        assert manifest.num_classes == 2
        assert len(manifest.entries) == 6
        split = manifest.read(("light", "guiding"))
        assert split.lengths == [4] * 6
        assert split.arrays["light"].shape == (24, 3) and split.arrays["guiding"].shape == (24, 5)
        assert len(load_manifest(val).entries) == 4

    def test_missing_file_detected(self, tmp_path):
        feat = str(tmp_path / "x.nsf")
        write_feature_file(feat, np.zeros((2, 2)))
        entries = [ManifestEntry("v0", 0, feat, feat, feat, None)]
        path = str(tmp_path / "m.nsm")
        write_manifest(path, 2, entries)
        # break the referenced file path: the manifest parses, the read fails
        Path(path).write_text(Path(path).read_text().replace("x.nsf", "gone.nsf"))
        manifest = load_manifest(path)
        gone = str(tmp_path / "gone.nsf")
        with pytest.raises(FeatureFormatError, match=re.escape(
                f"{path}:2: missing light file {gone}")):
            manifest.read(("light",))

    def test_duplicate_ids_rejected(self, tmp_path):
        feat = str(tmp_path / "x.nsf")
        write_feature_file(feat, np.zeros((2, 2)))
        entries = [ManifestEntry("v0", 0, feat, feat, feat),
                   ManifestEntry("v0", 1, feat, feat, feat)]
        path = str(tmp_path / "m.nsm")
        write_manifest(path, 2, entries)
        with pytest.raises(FeatureFormatError, match="duplicate"):
            load_manifest(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.nsm"
        path.write_text("not a manifest\n")
        with pytest.raises(FeatureFormatError, match="header"):
            load_manifest(str(path))

    def test_non_integer_label_names_the_line(self, tmp_path):
        feat = str(tmp_path / "x.nsf")
        write_feature_file(feat, np.zeros((2, 2)))
        path = tmp_path / "m.nsm"
        write_manifest(str(path), 2, [ManifestEntry("v0", 0, feat, feat, feat),
                                      ManifestEntry("v1", 1, feat, feat, feat)])
        path.write_text(path.read_text().replace("v1\t1\t", "v1\tone\t"))
        with pytest.raises(FeatureFormatError,
                           match=f"{path}:3: label 'one' is not an integer"):
            load_manifest(str(path))
        # blank lines are counted: after two of them the record is on line 5
        path.write_text(path.read_text().replace("\nv1\t", "\n\n\nv1\t"))
        with pytest.raises(FeatureFormatError,
                           match=f"{path}:5: label 'one' is not an integer"):
            load_manifest(str(path))

    def test_mask_must_be_one_column(self, tmp_path):
        """A (1, 2) mask file holds as many values as a 2-frame video has
        frames, yet it is refused as it is read, naming the file."""
        feat, mask = str(tmp_path / "x.nsf"), str(tmp_path / "x.mask.nsf")
        write_feature_file(feat, np.zeros((2, 2)))
        path = str(tmp_path / "m.nsm")
        write_manifest(path, 2, [ManifestEntry("v0", 0, feat, feat, feat, mask)])
        write_feature_file(mask, np.array([[1.0], [0.0]]))
        np.testing.assert_array_equal(load_manifest(path).read(("mask",)).arrays["mask"],
                                      [1.0, 0.0])
        write_feature_file(mask, np.array([[1.0, 0.0]]))
        with pytest.raises(FeatureFormatError, match=re.escape(
                f"{mask}: mask width 2 disagrees with width=1 of manifest {path}")):
            load_manifest(path).read(("mask",))

    def test_each_feature_file_is_opened_once(self, tmp_path, monkeypatch):
        """Reading a split's every kind opens every feature file once; parsing
        the manifest opens none."""
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=2, videos_per_class=3, num_frames=4,
            light_dim=3, guiding_dim=5, salient_fraction=0.5, noise_sigma=0.2, seed=2,
            val_videos_per_class=0)
        opened = Counter()

        def counting_open(file, *args, **kwargs):
            opened[os.path.relpath(file, tmp_path)] += 1
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data, "open", counting_open, raising=False)
        assert len(load_manifest(train).read(KINDS).video_ids) == 6
        expected = Counter({"train.nsm": 1} | {f"feats/{name}": 1
                                                for name in os.listdir(tmp_path / "feats")})
        assert len(expected) == 1 + 6 * 4 and opened == expected

    def test_load_record_opens_the_scored_kinds(self, tmp_path, monkeypatch):
        """One video's record reads its light, logits and mask files, each
        once, and never its guiding file."""
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=2, videos_per_class=1, num_frames=4,
            light_dim=3, guiding_dim=5, salient_fraction=0.5, noise_sigma=0.2, seed=2,
            val_videos_per_class=0)
        manifest, reads = load_manifest(train), []

        def counted(path):
            reads.append(os.path.basename(path))
            return read_feature_file(path)

        monkeypatch.setattr(data, "read_feature_file", counted)
        entry = manifest.entries[1]
        record = manifest.load_record(entry)
        assert reads == [f"{entry.video_id}.{kind}.nsf" for kind in ("light", "logits", "mask")]
        block = manifest.read(SCORED_KINDS, [entry])
        np.testing.assert_array_equal(record.light_features, block.arrays["light"])
        np.testing.assert_array_equal(record.recognizer_logits, block.arrays["logits"])
        np.testing.assert_array_equal(record.saliency_mask, block.arrays["mask"])

    def test_a_request_checks_its_frames_once(self, tmp_path, monkeypatch):
        """The benchmark's request path: ``load_record`` runs ``stack_frames``
        once, and ``presample`` gathers the checked rows without it."""
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=2, videos_per_class=1, num_frames=6,
            light_dim=3, guiding_dim=3, salient_fraction=0.5, noise_sigma=0.2, seed=2,
            val_videos_per_class=0)
        manifest, checked, stack = load_manifest(train), [], data.stack_frames

        def spy(video_ids, files):
            checked.append(list(video_ids))
            return stack(video_ids, files)

        monkeypatch.setattr(data, "stack_frames", spy)
        entry = manifest.entries[0]
        record = manifest.load_record(entry)
        assert checked == [[entry.video_id]]
        for frames in (4, 6, 9):
            assert presample(record, PresampleConfig(frames)).num_frames == frames
        assert checked == [[entry.video_id]]

    def test_mask_alone_needs_every_video_to_list_one(self, tmp_path, monkeypatch):
        """A mask read alone has no frame count for a video that lists no
        mask, first or not: one ValueError naming it, before any file is
        opened. Read with the light rows, its zeros have the light count."""
        files = {}
        for video, n in (("v0", 3), ("v1", 5)):
            for kind, width in (("light", 2), ("mask", 1)):
                files[video, kind] = str(tmp_path / f"{video}.{kind}.nsf")
                write_feature_file(files[video, kind], np.ones((n, width)))
        light = files["v1", "light"]
        entries = [ManifestEntry("v0", 0, *[files["v0", "light"]] * 3, files["v0", "mask"]),
                   ManifestEntry("v1", 1, light, light, light)]
        opened = []
        monkeypatch.setattr(data, "read_feature_file",
                            lambda path: opened.append(path) or read_feature_file(path))
        path = str(tmp_path / "m.nsm")
        for order, line in (([0, 1], 3), ([1, 0], 2)):
            write_manifest(path, 2, [entries[i] for i in order])
            manifest = load_manifest(path)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:{line}: v1 lists no mask, so its mask can't be read alone")):
                manifest.read(("mask",))
            assert opened == []
            assert manifest.read(("light", "mask")).lengths == [[3, 5][i] for i in order]
            opened.clear()


class TestBlockFaults:
    """A block's header faults are raised as each file is opened; its content
    faults after every file is read, naming the first offending video in
    manifest order with its first fault in kind order."""

    @pytest.fixture
    def split(self, tmp_path):
        """Three 2-frame videos; ``split(faults)`` writes each video's light,
        logits and mask (file kind -> matrix overrides) and loads the manifest."""
        def make(faults):
            entries = []
            for v in range(3):
                paths = {kind: str(tmp_path / f"v{v}.{kind}.nsf")
                         for kind in ("light", "logits", "mask")}
                for kind, path in paths.items():
                    write_feature_file(path, faults.get(
                        (v, kind), np.zeros((2, 1 if kind == "mask" else 3))))
                entries.append(ManifestEntry(f"v{v}", 0, paths["light"], paths["light"],
                                             paths["logits"], paths["mask"]))
            path = str(tmp_path / "m.nsm")
            write_manifest(path, 3, entries)
            return load_manifest(path)
        return make

    def test_first_video_in_order_is_named(self, split):
        nan = np.zeros((2, 3))
        nan[1, 2] = np.nan
        manifest = split({(2, "light"): nan, (1, "logits"): np.full((2, 3), np.inf)})
        with pytest.raises(ValueError, match="^v1: recognizer_logits has non-finite values$"):
            manifest.read(("light", "logits"))
        # each video's guiding path is its light file
        with pytest.raises(ValueError, match="^v2: guiding_features has non-finite values$"):
            manifest.read(("guiding",))

    def test_kind_order_within_a_video(self, split):
        nan = np.zeros((2, 3))
        nan[0, 0] = np.nan
        manifest = split({(1, "logits"): np.zeros((3, 3)), (1, "light"): nan,
                          (2, "light"): np.zeros((1, 3))})
        with pytest.raises(ValueError, match="^v1: light_features has non-finite values$"):
            manifest.read(("light", "logits"))
        manifest = split({(1, "logits"): np.zeros((3, 3)), (2, "light"): nan})
        with pytest.raises(ValueError, match="^v1: recognizer_logits has 3 frames, expected 2$"):
            manifest.read(("light", "logits"))

    def test_header_fault_comes_first(self, split, tmp_path):
        manifest = split({(0, "light"): np.full((2, 3), np.nan)})
        logits = tmp_path / "v2.logits.nsf"
        logits.write_bytes(logits.read_bytes()[:-1])
        with pytest.raises(FeatureFormatError, match=f"^{re.escape(str(logits))}: truncated"):
            manifest.read(("light", "logits"))
        # without the truncated kind, the content fault is what is left
        with pytest.raises(ValueError, match="^v0: light_features has non-finite values$"):
            manifest.read(("light",))

    @pytest.mark.parametrize("name", ["light_features", "recognizer_logits"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, split, name, bad):
        values = np.zeros((2, 3))
        values[1, 0] = bad
        kind = {"light_features": "light", "recognizer_logits": "logits"}[name]
        with pytest.raises(ValueError, match=f"^v1: {name} has non-finite values$"):
            split({(1, kind): values}).read(("light", "logits"))

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan, np.inf])
    def test_mask_entries_must_be_0_or_1(self, split, bad):
        """``stack_frames``' one 0/1 rule: -0.0 reads as 0, and any other
        entry, a non-finite one too, names the video's mask."""
        manifest = split({(1, "mask"): np.array([[-0.0], [1.0]])})
        np.testing.assert_array_equal(manifest.read(("mask",)).arrays["mask"], [0, 0, 0, 1, 0, 0])
        manifest = split({(1, "mask"): np.array([[1.0], [bad]])})
        with pytest.raises(ValueError, match="^v1: saliency_mask entries must be 0 or 1$"):
            manifest.read(("light", "mask"))


class TestBlocks:
    """``FeatureBlock.of`` joins records into what ``read`` gives for their files, and
    ``blocks`` is ``read`` over BLOCK videos at a time, in manifest order."""

    @pytest.fixture
    def manifest(self, tmp_path):
        """19 videos of 1 to 4 frames over 3 classes, every third without a
        mask."""
        rng = np.random.default_rng(3)
        entries = []
        for v in range(19):
            n, paths = 1 + v % 4, []
            for kind, width in (("light", 3), ("guide", 2), ("logits", 3), ("mask", 1)):
                paths.append(str(tmp_path / f"v{v:02d}.{kind}.nsf"))
                write_feature_file(paths[-1], rng.integers(0, 2, (n, 1)) if kind == "mask"
                                   else rng.standard_normal((n, width)))
            entries.append(ManifestEntry(f"v{v:02d}", v % 3, *paths[:3],
                                         None if v % 3 == 0 else paths[3]))
        write_manifest(str(tmp_path / "m.nsm"), 3, entries)
        return load_manifest(str(tmp_path / "m.nsm"))

    def test_of_records_equals_read(self, manifest):
        block, read = FeatureBlock.of(manifest.load_all()), manifest.read(SCORED_KINDS)
        assert (block.video_ids, block.labels, block.lengths) == \
            (read.video_ids, read.labels, read.lengths)
        # the kinds a gather reads, and no guiding features
        assert list(block.arrays) == list(read.arrays) == list(SCORED_KINDS) \
            == list(ScoredVideos.kinds)
        for kind, arr in read.arrays.items():
            # a record holds its files as read, the mask too
            assert arr.dtype == block.arrays[kind].dtype == np.float32
            np.testing.assert_array_equal(block.arrays[kind], arr)
        # the sampler's input rows stay float32 until the forward casts them
        assert ScoredVideos.gather(block, 4).light.dtype == np.float32

    def test_a_record_is_a_one_video_block(self, manifest):
        """``VideoRecord`` adds no field and no check to ``FeatureBlock``; its
        per-video names read the block's one video."""
        assert fields(VideoRecord) == fields(FeatureBlock)
        assert not {"__init__", "__post_init__"} & set(vars(VideoRecord))
        entry = manifest.entries[6]
        record = manifest.load_record(entry)
        assert (record.video_id, record.label, record.num_frames) == \
            (entry.video_id, entry.label, 3)
        # each kind under the name its messages use
        assert all(getattr(record, KINDS[kind][0]) is record.arrays[kind] for kind in SCORED_KINDS)

    def test_record_without_mask_gets_zero_rows(self, manifest):
        entries = manifest.entries[:4]   # of 1 to 4 frames; v00 and v03 list no mask
        assert [entry.mask_path is None for entry in entries] == [True, False, False, True]
        records = [manifest.load_record(entry) for entry in entries]
        block = FeatureBlock.of(records)
        assert block.lengths == [record.num_frames for record in records] == [1, 2, 3, 4]
        for entry, record, mask in zip(entries, records, block.per_video("mask")):
            want = np.zeros(record.num_frames) if entry.mask_path is None \
                else read_feature_file(entry.mask_path).reshape(-1)
            np.testing.assert_array_equal(record.saliency_mask, want)
            np.testing.assert_array_equal(mask, want)

    def test_gather_keeps_the_kinds_aligned(self):
        """Pre-sampling takes the same frames of every kind: each row's light
        column 0 is its frame index, the mask marks odd frames, and the
        probabilities are the softmax of that frame's logits."""
        videos = []
        for v, n in enumerate((2, 4, 11)):
            tag = np.arange(float(n))[:, None]
            videos.append(dict(video_id=f"v{v}", label=0, mask=tag[:, 0] % 2,
                               light=np.hstack([tag, np.zeros((n, 2))]),
                               logits=np.hstack([tag, -tag, np.zeros((n, 1))])))
        gathered = ScoredVideos.gather(feature_block(videos), 4)
        tags = gathered.light[:, :, 0]
        np.testing.assert_array_equal(tags, [[0, 1, 0, 1], [0, 1, 2, 3], [1, 4, 6, 9]])
        np.testing.assert_array_equal(gathered.planted, tags % 2 == 1)
        np.testing.assert_array_equal(gathered.probs, softmax_values(
            np.stack([tags, -tags, np.zeros_like(tags)], axis=2)))

    def test_blocks_concatenate_to_read(self, manifest):
        kinds = ("light", "mask")
        blocks, read = list(manifest.blocks(kinds)), manifest.read(kinds)
        videos = len(manifest.entries)
        assert [len(b.video_ids) for b in blocks] == \
            [min(BLOCK, videos - first) for first in range(0, videos, BLOCK)]
        assert len(blocks) == math.ceil(videos / BLOCK) > 1   # some video starts a new block
        assert sum((b.video_ids for b in blocks), []) == read.video_ids \
            == [e.video_id for e in manifest.entries]
        assert sum((b.labels for b in blocks), []) == read.labels
        assert sum((b.lengths for b in blocks), []) == read.lengths
        for kind in kinds:
            np.testing.assert_array_equal(np.concatenate([b.arrays[kind] for b in blocks]),
                                          read.arrays[kind])
            # each video's rows are a float32 view of the block's array, not a copy
            rows = list(read.per_video(kind))
            assert [len(r) for r in rows] == read.lengths
            assert all(r.dtype == np.float32 and np.shares_memory(r, read.arrays[kind])
                       for r in rows)
        # a video that lists no mask reads zero rows
        assert not any(mask.any() for entry, mask in zip(manifest.entries, read.per_video("mask"))
                       if entry.mask_path is None)


# reader, file name, valid lines, a key whose value "abc" fails, float keys
KEY_VALUE_READERS = {
    "run configuration": (load_run_config, "run.cfg", ["seed=1", "epochs=3"], "epochs",
                          ["gamma", "base_lr", "ratio"]),
    "checkpoint sidecar": (ModelConfig.from_file, "model.nsc1.cfg",
                           ModelConfig(input_dim=8, num_classes=2, max_frames=3,
                                       heads=2).to_text().splitlines(),
                           "heads", ["gamma", "dropout_cls"]),
    "cost table": (load_cost_table, "costs.txt", ["encoder=0.5"], "vgm", ["vgm", "fsm"]),
}


def _bad_key_value_files():
    """Each case named by its reader and the rejected last line."""
    def case(reader, lines, message):
        return pytest.param(reader, lines, message, id=f"{reader}-{lines[-1]}")

    for reader, (_, _, lines, parsed, floats) in KEY_VALUE_READERS.items():
        yield case(reader, lines + ["nonsense=1"], "unknown")
        yield case(reader, lines + [lines[0]], "duplicate key")
        for key, text in [(parsed, "abc")] + [(k, v) for k in floats
                                              for v in ("nan", "inf", "-inf", "1e999")]:
            kept = [line for line in lines if not line.startswith(key + "=")]
            yield case(reader, kept + [f"{key}={text}"], f"{key} ")
    # values the run file's parsers reject where a Python literal would pass
    sidecar = KEY_VALUE_READERS["checkpoint sidecar"][2]
    for text in ("0x2", "True"):
        yield case("checkpoint sidecar",
                   [line for line in sidecar if not line.startswith("heads=")] + [f"heads={text}"],
                   f"heads must be an integer, got {text!r}")
    yield case("cost table", ["encoder=0.5", "vgm=-0.001"], "vgm must be >= 0, got '-0.001'")


@pytest.mark.parametrize("reader, lines, message", list(_bad_key_value_files()))
def test_key_value_readers_name_the_line(tmp_path, reader, lines, message):
    """Every key=value file rejects an unknown or repeated key, an
    unparsable value (a sidecar's hex or boolean integer, a negative cost
    included) and a non-finite float, naming path:line."""
    read, file_name, *_ = KEY_VALUE_READERS[reader]
    path = tmp_path / file_name
    path.write_text("\n".join(lines[:-1]) + "\n")
    read(str(path))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        read(str(path))
    assert f"{path}:{len(lines)}: {message}" in str(excinfo.value)
