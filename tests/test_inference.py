"""The graph-free saliency pass against the per-video forward it replaced.

``per_video_saliency`` is that path, kept as the reference: one
graph-building eval forward per video, then ``fsm_saliency`` and
``vgm_saliency`` on its outputs. Every inference consumer must run one
pass of the trunk (``SamplerModel._trunk``) per block of ``BLOCK`` videos,
not one per video (or per video and K), and no training head.

The blocked pass does the same arithmetic per row as the reference, yet a
video's rows sit at offset b*T in the block, and OpenBLAS's matrix-vector
kernel (the (B*T, D) @ (D, 1) attention logits) accumulates a row in an
order that depends on its offset modulo the kernel's row unroll. At T=16,
the observation length of the acceptance config and the benchmark, every
video starts on a multiple of 16 and the pass equals the reference bit for
bit; at T=6 it is compared to float64 roundoff (rtol 1e-14).
"""

import math

import numpy as np
import pytest

from test_fusion import oracle_select

import nsnet
import nsnet.autodiff
import nsnet.data
from nsnet.cli import main
from nsnet.data import BLOCK, FeatureBlock, PresampleConfig, VideoRecord, \
    generate_synthetic_dataset, load_manifest, presample, read_feature_file
from nsnet.evaluation import DEFAULT_COST_TABLE, ScoredVideos, run_comparison
from nsnet.fusion import FUSION_MODES, SCORE_MODES, FusionConfig
from nsnet.model import ModelConfig, SamplerModel, fsm_saliency, load_checkpoint, \
    save_checkpoint, vgm_saliency
from nsnet.training import evaluate_epoch

T, D, C = 16, 8, 3


def make_model(seed=0):
    cfg = ModelConfig(input_dim=D, num_classes=C, max_frames=T, encoder_layers=2, heads=2)
    return SamplerModel(cfg, np.random.default_rng(seed))


def per_video_saliency(model, features):
    rows = []
    for x in features:
        out = model.forward(x, train=False)
        rows.append((fsm_saliency(out.fsm_logits.value), vgm_saliency(out.attn.value)))
    return np.stack([f for f, _ in rows]), np.stack([v for _, v in rows])


def make_records(count, seed=1):
    rng = np.random.default_rng(seed)
    return [VideoRecord(f"v{i:03d}", i % C, rng.standard_normal((T, D)),
                        rng.standard_normal((T, D)), rng.standard_normal((T, C)),
                        (rng.random(T) < 0.5).astype(float))
            for i in range(count)]


@pytest.fixture
def count_trunk_passes(monkeypatch):
    """Counts trunk passes, SamplerModel._trunk calls, from here on."""
    calls = []
    original = SamplerModel._trunk

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SamplerModel, "_trunk", counted)
    return calls


@pytest.mark.parametrize("frames, rtol", [(T, 0.0), (6, 1e-14)])
@pytest.mark.parametrize("videos", [1, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_saliency_equals_per_video_forwards(videos, frames, rtol):
    model = make_model()
    features = np.random.default_rng(videos).standard_normal((videos, frames, D))
    s_f, s_v = model.saliency(features)
    ref_f, ref_v = per_video_saliency(model, features)
    assert s_f.shape == s_v.shape == (videos, frames)
    np.testing.assert_allclose(s_f, ref_f, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(s_v, ref_v, rtol=rtol, atol=0.0)
    # float32 rows, as read from a feature file, score as their exact float64 cast
    narrow = features.astype(np.float32)
    for got, want in zip(model.saliency(narrow), model.saliency(narrow.astype(np.float64))):
        np.testing.assert_array_equal(got, want)


def test_saliency_rejects_one_unstacked_video():
    with pytest.raises(ValueError, match="expected videos of"):
        make_model().saliency(np.zeros((T, D)))


def test_saliency_pools_no_glimpse_logits(monkeypatch):
    """Inference builds no training head: no attention pool, which only the
    salient and non-salient glimpse logits use."""
    pools = []
    original = nsnet.autodiff.attention_pool

    def counted(*args):
        pools.append(1)
        return original(*args)

    monkeypatch.setattr(nsnet.autodiff, "attention_pool", counted)
    model, features = make_model(), np.random.default_rng(0).standard_normal((3, T, D))
    model.saliency(features)
    assert pools == []
    model.forward(features)
    assert len(pools) == 2


def test_trunk_equals_forwards_trunk_in_train_mode():
    """With one seed, the trunk alone draws what ``forward`` draws and
    builds its frame logits and attention bit for bit, dropout on every site."""
    model, features = make_model(), np.random.default_rng(0).standard_normal((3, T, D))
    rngs = np.random.default_rng(9), np.random.default_rng(9)
    out, trunk = model.forward(features, True, rngs[0]), model._trunk(features, True, rngs[1])
    for name, tensor in zip(("fsm_logits", "attn"), trunk[1:]):
        np.testing.assert_array_equal(getattr(out, name).value, tensor.value)
    assert rngs[0].random() == rngs[1].random()
    # the draws took effect: eval mode builds other logits
    assert not np.array_equal(model._trunk(features, False, None)[1].value, trunk[1].value)


VIDEOS = 2 * BLOCK + 1
MAX_FORWARDS = math.ceil(VIDEOS / BLOCK)


def test_run_comparison_forwards_once_per_block(count_trunk_passes):
    run_comparison(ScoredVideos.gather(FeatureBlock.of(make_records(VIDEOS)), T), make_model(),
                   FusionConfig("index_union", 0.6, 2), [1, 2, 4, T], DEFAULT_COST_TABLE, 0)
    assert 0 < len(count_trunk_passes) <= MAX_FORWARDS


def test_evaluate_epoch_forwards_once_per_block(count_trunk_passes):
    evaluate_epoch(make_model(), make_records(VIDEOS), 2, FusionConfig(), T)
    assert 0 < len(count_trunk_passes) <= MAX_FORWARDS


def test_sample_command_forwards_once_per_block(tmp_path, capsys, count_trunk_passes):
    manifest, _ = generate_synthetic_dataset(
        str(tmp_path), num_classes=C, videos_per_class=math.ceil(VIDEOS / C),
        num_frames=T, light_dim=D, guiding_dim=D, salient_fraction=0.5,
        noise_sigma=0.2, seed=3)
    videos = len(load_manifest(manifest).entries)
    checkpoint = str(tmp_path / "model.nsc1")
    save_checkpoint(make_model(), checkpoint)
    out = tmp_path / "saliency.csv"
    assert main(["sample", "--checkpoint", checkpoint, "--manifest", manifest,
                 "--k", "2", "--out", str(out)]) == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + videos * T
    assert 0 < len(count_trunk_passes) <= math.ceil(videos / BLOCK)


def test_sample_reads_one_block_ahead(tmp_path, capsys, monkeypatch):
    """`sample` streams: before each trunk pass it has read at most the
    BLOCK videos that pass scores, one light file each, so its memory
    does not grow with the manifest."""
    manifest, _ = generate_synthetic_dataset(
        str(tmp_path), num_classes=C, videos_per_class=math.ceil(VIDEOS / C),
        num_frames=T, light_dim=D, guiding_dim=D, salient_fraction=0.5,
        noise_sigma=0.2, seed=3)
    videos = len(load_manifest(manifest).entries)
    checkpoint = str(tmp_path / "model.nsc1")
    save_checkpoint(make_model(), checkpoint)
    loaded, loaded_at_forward = [], []
    trunk = SamplerModel._trunk

    def counted_read(path, *dtype):
        loaded.append(path)
        return read_feature_file(path, *dtype)

    def counted_trunk(self, *args, **kwargs):
        loaded_at_forward.append(len(loaded))
        return trunk(self, *args, **kwargs)

    monkeypatch.setattr(nsnet.data, "read_feature_file", counted_read)
    monkeypatch.setattr(SamplerModel, "_trunk", counted_trunk)
    assert main(["sample", "--checkpoint", checkpoint, "--manifest", manifest,
                 "--k", "2", "--out", str(tmp_path / "saliency.csv")]) == 0, \
        capsys.readouterr().err
    blocks = math.ceil(videos / BLOCK)
    assert loaded_at_forward == [min(videos, (i + 1) * BLOCK) for i in range(blocks)]
    assert len(loaded) == videos and all(path.endswith(".light.nsf") for path in loaded)


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_sample_csv_equals_per_video_reference(tmp_path, capsys, mode):
    """Each video's rows written one video at a time: its own forward, the
    oracle's selection and the fused value of each frame (empty for the
    index modes). Videos of 21 frames are pre-sampled to T."""
    manifest, _ = generate_synthetic_dataset(
        str(tmp_path), num_classes=C, videos_per_class=4, num_frames=21,
        light_dim=D, guiding_dim=D, salient_fraction=0.5, noise_sigma=0.2, seed=4)
    checkpoint = str(tmp_path / "model.nsc1")
    save_checkpoint(make_model(2), checkpoint)
    out = tmp_path / "saliency.csv"
    assert main(["sample", "--checkpoint", checkpoint, "--manifest", manifest,
                 "--fusion", mode, "--ratio", "0.3", "--k", "5",
                 "--out", str(out)]) == 0, capsys.readouterr().err
    model = load_checkpoint(checkpoint)
    fuse = {"score_add": lambda a, b: 0.3 * a + (1 - 0.3) * b,
            "score_mul": lambda a, b: a * b, "score_max": max}.get(mode)
    lines = ["video_id,frame,s_f,s_v,fused,selected"]
    for record in load_manifest(manifest).load_all():
        observed = presample(record, PresampleConfig(frames=T))
        s_f, s_v = (track[0].tolist()
                    for track in per_video_saliency(model, [observed.light_features]))
        chosen = oracle_select(s_f, s_v, mode, 5, 0.3)
        for i, (f, v) in enumerate(zip(s_f, s_v)):
            fused = repr(fuse(f, v)) if mode in SCORE_MODES else ""
            lines.append(f"{record.video_id},{i},{f!r},{v!r},{fused},{int(i in chosen)}")
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", FUSION_MODES)
def test_one_video_requests_equal_evaluate_epoch(tmp_path, mode):
    """One video per request, through the package's per-video names only:
    ``load_record``, ``presample``, one (T, D) forward, ``fsm_saliency``
    and ``vgm_saliency``, ``select_frames`` on the (T,) pair, then
    ``recognize_video``. Over splits of 8, 16 and 40 frames the requests'
    top-1 and planted-frame recall equal ``evaluate_epoch`` on the same
    records."""
    entries = []
    for frames in (8, 16, 40):
        path, _ = generate_synthetic_dataset(
            str(tmp_path / str(frames)), num_classes=C, videos_per_class=2, num_frames=frames,
            light_dim=D, guiding_dim=D, salient_fraction=0.25, noise_sigma=0.2, seed=frames)
        manifest = nsnet.load_manifest(path)
        entries += [(manifest, entry) for entry in manifest.entries]
    model, cfg = make_model(5), nsnet.FusionConfig(mode, 0.6, 4)
    correct, recalls = [], []
    for manifest, entry in entries:
        observed = nsnet.presample(manifest.load_record(entry), nsnet.PresampleConfig(frames=T))
        out = model.forward(observed.light_features, train=False)
        selected = nsnet.select_frames(nsnet.fsm_saliency(out.fsm_logits.value),
                                       nsnet.vgm_saliency(out.attn.value), cfg)
        correct.append(int(np.argmax(nsnet.recognize_video(observed, selected))) == entry.label)
        planted = set(np.flatnonzero(observed.saliency_mask).tolist())
        if planted:
            recalls.append(len(planted.intersection(selected)) / len(planted))
    records = [manifest.load_record(entry) for manifest, entry in entries]
    assert nsnet.evaluate_epoch(model, records, cfg.k, cfg, frames=T) == \
        (float(np.mean(correct)), float(np.mean(recalls)))
