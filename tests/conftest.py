"""Session fixtures for the seeded recovery benchmark.

One synthetic dataset (10 classes, 40 train + 10 val videos each, 32
original frames, 32-dim features, 25% planted salient frames, noise 0.3)
and two 30-epoch trainings on it: the full configuration and the
suppression-free baseline (gamma=0, hard video labels on the frame head).
Everything is seeded, so these are deterministic and shared by the
training tests and the acceptance suite.
"""

import time

import pytest

from nsnet.data import generate_synthetic_dataset, load_manifest
from nsnet.evaluation import ScoredVideos
from nsnet.model import ModelConfig
from nsnet.supervision import build_prototypes
from nsnet.training import TrainConfig, train

BENCH = dict(
    num_classes=10,
    videos_per_class=40,
    val_videos_per_class=10,
    num_frames=32,
    light_dim=32,
    guiding_dim=32,
    salient_fraction=0.25,
    noise_sigma=0.3,
    data_seed=2024,
    train_seed=7,
    frames=16,
    epochs=30,
    batch_size=16,
    eval_k=4,
)


def bench_model_config(gamma=0.2):
    return ModelConfig(input_dim=BENCH["light_dim"], num_classes=BENCH["num_classes"],
                       max_frames=BENCH["frames"], gamma=gamma)


def bench_train_config(ns_labels=True):
    return TrainConfig(
        epochs=BENCH["epochs"], batch_size=BENCH["batch_size"], base_lr=0.01,
        lr_decay_epochs=(), momentum=0.9, seed=BENCH["train_seed"],
        frames=BENCH["frames"], shift_augment=True,
        ns_labels=ns_labels, k=BENCH["eval_k"])


@pytest.fixture(scope="session")
def bench_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_data")
    started = time.perf_counter()
    train_m, val_m = generate_synthetic_dataset(
        str(root), num_classes=BENCH["num_classes"],
        videos_per_class=BENCH["videos_per_class"],
        num_frames=BENCH["num_frames"], light_dim=BENCH["light_dim"],
        guiding_dim=BENCH["guiding_dim"],
        salient_fraction=BENCH["salient_fraction"],
        noise_sigma=BENCH["noise_sigma"], seed=BENCH["data_seed"],
        val_videos_per_class=BENCH["val_videos_per_class"])
    train_manifest, val_manifest = load_manifest(train_m), load_manifest(val_m)
    bank = build_prototypes(train_manifest.blocks(("guiding", "logits")), BENCH["num_classes"])
    return {
        "train_manifest": train_m,
        "val_manifest": val_m,
        "train_blocks": [train_manifest.read(("light", "guiding"))],
        "val_records": val_manifest.load_all(),
        "val_videos": ScoredVideos.gather(val_manifest.read(ScoredVideos.kinds), BENCH["frames"]),
        "bank": bank,
        "seconds": time.perf_counter() - started,
    }


@pytest.fixture(scope="session")
def bench_ns_run(bench_data, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_ns_run")
    started = time.perf_counter()
    result = train(bench_data["train_blocks"], bench_data["bank"], bench_model_config(),
                   bench_train_config(), val_videos=bench_data["val_videos"],
                   out_dir=str(out_dir))
    return {"result": result, "out_dir": str(out_dir),
            "seconds": time.perf_counter() - started}


@pytest.fixture(scope="session")
def bench_baseline_run(bench_data, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench_baseline_run")
    started = time.perf_counter()
    result = train(bench_data["train_blocks"], None,
                   bench_model_config(gamma=0.0), bench_train_config(ns_labels=False),
                   val_videos=bench_data["val_videos"], out_dir=str(out_dir))
    return {"result": result, "out_dir": str(out_dir),
            "seconds": time.perf_counter() - started}
