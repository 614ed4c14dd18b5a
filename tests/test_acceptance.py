"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import itertools
import time
from pathlib import Path

import numpy as np

from conftest import BENCH, bench_model_config, bench_train_config
from test_fusion import assert_modes_match_oracle
from test_evaluation import average_precision_oracle
from test_supervision import assert_pseudo_label_rows_valid

from nsnet.cli import main as cli_main
from nsnet.data import FeatureBlock, generate_synthetic_dataset, load_manifest
from nsnet.evaluation import DEFAULT_COST_TABLE, ScoredVideos, mean_average_precision, \
    run_comparison
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig, SamplerModel, load_checkpoint
from nsnet.supervision import build_prototypes, guiding_saliency_scores
from nsnet.training import evaluate_epoch, gradient_check, train
from nsnet.supervision import ns_pseudo_label_matrix


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_flops_reproduction(capsys):
    started = time.perf_counter()
    code = cli_main(["flops", "--k", "5", "--frames", "16"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out.strip()
    value = float(out)
    with capsys.disabled():
        report(1, "FLOPs reproduction",
               code == 0 and abs(value - 25.99) <= 0.01 and elapsed < 1.0,
               f"printed {out}, {elapsed:.3f}s")


def test_criterion_2_gradient_fidelity(capsys):
    started = time.perf_counter()
    cfg = ModelConfig(input_dim=16, num_classes=4, max_frames=8, encoder_layers=2,
                      heads=8, dropout_pos_enc=0.0, dropout_cls=0.0,
                      dropout_attn=0.0)
    model = SamplerModel(cfg, np.random.default_rng(100))
    rng = np.random.default_rng(101)
    labels, features, targets = (1, 3), [], []
    for label in labels:
        g = rng.random(8)
        features.append(rng.standard_normal((8, 16)))
        targets.append(ns_pseudo_label_matrix(g, label, 4))
    result = gradient_check(model, np.stack(features), np.concatenate(targets), list(labels),
                            tolerance=1e-4)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(2, "gradient fidelity", result.passed and elapsed < 120.0,
               f"max rel error {result.max_rel_error:.2e} over "
               f"{len(result.entries)} parameters, {elapsed:.1f}s")


def test_criterion_3_fusion_oracle_equivalence(capsys):
    started = time.perf_counter()
    checks = 0
    for t in range(1, 7):
        s_f = np.linspace(1.0, 0.1, t)
        for perm in itertools.permutations(range(t)):
            s_v = np.empty(t)
            for rank, frame in enumerate(perm):
                s_v[frame] = 1.0 - rank * 0.1
            for k in range(1, min(4, t) + 1):
                assert_modes_match_oracle(s_f, s_v, k)
                checks += 1
    rng = np.random.default_rng(300)
    for _ in range(300):
        t = int(rng.integers(1, 12))
        k = int(rng.integers(1, t + 1))
        ratio = float(rng.choice([0.0, 0.3, 0.6, 1.0]))
        if rng.random() < 0.5:
            s_f = rng.integers(0, 4, size=t).astype(float)
            s_v = rng.integers(0, 4, size=t).astype(float)
        else:
            s_f, s_v = rng.random(t), rng.random(t)
        assert_modes_match_oracle(s_f, s_v, k, ratio)
        checks += 1
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(3, "fusion oracle equivalence", elapsed < 60.0,
               f"{checks} cases x 6 modes, {elapsed:.1f}s")


def test_criterion_4_supervision_invariants(tmp_path, capsys):
    started = time.perf_counter()
    assert_pseudo_label_rows_valid(seed=400, draws=1000)
    train_m, _ = generate_synthetic_dataset(
        str(tmp_path), num_classes=6, videos_per_class=4, num_frames=16,
        light_dim=16, guiding_dim=16, salient_fraction=0.25, noise_sigma=0.0,
        seed=401)
    records = load_manifest(train_m).load_all()
    bank = build_prototypes([load_manifest(train_m).read(("guiding", "logits"))], 6)
    ranked = True
    for record in records:
        g = guiding_saliency_scores(record.guiding_features, record.label, bank)
        salient = record.saliency_mask == 1.0
        ranked &= bool(g[salient].min() > g[~salient].max())
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(4, "supervision invariants", ranked and elapsed < 60.0,
               f"1000 pseudo-label triples + zero-noise ranking over "
               f"{len(records)} videos, {elapsed:.1f}s")


def test_criterion_5_synthetic_recovery(bench_data, bench_ns_run,
                                        bench_baseline_run, capsys):
    k = BENCH["eval_k"]
    fusion = FusionConfig("index_union", 0.6, k)
    best = load_checkpoint(bench_ns_run["out_dir"] + "/best.nsc1")
    ns_top1, ns_recall = evaluate_epoch(best, bench_data["val_records"], k,
                                        fusion, frames=BENCH["frames"])
    base_model = bench_baseline_run["result"].model
    _, base_recall = evaluate_epoch(base_model, bench_data["val_records"], k,
                                    fusion, frames=BENCH["frames"])
    rows = run_comparison(bench_data["val_videos"], best, fusion, [k], DEFAULT_COST_TABLE,
                          seed=BENCH["train_seed"])
    uniform = next(r for r in rows if r.method == "uniform")
    elapsed = bench_data["seconds"] + bench_ns_run["seconds"] \
        + bench_baseline_run["seconds"]
    gap_recall = ns_recall - uniform.recall
    gap_top1 = ns_top1 - uniform.top1
    ok = (gap_recall >= 0.25 and gap_top1 >= 0.05
          and ns_recall > base_recall and elapsed < 900.0)
    with capsys.disabled():
        report(5, "synthetic recovery benchmark", ok,
               f"recall {ns_recall:.3f} vs uniform {uniform.recall:.3f} "
               f"(gap {gap_recall:.3f} >= 0.25), top-1 {ns_top1:.3f} vs "
               f"{uniform.top1:.3f} (gap {gap_top1:.3f} >= 0.05), "
               f"suppression-free recall {base_recall:.3f}, {elapsed:.0f}s")


def test_criterion_6_metric_oracles(bench_data, capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(200):
        v = int(rng.integers(1, 21))
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=v)
        scores = rng.random((v, c))
        result = mean_average_precision(scores, labels)
        for cls in range(c):
            positives = labels == cls
            if not positives.any():
                continue
            expected = average_precision_oracle(scores[:, cls].tolist(),
                                                positives.tolist())
            worst = max(worst, abs(result.per_class[cls] - expected))
    # boundary identities on a frozen model over the benchmark validation set
    model = SamplerModel(bench_model_config(), np.random.default_rng(601))
    t = BENCH["frames"]
    records = bench_data["val_records"][:50]
    rows = run_comparison(ScoredVideos.gather(FeatureBlock.of(records), t), model,
                          FusionConfig("index_union", 0.6, t), [2, t], DEFAULT_COST_TABLE,
                          seed=0)
    by = {(r.method, r.k): r for r in rows}
    dense_invariant = by[("dense", 2)].top1 == by[("dense", t)].top1
    full_budget = {by[(m, t)].top1 for m in ("nsnet", "uniform", "dense")}
    k_equals_t = len(full_budget) == 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and dense_invariant and k_equals_t
    with capsys.disabled():
        report(6, "metric oracles", ok,
               f"max AP deviation {worst:.1e}, dense invariant {dense_invariant}, "
               f"K=T agreement {k_equals_t}, {elapsed:.1f}s")


def test_criterion_7_determinism(bench_ns_run, bench_data, tmp_path_factory, capsys):
    rerun_dir = tmp_path_factory.mktemp("bench_ns_rerun")
    train(bench_data["train_blocks"], bench_data["bank"],
          bench_model_config(), bench_train_config(),
          val_videos=bench_data["val_videos"], out_dir=str(rerun_dir))
    identical = True
    for name in ("last.nsc1", "best.nsc1", "metrics.csv"):
        first = Path(bench_ns_run["out_dir"], name).read_bytes()
        second = Path(rerun_dir, name).read_bytes()
        identical &= first == second
    with capsys.disabled():
        report(7, "determinism", identical,
               "checkpoints and metrics byte-identical across reruns")
