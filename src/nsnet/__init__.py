"""Non-saliency suppression frame sampler over precomputed frame features."""

from .autodiff import (
    Parameter,
    SgdState,
    Tensor,
    backward,
    finite_difference_check,
    sgd_step,
)
from .data import (
    DatasetManifest,
    FeatureBlock,
    PresampleConfig,
    VideoRecord,
    generate_synthetic_dataset,
    load_manifest,
    presample,
    read_feature_file,
    write_feature_file,
)
from .evaluation import (
    baseline_sample,
    mean_average_precision,
    run_comparison,
    top1_accuracy,
)
from .fusion import FusionConfig, recognize_video, select_frames
from .model import (
    ForwardOutput,
    ModelConfig,
    SamplerModel,
    fsm_saliency,
    load_checkpoint,
    save_checkpoint,
    vgm_saliency,
)
from .supervision import (
    PrototypeBank,
    build_prototypes,
    guiding_saliency_scores,
    ns_pseudo_label_matrix,
)
from .training import TrainConfig, evaluate_epoch, gradient_check, lr_at_epoch, train

__version__ = "0.1.0"

__all__ = [
    "Parameter", "SgdState", "Tensor", "backward", "finite_difference_check",
    "sgd_step",
    "DatasetManifest", "FeatureBlock", "PresampleConfig", "VideoRecord",
    "generate_synthetic_dataset", "load_manifest", "presample",
    "read_feature_file", "write_feature_file",
    "baseline_sample", "mean_average_precision", "run_comparison", "top1_accuracy",
    "FusionConfig", "recognize_video", "select_frames",
    "ForwardOutput", "ModelConfig", "SamplerModel", "fsm_saliency",
    "load_checkpoint", "save_checkpoint", "vgm_saliency",
    "PrototypeBank", "build_prototypes", "guiding_saliency_scores",
    "ns_pseudo_label_matrix",
    "TrainConfig", "evaluate_epoch", "gradient_check", "lr_at_epoch", "train",
]
