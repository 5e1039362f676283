"""depthfusion: sparse radar + RGB depth completion on a numpy autodiff core."""

from .densify import DensifyConfig, DensifyResult, densify
from .geometry import (CameraIntrinsics, PointCloud, RigidPose, backproject,
                       project_points)
from .losses import LossWeights, PixelLossKind, ReciprocalCodec, loss_total
from .metrics import Divisor, MetricsReport, compute_metrics
from .model import (FusionMode, Model, ModelConfig, build_model,
                    load_checkpoint, save_checkpoint)
from .tensor import ShapeError, Tensor
from .trainer import OptimState, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics", "DensifyConfig", "DensifyResult", "Divisor",
    "FusionMode", "LossWeights", "MetricsReport", "Model", "ModelConfig",
    "OptimState", "PixelLossKind", "PointCloud", "ReciprocalCodec",
    "RigidPose", "ShapeError", "Tensor", "TrainConfig",
    "backproject", "build_model", "compute_metrics", "densify",
    "load_checkpoint", "loss_total", "project_points", "save_checkpoint",
    "train", "__version__",
]
