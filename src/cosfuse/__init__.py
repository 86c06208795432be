"""Cosparse analysis operator learning and multi-focus image fusion."""

from .fuse import FusionConfig, FusionResult, local_fuse
from .learn import (
    AnalysisOperator,
    NumericalFailure,
    TrainConfig,
    TrainReport,
    cosparse_code_many,
    init_operator,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisOperator",
    "FusionConfig",
    "FusionResult",
    "NumericalFailure",
    "TrainConfig",
    "TrainReport",
    "cosparse_code_many",
    "init_operator",
    "local_fuse",
    "train",
    "__version__",
]
