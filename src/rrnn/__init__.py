"""Recurrent cells whose input and hidden weight matrices are overlapping
views into one shared parameter pool, with exact parameter accounting,
truncated-BPTT training and language-model evaluation."""

from .cells import CellSpec, CellState, stack_forward
from .model import LanguageModel
from .restriction import (ParamCounts, ParameterPool, RestrictionPlan, build_pool,
                          compression_rate, count_parameters, plan_restriction)
from .training import TrainConfig, cosine_lr, cross_entropy_loss, evaluate, perplexity

__all__ = [
    "CellSpec", "CellState", "LanguageModel", "ParamCounts",
    "ParameterPool", "RestrictionPlan", "TrainConfig", "build_pool",
    "compression_rate", "cosine_lr", "count_parameters", "cross_entropy_loss",
    "evaluate", "perplexity", "plan_restriction", "stack_forward",
]
__version__ = "0.1.0"
