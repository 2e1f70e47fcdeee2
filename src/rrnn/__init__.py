"""Recurrent cells whose input and hidden weight matrices are overlapping
views into one shared parameter pool, with exact parameter accounting,
truncated-BPTT training and language-model evaluation."""

from .cells import CellSpec, CellState, gru_step, lstm_step, rnn_step, stack_forward
from .model import LanguageModel
from .restriction import (InitSpec, ParamCounts, ParameterPool, RestrictionPlan,
                          build_pool, compression_rate, count_parameters,
                          plan_restriction)
from .tensor import Tensor, backward, no_grad
from .training import TrainConfig, cosine_lr, cross_entropy_loss, evaluate, perplexity

__all__ = [
    "CellSpec", "CellState", "InitSpec", "LanguageModel", "ParamCounts",
    "ParameterPool", "RestrictionPlan", "Tensor", "TrainConfig", "backward",
    "build_pool", "compression_rate", "cosine_lr", "count_parameters",
    "cross_entropy_loss", "evaluate", "gru_step", "lstm_step", "no_grad",
    "perplexity", "plan_restriction", "rnn_step", "stack_forward",
]
__version__ = "0.1.0"
