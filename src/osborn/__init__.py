"""Transferability estimation for ensembles of pre-trained models.

Scores candidate ensembles without fine-tuning by combining per-model optimal
transport terms (domain and task difference) with an inter-model cohesion
term, and selects ensembles greedily under a cardinality budget.
"""

from .data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PoolPredictions,
    PredictionVector,
    TEConfig,
    load_pool,
    load_pool_predictions,
    read_config,
    read_scores,
    write_config,
    write_scores,
)
from .errors import ComputationError, OsbornError, ValidationError
from .evaluation import (
    CorrelationReport,
    evaluate,
    kendall_tau,
    majority_vote_accuracy,
    pearson,
    weighted_kendall_tau,
)
from .metrics import (
    PairwiseCache,
    ScoreBreakdown,
    build_pairwise_cache,
    cohesion_pair,
    joint_from_coupling,
    osborn_score,
    read_cache,
    standardize_terms,
    w_task,
    write_cache,
)
from .ot_core import Coupling, MarginalWeights, cost_matrix, sinkhorn, sinkhorn_frobenius
from .selection import (
    SelectionTrace,
    exhaustive_select,
    greedy_select,
    marginal_gain,
    score_all,
)
from .synth import SynthSpec, build_pool, generate, proxy_accuracy, read_synth_spec

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "CorrelationReport",
    "Coupling",
    "LabelVector",
    "MarginalWeights",
    "ModelRecord",
    "OsbornError",
    "PairwiseCache",
    "PoolManifest",
    "PoolPredictions",
    "PredictionVector",
    "ScoreBreakdown",
    "SelectionTrace",
    "SynthSpec",
    "TEConfig",
    "ValidationError",
    "build_pairwise_cache",
    "build_pool",
    "cohesion_pair",
    "cost_matrix",
    "evaluate",
    "exhaustive_select",
    "generate",
    "greedy_select",
    "joint_from_coupling",
    "kendall_tau",
    "load_pool",
    "load_pool_predictions",
    "majority_vote_accuracy",
    "marginal_gain",
    "osborn_score",
    "pearson",
    "proxy_accuracy",
    "read_cache",
    "read_config",
    "read_scores",
    "read_synth_spec",
    "score_all",
    "sinkhorn",
    "sinkhorn_frobenius",
    "standardize_terms",
    "w_task",
    "weighted_kendall_tau",
    "write_cache",
    "write_config",
    "write_scores",
]
