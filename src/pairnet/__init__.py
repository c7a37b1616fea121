"""Pairwise networks with one-shot closed-form training on partitioned domains.

A PairNet maps n inputs through complementary pair activations and a
convex fusion layer to an output that is linear in its trainable
parameters, so each partition cell is fit exactly by solving one small
least-squares system instead of by gradient descent. The package
bundles the model, the per-cell trainer, random-search model selection,
the three synthetic benchmarks, a backprop MLP baseline, JSON model
persistence, and a reproduction CLI.
"""

from .activation import LINEAR, ActivationKind, pair_activation
from .baseline_mlp import (
    DivergenceError,
    MLPConfig,
    MLPModel,
    history_to_csv,
    loss_and_grads,
    mlp_forward,
    mlp_train,
)
from .datasets import (
    BENCHMARKS,
    CsvFormatError,
    Dataset,
    benchmark_eval,
    gen_test,
    gen_train,
    read_csv,
    write_csv,
)
from .linsolve import SingularSystemError
from .model import (
    LocalPairNet,
    PairNetModel,
    betas,
    feature_matrix,
    feature_row,
    forward,
    layer2_weights,
    local_forward,
)
from .partition import (
    Interval,
    Partition,
    PartitionSamplingError,
    locate,
    locate_many,
    random_partition,
    route,
    uniform_partition,
)
from .persistence import (
    FORMAT_VERSION,
    ModelFormatError,
    ModelVersionError,
    load_model,
    save_model,
)
from .selection import (
    CandidateResult,
    Leaderboard,
    SelectionConfig,
    sample_alpha_simplex,
    select_model,
)
from .trainer import (
    FitConfig,
    FitReport,
    InsufficientDataError,
    SubspaceFit,
    SubspaceFitError,
    fit,
    min_rows_threshold,
    mse,
)

from ._version import __version__

__all__ = [
    "ActivationKind",
    "BENCHMARKS",
    "CandidateResult",
    "CsvFormatError",
    "Dataset",
    "DivergenceError",
    "FORMAT_VERSION",
    "FitConfig",
    "FitReport",
    "InsufficientDataError",
    "Interval",
    "LINEAR",
    "Leaderboard",
    "LocalPairNet",
    "MLPConfig",
    "MLPModel",
    "ModelFormatError",
    "ModelVersionError",
    "PairNetModel",
    "Partition",
    "PartitionSamplingError",
    "SelectionConfig",
    "SingularSystemError",
    "SubspaceFit",
    "SubspaceFitError",
    "benchmark_eval",
    "betas",
    "feature_matrix",
    "feature_row",
    "fit",
    "forward",
    "gen_test",
    "gen_train",
    "layer2_weights",
    "load_model",
    "local_forward",
    "locate",
    "locate_many",
    "min_rows_threshold",
    "mlp_forward",
    "mlp_train",
    "history_to_csv",
    "loss_and_grads",
    "mse",
    "pair_activation",
    "random_partition",
    "read_csv",
    "route",
    "sample_alpha_simplex",
    "save_model",
    "select_model",
    "uniform_partition",
    "write_csv",
    "__version__",
]
