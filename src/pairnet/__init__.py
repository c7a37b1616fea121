"""Pairwise networks with one-shot closed-form training on partitioned domains.

A PairNet maps n inputs through complementary pair activations and a
convex fusion layer to an output that is linear in its trainable
parameters, so each partition cell is fit exactly by solving one small
least-squares system instead of by gradient descent. The package
bundles the model, the per-cell trainer, random-search model selection,
the three synthetic benchmarks, a backprop MLP baseline, JSON model
persistence, and a reproduction CLI. The namespace holds that user-facing
API; layer-level functions such as model.feature_matrix (the literal
layers), model.local_forward and partition.locate_many stay importable
from their modules.
"""

from .activation import LINEAR, ActivationKind
from .baseline_mlp import (
    DivergenceError,
    MLPConfig,
    MLPModel,
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
    forward,
)
from .partition import (
    Interval,
    Partition,
    PartitionSamplingError,
    random_partition,
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
    select_model,
)
from .trainer import (
    FitConfig,
    FitReport,
    InsufficientDataError,
    SubspaceFit,
    SubspaceFitError,
    fit,
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
    "fit",
    "forward",
    "gen_test",
    "gen_train",
    "load_model",
    "mlp_forward",
    "mlp_train",
    "mse",
    "random_partition",
    "read_csv",
    "save_model",
    "select_model",
    "uniform_partition",
    "write_csv",
    "__version__",
]
