"""mkagg: embed local descriptor sets and pool them into single image vectors.

Pipeline: embed descriptors per centroid (bow or residual), build the
pairwise similarity kernel (block-diagonal, one block per centroid),
compute per-descriptor weights (democratic Sinkhorn scaling or generalized
max pooling), aggregate, normalize, and evaluate retrieval quality.
"""

from .democratic import DemocraticConfig, aggregate_democratic, aggregate_sum, sinkhorn_weights
from .embed import EmbeddingConfig, assign_hard, embed_set, train_codebook
from .gmp import GmpConfig, aggregate_gmp, gmp_weights
from .kernel import clip_negatives, gram
from .matio import (
    MAGIC_CODEBOOK,
    MAGIC_DESCRIPTORS,
    MAGIC_ROTATION,
    MAGIC_VECTOR,
    read_matrix_file,
    write_matrix_file,
)
from .normalize import (
    NormalizeConfig,
    apply_chain,
    l2_normalize,
    power_law,
    rn_fit,
    similarity,
)
from .retrieval import (
    GroundTruth,
    average_precision,
    export_weights,
    mean_average_precision,
    query_average_precisions,
    rank,
    read_ground_truth,
    read_manifest,
    write_ground_truth,
)
from .types import (
    AggregateVector,
    BadMagicError,
    BadVersionError,
    Codebook,
    DataFormatError,
    DescriptorSet,
    DimensionOverflowError,
    EmbeddedSet,
    KernelBlock,
    KernelMatrix,
    NumericalError,
    ScalingError,
    TruncatedFileError,
    WeightVector,
    ZeroVectorError,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateVector",
    "BadMagicError",
    "BadVersionError",
    "Codebook",
    "DataFormatError",
    "DemocraticConfig",
    "DescriptorSet",
    "DimensionOverflowError",
    "EmbeddedSet",
    "EmbeddingConfig",
    "GmpConfig",
    "GroundTruth",
    "KernelBlock",
    "KernelMatrix",
    "MAGIC_CODEBOOK",
    "MAGIC_DESCRIPTORS",
    "MAGIC_ROTATION",
    "MAGIC_VECTOR",
    "NormalizeConfig",
    "NumericalError",
    "ScalingError",
    "TruncatedFileError",
    "WeightVector",
    "ZeroVectorError",
    "aggregate_democratic",
    "aggregate_gmp",
    "aggregate_sum",
    "apply_chain",
    "assign_hard",
    "average_precision",
    "clip_negatives",
    "embed_set",
    "export_weights",
    "gmp_weights",
    "gram",
    "l2_normalize",
    "mean_average_precision",
    "power_law",
    "query_average_precisions",
    "rank",
    "read_ground_truth",
    "read_manifest",
    "read_matrix_file",
    "rn_fit",
    "similarity",
    "sinkhorn_weights",
    "train_codebook",
    "write_ground_truth",
    "write_matrix_file",
]
