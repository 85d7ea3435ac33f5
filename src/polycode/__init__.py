"""Coded distributed matrix multiplication and convolution over prime fields."""

from .errors import (
    DecodingFailure,
    DominanceViolation,
    DuplicateEvaluationPoint,
    InvalidParameters,
    NotDecodable,
    NotEnoughResults,
    PolycodeError,
    RangeOverflow,
)
from .field import DEFAULT_Q, FieldCtx, Poly, bw_decode, check_embedding_bound, embed_reals, unembed_reals
from .matrixcore import FMatrix, ProblemShape, lincomb, split_cols, transpose_mul
from .schemes import (
    Mds1dScheme,
    PolyScheme,
    ProductScheme,
    Scheme,
    UncodedScheme,
    WorkerResult,
    WorkerShare,
    get_scheme,
    threshold,
    threshold_table,
    worker_compute,
)
from .convolution import conv_decode, conv_direct, conv_encode, conv_thresholds
from .cluster import RunReport, StragglerPlan, run
from .sim import LatencyModel, comm_load_bits, dominance_check, sample_latency, scheme_latency

__version__ = "0.1.0"
