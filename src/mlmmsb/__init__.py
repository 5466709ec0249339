"""Mixed membership community detection for multi-layer networks.

Spectral estimators built on three aggregate matrices (sum of adjacency
matrices, debiased sum of squares, plain sum of squares), a model sampler,
evaluation metrics, and a reproducible experiment harness.
"""

from .aggregate import (
    AggregateMatrix,
    Embedding,
    build_asum,
    build_sos,
    build_ssum_debiased,
    top_k_eigen,
)
from .errors import (
    ConfigError,
    DegeneracyWarning,
    DimensionError,
    EmptyNetworkError,
    IllConditionedCornerError,
    IoError,
    MlmmsbError,
    ModelSelectionError,
    ParseError,
    RankDeficiencyError,
    UnusableDataError,
)
from .estimators import (
    EstimationResult,
    spdsos,
    spdsos_oracle,
    spsos,
    spsos_oracle,
    spsum,
    spsum_oracle,
)
from .experiments import (
    AssumptionDiagnostics,
    ExperimentConfig,
    ExperimentResult,
    compute_diagnostics,
    preset,
    rate_slope_check,
    run_experiment,
)
from .io_cli import (
    cli_main,
    read_multiplex_edges,
    render_line_chart,
    write_results_csv,
)
from .metrics import (
    ErrorReport,
    NodeClassification,
    classify_nodes,
    estimate_k,
    membership_errors,
    q_fmean,
    q_fsum,
)
from .model import (
    ConnectivityStack,
    ExpectationStack,
    MembershipMatrix,
    MultiLayerNetwork,
    expected_adjacency,
    generate_connectivity,
    generate_membership,
    sample_mlmmsb,
)
from .simplex import VertexSet, estimate_memberships, successive_projection

__version__ = "0.1.0"
