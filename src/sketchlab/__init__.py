"""Sketch-and-solve low-rank approximation toolkit with learned sparse
sketches, an arithmetic-complexity tracer, shattering labs, and two-level
multigrid stepping, all verifiable at desk scale."""

from .amg import (
    AMGProblem,
    DivergenceError,
    amg_loss,
    amg_loss_and_grad,
    amg_step,
    amg_step_error_form,
    smoothing_sweep,
    train_prolongation,
)
from .charpoly import (
    CharpolyOverflowError,
    SingularMatrixError,
    charpoly_coefficients,
    charpoly_free_coeff,
    charpoly_inverse,
    greedy_row_basis,
    projection_rowspace,
)
from .gjtrace import FloatBackend, Trace, TracedValue, gj_argmin, pdim_bound
from .linalg import SvdResult, as_matrix, best_rank_k, fro_sq, pinv, svd
from .matio import (
    MatrixFormatError,
    load_sketch,
    read_matrix,
    save_sketch,
    write_matrix,
)
from .proxy import (
    ProxyConfig,
    candidate_bases,
    greedy_pivot_columns,
    power_refine,
    proxy_loss,
    q_iterations,
)
from .shatter import (
    ShatterFamily,
    block_family,
    dense_family,
    rank1_family,
    subset_sketch,
    verify_shattering,
)
from .sketching import (
    SparseSketch,
    random_sparse_sketch,
    rank1_closed_form_loss,
    sketch_lowrank,
    sketch_lowrank_via_projection,
    sketch_loss,
    sketch_loss_and_grad,
)
from .train import (
    TrainConfig,
    empirical_loss,
    make_dataset,
    safeguard,
    sgd_train,
)

__version__ = "0.1.0"
