"""Randomized PSD testing for symmetric matrices under matvec and bilinear
query access, plus the spectrum estimation and experiment tooling around it.
"""

from .oracle import (
    SymmetricOperator,
    SpectrumInstance,
    gen_rotated_diag,
    gen_wishart,
    gen_spiked_sym,
    rng_from,
)
from .kernels import (
    trace_estimate,
    frobenius_estimate,
    schatten1_scale_estimate,
)
from .vmv_testers import (
    Verdict,
    OjaConfig,
    SketchState,
    oja_l1_tester,
    sketch_dim,
    build_sketch,
    bilinear_sketch_tester,
    adaptive_l2_tester,
    nonadaptive_l1_tester,
)
from .mv_testers import (
    KrylovSpace,
    build_krylov,
    krylov_degree,
    krylov_tester,
    nonadaptive_mv_tester,
)
from .spectrum import (
    EigenEstimate,
    affine_embedding,
    psd_rank_k_fit,
    estimate_Akplus_sq,
    top_eigs_signed,
    top_eigs_signed_adaptive,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    TESTERS,
    CALIBRATION_SUITES,
    CSV_FIELDS,
    instance_operator,
    truth_label,
    run_experiment,
    summarize,
    write_records_csv,
    calibrate,
    scaling_report,
)

__version__ = "0.1.0"
