"""opscal: streaming post-hoc calibration of probabilistic binary forecasts.

Online Platt and beta scaling driven by projected online Newton steps,
tracking/hedging calibeating wrappers with adversarial calibration
guarantees, windowed baselines, calibration/sharpness metrics, synthetic
drift generators, and a reproducible experiment CLI.
"""

from .core import (
    CLIP_HI,
    CLIP_LO,
    BinningScheme,
    bin_index,
    clip_score,
    log_loss,
    logit,
    sigmoid,
)
from .ons import OnsConfig, OnsState, ons_regret_bound, ons_step, project_ellipsoid, regret
from .scalers import (
    HistogramBinningModel,
    beta_apply,
    fit_beta_batch,
    fit_histogram_binning,
    fit_platt_batch,
    online_scaler_run,
    online_scaler_step,
    platt_apply,
    windowed_run,
)
from .calibeating import (
    CalibeatingInvariantError,
    HedgeDistribution,
    HopsState,
    TrackingState,
    f99_distribution,
    hops_run,
    hops_step,
    tracking_forecast,
    tracking_run,
    tracking_update,
)
from .metrics import (
    MetricReport,
    brier,
    calibration_error,
    metric_report,
    refinement,
    sharpness,
    true_accuracy,
    true_ce,
)
from .datagen import (
    BaseModelWeights,
    ScoredStream,
    StreamSpec,
    build_scored_stream,
    default_spec,
    ingest_csv,
    train_base_logistic,
)
from .pipeline import (
    ExperimentConfig,
    RunReport,
    dump_stream,
    run_climatology,
    run_pipeline,
    run_replication,
    run_theorem_suite,
    run_truth_windows,
)

__version__ = "0.1.0"

# the kernels have one plain-Python path; benchmark/ reads this provenance flag
NUMBA_ENABLED = False
