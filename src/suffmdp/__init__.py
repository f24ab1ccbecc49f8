"""suffmdp: low-dimensional sufficient state representations for MDPs.

Builds reduced state representations from batch trajectory data via
distance-covariance screening and an alternating network with group-lasso
input sparsity, then validates them by Q-learning policy value on fully
specified synthetic decision processes.
"""

from .adnn import (
    AdnnModel,
    Architecture,
    ConvergenceError,
    FitConfig,
    PipelineConfig,
    PipelineResult,
    active_inputs,
    construct_sufficient_features,
    cross_validate_adnn,
    fit_adnn,
    residual_independence_pvalue,
    select_feature_dimension,
)
from .baselines import TnnResult, fit_tnn, pca_feature_map
from .core import (
    DataValidationError,
    TrajectoryDataset,
    Transitions,
    config_from_jsonable,
    flatten_transitions,
    load_dataset_csv,
    save_dataset_csv,
)
from .dcov import (
    InsufficientDataError,
    PermutedSide,
    TestReport,
    draw_permuted_side,
    stratified_pooled_test,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment
from .features import (
    ConcatFeatureMap,
    CoordinateFeatureMap,
    FeatureMap,
    LinearFeatureMap,
    NetworkFeatureMap,
    feature_map_from_jsonable,
)
from .qlearn import (
    LinearQ,
    NeuralQ,
    PolicyValue,
    evaluate_policy,
    fit_q_linear,
    fit_q_nn,
    greedy_actions,
)
from .screening import ScreenResult, screen
from .simgen import (
    GenerativeModelSpec,
    TruncatedGFeatureMap,
    g_function,
    oracle_feature_map,
    sample_trajectories,
    step_process,
)

__version__ = "0.1.0"
