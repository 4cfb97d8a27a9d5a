"""Streaming continual-learning engine with a reactive centroid replay memory."""

from .memory import (
    LabeledInstance,
    MemoryEvent,
    RsbConfig,
    RsbMemory,
    apply_split,
    check_split,
    check_switch,
    find_nearest,
    within_bounds,
)
from .baselines import ClassBuffer, StaticCentroidMemory, cb_sample
from .replay import oversample_balance, purity, sample_replay
from .learner import (
    ClassifierSpec,
    MlpClassifier,
    fit_offline,
    gradient_check,
)
from .streams import (
    GaussianStreamSpec,
    StreamSchedule,
    SubconceptDataset,
    build_drift_schedule,
    build_stationary_schedule,
    generate_gaussian,
    load_features,
    next_batch,
    save_features,
    warmup_instances,
)
from .evaluation import MetricsRecord, emit_report, evaluate_batch, omega_all
from .experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"
