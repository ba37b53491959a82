"""NovoGrad and reference optimizers with a deterministic benchmark harness."""

from .params import ModelParams, ParameterLayer, l2_norm_sq
from .optim import (
    AdamConfig,
    AdamState,
    NovoGradConfig,
    NovoGradState,
    OptimizerDriver,
    SgdMomentumConfig,
    SgdMomentumState,
    SngdConfig,
    SngdState,
    StateReport,
    adam_step,
    adamw_step,
    make_config,
    novograd_step,
    sgd_momentum_step,
    sngd_step,
    state_report,
)
from .schedule import LarcConfig, ScheduleSpec, larc_scale, lr_at
from .problems import (
    DatasetSpec,
    GradientScaledProblem,
    LogisticRegressionProblem,
    MlpProblem,
    Problem,
    QuadraticProblem,
    RosenbrockProblem,
    SyntheticDataset,
    finite_diff_grad,
    generate_dataset,
)
from .harness import (
    Checkpoint,
    ProblemSpec,
    RunConfig,
    TrajectoryLog,
    compare_runs,
    grad_check,
    lr_sweep,
    train,
)

__version__ = "0.1.0"
