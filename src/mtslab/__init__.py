"""Simulation laboratory for uniform metrical task systems with predictions.

Exact integer accounting throughout: every cost is an integer count of
1/granularity units, every random draw comes from a seedable counter-based
stream, and every published number is reproducible from a base seed.
"""

__version__ = "0.1.0"

from .analysis import (
    SweepRecord,
    footrule_distance,
    harmonic_number,
    max_footrule,
    max_footrule_consistency,
    max_forcible_transitions,
    mean_and_se,
    robustness_threshold,
    round_ratio_half_up,
)
from .adversaries import (
    build_family,
    forcing_sequence,
    noisy_pst,
    random_unit_sequence,
    realize_saturation_order,
    repeat_block_sequence,
    reversal_sequence,
    shuffled_tail_sequence,
)
from .core import (
    TaskSequence,
    decompose_phases,
    load_task_sequence,
    lv_loss,
    pst_error_per_phase,
    save_task_sequence,
    schedule_cost,
)
from .engine import RunResult, run_scheduler, summarize
from .errors import (
    ConfigurationError,
    MalformedInputError,
    MTSLabError,
    ProtocolError,
)
from .kernels import backend_name, simulate_family_trials
from .opt import opt_schedule, opt_units
from .rng import RandomStream, seed_words, trial_seed
from .schedulers import SCHEDULERS, Scheduler, make_scheduler, scheduler_names
from .verify import VerifyResult, run_suite, verify_sequence

__all__ = [
    "__version__",
    "SweepRecord",
    "footrule_distance",
    "harmonic_number",
    "max_footrule",
    "max_footrule_consistency",
    "max_forcible_transitions",
    "mean_and_se",
    "robustness_threshold",
    "round_ratio_half_up",
    "build_family",
    "forcing_sequence",
    "noisy_pst",
    "random_unit_sequence",
    "realize_saturation_order",
    "repeat_block_sequence",
    "reversal_sequence",
    "shuffled_tail_sequence",
    "TaskSequence",
    "decompose_phases",
    "load_task_sequence",
    "lv_loss",
    "pst_error_per_phase",
    "save_task_sequence",
    "schedule_cost",
    "RunResult",
    "run_scheduler",
    "summarize",
    "ConfigurationError",
    "MalformedInputError",
    "MTSLabError",
    "ProtocolError",
    "backend_name",
    "simulate_family_trials",
    "opt_schedule",
    "opt_units",
    "RandomStream",
    "seed_words",
    "trial_seed",
    "SCHEDULERS",
    "Scheduler",
    "make_scheduler",
    "scheduler_names",
    "VerifyResult",
    "run_suite",
    "verify_sequence",
]
