"""Planning-oriented active data selection for pools of driving clips.

The package covers the full selection pipeline at desk scale: a clip pool
data model, diversity-stratified initialization, three planning-centric
scoring criteria, the budgeted selection loop, a deterministic synthetic
driving world with a toy planner for closed-loop experiments, and report
generation. See the ``driveselect`` CLI or the demos/ scripts for end-to-end
usage.
"""

from .criteria import (
    AgentForecast,
    ClipPrediction,
    CriterionScores,
    PredictionBatch,
    agent_uncertainty,
    displacement_error,
    min_max_normalize,
    overall_loss,
    rank_and_take,
    score_pool,
    soft_collision,
)
from .diversity import (
    StratumAllocation,
    allocate_budget,
    ego_diversity_init,
    first_level_shares,
    integerize,
    second_level_shares,
    select_by_speed,
)
from .loop import (
    ActiveConfig,
    FilePredictionProvider,
    PredictionProvider,
    RunResult,
    random_init,
    run,
    run_round,
)
from .pool import (
    ClipRecord,
    FrameState,
    SelectionState,
    classify_command,
    load_pool,
    load_selection,
    mean_speed,
    save_selection,
    weather_lighting_bucket,
)
from .report import (
    l2_at_k_uniad,
    l2_at_k_vad,
    overlap_matrix,
    overlap_rate,
    stratified_metrics,
)
from .synthworld import (
    ClipTruth,
    ToyPlanner,
    WorldConfig,
    evaluate_clips,
    generate_pool,
    generate_world,
    heldout_eval,
    load_truth,
)

__version__ = "0.1.0"
