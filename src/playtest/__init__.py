"""Headless game-mechanics simulator with automated playtesting agents."""

__version__ = "0.1.0"

from .agents import (  # noqa: F401
    AStarPlanner,
    Decision,
    GoalSpec,
    HeuristicSpec,
    SoftmaxPlanner,
    SoftmaxPolicy,
    TrialRecord,
    run_episode,
    softmax_decide,
    train_softmax,
)
from .experiments import (  # noqa: F401
    AggregateStats,
    ExperimentConfig,
)
from .sim import (  # noqa: F401
    GameState,
    ScenarioOverrides,
    advance_time,
    apply_action,
    close_session_if_idle,
    initial_state,
    legal_actions,
    next_availability,
    state_digest,
    step_action,
    trace_to_jsonl,
)
from .tuning import (  # noqa: F401
    TuningConfig,
    diff_builds,
    event_step_curve,
    flag_step_anomalies,
    parse_tuning,
    serialize_tuning,
    validate,
)
