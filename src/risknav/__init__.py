"""Adaptive path planning on risk-classed graphs with human-aware
replanning, fixed-policy validation, and Monte-Carlo mission evaluation."""

from .env import (DEFAULT_RISK_TABLE, Edge, EnvironmentGraph, HeatedGraph,
                  MissionSpec, OutcomeProbs, effective_success,
                  environment_from_dict, environment_to_dict,
                  load_default_environment, load_default_mission,
                  load_environment, load_mission, mission_from_dict,
                  mission_to_dict, save_environment, save_mission)
from .planner import (MissionPlan, Path, UnreachableNodeError,
                      max_success_path, order_tasks, path_from_nodes,
                      shortest_distance_path)
from .verify import export_prism, plan_validated_path
from .human import (HeatParams, HumanState, apply_heat, build_heat_map,
                    predict_human_path, step_human)
from .sim import (EpisodeConfig, EpisodeOutcome, SweepReport, SweepRow,
                  run_episode, run_sweep, summarize)

__version__ = "0.1.0"
