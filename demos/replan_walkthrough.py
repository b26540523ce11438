"""Walkthrough of a single conflict-and-replan cycle.

A human walks from the living area toward bedroom B while the robot
needs to cross the same centre corridor.  The script shows the heat map
built from the predicted walk, the validated probability of the original
route collapsing under that heat, and the detour the planner takes
instead.

Run:  python3 demos/replan_walkthrough.py
"""

from dataclasses import replace

from risknav import (HeatParams, HumanState, apply_heat, build_heat_map,
                     load_default_environment, max_success_path,
                     path_from_nodes, predict_human_path)

ROBOT_START, ROBOT_GOAL = 25, 17
HUMAN_POS, HUMAN_GOAL = 15, 6
THRESHOLD = 0.9


def show(tag, path):
    route = " -> ".join(str(n) for n in path.nodes)
    print(f"  {tag:<10} {route}  (distance {path.total_distance:.2f}m, "
          f"validated r = {path.success_probability:.4f})")


def main():
    g = load_default_environment()

    human = HumanState(HUMAN_POS, HUMAN_GOAL, uncertainty=0.2)
    human = replace(human, predicted_path=predict_human_path(g, human))
    print(f"human at {HUMAN_POS} heading to {HUMAN_GOAL}, predicted "
          f"walk: {' -> '.join(str(n) for n in human.predicted_path)}")

    original = max_success_path(g, ROBOT_START, ROBOT_GOAL)
    print(f"\nrobot plan {ROBOT_START} -> {ROBOT_GOAL} ignoring the human:")
    show("original", original)

    heat = build_heat_map(g, human, HeatParams())
    print(f"\nheat map covers {len(heat)} edges:")
    for key in sorted(heat):
        print(f"  edge {key[0]:>2}-{key[1]:<2} heat {heat[key]:.3f}")

    heated = apply_heat(g, heat)
    r_heated = path_from_nodes(heated, original.nodes).success_probability
    verdict = "keep" if r_heated >= THRESHOLD else "replan"
    print(f"\nsame route re-validated under heat: r = {r_heated:.4f} "
          f"-> {verdict} (threshold {THRESHOLD})")

    replanned = max_success_path(heated, ROBOT_START, ROBOT_GOAL)
    print("\ndetour chosen against the heated map:")
    show("replanned", replanned)
    shared = set(replanned.nodes) & set(human.predicted_path)
    print(f"  nodes shared with the human's walk: {sorted(shared) or 'none'}")


if __name__ == "__main__":
    main()
