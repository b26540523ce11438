"""Walkthrough of a single conflict-and-replan cycle.

A human walks from the living area toward bedroom B while the robot
needs to cross the same centre corridor.  The script shows the heat map
built from the predicted walk, the validated probability of the original
route collapsing under that heat, and the detour the planner takes
instead.

Run:  python3 demos/replan_walkthrough.py
"""

from dataclasses import replace

from risknav import (HeatParams, HumanState, apply_heat, build_chain,
                     build_heat_map, evaluate_chain,
                     load_default_environment, plan_validated_path,
                     predict_human_path)

ROBOT_START, ROBOT_GOAL = 25, 17
HUMAN_POS, HUMAN_GOAL = 15, 6
THRESHOLD = 0.9


def show(tag, path, r):
    route = " -> ".join(str(n) for n in path.nodes)
    print(f"  {tag:<10} {route}  (distance {path.total_distance:.2f}m, "
          f"validated r = {r:.4f})")


def main():
    g = load_default_environment()

    human = HumanState(HUMAN_POS, HUMAN_GOAL, uncertainty=0.2)
    human = replace(human, predicted_path=predict_human_path(g, human))
    print(f"human at {HUMAN_POS} heading to {HUMAN_GOAL}, predicted "
          f"walk: {' -> '.join(str(n) for n in human.predicted_path)}")

    original, r_original = plan_validated_path(g, ROBOT_START, ROBOT_GOAL)
    print(f"\nrobot plan {ROBOT_START} -> {ROBOT_GOAL} ignoring the human:")
    show("original", original, r_original)

    heat = build_heat_map(g, human, HeatParams())
    print(f"\nheat map covers {len(heat)} edges:")
    for key in sorted(heat):
        print(f"  edge {key[0]:>2}-{key[1]:<2} heat {heat[key]:.3f}")

    heated = apply_heat(g, heat)
    r_heated = evaluate_chain(build_chain(heated, original.nodes))
    verdict = "keep" if r_heated >= THRESHOLD else "replan"
    print(f"\nsame route re-validated under heat: r = {r_heated:.4f} "
          f"-> {verdict} (threshold {THRESHOLD})")

    replanned, r_replanned = plan_validated_path(
        g, ROBOT_START, ROBOT_GOAL, heated=heated)
    print("\ndetour chosen against the heated map:")
    show("replanned", replanned, r_replanned)
    shared = set(replanned.nodes) & set(human.predicted_path)
    print(f"  nodes shared with the human's walk: {sorted(shared) or 'none'}")


if __name__ == "__main__":
    main()
