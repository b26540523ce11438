"""Command-line frontend: planning, validation, model export, simulation.

Five subcommands: plan, validate, export-prism, simulate, sweep.  Exit
codes are 0 for success, 1 for malformed input or one too large for
memory, 2 when the domain has no solution (no path, or a missing edge).
simulate and sweep emit machine-parseable CSV on standard output;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

from .env import _environment_or_default, _mission_or_default
from .human import HeatParams, _predicted, apply_heat, build_heat_map
from .planner import (UnreachableNodeError, check_reachable,
                      max_success_path, path_from_nodes,
                      shortest_distance_path)
from .sim import (EpisodeConfig, load_sweep_config, read_sweep_config,
                  run_episode, run_sweep, summarize)
from .verify import export_prism

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_SOLUTION = 2

EPISODE_CSV_HEADER = "success,failure_cause,steps,redirects,final_node"


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, so they exit 1 rather than
    # argparse's default 2 (reserved here for domain no-solution)
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _parse_human(g, text):
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"--human {text!r}: expected POSITION,GOAL[,UNCERTAINTY]")
    try:
        pos = int(parts[0])
        goal = int(parts[1])
        u = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise ValueError(
            f"--human {text!r}: fields must be numeric") from None
    return _predicted(g, pos, goal, u)


def _levels_arg(text):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r}: comma-separated numbers required") from None


def _write_atomic(path, text):
    # temp-and-rename so a failed run never leaves a partial file behind
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt_nodes(nodes):
    return " -> ".join(str(n) for n in nodes)


def cmd_plan(args):
    g = _environment_or_default(args.env)
    start = g.check_node(args.start)
    goal = g.check_node(args.goal)

    query = g
    if args.human is not None:
        human = _parse_human(g, args.human)
        print(f"human predicted: {_fmt_nodes(human.predicted_path)}")
        query = apply_heat(g, build_heat_map(g, human, HeatParams()))

    picked = max_success_path(query, start, goal)
    if picked is None:
        raise UnreachableNodeError(f"no path from {start} to {goal}")
    # the distance path is planned for the comparison line only; like the
    # probability path, it carries its chain's closed form
    dist_path = shortest_distance_path(query, start, goal)

    print(f"distance path:    {_fmt_nodes(dist_path.nodes)}  "
          f"(distance {dist_path.total_distance:.2f}, "
          f"r_dist {dist_path.success_probability:.6f})")
    print(f"probability path: {_fmt_nodes(picked.nodes)}  "
          f"(distance {picked.total_distance:.2f}, "
          f"r_prob {picked.success_probability:.6f})")
    print(f"selected:         {_fmt_nodes(picked.nodes)}")
    return EXIT_OK


def cmd_validate(args):
    path = path_from_nodes(_environment_or_default(args.env), args.nodes)
    print(f"path:      {_fmt_nodes(path.nodes)}")
    print(f"validated: {path.success_probability!r}")
    return EXIT_OK


def cmd_export_prism(args):
    g = _environment_or_default(args.env)
    label = "path " + "-".join(str(n) for n in args.nodes)
    model, props = export_prism(g, args.nodes, label)
    _write_atomic(args.out + ".nm", model)
    _write_atomic(args.out + ".props", props)
    print(f"wrote {args.out}.nm and {args.out}.props", file=sys.stderr)
    print(repr(path_from_nodes(g, args.nodes).success_probability))
    return EXIT_OK


def cmd_simulate(args):
    g = _environment_or_default(args.env)
    mission = _mission_or_default(args.mission, g)
    check_reachable(g, mission)
    cfg = EpisodeConfig(g, mission, HeatParams(), args.uncertainty,
                        args.seed)
    out = run_episode(cfg)
    print(EPISODE_CSV_HEADER)
    print(f"{int(out.success)},{out.failure_cause or ''},{out.steps},"
          f"{out.redirects},{out.final_robot_node}")
    return EXIT_OK


def cmd_sweep(args):
    # flags overlay the configuration document, and load_sweep_config
    # fills in whatever neither of them sets
    doc = {} if args.config is None else read_sweep_config(args.config)
    flags = {"environment": args.env, "mission": args.mission,
             "seed": args.seed, "levels": args.levels,
             "episodes_per_level": args.episodes, "workers": args.workers}
    doc.update({k: v for k, v in flags.items() if v is not None})
    settings = load_sweep_config(doc)
    report = run_sweep(settings.base, settings.levels,
                       settings.episodes_per_level, settings.workers)
    text = summarize(report)
    if args.out is not None:
        _write_atomic(args.out, text)
        print(f"wrote {args.out}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="risknav",
        description="Adaptive path planning on risk-classed graphs with "
                    "human-aware replanning and Monte-Carlo evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan",
                       help="plan start -> goal and validate both candidates")
    p.add_argument("start", type=int)
    p.add_argument("goal", type=int)
    p.add_argument("--env", metavar="FILE",
                   help="environment JSON (default: bundled)")
    p.add_argument("--human", metavar="POS,GOAL[,U]",
                   help="plan against the heat of this predicted human")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("validate",
                       help="validated probability of an explicit path")
    p.add_argument("nodes", type=int, nargs="+")
    p.add_argument("--env", metavar="FILE")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-prism",
                       help="write model/property files for an explicit path")
    p.add_argument("nodes", type=int, nargs="+")
    p.add_argument("--env", metavar="FILE")
    p.add_argument("--out", metavar="PREFIX", required=True,
                   help="output prefix; writes PREFIX.nm and PREFIX.props")
    p.set_defaults(func=cmd_export_prism)

    p = sub.add_parser("simulate", help="run one mission episode")
    p.add_argument("--env", metavar="FILE")
    p.add_argument("--mission", metavar="FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--uncertainty", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="Monte-Carlo uncertainty sweep")
    p.add_argument("--config", metavar="FILE",
                   help="sweep configuration JSON")
    p.add_argument("--env", metavar="FILE")
    p.add_argument("--mission", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--episodes", type=int, metavar="N",
                   help="episodes per uncertainty level")
    p.add_argument("--levels", type=_levels_arg, metavar="U0,U1,...")
    p.add_argument("--workers", type=int)
    p.add_argument("--out", metavar="FILE", help="also write the CSV here")
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser():
    # built on the first call, not at import; parse_args keeps no state
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnreachableNodeError, RuntimeError) as exc:
        # the only exit 2: no path joins the endpoints, a node sequence
        # misses a hop, a possible start cannot reach a waypoint, or an
        # episode ran past the tick guard
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
