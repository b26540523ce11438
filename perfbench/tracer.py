"""Per-layer spans recorded from outside the risknav package.

A span wraps one public function.  The wrapper replaces every binding of
that function in the loaded ``risknav`` modules (``sim.order_tasks``,
``verify.evaluate_chain``, ``planner.max_success_path`` and so on), so
calls made between modules are timed where they cross a layer boundary.
Nothing in the package is edited; the wrappers live only in the process
that calls ``Tracer.install`` and are removed by ``uninstall``.

Each span keeps three numbers: calls, total (inclusive) nanoseconds and
self nanoseconds, the total minus the part covered by child spans.  A call
that re-enters the span it is already inside (the planner's heated
distance search calling itself on the base graph) counts as one call.
``EnvironmentGraph.check_node`` runs millions of times per sweep, so it is
only counted; its time stays in its caller's self time.

A wrapper draws no random numbers and passes arguments and results through
untouched, so traced outputs are byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_now = time.perf_counter_ns

# span name -> (module, attribute) of the function it wraps
SPANS = {
    "cli.main": ("cli", "main"),
    "env.load_default_environment": ("env", "load_default_environment"),
    "env.load_default_mission": ("env", "load_default_mission"),
    "planner.order_tasks": ("planner", "order_tasks"),
    "planner.max_success_path": ("planner", "max_success_path"),
    "planner.shortest_distance_path": ("planner", "shortest_distance_path"),
    "verify.plan_validated_path": ("verify", "plan_validated_path"),
    "verify.evaluate_chain": ("verify", "evaluate_chain"),
    "human.predict_human_path": ("human", "predict_human_path"),
    "human.step_human": ("human", "step_human"),
    "human.build_heat_map": ("human", "build_heat_map"),
    "human.apply_heat": ("human", "apply_heat"),
    "sim.run_episode": ("sim", "run_episode"),
    "sim.run_sweep": ("sim", "run_sweep"),
}

# Sweep workers run chunks through this private name; wrapping it lets a
# forked worker reset the tracer it inherited and save what it recorded.
WORKER_ENTRY = ("sim", "_sweep_chunk")


class Tracer:
    def __init__(self, dump_dir=None):
        self.stats = {name: [0, 0, 0] for name in SPANS}
        self.check_node_calls = [0]
        self.ticks = [0]
        # stack of [span name, child ns]; the root frame collects the time
        # covered by top-level spans
        self.stack = [[None, 0]]
        self.dump_dir = dump_dir
        self.missing = []
        self._pid = os.getpid()
        self._undo = []

    # -- recording --------------------------------------------------------

    def _span(self, name, fn):
        stats = self.stats[name]
        stack = self.stack
        ticks = self.ticks if name == "sim.run_episode" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _now() - t0
                stack.pop()
                stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
            if ticks is not None:
                ticks[0] += result.steps
            return result
        return span

    def _counter(self, fn):
        cell = self.check_node_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _worker_entry(self, fn):
        @functools.wraps(fn)
        def chunk(*args, **kwargs):
            if os.getpid() != self._pid:
                self._pid = os.getpid()
                self.reset()
            try:
                return fn(*args, **kwargs)
            finally:
                self._dump()
        return chunk

    def reset(self):
        for s in self.stats.values():
            s[:] = [0, 0, 0]
        self.check_node_calls[0] = 0
        self.ticks[0] = 0
        del self.stack[1:]
        self.stack[0][1] = 0

    def _dump(self):
        if self.dump_dir is None:
            return
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)

    # -- installing -------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "risknav" and not modname.startswith("risknav."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import risknav.cli  # noqa: F401  (loads every layer)
        mods = {name: sys.modules[f"risknav.{name}"]
                for name in ("cli", "env", "planner", "verify", "human",
                             "sim")}
        for name, (mod, attr) in SPANS.items():
            orig = getattr(mods[mod], attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            self._rebind(orig, self._span(name, orig))
        mod, attr = WORKER_ENTRY
        orig = getattr(mods[mod], attr, None)
        if orig is not None and self.dump_dir is not None:
            self._rebind(orig, self._worker_entry(orig))
        cls = mods["env"].EnvironmentGraph
        orig = cls.__dict__["check_node"]
        cls.check_node = self._counter(orig)
        self._undo.append((cls, "check_node", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "check_node_calls": self.check_node_calls[0],
                "ticks": self.ticks[0],
                "covered_ns": self.stack[0][1]}

    def merge_worker_dumps(self):
        """Add the spans saved by forked sweep workers; returns how many
        workers reported."""
        if self.dump_dir is None:
            return 0
        found = 0
        for entry in sorted(os.listdir(self.dump_dir)):
            if not entry.endswith(".json"):
                continue
            with open(os.path.join(self.dump_dir, entry),
                      encoding="utf-8") as fh:
                snap = json.load(fh)
            for name, vals in snap["stats"].items():
                if name in self.stats:
                    for i, v in enumerate(vals):
                        self.stats[name][i] += v
            self.check_node_calls[0] += snap["check_node_calls"]
            self.ticks[0] += snap["ticks"]
            found += 1
        return found


def layer_metrics(snap, ops):
    """Per-layer metrics of one traced run over ``ops`` episodes or
    queries; a metric whose layer did no work reads 0."""
    stats = snap["stats"]

    def calls(name):
        return stats[name][0]

    def per_call(name, idx, scale):
        c = stats[name][0]
        return stats[name][idx] / c / scale if c else 0.0

    def per_op(name):
        return calls(name) / ops

    ticks = snap["ticks"]
    episodes = calls("sim.run_episode")
    loads = calls("env.load_default_environment")
    load_ns = (stats["env.load_default_environment"][1]
               + stats["env.load_default_mission"][1])
    return {
        "planner.order_tasks.calls": (calls("planner.order_tasks"), "count"),
        "planner.order_tasks.ms_per_call":
            (per_call("planner.order_tasks", 1, 1e6), "ms"),
        "verify.plan_validated_path.calls_per_op":
            (per_op("verify.plan_validated_path"), "count/op"),
        "verify.plan_validated_path.us_per_call":
            (per_call("verify.plan_validated_path", 1, 1e3), "us"),
        "verify.plan_validated_path.self_us_per_call":
            (per_call("verify.plan_validated_path", 2, 1e3), "us"),
        "verify.evaluate_chain.calls_per_op":
            (per_op("verify.evaluate_chain"), "count/op"),
        "verify.evaluate_chain.us_per_call":
            (per_call("verify.evaluate_chain", 1, 1e3), "us"),
        "planner.max_success_path.calls_per_op":
            (per_op("planner.max_success_path"), "count/op"),
        "planner.max_success_path.us_per_call":
            (per_call("planner.max_success_path", 1, 1e3), "us"),
        "planner.shortest_distance_path.calls_per_op":
            (per_op("planner.shortest_distance_path"), "count/op"),
        "planner.shortest_distance_path.us_per_call":
            (per_call("planner.shortest_distance_path", 1, 1e3), "us"),
        "human.step_human.us_per_call":
            (per_call("human.step_human", 1, 1e3), "us"),
        "human.build_heat_map.us_per_call":
            (per_call("human.build_heat_map", 1, 1e3), "us"),
        "human.apply_heat.calls_per_op":
            (per_op("human.apply_heat"), "count/op"),
        "human.apply_heat.us_per_call":
            (per_call("human.apply_heat", 1, 1e3), "us"),
        "sim.run_episode.ticks_per_episode":
            (ticks / episodes if episodes else 0.0, "ticks/episode"),
        "sim.run_episode.us_per_tick":
            (stats["sim.run_episode"][1] / ticks / 1e3 if ticks else 0.0,
             "us"),
        "sim.run_episode.self_us_per_tick":
            (stats["sim.run_episode"][2] / ticks / 1e3 if ticks else 0.0,
             "us"),
        "sim.path_cache.miss_ratio":
            (calls("verify.plan_validated_path") / ticks if ticks else 0.0,
             "ratio"),
        "sim.run_sweep.self_ms": (per_call("sim.run_sweep", 2, 1e6), "ms"),
        "env.load.ms": (load_ns / loads / 1e6 if loads else 0.0, "ms"),
        "env.check_node.calls_per_op":
            (snap["check_node_calls"] / ops, "count/op"),
        "cli.main.ms_per_call": (per_call("cli.main", 1, 1e6), "ms"),
        "cli.main.self_ms_per_call": (per_call("cli.main", 2, 1e6), "ms"),
    }


def self_time_by_layer(snap):
    """Self nanoseconds summed per module prefix (env, planner, ...)."""
    out = {}
    for name, (_, _, self_ns) in snap["stats"].items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + self_ns
    return out
