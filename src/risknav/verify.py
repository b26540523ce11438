"""Fixed-policy path validation and its PRISM export.

A planned path, executed under a retry-until-success-or-failure policy,
is an absorbing Markov chain with one transient state per path position
plus two absorbing states (done / dead).  The probability of reaching
done has a closed form, the product of each edge's effective success:
the path's own success_probability, which path_from_nodes and the
planners accumulate left to right.  export_prism renders the chain for a
model checker to confirm that value.
"""

from __future__ import annotations

from .planner import max_success_path, path_from_nodes


def export_prism(g, nodes, path_label):
    """Render the chain of the node sequence on g as a PRISM mdp model
    plus a companion property.

    Transient state i attempts the hop nodes[i] -> nodes[i + 1] with that
    edge's row on g; state len(nodes) - 1 is done and the state after it
    dead.  The hops are checked first, as path_from_nodes checks them.
    Output is byte-stable: probabilities are written with shortest
    round-trip repr and states are numbered along the path.  Returns
    (model_text, props_text).
    """
    nodes = path_from_nodes(g, nodes).nodes  # validates hops
    done, dead = len(nodes) - 1, len(nodes)
    lines = [
        f"// {path_label}",
        "// fixed-policy traversal of path " +
        " -> ".join(str(n) for n in nodes),
        "",
        "mdp",
        "",
        f"const int final = {done};",
        "",
        "module path_traversal",
        "",
        f"    state : [0..{dead}] init 0;",
        "",
    ]
    for i, (a, b) in enumerate(zip(nodes, nodes[1:])):
        p = g.probs(g.edge(a, b))
        lines.append(
            f"    [] state={i} -> {p.p_success!r}:(state'={i + 1})"
            f" + {p.p_retry!r}:(state'={i})"
            f" + {p.p_fail!r}:(state'={dead});")
    lines += [
        f"    [] state={done} -> 1:(state'={done});",
        f"    [] state={dead} -> 1:(state'={dead});",
        "",
        "endmodule",
        "",
        "label \"end\" = state=final;",
        "",
    ]
    model = "\n".join(lines)
    props = (f"// {path_label}\n"
             "Pmax=? [ F (\"end\" & state=final) ]\n")
    return model, props


def plan_validated_path(g, start, final, heated=None):
    """Plan the maximum-success path and return its validated probability.

    Planning runs on the heat overlay when one is given, otherwise on g.
    Returns (path, validated_probability), or (None, None) when final is
    unreachable.  The validated probability is the path's own
    success_probability, the closed form of its chain; no other candidate,
    the shortest-distance path included, can validate higher.
    """
    path = max_success_path(heated if heated is not None else g, start,
                            final)
    if path is None:
        return None, None
    return path, path.success_probability
