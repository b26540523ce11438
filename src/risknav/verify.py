"""Fixed-policy path validation via an absorbing Markov chain.

A planned path, executed under a retry-until-success-or-failure policy,
induces a chain with one transient state per path position plus two
absorbing states (done / dead).  The probability of reaching done has a
closed form, the product of each edge's effective success, which is the
same left-to-right product the planner accumulates along a path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import OutcomeProbs, effective_success
from .planner import max_success_path, path_from_nodes


@dataclass(frozen=True)
class FixedPolicyChain:
    """Absorbing chain of a path under the fixed retry policy.

    probs holds one OutcomeProbs per traversed edge; transient state i
    attempts edge i, state len(probs) is done, state len(probs)+1 is dead.
    """

    path: tuple
    probs: tuple

    def __post_init__(self):
        if not all(isinstance(p, OutcomeProbs) for p in self.probs):
            raise ValueError(f"chain of path {self.path}: every row must "
                             "be an OutcomeProbs")

    @property
    def done_index(self):
        return len(self.probs)

    @property
    def dead_index(self):
        return len(self.probs) + 1


def build_chain(g, nodes):
    """Chain for an explicit node sequence; every hop must be an edge of g."""
    path = path_from_nodes(g, nodes)  # validates hops
    probs = tuple(g.probs(g.edge(a, b))
                  for a, b in zip(path.nodes, path.nodes[1:]))
    return FixedPolicyChain(path.nodes, probs)


def evaluate_chain(chain):
    r"""Probability that the chain is absorbed in done.

    The retry self-loop at state i resolves geometrically, so

        P(done) = prod_i  p_success_i / (p_success_i + p_fail_i)

    accumulated left to right from 1.0, bit for bit the success_probability
    the planner gives the same path.  p_retry is never read: each row's sum
    was checked when its OutcomeProbs was built.
    """
    closed = 1.0
    for p in chain.probs:
        closed = closed * effective_success(p)
    return closed


def export_prism(chain, path_label):
    """Render the chain as a PRISM mdp model plus a companion property.

    Output is byte-stable for identical chains: probabilities are written
    with shortest round-trip repr and states are numbered along the path.
    Returns (model_text, props_text).
    """
    done, dead = chain.done_index, chain.dead_index
    lines = [
        f"// {path_label}",
        "// fixed-policy traversal of path " +
        " -> ".join(str(n) for n in chain.path),
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
    for i, p in enumerate(chain.probs):
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
    unreachable.  The planner accumulates the same left-to-right product
    that evaluate_chain returns, so the path's success_probability is its
    chain's value and no chain is rebuilt; no other candidate, the
    shortest-distance path included, can validate higher.
    """
    path = max_success_path(heated if heated is not None else g, start,
                            final)
    if path is None:
        return None, None
    return path, path.success_probability
