"""Fixed-policy path validation via an absorbing Markov chain.

A planned path, executed under a retry-until-success-or-failure policy,
induces a chain with one transient state per path position plus two
absorbing states (done / dead).  The probability of reaching done is both
computed in closed form and re-derived by back-substitution through the
linear absorption system; the two must agree to near machine precision on
every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .env import effective_success
from .planner import max_success_path, path_from_nodes

AGREEMENT_TOL = 1e-12


@dataclass(frozen=True)
class FixedPolicyChain:
    """Absorbing chain of a path under the fixed retry policy.

    probs holds one OutcomeProbs per traversed edge; transient state i
    attempts edge i, state len(probs) is done, state len(probs)+1 is dead.
    """

    path: tuple
    probs: tuple

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

    Closed form: the retry self-loop at state i resolves geometrically, so

        P(done) = prod_i  p_success_i / (p_success_i + p_fail_i)

    The same value is recomputed by solving the absorption system
    (I - Q) b = r, where Q is the transient-to-transient block and r the
    one-step absorption column into done.  I - Q is upper bidiagonal, so
    back-substitution from the last edge, b_i = p_success_i * b_(i+1) /
    (1 - p_retry_i), is the whole solve, in the same operations a dense LU
    solve performs.  A disagreement beyond 1e-12 means the chain is
    corrupt, and raises ArithmeticError.
    """
    closed = 1.0
    for p in chain.probs:
        closed = closed * effective_success(p)

    linear = 1.0
    try:
        for p in reversed(chain.probs):
            linear = p.p_success * linear / (1.0 - p.p_retry)
    except ZeroDivisionError:
        # p_retry == 1.0, which the risk-table parser admits within its
        # sum tolerance: an edge the robot can neither cross nor fail
        raise ValueError(
            f"absorption system is singular for path {chain.path}") from None

    if abs(closed - linear) > AGREEMENT_TOL:
        raise ArithmeticError(
            f"closed form {closed!r} and linear solve {linear!r} disagree "
            f"for path {chain.path}")
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
    """Plan the maximum-success path and validate its chain.

    Planning and validation run on the heat overlay when one is given,
    otherwise on g.  Returns (path, validated_probability), or (None, None)
    when final is unreachable.  The planner maximises the same left-to-right
    product that evaluate_chain returns, so no other candidate, the
    shortest-distance path included, can validate higher.
    """
    query = heated if heated is not None else g
    path = max_success_path(query, start, final)
    if path is None:
        return None, None
    return path, evaluate_chain(build_chain(query, path.nodes))
