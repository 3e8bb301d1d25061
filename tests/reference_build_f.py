"""build_f as it was before it computed each concrete step's image once
per distinct (state, action, image state): every step of every concrete
node is mapped and replayed on its own.

Kept as the reference that tests compare build_f with: trees,
annotations, conflicts and the error raised.  Its changes since are
the type of the image tree's budget error, BudgetExceeded (a spent
bound) where it was ContractViolation, as in build_f, and reading a
child as a position in its tree's node_list.
"""

from __future__ import annotations

from ltsim.composition import ProductLts
from ltsim.errors import BudgetExceeded, ContractViolation
from ltsim.lts import Action, Trace, sort_actions
from ltsim.scheduler import Scheduler, TraceNode, TracePrefixTree, node_budget
from ltsim.simulation import SimulationCertificate
from ltsim.transform import MappedTraces, _fmt, mapping_m

from reference_walks import reference_enumerate_traces


def reference_build_f(
    prod1: ProductLts,
    s1: Scheduler,
    prod2: ProductLts,
    cert: SimulationCertificate,
    depth: int,
    budget: int | None = None,
) -> MappedTraces:
    """Map every bounded concrete trace to its abstract image.

    Walks the consistent traces of prod1 under s1 to the given depth;
    each step extends the image by the mapped sequence, replayed on
    prod2.  The empty trace maps to the empty trace.  The concrete idle
    action maps to the abstract idle when enabled at the image state
    and to the empty sequence otherwise.
    """
    for prod, name in ((prod1, "concrete"), (prod2, "abstract")):
        if not isinstance(prod, ProductLts):
            raise ContractViolation(f"{name} system is not a product")
    if prod1.alphabet.gamma_p != prod2.alphabet.gamma_p:
        raise ContractViolation("products disagree on program, call or return actions")

    limit = node_budget(budget)
    gamma_p = prod1.alphabet.gamma_p
    idle1 = prod1.alphabet.idle
    idle2 = prod2.alphabet.idle

    concrete = reference_enumerate_traces(prod1, s1, depth, budget=limit)
    image = TracePrefixTree(prod2.initial)
    mt = MappedTraces(concrete, image, prod1, prod2, cert, s1, depth)

    concrete.root.image = image.root

    def annotate(w: TraceNode, value: frozenset[Action]) -> None:
        prev = w.scheduled
        if prev is None:
            w.scheduled = value
        elif prev != value:
            mt.conflicts.append(
                f"image node {_fmt(w.trace())} scheduled as "
                f"{{{', '.join(a.label() for a in sort_actions(prev))}}} and "
                f"{{{', '.join(a.label() for a in sort_actions(value))}}}"
            )

    for u in concrete.nodes():
        if not u.children:
            continue
        v = u.image
        scheduled = frozenset(u.children)  # = s1 choices that are enabled
        for a, i in u.children.items():
            u2 = concrete.node_list[i]
            if a == idle1:
                alpha: Trace = (idle2,) if prod2.step(v.state, idle2) is not None else ()
            else:
                cs = prod1.part(u.state).obj
                as_ = prod2.part(v.state).obj
                alpha = mapping_m(cs, a, as_, cert)
            w = v
            for i, b in enumerate(alpha):
                annotate(w, scheduled if b in gamma_p else frozenset({b}))
                nxt_state = prod2.step(w.state, b)
                if nxt_state is None:
                    raise ContractViolation(
                        f"image of {_fmt(u2.trace())} does not replay: "
                        f"{b.label()} not enabled after {_fmt(w.trace())}"
                    )
                j = w.children.get(b)
                if j is None:
                    child = image.extend(w, b, nxt_state)
                    if image.size > limit:
                        raise BudgetExceeded(limit, f"image tree exceeded the node budget {limit}")
                else:
                    child = image.node_list[j]
                w = child
            u2.image = w
    return mt
