"""The certificate validator as it was before validation was memoized by
clause value: one full replay per (related pair, concrete step).

Kept unchanged as the reference that tests compare validate_certificate
with, byte for byte, on valid and on broken certificates.
"""

from __future__ import annotations

from collections.abc import Sequence

from ltsim.lts import Action, Lts
from ltsim.simulation import MAX_DIAGNOSTICS, ProgressWitness, SimulationCertificate


def _run_from(lts: Lts, s: int, seq: Sequence[Action]) -> int | None:
    for a in seq:
        nxt = lts.step(s, a)
        if nxt is None:
            return None
        s = nxt
    return s


def reference_validate_certificate(
    cert: SimulationCertificate,
    witness: ProgressWitness | None,
    a1: Lts,
    a2: Lts,
) -> tuple[bool, list[str]]:
    """Replay every certificate clause; the trusted core of the package.

    Checks the initial pair and an alpha bound of at least 1, and for each
    related pair and concrete step: a recorded choice, an alpha within the
    bound, equal gamma projections, abstract replay to the recorded
    landing, landing membership, and rank descent on stutters.
    """
    problems: list[str] = []

    def report(msg: str) -> None:
        if len(problems) < MAX_DIAGNOSTICS:
            problems.append(msg)

    if (a1.initial, a2.initial) not in cert.relation:
        report("initial pair not in relation")
    if cert.alpha_bound < 1:
        report(f"alpha bound {cert.alpha_bound} is below 1")
    for s1, s2 in sorted(cert.relation):
        for a, s1n in a1.out_edges(s1):
            entry = cert.choice.get((s1, a, s2))
            if entry is None:
                report(f"no choice for ({s1}, {a.label()}, {s2})")
                continue
            if len(entry.alpha) > cert.alpha_bound:
                report(
                    f"alpha of length {len(entry.alpha)} exceeds the bound "
                    f"{cert.alpha_bound} at ({s1}, {a.label()}, {s2})"
                )
            if tuple(b for b in entry.alpha if b in cert.gamma) != (
                (a,) if a in cert.gamma else ()
            ):
                report(f"projection mismatch at ({s1}, {a.label()}, {s2})")
            landed = _run_from(a2, s2, entry.alpha)
            if landed is None:
                report(f"alpha does not replay at ({s1}, {a.label()}, {s2})")
                continue
            if landed != entry.target:
                report(
                    f"alpha lands in {landed}, recorded target {entry.target} "
                    f"at ({s1}, {a.label()}, {s2})"
                )
            if (s1n, entry.target) not in cert.relation:
                report(f"landing ({s1n}, {entry.target}) not in relation")
            if witness is not None and not entry.alpha:
                if witness.of(s1n) >= witness.of(s1):
                    report(
                        f"rank does not descend on stutter ({s1}, {a.label()}, {s1n}): "
                        f"{witness.of(s1)} -> {witness.of(s1n)}"
                    )
    return (not problems, problems)
