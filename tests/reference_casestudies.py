"""The FAA model builders as they were before one interleaving engine
built all three: each state a semantic tuple, each builder its own
`steps` and `label` closures, and `_closure` the breadth-first search.

Kept unchanged as the reference that tests compare the builders with,
except that each builder is named reference_<name>.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from ltsim.casestudies import FaaConfig, _assigns, _calls, _returns
from ltsim.errors import ModelError
from ltsim.lts import Action, ActionKind, Alphabet, Lts, _idle_completed, action

_CALL, _RETURN, _PROGRAM, _INTERNAL = (
    ActionKind.CALL, ActionKind.RETURN, ActionKind.PROGRAM, ActionKind.INTERNAL
)


def _points(cfg: FaaConfig, points: tuple[tuple, ...]) -> str:
    """State-label part per thread: `t<id>:<point>`, then `(<value>)` if any."""
    return " ".join(
        f"t{t}:{p[0]}" + (f"({p[1]})" if len(p) > 1 else "")
        for t, p in zip(cfg.threads, points)
    )


def _closure(
    alphabet: Alphabet,
    initial: Hashable,
    steps: Callable[[Hashable], Iterator[tuple[Action, Hashable]]],
    label: Callable[[Hashable], str],
) -> Lts:
    """Breadth-first build from a semantic initial state: states are
    numbered in order of discovery and labelled once, and each state with
    no step gets an idle self-loop."""
    index = {initial: 0}
    states = [initial]
    rows: list[dict[Action, int]] = []
    for st in states:  # grows as the search discovers states
        row: dict[Action, int] = {}
        for a, nxt in steps(st):
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(states)
                states.append(nxt)
            if row.setdefault(a, t) != t:
                raise ModelError(
                    f"duplicate transition ({label(st)!r}, {a.label()}) with two successors"
                )
        rows.append(row)
    labels = [label(st) for st in states]
    return Lts._from_rows(alphabet, 0, _idle_completed(rows), labels)


def reference_build_faa_impl(cfg: FaaConfig) -> Lts:
    """Counter looping load-link / store-conditional until the store lands.

    Thread control points: pre (not called), f2 (about to load-link),
    f3(n) (loaded n, about to try the store), f4(n) (store landed, will
    return n), done.  The invalidating variant gives the link to the
    most recent load-link and fails any store by a non-holder; the
    plain variant fails a store only when the counter moved since the
    load.
    """
    invalidating = cfg.variant == "invalidating"
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            action(name, _INTERNAL, thread=t)
            for t in cfg.threads
            for name in ("ll", "sc-ok", "sc-fail")
        ),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        counter, link, pcs = st
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            pc = pcs[i]

            def at(new_pc: tuple, new_counter: int = counter, new_link: int = link) -> tuple:
                return (new_counter, new_link, pcs[:i] + (new_pc,) + pcs[i + 1:])

            if pc == ("pre",):
                yield action("call", _CALL, t, k), at(("f2",))
            elif pc == ("f2",):
                yield (
                    action("ll", _INTERNAL, t),
                    at(("f3", counter), new_link=t if invalidating else link),
                )
            elif pc[0] == "f3":
                n = pc[1]
                if (link == t) if invalidating else (counter == n):
                    yield (
                        action("sc-ok", _INTERNAL, t),
                        at(("f4", n), new_counter=n + k, new_link=0 if invalidating else link),
                    )
                else:
                    yield action("sc-fail", _INTERNAL, t), at(("f2",))
            elif pc[0] == "f4":
                yield action("ret", _RETURN, t, pc[1]), at(("done",))

    def label(st: tuple) -> str:
        counter, link, pcs = st
        owner = f" link={link}" if invalidating else ""
        return f"n={counter}{owner} {_points(cfg, pcs)}"

    initial = (0, 0, tuple(("pre",) for _ in cfg.threads))
    return _closure(alphabet, initial, steps, label)


def reference_build_faa_spec(cfg: FaaConfig) -> Lts:
    """Atomic counter: each operation takes effect in one internal step.

    The internal action carries the value the operation fetched, which
    the later return repeats.
    """
    alphabet = Alphabet(
        program=frozenset(),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(
            action("lin", _INTERNAL, thread=t, payload=v)
            for t in cfg.threads
            for v in range(cfg.total + 1)
        ),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        counter, sts = st
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            here = sts[i]

            def at(new_st: tuple, new_counter: int = counter) -> tuple:
                return (new_counter, sts[:i] + (new_st,) + sts[i + 1:])

            if here == ("pre",):
                yield action("call", _CALL, t, k), at(("called",))
            elif here == ("called",):
                yield (
                    action("lin", _INTERNAL, t, counter),
                    at(("lin", counter), new_counter=counter + k),
                )
            elif here[0] == "lin":
                yield action("ret", _RETURN, t, here[1]), at(("done",))

    def label(st: tuple) -> str:
        counter, sts = st
        return f"n={counter} {_points(cfg, sts)}"

    initial = (0, tuple(("pre",) for _ in cfg.threads))
    return _closure(alphabet, initial, steps, label)


def reference_build_program(cfg: FaaConfig) -> Lts:
    """Client that calls once per thread and assigns the fetched value.

    Per thread: call, wait for the return, assign the returned value to
    a thread-local, stop.  Threads interleave freely.
    """
    alphabet = Alphabet(
        program=_assigns(cfg),
        calls=_calls(cfg),
        returns=_returns(cfg),
        internal=frozenset(),
    )

    def steps(st: tuple) -> Iterator[tuple[Action, tuple]]:
        for i, (t, k) in enumerate(zip(cfg.threads, cfg.addends)):
            here = st[i]

            def at(new_st: tuple) -> tuple:
                return st[:i] + (new_st,) + st[i + 1:]

            if here == ("ready",):
                yield action("call", _CALL, t, k), at(("wait",))
            elif here == ("wait",):
                for v in range(cfg.total + 1):
                    yield action("ret", _RETURN, t, v), at(("got", v))
            elif here[0] == "got":
                yield action("assign", _PROGRAM, t, here[1]), at(("done",))

    initial = tuple(("ready",) for _ in cfg.threads)
    return _closure(alphabet, initial, steps, lambda st: _points(cfg, st))
