"""Exception types shared across the toolkit."""

from __future__ import annotations


class LtsimError(Exception):
    """Base class for all toolkit errors."""


class ModelError(LtsimError):
    """Structurally invalid model (bad state index, overlapping alphabet, ...)."""


class ParseError(LtsimError):
    """Malformed model or scheduler file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class StepNotEnabled(LtsimError):
    """A replayed trace contains a step that is not enabled."""

    def __init__(self, position: int, action, state: int):
        super().__init__(f"action {action} at position {position} not enabled in state {state}")
        self.position = position
        self.action = action
        self.state = state


class AlphabetMismatch(LtsimError):
    """Call/return alphabets disagree between a program and an object."""

    def __init__(self, action, detail: str):
        super().__init__(f"alphabet mismatch on {action}: {detail}")
        self.action = action


class BudgetExceeded(LtsimError):
    """An exploration exceeded its configured node budget."""

    def __init__(self, budget: int, message: str | None = None):
        super().__init__(message or f"node budget of {budget} exceeded")
        self.budget = budget


class DepthExhausted(LtsimError):
    """A query ran past the construction depth of a bounded structure."""

    def __init__(self, needed: int, have: int):
        super().__init__(f"query needs construction depth >= {needed}, built to {have}")
        self.needed = needed
        self.have = have


class ContractViolation(LtsimError):
    """A precondition on related states or certificates was violated."""
