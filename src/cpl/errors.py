"""Exception types shared across the toolchain."""

from __future__ import annotations

from .frozen import frozen


@frozen
class Loc:
    """Source position (1-based line and column)."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class CplError(Exception):
    """Base for all toolchain errors."""


class ParseError(CplError):
    def __init__(self, msg: str, loc: Loc | None = None):
        super().__init__(f"{loc}: {msg}" if loc else msg)
        self.msg = msg
        self.loc = loc


class DesugarError(CplError):
    def __init__(self, msg: str, loc: Loc | None = None):
        super().__init__(f"{loc}: {msg}" if loc else msg)
        self.msg = msg
        self.loc = loc


class LinearityError(CplError):
    """A reaction rule binds the same parameter name in two patterns."""


class MachineError(CplError):
    """Runtime fault in either engine (bad base-op operands, stuck redex)."""


class StuckError(MachineError):
    """A genuinely ill-formed redex, distinct from quiescence."""


class ExplosionError(CplError):
    """Bounded state-space exploration exceeded its configured cap."""
