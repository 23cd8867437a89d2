"""CPL: a typed join-calculus core language for cloud-style deployments.

Toolchain layers: core terms and types (`cpl.core`), concrete syntax
(`cpl.parser`), derived-form lowering (`cpl.desugar`), the kernel-style
typechecker (`cpl.typecheck`), the deterministic small-step machine
(`cpl.machine`), the concurrent runtime (`cpl.runtime`), and the CLI
(`cpl.cli`). CPL-source combinators live under `cpl/stdlib`.
"""

from .core import (
    Addr,
    Address,
    BaseLit,
    BaseOp,
    Expr,
    Image,
    JoinPattern,
    MessageValue,
    Par,
    Placement,
    ReactionRule,
    Repl,
    Request,
    ServerTemplate,
    ServiceRef,
    Snap,
    Spwn,
    This,
    TypeAbs,
    TypeApp,
    TypeExpr,
    Var,
    ZeroImage,
    alpha_eq,
    free_type_vars,
    free_vars,
    is_value,
    substitute,
    substitute_type,
)
from .desugar import cps_transform, desugar_program
from .errors import CplError, DesugarError, ParseError
from .machine import (
    Config,
    Policy,
    deterministic,
    enumerate_matches,
    enumerate_reachable,
    initial_config,
    match_patterns,
    run,
    step,
)
from .parser import parse, parse_expr
from .pretty import pretty_expr, pretty_print, pretty_type
from .runtime import Runtime, boot
from .toolchain import load_program, run_concurrent, run_smallstep
from .typecheck import (
    TypeCheckError,
    TypeContext,
    check_routing_table,
    server_type_union,
    subtype,
    type_of,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
