"""CPL: a typed join-calculus core language for cloud-style deployments.

Toolchain layers: core terms and types (`cpl.core`), concrete syntax
(`cpl.parser`), derived-form lowering (`cpl.desugar`), the kernel-style
typechecker (`cpl.typecheck`), the deterministic small-step machine
(`cpl.machine`), the concurrent runtime (`cpl.runtime`), and the CLI
(`cpl.cli`). CPL-source combinators live under `cpl/stdlib`.

A layer is imported when one of its names is first used (PEP 562), so
`import cpl` imports no layer and checking a program imports neither engine.
"""

import importlib

# Each layer and the public names it defines.
_EXPORTS = {
    "builtins": (),
    "core": (
        "Addr",
        "Address",
        "BaseLit",
        "BaseOp",
        "Expr",
        "Image",
        "JoinPattern",
        "MessageValue",
        "Par",
        "Placement",
        "ReactionRule",
        "Repl",
        "Request",
        "ServerTemplate",
        "ServiceRef",
        "Snap",
        "Spwn",
        "This",
        "TypeAbs",
        "TypeApp",
        "TypeExpr",
        "Var",
        "ZeroImage",
        "alpha_eq",
        "free_type_vars",
        "free_vars",
        "is_value",
        "substitute",
        "substitute_type",
    ),
    "desugar": ("cps_transform", "desugar_program"),
    "errors": ("CplError", "DesugarError", "ParseError"),
    "machine": (
        "Config",
        "Policy",
        "deterministic",
        "enumerate_matches",
        "enumerate_reachable",
        "initial_config",
        "match_patterns",
        "run",
        "step",
    ),
    "parser": ("parse", "parse_expr"),
    "pretty": ("pretty_expr", "pretty_print", "pretty_type"),
    "runtime": ("Runtime", "boot"),
    "toolchain": ("load_program", "run_concurrent", "run_smallstep"),
    "typecheck": (
        "TypeCheckError",
        "TypeContext",
        "check_routing_table",
        "server_type_union",
        "subtype",
        "type_of",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
