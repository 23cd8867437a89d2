"""The `cpl` package surface: its public names, where each one comes from,
the names other modules re-export, and the layers each command imports.
Each check runs in a fresh interpreter, so no other test has imported a
layer before it."""

import textwrap

from conftest import fresh_interpreter

PUBLIC = [
    "Addr", "Address", "BaseLit", "BaseOp", "Config", "CplError", "DesugarError", "Expr",
    "Image", "JoinPattern", "MessageValue", "Par", "ParseError", "Placement", "Policy",
    "ReactionRule", "Repl", "Request", "Runtime", "ServerTemplate", "ServiceRef", "Snap",
    "Spwn", "This", "TypeAbs", "TypeApp", "TypeCheckError", "TypeContext", "TypeExpr",
    "Var", "ZeroImage", "alpha_eq", "boot", "builtins", "check_routing_table", "core",
    "cps_transform", "desugar", "desugar_program", "deterministic", "enumerate_matches",
    "enumerate_reachable", "errors", "free_type_vars", "free_vars", "initial_config",
    "is_value", "load_program", "machine", "match_patterns", "parse", "parse_expr",
    "parser", "pretty", "pretty_expr", "pretty_print", "pretty_type", "run",
    "run_concurrent", "run_smallstep", "runtime", "server_type_union", "step",
    "substitute", "substitute_type", "subtype", "toolchain", "type_of", "typecheck",
]


def run_fresh(script: str) -> None:
    """Run `script` in a new interpreter that imports `cpl` from this
    checkout; fail with its stderr if it fails."""
    code, _, err = fresh_interpreter("-c", textwrap.dedent(script))
    assert code == 0, err


def test_all_lists_the_public_names():
    run_fresh(f"""
        import cpl
        assert cpl.__all__ == {PUBLIC!r}, cpl.__all__
    """)


def test_every_public_name_is_its_defining_modules_object():
    run_fresh(f"""
        import importlib, sys, types
        import cpl
        for name in {PUBLIC!r}:
            obj = getattr(cpl, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules["cpl." + name], name
            else:
                assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    """)


def test_dir_and_star_import_give_every_public_name():
    run_fresh(f"""
        import cpl
        public = {PUBLIC!r}
        assert set(public) <= set(dir(cpl)), sorted(set(public) - set(dir(cpl)))
        ns = {{}}
        exec("from cpl import *", ns)
        for name in public:
            assert ns[name] is getattr(cpl, name), name
    """)


def test_reexported_helpers_still_import():
    run_fresh("""
        from cpl.core import BaseLit, Var
        from cpl.runtime import value_to_json
        from cpl.toolchain import wire_observers
        assert value_to_json(BaseLit(1)) == 1
        assert wire_observers(Var("x")) == Var("x")
    """)


def test_check_and_desugar_import_neither_engine():
    run_fresh("""
        import sys
        import cpl

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("cpl."))

        assert loaded() == [], loaded()
        from cpl.cli import main
        from cpl.toolchain import example_path

        fact = example_path("fact.cpl")
        engines = ["cpl.machine", "cpl.runtime"]
        for argv in (["check", fact], ["desugar", fact], ["desugar", fact, "--prelude"]):
            assert main(argv) == 0
            assert not set(engines) & set(loaded()), (argv, loaded())
        assert main(["run", fact]) == 0
        assert "cpl.machine" in loaded() and "cpl.runtime" not in loaded(), loaded()
        assert main(["run", fact, "--engine=concurrent"]) == 0
        assert set(engines) <= set(loaded()), loaded()
    """)
