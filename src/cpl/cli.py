"""Command-line entry point.

Exit codes: 0 success, 1 type error, 2 quiescent-with-pending or step/time
limit, 3 parse or desugar error, 4 internal error or unreadable file, 64
usage error (EX_USAGE). Diagnostics go to stderr,
results to stdout. Only `run` and `trace` import an engine, so `check` and
`desugar` start without one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import toolchain
from .errors import CplError, DesugarError, LinearityError, MachineError, ParseError
from .pretty import pretty_expr, pretty_message, pretty_type, value_to_json
from .typecheck import TypeCheckError

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_RUNTIME = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 64


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise CplError(f"{path}: not UTF-8 text: {exc}") from exc


def _load(args) -> toolchain.Loaded:
    """The program, with the `--input` value bound if the command has the
    flag and it is given."""
    input_value = None
    if getattr(args, "input", None):
        try:
            data = json.loads(_read(args.input))
        except json.JSONDecodeError as exc:
            raise CplError(f"{args.input}: not valid JSON: {exc}") from exc
        input_value = toolchain.json_to_value(data)
    text = _read(args.file)
    return toolchain.load_program(text, include_prelude=not args.no_prelude, input_value=input_value)


def _observation_lines(observations) -> str:
    """One JSON line per (service, args) pair."""
    return "".join(
        json.dumps({"service": service, "args": [value_to_json(v) for v in vals]}) + "\n"
        for service, vals in observations
    )


def cmd_check(args) -> int:
    loaded = _load(args)
    t = toolchain.check_expr(loaded.core, loaded.env)
    print(pretty_type(t))
    return EXIT_OK


def cmd_desugar(args) -> int:
    loaded = _load(args)
    print(pretty_expr(loaded.core))
    return EXIT_OK


def _pending_diagnostic(pending) -> str:
    if not pending:
        return "quiescent: undelivered requests remain in transit"
    shown = ", ".join(f"{pretty_message(m)} at addr {a.id}" for a, m in pending[:5])
    more = "" if len(pending) <= 5 else ", ..."
    noun = "message" if len(pending) == 1 else "messages"
    return f"quiescent: {len(pending)} pending {noun} ({shown}{more})"


def cmd_run(args) -> int:
    loaded = _load(args)
    toolchain.check_expr(loaded.core, loaded.env)
    if args.engine == "smallstep":
        from . import machine

        result = toolchain.run_smallstep(loaded.core, seed=args.seed, max_steps=args.max_steps)
        sys.stdout.write(_observation_lines((s, vals) for _, s, vals in result.final.observations))
        if result.status == machine.STEP_LIMIT:
            print("step limit reached", file=sys.stderr)
            return EXIT_RUNTIME
        pending = machine.pending_messages(result.final)
        if not result.final.observations and (pending or result.status != machine.COMPLETED):
            print(_pending_diagnostic(pending), file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    rt = toolchain.run_concurrent(
        loaded.core, virtual_time=args.virtual_time, timeout_ms=args.timeout_ms
    )
    try:
        log = rt.log.snapshot()
        sys.stdout.write(_observation_lines((o.service, o.args) for o in log))
        if rt.timed_out:
            print("timeout reached", file=sys.stderr)
            return EXIT_RUNTIME
        if not log and (pending := rt.pending_summary()):
            print(_pending_diagnostic(pending), file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK
    finally:
        rt.shutdown()


def cmd_trace(args) -> int:
    from . import machine

    loaded = _load(args)
    toolchain.check_expr(loaded.core, loaded.env)

    def write(s: machine.TraceStep) -> None:
        # Each step is written as it is taken, so a run that fails leaves
        # the steps before the fault on stdout.
        sys.stdout.write(machine.Trace([s]).render())

    result = toolchain.run_smallstep(loaded.core, seed=args.seed, max_steps=args.max_steps, sink=write)
    if result.status == machine.STEP_LIMIT:
        print("step limit reached", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors exiting 64, not 2: the CLI's 2 means
    quiescent or a step/time limit. Subcommand parsers are of this class
    too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process. A parse leaves no state on
    it: each returns a new namespace filled from the actions' defaults."""
    p = _Parser(prog="cpl", description="CPL toolchain")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, runnable: bool = False):
        sp.add_argument("file")
        sp.add_argument("--no-prelude", action="store_true", help="do not load the stdlib prelude")
        if runnable:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--max-steps", type=int, default=500_000)
            sp.add_argument("--input", default=None, help="JSON file bound to the `input` variable")

    sp = sub.add_parser("check", help="parse, desugar and typecheck")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="typecheck then execute")
    common(sp, runnable=True)
    sp.add_argument("--engine", choices=("smallstep", "concurrent"), default="smallstep")
    sp.add_argument("--timeout-ms", type=int, default=30_000)
    sp.add_argument("--virtual-time", action="store_true")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("trace", help="run the small-step engine and print the trace")
    common(sp, runnable=True)
    sp.add_argument("--format", choices=("text",), default="text")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("desugar", help="print the desugared core term")
    sp.add_argument("file")
    sp.add_argument("--prelude", dest="no_prelude", action="store_false")
    sp.set_defaults(fn=cmd_desugar)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LinearityError as exc:
        print(f"type error: NonLinearPattern: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except (ParseError, DesugarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TypeCheckError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except MachineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CplError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
