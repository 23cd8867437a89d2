"""CLI contract: subcommands, flags, exit codes, diagnostics, JSON input."""

import contextlib
import hashlib
import io
import json
import re

import pytest

import cpl.toolchain as tc
from conftest import fresh_cli
from cpl.cli import main


@pytest.fixture
def examples():
    return {
        name: tc.example_path(name)
        for name in (
            "fact.cpl",
            "stuck.cpl",
            "wordcount.cpl",
            "wordcount_lb.cpl",
            "wordcount_ft.cpl",
            "supervision_demo.cpl",
        )
    }


def test_check_fact_prints_unit(examples, capsys):
    assert main(["check", examples["fact.cpl"]]) == 0
    assert capsys.readouterr().out.strip() == "Unit"


def test_check_stuck_typechecks(examples, capsys):
    assert main(["check", examples["stuck.cpl"]]) == 0


def test_check_all_examples_pass(examples):
    for path in examples.values():
        assert main(["check", path]) == 0


def test_check_nonlinear_pattern_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.cpl"
    f.write_text("(spwn srv { a<x: Int> & b<x: Int> :> par })#a<1>\n")
    assert main(["check", str(f)]) == 1
    assert "NonLinearPattern" in capsys.readouterr().err


def test_check_type_error_exits_one(tmp_path, capsys):
    f = tmp_path / "bad.cpl"
    f.write_text("(spwn srv { a<x: Int> :> par })#a<true>\n")
    assert main(["check", str(f)]) == 1
    assert "NotASubtype" in capsys.readouterr().err


def test_parse_error_exits_three(tmp_path, capsys):
    f = tmp_path / "bad.cpl"
    f.write_text("def = ;\n")
    assert main(["check", str(f)]) == 3


def test_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    # `²` passes str.isdigit but not int(); `½` is numeric but no letter.
    for ch in ("²", "½"):
        f = tmp_path / "bad.cpl"
        f.write_text(f"result<{ch}>\n", encoding="utf-8")
        assert main(["check", str(f)]) == 3
        assert capsys.readouterr().err.strip() == f"error: 1:8: unexpected character {ch!r}"


def test_nesting_too_deep_for_the_parser_exits_three(tmp_path):
    f = tmp_path / "deep.cpl"
    f.write_text("(" * 3000 + "1" + ")" * 3000 + "\n")
    rc, out, err = fresh_cli(["check", str(f)])
    assert (rc, out) == (3, "")
    assert re.fullmatch(r"error: 1:\d+: expression nested too deeply\n", err), err


def test_locations_after_a_multiline_string(tmp_path, capsys):
    from cpl.errors import Loc
    from cpl.parser import tokenize

    src = 'def s = "a\nb";\nresult<zz>\n'
    toks = tokenize(src)
    assert [(t.text, t.loc) for t in toks[4:7]] == [(";", Loc(2, 3)), ("result", Loc(3, 1)), ("<", Loc(3, 7))]
    f = tmp_path / "nl.cpl"
    f.write_text(src)
    assert main(["check", str(f), "--no-prelude"]) == 1
    assert capsys.readouterr().err.strip() == "type error: 3:8: UnboundVar: unbound variable 'zz'"


def test_run_fact_smallstep(examples, capsys):
    assert main(["run", examples["fact.cpl"], "--engine=smallstep", "--seed", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1]) == {"service": "result", "args": [6]}


def test_run_stuck_reports_pending(examples, capsys):
    code = main(["run", examples["stuck.cpl"], "--no-prelude", "--max-steps", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == "quiescent: 1 pending message (foo<> at addr 0)"
    assert captured.out == ""


def test_run_step_limit_exits_two(examples, capsys):
    assert main(["run", examples["fact.cpl"], "--max-steps", "3"]) == 2
    assert "step limit" in capsys.readouterr().err


def test_run_concurrent_wordcount(examples, capsys):
    assert main(["run", examples["wordcount.cpl"], "--engine=concurrent"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1])
    assert payload["service"] == "result"
    assert payload["args"][0]["the"] == 21


def test_run_ft_concurrent_virtual_time(examples, capsys):
    assert main(
        ["run", examples["wordcount_ft.cpl"], "--engine=concurrent", "--virtual-time"]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["service"] == "result"


def test_run_with_json_input(tmp_path, capsys):
    data = tmp_path / "corpus.json"
    data.write_text(json.dumps([["d1", "a b a"], ["d2", "b"], ["d3", "c c c"]]))
    prog = tmp_path / "wc_input.cpl"
    prog.write_text(
        """
def WordMap = (spwn srv {
  map<doc: String, txt: String, kk: <List[(String, Int)]>> :> this#go<split(txt), [], kk>
  go<ws: List[String], acc: List[(String, Int)], kk: <List[(String, Int)]>> :>
    if isEmpty(ws) then kk<acc> else this#go<tail(ws), cons((head(ws), 1), acc), kk>
})#map;
def WordReduce = (spwn srv {
  red<w: String, vs: List[Int], kk: <Int>> :> this#sum<vs, 0, kk>
  sum<vs: List[Int], acc: Int, kk: <Int>> :>
    if isEmpty(vs) then kk<acc> else this#sum<tail(vs), acc + head(vs), kk>
})#red;
def WordPart = (\\(w: String, r: Int) -> Int. mod(len(w), r) + 1)#app;
letk mr: TMR[String, String, String, Int]
  = MapReduce[String][String][String][Int][Int]#make<WordMap, WordReduce, WordPart, 2, /\\w. MkWorker[w]#make>
in (spwn mr)#app<input, result>
"""
    )
    assert main(["run", str(prog), "--engine=concurrent", "--input", str(data)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["args"][0] == {"a": 2, "b": 2, "c": 3}


def test_trace_golden_and_determinism(examples, capsys):
    assert main(["trace", examples["fact.cpl"], "--no-prelude", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert first.startswith("STEP 1 Spwn @0")
    assert main(["trace", examples["fact.cpl"], "--no-prelude", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_trace_empty_program(tmp_path, capsys):
    f = tmp_path / "empty.cpl"
    f.write_text("par\n")
    assert main(["trace", str(f), "--no-prelude"]) == 0
    assert capsys.readouterr().out == ""


def test_trace_binds_input(tmp_path, capsys):
    inp = tmp_path / "input.json"
    inp.write_text("[1, 2, 3]")
    prog = tmp_path / "in.cpl"
    prog.write_text("result<input>\n")
    assert main(["trace", str(prog), "--no-prelude", "--input", str(inp)]) == 0
    assert capsys.readouterr().out.startswith("STEP 1 Obs result\n")


@pytest.mark.parametrize("flag", [["--engine", "concurrent"], ["--timeout-ms", "5"], ["--virtual-time"]])
def test_trace_rejects_run_only_flags(examples, flag, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["trace", examples["fact.cpl"], "--no-prelude", *flag])
    assert ei.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_parser_serves_every_call_and_keeps_no_flags(tmp_path, monkeypatch):
    from cpl.cli import build_parser

    seeds = []
    real = tc.run_smallstep

    def recording(core, seed, **kwargs):
        seeds.append(seed)
        return real(core, seed=seed, **kwargs)

    monkeypatch.setattr(tc, "run_smallstep", recording)
    f = tmp_path / "one.cpl"
    f.write_text("result<1>")
    assert main(["run", str(f), "--no-prelude", "--seed", "5"]) == 0
    assert main(["run", str(f), "--no-prelude"]) == 0
    assert seeds == [5, 0]
    assert build_parser() is build_parser()


def test_unknown_flag_is_a_usage_error(examples, capsys):
    # 64 (EX_USAGE), not 2, which means quiescent or a step/time limit.
    with pytest.raises(SystemExit) as ei:
        main(["run", examples["fact.cpl"], "--bogus"])
    assert ei.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: cpl ")
    assert err.splitlines()[-1] == "cpl: error: unrecognized arguments: --bogus"


def test_input_that_is_not_json_exits_four(tmp_path, capsys):
    prog, data = tmp_path / "p.cpl", tmp_path / "bad.json"
    prog.write_text("result<input>\n")
    data.write_text("{bad")
    assert main(["run", str(prog), "--no-prelude", "--input", str(data)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {data}: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"


@pytest.mark.parametrize("command", ["check", "run", "desugar"])
def test_source_that_is_not_utf8_exits_four(tmp_path, capsys, command):
    f = tmp_path / "bad.cpl"
    f.write_bytes(b"\xff")
    assert main([command, str(f)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}: not UTF-8 text: ") and err.count("\n") == 1, err


def test_input_that_is_not_utf8_exits_four(tmp_path, capsys):
    prog, data = tmp_path / "p.cpl", tmp_path / "bad.json"
    prog.write_text("result<input>\n")
    data.write_bytes(b"[\"\xff\"]")
    assert main(["run", str(prog), "--no-prelude", "--input", str(data)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: not UTF-8 text: ") and err.count("\n") == 1, err


def test_desugar_let_golden(tmp_path, capsys):
    f = tmp_path / "let.cpl"
    f.write_text("let x: Int = 5 in k<x>\n")
    assert main(["desugar", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "(spwn (srv { let<x: Int> :> k<x> }))#let<5>"


def test_desugar_idempotent_on_core(tmp_path, capsys):
    f = tmp_path / "core.cpl"
    f.write_text("(spwn srv { a<x: Int> :> par })#a<1>\n")
    assert main(["desugar", str(f)]) == 0
    once = capsys.readouterr().out
    g = tmp_path / "again.cpl"
    g.write_text(once)
    assert main(["desugar", str(g)]) == 0
    assert capsys.readouterr().out == once


def test_missing_file_exits_four(capsys):
    assert main(["check", "/nonexistent/x.cpl"]) == 4


def test_every_example_checks_and_only_stuck_exits_two(examples, capsys):
    """cli invariant: all examples pass check; stuck.cpl alone exits 2 on run."""
    for path in examples.values():
        assert main(["check", path]) == 0
    run_matrix = {
        "fact.cpl": ["run", examples["fact.cpl"], "--seed", "1"],
        "stuck.cpl": ["run", examples["stuck.cpl"], "--no-prelude"],
        "wordcount.cpl": ["run", examples["wordcount.cpl"], "--engine=concurrent"],
        "wordcount_lb.cpl": ["run", examples["wordcount_lb.cpl"], "--engine=concurrent"],
        "wordcount_ft.cpl": [
            "run", examples["wordcount_ft.cpl"], "--engine=concurrent", "--virtual-time",
        ],
        "supervision_demo.cpl": ["run", examples["supervision_demo.cpl"], "--engine=concurrent"],
    }
    for name, argv in run_matrix.items():
        code = main(argv)
        capsys.readouterr()
        assert code == (2 if name == "stuck.cpl" else 0), name


def test_run_empty_program_is_unit(tmp_path, capsys):
    f = tmp_path / "empty.cpl"
    f.write_text("// nothing here\n")
    assert main(["run", str(f), "--no-prelude"]) == 0
    assert capsys.readouterr().out == ""


def test_runtime_fault_exits_four(tmp_path, capsys):
    f = tmp_path / "div.cpl"
    f.write_text("result<1 / 0>\n")
    assert main(["run", str(f), "--no-prelude"]) == 4
    assert "division by zero" in capsys.readouterr().err


def test_desugar_with_prelude_flag(tmp_path, capsys):
    f = tmp_path / "p.cpl"
    f.write_text("par\n")
    assert main(["desugar", str(f), "--prelude"]) == 0
    out = capsys.readouterr().out
    assert "MkWorker" in out  # the stdlib def chain is present


def test_desugar_with_prelude_repeats_in_process(tmp_path, capsys, monkeypatch):
    # The stdlib is parsed once per process and shared; desugaring it again
    # must print the same term, fresh names included.
    f = tmp_path / "p.cpl"
    f.write_text("def x = 1 + 2;\nresult<x>\n")
    assert main(["desugar", str(f), "--prelude"]) == 0
    first = capsys.readouterr().out
    parsed, parse = [], tc.parse
    monkeypatch.setattr(tc, "parse", lambda text: parsed.append(text) or parse(text))
    assert main(["desugar", str(f), "--prelude"]) == 0
    assert capsys.readouterr().out == first
    assert parsed == [f.read_text()]  # only the user's program


def test_run_stuck_concurrent_engine(examples, capsys):
    code = main(["run", examples["stuck.cpl"], "--no-prelude", "--engine=concurrent"])
    captured = capsys.readouterr()
    assert code == 2
    assert "quiescent: 1 pending message (foo<> at addr 0)" == captured.err.strip()


def test_concurrent_run_summarises_pending_only_without_observations(examples, capsys, monkeypatch):
    from cpl.runtime import Runtime

    calls, summary = [], Runtime.pending_summary
    monkeypatch.setattr(Runtime, "pending_summary", lambda rt: calls.append(rt) or summary(rt))
    assert main(["run", examples["fact.cpl"], "--engine=concurrent"]) == 0
    assert capsys.readouterr().err == ""
    assert calls == []
    assert main(["run", examples["stuck.cpl"], "--no-prelude", "--engine=concurrent"]) == 2
    assert capsys.readouterr().err == "quiescent: 1 pending message (foo<> at addr 0)\n"
    assert len(calls) == 1


def test_run_timeout_flag(tmp_path, capsys):
    # a real-time timer far beyond the timeout forces the timeout path
    f = tmp_path / "slow.cpl"
    f.write_text("(spwn srv { a<> :> timer<60000, this#b>  b<> :> result<1> })#a<>\n")
    code = main(["run", str(f), "--no-prelude", "--engine=concurrent", "--timeout-ms", "300"])
    captured = capsys.readouterr()
    assert code == 2
    assert "timeout" in captured.err


def test_run_in_transit_to_inert_reports_quiescent(tmp_path, capsys):
    f = tmp_path / "transit.cpl"
    # sequence the replacement before the send: the repl evaluates as the
    # let argument, so the request only emerges once w is already inert
    f.write_text(
        "let w: inst srv { a: <> } = spwn srv { a<> :> result<1> } in "
        "(spwn srv { go<u: Unit> :> w#a<> })#go<repl w zero>\n"
    )
    code = main(["run", str(f), "--no-prelude"])
    captured = capsys.readouterr()
    assert code == 2
    assert "quiescent" in captured.err


def test_trace_matches_golden_file(examples, capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "fact_trace.txt"
    assert main(["trace", examples["fact.cpl"], "--no-prelude", "--seed", "1"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_trace_step_limit_exits_two(examples, capsys):
    assert main(["trace", examples["wordcount.cpl"], "--max-steps", "10"]) == 2
    assert capsys.readouterr().err == "step limit reached\n"


class _Digest(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it and the
    number of lines that start a step."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.steps = 0
        self.at_line_start = True

    def write(self, s):
        self.sha.update(s.encode())
        self.steps += s.count("\nSTEP ") + (self.at_line_start and s.startswith("STEP "))
        self.at_line_start = s.endswith("\n")
        return len(s)


# sha256 and step count of `cpl trace <example> --seed 1 --max-steps 2000`
# with the prelude, taken when every step's term was printed from scratch.
# `test_schedule_fingerprint` pins each step's rule and detail; these pin
# the printed terms too.
TRACE_PINS = {
    "fact.cpl": ("d9cc2ac8052541d72a66131c1e45526f11d8d6734e6804325844e010d3c9ba8e", 133),
    "stuck.cpl": ("fa14177e821a5555b5efdad4275dff9fb50184a98c788521a66ad359c0f4ee1d", 97),
    "supervision_demo.cpl": ("096fbb87b38f35bcb27f5a672fb2c52030da6e55c7a07d488b22e0b80ad24d98", 532),
    "wordcount.cpl": ("d680445aea904fbde853722c599e498dc1f045f79f22e18119bdb8bfd6d1ef61", 2000),
    "wordcount_lb.cpl": ("aaf83addd142989b770c47062ca67b95efc075223aad97ca5d224a1db6e36df4", 2000),
    "wordcount_ft.cpl": ("e7e6808295dfef3a2edeec56ffe91dfddd5ca6c5d9511f5eccfa8b587fd6144d", 2000),
}


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_trace_text_pins(examples, name):
    out = _Digest()
    with contextlib.redirect_stdout(out):
        code = main(["trace", examples[name], "--seed", "1", "--max-steps", "2000"])
    assert code == (2 if TRACE_PINS[name][1] == 2000 else 0)
    assert (out.sha.hexdigest(), out.steps) == TRACE_PINS[name]


def test_a_trace_that_faults_leaves_the_steps_before_it(tmp_path, capsys):
    f = tmp_path / "div.cpl"
    f.write_text("result<1> || result<(1 + 1) / 0>\n")
    assert main(["trace", str(f), "--no-prelude"]) == 4
    out, err = capsys.readouterr()
    assert err == "internal error: div: division by zero\n"
    assert re.findall(r"^STEP \d+ (\w+)", out, re.M) == ["Obs", "Par", "Base"]


@pytest.mark.parametrize("name,seed", [("fact.cpl", 1), ("supervision_demo.cpl", 3), ("wordcount_ft.cpl", 7)])
def test_streamed_trace_is_the_recorded_trace_rendered(examples, capsys, name, seed):
    from cpl.machine import Trace

    assert main(["trace", examples[name], "--seed", str(seed), "--max-steps", "300"]) in (0, 2)
    streamed = capsys.readouterr().out
    trace = Trace()
    tc.run_smallstep(tc.load_program(tc.example_source(name)).core, seed=seed, max_steps=300, sink=trace)
    assert trace.render() == streamed


@pytest.mark.parametrize(
    "data,shown",
    [
        ({"a": 1, "b": 2, "c": 3}, [["a", 1], ["b", 2], ["c", 3]]),  # an association list
        (True, True),
    ],
    ids=["object", "boolean"],
)
@pytest.mark.parametrize("engine", ["smallstep", "concurrent"])
def test_run_with_json_object_and_boolean_input(tmp_path, capsys, engine, data, shown):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    prog = tmp_path / "echo.cpl"
    prog.write_text("result<input>\n")
    assert main(["run", str(prog), "--no-prelude", "--engine", engine, "--input", str(inp)]) == 0
    assert capsys.readouterr().out == json.dumps({"service": "result", "args": [shown]}) + "\n"


def test_run_names_an_input_value_that_does_not_type(tmp_path, capsys):
    """An object whose values differ in type is an association list of no
    one type; the diagnostic says the input failed, not the program."""
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps({"a": 1, "b": "x"}))
    prog = tmp_path / "echo.cpl"
    prog.write_text("result<input>\n")
    assert main(["run", str(prog), "--no-prelude", "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("type error: NotASubtype: the --input value does not type: ")
    assert err.count("\n") == 1
