"""Loads in one process give the output of a fresh interpreter, whatever
loaded before them, and hold no more memory after each round of loads.

The stdlib's lowering and typing are reused across loads when a replay of
what they read matches, so these tests interleave programs that shift the
stdlib's fresh names differently: one whose lambda draws `k%1` first, one
that draws none, one that writes the name `k%1` itself, and a run with
`--input`."""

import gc
import json
import threading
import tracemalloc
from pathlib import Path

import pytest

import cpl.toolchain as tc
from cpl.cli import main
from conftest import fresh_cli, pool_threads_left

EXAMPLES = (
    "fact.cpl",
    "stuck.cpl",
    "wordcount.cpl",
    "wordcount_lb.cpl",
    "wordcount_ft.cpl",
    "supervision_demo.cpl",
)

PROGRAMS = Path(__file__).resolve().parent.parent / "perfbench" / "programs"


def _in_process(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    """The command lines of the four kinds of load, each kind a list."""
    d = tmp_path_factory.mktemp("loads")
    plain = d / "unit.cpl"
    plain.write_text("result<1>\n")
    shifted = d / "shifted.cpl"
    shifted.write_text("def k%1 = 2;\nresult<k%1>\n")
    prog = d / "input.cpl"
    prog.write_text('letk n: Bool = Seq[String]#existsk<input, (\\(w: String) -> Bool. w == "b")#app> in result<n>\n')
    data = d / "input.json"
    data.write_text(json.dumps(["a", "b", "c"]))
    lam = tc.example_path("wordcount.cpl")

    # A bounded trace prints the text cached on the stdlib's templates,
    # which live as long as the process.
    bounded = ("--max-steps", "40")

    def four(path):
        return [("desugar", "--prelude", path), ("check", path), ("run", path), ("trace", path, *bounded)]

    return {
        "lambda": four(lam),
        "no fresh name": four(str(plain)),
        "writes k%1": four(str(shifted)),
        "--input": [("run", str(prog), "--input", str(data)), ("trace", str(prog), "--input", str(data), *bounded)],
    }


def test_loads_match_a_fresh_interpreter_whatever_loaded_before(loads, capsys):
    fresh = {}
    history = ["lambda", "no fresh name", "writes k%1", "--input", "lambda", "writes k%1", "no fresh name", "lambda"]
    for kind in history:
        argvs = list(loads[kind]) + [("check", tc.example_path(name)) for name in EXAMPLES]
        for argv in argvs:
            if argv not in fresh:
                fresh[argv] = fresh_cli(argv)
            assert _in_process(argv, capsys) == fresh[argv], (kind, argv)


def _mapreduce_round(tmp):
    """The in-process command lines of one `mapreduce` benchmark cycle, on
    small inputs: a check, a bounded trace, two small-step runs and a
    concurrent run."""
    corpus = [["d1", "a b a c"], ["d2", "b a d a"], ["d3", "c c a b"]]
    data = tmp / "corpus.json"
    data.write_text(json.dumps(corpus))
    plain, ft = str(PROGRAMS / "wordcount.cpl"), str(PROGRAMS / "wordcount_ft.cpl")
    inline = tmp / "wordcount_ft.cpl"
    literal = "[" + ", ".join(f"({json.dumps(a)}, {json.dumps(b)})" for a, b in corpus) + "]"
    inline.write_text(f"def input = {literal};\n" + Path(ft).read_text())
    return [
        (("check", str(inline)), 0),
        (("trace", str(plain), "--input", str(data), "--max-steps", "10"), 2),
        (("run", plain, "--input", str(data)), 0),
        (("run", tc.example_path("supervision_demo.cpl")), 0),
        (("run", ft, "--input", str(data), "--engine=concurrent", "--virtual-time"), 0),
    ]


def test_rounds_of_loads_hold_no_more_memory(tmp_path, capsys):
    round_ = _mapreduce_round(tmp_path)
    held = []
    tracemalloc.start()
    try:
        for _ in range(3):
            before = set(threading.enumerate())
            for argv, want in round_:
                assert main(list(argv)) == want, argv
                capsys.readouterr()
            # A finished concurrent run is freed by the last of its pool
            # threads to exit.
            assert not pool_threads_left(before)
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[2] <= held[0] + 64 * 1024, held
