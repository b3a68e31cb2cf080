import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from schubcalc import cli, poly, shuffles
from schubcalc.perms import (ParseError, Permutation, format_permutation, format_word,
                             parse_permutation, reduced_words)
from schubcalc.shuffles import InvariantError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn_cli(*argv, python_flags=(), **kwargs):
    """The CLI in a child interpreter that imports this checkout's sources,
    with stdout block-buffered as it is by default for a pipe."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *python_flags, "-m", "schubcalc.cli", *argv],
                            env=env, stderr=subprocess.PIPE, text=True, **kwargs)


def test_poly_schubert(capsys):
    code, out, _ = run(capsys, "poly", "schubert", "[1432]")
    assert code == 0
    assert out.strip() == str(poly.schubert(parse_permutation("[1432]")))


def test_poly_schubert_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--format", "json", "poly", "schubert", "[1432]")
    assert code == 0
    parsed = poly.Polynomial.from_json(json.loads(out))
    assert parsed == poly.schubert(parse_permutation("[1432]"))


def test_perm_reduced_words(capsys):
    code, out, _ = run(capsys, "perm", "reduced-words", "[1432]")
    assert code == 0
    assert out.split() == ["232", "323"]


def test_perm_demazure(capsys):
    code, out, _ = run(capsys, "perm", "demazure", "--word", "53153243")
    assert code == 0
    assert out.strip() == "[246135]"


def test_shuffle_monk(capsys):
    code, out, _ = run(capsys, "shuffle", "monk", "--i", "3",
                       "--word", "323432", "--pos", "5")
    assert code == 0
    assert out.strip() == "1232432"


def test_shuffle_monk_inverse(capsys):
    code, out, _ = run(capsys, "shuffle", "monk-inv", "--i", "1",
                       "--word", "3121", "--perm", "[321]")
    assert code == 0
    assert out.strip() == "121 @ 1"


def test_shuffle_verify(capsys):
    code, out, _ = run(capsys, "shuffle", "verify", "--rule", "monk",
                       "--perm", "[321]", "--i", "1")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "shuffle", "verify", "--rule", "pieri-r",
                       "--perm", "[21]", "--i", "1", "--k", "2")
    assert code == 0 and "ok" in out


@pytest.mark.parametrize("rule", ["pieri-c", "pieri-r"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_shuffle_verify_checks_k_before_shuffling(capsys, monkeypatch, rule, k):
    """A Pieri verify with k < 1 is a domain error before any shuffle runs."""
    def shuffled(*args, **kwargs):
        raise RuntimeError("shuffled")
    monkeypatch.setattr(shuffles, "pieri_shuffle", shuffled)
    code, out, err = run(capsys, "shuffle", "verify", "--rule", rule, "--perm", "[4213]",
                         "--i", "2", f"--k={k}")
    assert (code, out, err) == (1, "", "error: need k >= 1\n")


def test_shuffle_verify_monk_ignores_k(capsys):
    code, out, err = run(capsys, "shuffle", "verify", "--rule", "monk", "--perm", "[321]",
                         "--i", "1", "--k=-1")
    assert (code, out, err) == (0, "monk bijection on [321], i=1: ok (8 shuffles)\n", "")


# stdout, stderr and exit code of cli.main with COLUMNS=80: every --help, usage
# errors, and the benchmark's commands in three --format placements; --format
# values a command does not render, before and after it; each expand rule in text
# and JSON; a negative --vars; words, permutations, shapes and integer options
# holding a digit of another script or a superscript digit; integers only
# Python's int grammar reads, with a "+" or an underscore between digits; and
# complex drawings: `complex subword --word 321323 --perm "[1432]"` in dot and
# svg (2-faces), `complex tableau --shape 2,1 --vars 3 --family syt --format dot`
# (tuple labels) and `complex tableau --shape 2 --vars 3 --format svg` (exit 1 on
# the dimension error)
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text())


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help and argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _build_every_command_parser(argv):
    """The parser with every command's arguments, whatever argv names."""
    formats = ("text", "json", "svg", "dot")
    parser = argparse.ArgumentParser(prog="schubcalc")
    parser.add_argument("--format", choices=formats, default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
        add_arguments(p)
    return parser


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[" ".join(case["argv"]) or "-" for case in GOLDEN["cases"]])
def test_golden_output(monkeypatch, case):
    """The recorded bytes, on the Python they were recorded with.  argparse
    words its help differently on other versions ("optional arguments:"
    before 3.11), so there the reference is the parser with every command's
    arguments, which the bytes were recorded from."""
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    got = _captured(case["argv"])
    if "%d.%d" % sys.version_info[:2] == GOLDEN["python"]:
        expected = case["code"], case["stdout"], case["stderr"]
    else:
        monkeypatch.setattr(cli, "build_parser", _build_every_command_parser)
        expected = _captured(case["argv"])
    assert got == expected


@pytest.mark.parametrize("argv, trace", [
    (("monk", "--i", "3", "--word", "323432", "--pos", "5"),
     "placed 4 at position 5; word = 3 2 3 4 4 3 2 ; labels(col 5, h=1..6) = [1, 3, 4, 2, 5, 6]\n"
     "placed 2 at position 4; word = 3 2 3 2 4 3 2 ; labels(col 4, h=1..6) = [1, 3, 4, 5, 2, 6]\n"
     "placed 1 at position 1; word = 1 2 3 2 4 3 2 ; "
     "labels(col 1, h=0..6) = [0, 1, 5, 4, 3, 2, 6]\n"),
    (("pieri", "--i", "5", "--word", "53", "--pos", "3,4,5"),
     "start: 5 3 oov oov oov ; book = {k > 5}\n"
     "placed 5 at 5: 5v 3 oov oov 5^ ; book = {k > 5} + [5] ; "
     "labels(col 5, h=2..7) = [2, 3, 4, 5, 6, 7]\n"
     "placed 4 at 4: 5v 3 oov 4^ 5^ ; book = {k > 5} + [4, 5] ; "
     "labels(col 4, h=2..7) = [2, 3, 4, 6, 5, 7]\n"
     "placed 3 at 3: 5v 3v 3^ 4^ 5^ ; book = {k > 5} + [3, 4, 5] ; "
     "labels(col 3, h=2..7) = [2, 3, 6, 4, 5, 7]\n"
     "placed 2 at 2: 5v 2^ 3 4^ 5^ ; book = {k > 5} + [2, 4, 5] ; "
     "labels(col 2, h=1..7) = [1, 2, 6, 3, 4, 5, 7]\n"
     "placed 4 at 1: 4^ 2^ 3 4^ 5 ; book = {k > 5} + [2, 3, 4] ; "
     "labels(col 1, h=1..7) = [1, 6, 2, 3, 4, 5, 7]\n"),
    (("pieri", "--i", "2", "--word", "2312", "--pos", "2,5", "--variant", "r"),
     "start: 2 oov 3 1 oov 2 ; book = {k <= 2}\n"
     "placed 3 at 5: 2 oov 3v 1 3^ 2 ; book = {k <= 2} + [4] ; "
     "labels(col 5, h=0..5) = [0, 1, 3, 2, 4, 5]\n"
     "placed 2 at 3: 2v oov 2^ 1 3 2 ; book = {k <= 2} + [4] ; "
     "labels(col 3, h=0..5) = [0, 3, 1, 4, 2, 5]\n"
     "placed 4 at 2: 2v 4^ 2^ 1 3 2 ; book = {k <= 2} + [4, 5] ; "
     "labels(col 2, h=0..6) = [0, 3, 4, 1, 2, 5, 6]\n"
     "placed 0 at 1: 0^ 4^ 2 1 3 2 ; book = {k <= 2} + [3, 5] ; "
     "labels(col 1, h=-1..6) = [-1, 0, 3, 4, 1, 5, 2, 6]\n"),
], ids=["monk", "pieri-c", "pieri-r"])
def test_shuffle_trace_text(capsys, argv, trace):
    """The --trace lines on stderr, label lists included, byte for byte."""
    code, _, err = run(capsys, "shuffle", *argv, "--trace")
    assert code == 0
    assert err == trace


def test_pipedreams_listing(capsys):
    code, out, _ = run(capsys, "--format", "json", "pipedreams", "list", "[1432]")
    assert code == 0
    assert len(json.loads(out)) == 5


def test_pipedreams_render(capsys):
    code, out, _ = run(capsys, "--format", "svg", "pipedreams", "render", "[321]")
    assert code == 0
    assert out.startswith("<svg")


def test_complex_subword_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "complex", "subword",
                       "--word", "321323", "--perm", "[1432]")
    assert code == 0
    data = json.loads(out)
    assert sorted(map(sorted, data["facets"])) == [
        [1, 2, 3], [1, 3, 6], [2, 3, 4], [3, 4, 5], [3, 5, 6]]


def test_complex_classify(capsys):
    code, out, _ = run(capsys, "complex", "subword", "--word", "321323",
                       "--perm", "[1432]", "--classify")
    assert code == 0
    assert out.strip() == "ball"
    code, out, _ = run(capsys, "complex", "classify", "--word", "321323",
                       "--perm", "[1432]")
    assert code == 0 and out.strip() == "ball"
    code, out, _ = run(capsys, "complex", "classify", "--family", "syt",
                       "--shape", "2,1", "--vars", "3")
    assert code == 0 and out.strip().startswith("neither")


def test_complex_dot_output(capsys):
    code, out, _ = run(capsys, "--format", "dot", "complex", "subword",
                       "--word", "321323", "--perm", "[1432]")
    assert code == 0
    assert out.startswith("graph complex {")
    assert 'label="1:3"' in out


def test_complex_sr_generators(capsys):
    code, out, _ = run(capsys, "--format", "json", "complex", "sr-generators",
                       "--word", "321323", "--perm", "[1432]")
    assert code == 0
    assert json.loads(out) == [[1, 4], [1, 5], [2, 5], [2, 6], [4, 6]]


Q7_GENERATORS = [
    [1, 7, 12, 16, 19], [1, 7, 12, 16, 20], [1, 7, 12, 17, 20], [1, 7, 13, 17, 20],
    [1, 8, 13, 17, 20], [2, 8, 13, 17, 20], [2, 8, 13, 17, 21], [2, 8, 13, 19, 21],
    [2, 8, 16, 19, 21], [2, 12, 16, 19, 21], [4, 10], [4, 11], [5, 11], [5, 15],
    [7, 12, 16, 19, 21], [10, 15]]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_complex_sr_generators_q7(capsys, fmt):
    """The 16 minimal non-faces of the subword complex of Q_7 and [1432765],
    one sorted list per line in text and one sorted list of lists in JSON."""
    code, out, err = run(capsys, "--format", fmt, "complex", "sr-generators",
                         "--word", "654321654326543654656", "--perm", "[1432765]")
    assert (code, err) == (0, "")
    if fmt == "json":
        assert out == json.dumps(Q7_GENERATORS) + "\n"
    else:
        assert out == "".join(f"{g}\n" for g in Q7_GENERATORS)


@pytest.mark.parametrize("fmt, argv", [
    ("json", ("poly", "schubert", "[1432]")),
    ("json", ("pipedreams", "list", "[1432]")),
    ("svg", ("pipedreams", "render", "[321]")),
    ("json", ("complex", "subword", "--word", "321323", "--perm", "[1432]")),
    ("dot", ("complex", "subword", "--word", "321323", "--perm", "[1432]")),
    ("json", ("complex", "sr-generators", "--word", "321323", "--perm", "[1432]")),
])
def test_format_placement(capsys, fmt, argv):
    before = run(capsys, "--format", fmt, *argv)
    after = run(capsys, *argv, "--format", fmt)
    assert before[0] == 0
    assert before == after


def test_expand_schubert_slides(capsys):
    code, out, _ = run(capsys, "expand", "schubert-slides", "[1432]")
    assert code == 0
    assert "232" in out and "323" in out


def test_usage_error_reports_position(capsys):
    code, _, err = run(capsys, "poly", "schubert", "4213")
    assert code == 2
    assert "position 0" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "perm", "lehmer", "[2,3,0,1]@0")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("exc, line", [
    (RuntimeError("boom"), "error: internal: RuntimeError: boom\n"),
    (InvariantError("two\nlines"), "error: internal: InvariantError: two lines\n"),
])
def test_internal_error_exit_code(capsys, monkeypatch, exc, line):
    """An exception outside the usage and domain errors gives exit 3 and one
    line on stderr, with no traceback."""
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_perm", broken)
    code, out, err = run(capsys, "perm", "lehmer", "[1432]")
    assert (code, out, err) == (3, "", line)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all" in out and "passed" in out


@pytest.mark.parametrize("argv", [
    ("--i", "2", "--word", "3121", "--perm", "[21]"),
    ("--i", "1", "--word", "3212", "--perm", "[1]"),
    ("--i", "1", "--word", "3121", "--perm", "[4213]"),
])
def test_pieri_inverse_rejects_non_pieri_input(capsys, argv):
    """A word that is not a Pieri term of the given permutation, or is no
    longer than it, is a domain error with one line on stderr."""
    code, out, err = run(capsys, "shuffle", "pieri-inv", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(("--format", "json", "pipedreams", "list", "--all", perm), id=perm)
    for perm in ("[2143]", "[165432]")] + [pytest.param(("--help",), id="--help")])
def test_closed_stdout_exits_1_without_traceback(argv):
    """The reader of stdout is gone before the child writes a byte.  The 335
    bytes for [2143] fail in the final flush, the 22,819 for [165432] in
    print, which writes through once the buffer is full; the help text is
    printed by argparse, which then exits before any command runs."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = spawn_cli(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_startup_imports_only_what_the_command_uses():
    """Importing the CLI loads no dataclasses, inspect, typing, json or the
    selftest corpus; the commands that need json or the corpus still work."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    heavy = ("dataclasses", "inspect", "typing", "json", "schubcalc.selftest")
    probe = f"import schubcalc.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (loaded.returncode, loaded.stdout, loaded.stderr) == (0, "[]\n", "")
    child = spawn_cli("selftest", stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0 and "all" in out and "passed" in out and not err
    child = spawn_cli("perm", "reduced-words", "[1432]", "--format", "json", stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    assert child.returncode == 0 and json.loads(out) == [[2, 3, 2], [3, 2, 3]] and not err


def test_selftest_refuses_under_optimize():
    """python -O strips the checks' asserts, so selftest must not report a pass."""
    child = spawn_cli("selftest", python_flags=("-O",), stdout=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert "passed" not in out
    assert err.count("\n") == 1 and "-O" in err


@pytest.mark.parametrize("argv, out", [
    (("poly", "fqs", "1000", "--vars", "1"), "x_1^1000"),
    (("poly", "slide", "1000"), "x_1^1000"),
    (("poly", "schur", "1000", "--vars", "1"), "x_1^1000"),
    (("expand", "schur-fqs", "1000", "--vars", "1"), f"{[list(range(1, 1001))]}: x_1^1000"),
    (("complex", "tableau", "--family", "syt", "--shape", "1000", "--vars", "1000"),
     "SimplicialComplex(1000 vertices; facets {})"),
    (("complex", "tableau", "--family", "wct", "--shape", "1000", "--vars", "1"),
     "SimplicialComplex(1000 vertices; facets {})"),
], ids=["fqs", "slide", "schur", "schur-fqs", "tableau-syt", "tableau-wct"])
def test_thousand_box_shape_has_its_one_tableau(capsys, argv, out):
    """The tableau fillers keep no stack frame per box or value."""
    code, stdout, err = run(capsys, *argv)
    assert code == 0 and not err
    assert stdout.strip() == out


@pytest.mark.parametrize("rule", ["schubert-slides", "groth-glides"])
def test_expand_outside_positive_support_exits_1(capsys, rule):
    """A permutation moving 0 has no pipe dream: one line on stderr, exit 1."""
    code, out, err = run(capsys, "expand", rule, "[1,0]@0")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "positive integers" in err


@st.composite
def _small_permutation(draw):
    """A permutation of at most 4 points, its window at -1..2."""
    n, lo = draw(st.integers(1, 4)), draw(st.integers(-1, 2))
    return Permutation.from_one_line(draw(st.permutations(range(lo, lo + n))), lo=lo)


def _maybe_malformed(draw, good, bad):
    """A value from `good`, or one in ten times from the malformed `bad`: a
    draw of 7 from 1..10, as hypothesis favours the ends of a range."""
    return draw(st.sampled_from(bad) if draw(st.integers(1, 10)) == 7 else good)


_PERMS = (_small_permutation().map(format_permutation), ["[11]", "4213", "[21]@x"])
_WORDS = (st.one_of(st.lists(st.integers(-2, 6), max_size=6),
                    _small_permutation().flatmap(lambda p: st.sampled_from(reduced_words(p))))
          .map(format_word), ["1a", "1,,2", "oo"])
_SHAPES = (st.lists(st.integers(0, 3), max_size=3).map(lambda ps: ",".join(map(str, ps))),
           ["x", "1,", "-1"])
_SMALL_INTS = (st.integers(-2, 4).map(str), ["x"])


_SHUFFLE_NEEDS = {"monk": ("--word", "--pos"), "monk-inv": ("--word", "--perm"),
                  "pieri": ("--word", "--pos"), "pieri-inv": ("--word", "--perm"),
                  "verify": ("--perm",)}


@st.composite
def _shuffle_argv(draw):
    """A `shuffle` command line: the options its action needs are there nine
    times in ten, the others half the time; one value in ten is malformed."""
    action = draw(st.sampled_from(sorted(_SHUFFLE_NEEDS)))
    options = {
        "--i": (st.integers(-2, 6).map(str), ["x"]),
        "--word": _WORDS,
        "--pos": (st.lists(st.integers(-1, 9), min_size=1, max_size=3).map(
            lambda ps: ",".join(map(str, ps))), ["", "x", "1,", "2;3"]),
        "--perm": _PERMS,
        "--variant": (st.sampled_from(["c", "r"]), ["x"]),
        "--k": (st.integers(-1, 3).map(str), ["x"]),
        "--rule": (st.sampled_from(["monk", "pieri-c", "pieri-r"]), ["pieri"]),
        "--format": (st.sampled_from(["text", "json"]), ["xml"]),
    }
    argv = ["shuffle", action]
    for flag, (good, bad) in options.items():
        needed = flag in _SHUFFLE_NEEDS[action]
        if (draw(st.integers(1, 10)) != 7) if needed else draw(st.booleans()):
            # flag=value: argparse reads a separate "-1,2" as an option
            argv.append(f"{flag}={_maybe_malformed(draw, good, bad)}")
    if draw(st.booleans()):
        argv.append("--trace")
    return argv


@settings(max_examples=200, deadline=None)
@given(_shuffle_argv())
def test_shuffle_argv_fuzz(argv):
    """Any shuffle command line exits 0, 1 (domain error) or 2 (usage error),
    never 3 (internal error), and never prints a traceback."""
    code, _, err = _captured(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


_NON_ASCII_DIGITS = [chr(c) for c in range(128, 0x110000) if chr(c).isdigit()]


@settings(max_examples=200, deadline=None)
@given(st.text("0123456789,- ", max_size=6), st.sampled_from(_NON_ASCII_DIGITS),
       st.text("0123456789,- ", max_size=6))
@example("", "\u0663", "")
@example("2,", "\u0661", "")
def test_cli_integers_reject_non_ascii_digits(before, digit, after):
    """int() alone reads the digits of other scripts; the integer options,
    shapes and positions take only 0-9, as the permutation parser does."""
    text = before + digit + after
    with pytest.raises(ValueError):
        cli._int(text)
    for parse in (cli._parse_shape, lambda t: cli._parse_integers(t, "positions")):
        with pytest.raises(ParseError):
            parse(text)


def _choices(names):
    return st.sampled_from(names), ["x"]


# command -> (its positionals, its options: a switch maps to None)
_COMMAND_ARGS = {
    "perm": ([_choices(tuple(cli._PERM_ACTIONS)), _PERMS],
             {"--word": _WORDS, "--power": _SMALL_INTS}),
    "poly": ([_choices(tuple(cli._POLY_FAMILIES)),
              (st.one_of(_PERMS[0], _SHAPES[0]), _PERMS[1] + _SHAPES[1])],
             {"--vars": _SMALL_INTS, "--lower-bound": _SMALL_INTS}),
    "expand": ([_choices(tuple(cli._EXPAND_RULES)),
                (st.one_of(_PERMS[0], _SHAPES[0]), _PERMS[1] + _SHAPES[1])],
               {"--vars": _SMALL_INTS}),
    "pipedreams": ([_choices(tuple(cli._DREAM_POOLS)), _PERMS],
                   {"--all": None, "--max-excess": _SMALL_INTS}),
    "complex": ([_choices(("subword", "slide", "delta-w", "tableau", "classify",
                           "decompose-ssyt", "sr-generators"))],
                {"--word": _WORDS, "--perm": _PERMS, "--target": _WORDS,
                 "--words": (st.lists(_WORDS[0], min_size=1, max_size=3).map(";".join),
                             ["", "1;;2"]),
                 "--family": _choices(("syt", "ssyt", "ct", "wct")), "--shape": _SHAPES,
                 "--vars": _SMALL_INTS, "--classify": None}),
}


@st.composite
def _command_argv(draw, command):
    """A command line of `command`: each positional nine times in ten, each
    option half the time, one value in ten malformed, and --format before
    the command, after it or not at all."""
    positionals, options = _COMMAND_ARGS[command]
    argv = [command]
    for good, bad in positionals:
        if draw(st.integers(1, 10)) != 7:
            argv.append(_maybe_malformed(draw, good, bad))
    for flag, values in options.items():
        if draw(st.booleans()):
            # flag=value: argparse reads a separate "-1,2" as an option
            argv.append(flag if values is None
                        else f"{flag}={_maybe_malformed(draw, *values)}")
    fmt = "--format=" + _maybe_malformed(draw, st.sampled_from(["text", "json", "svg", "dot"]),
                                         ["xml"])
    placement = draw(st.sampled_from(["before", "after", "none"]))
    if placement == "before":
        return [fmt, *argv]
    return [*argv, fmt] if placement == "after" else argv


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_command_argv_fuzz(command, data):
    """Any command line of the other commands exits 0, 1 or 2, never 3, and
    never prints a traceback; the parser is built for the command it names."""
    argv = data.draw(_command_argv(command))
    code, _, err = _captured(argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
