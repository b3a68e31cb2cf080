import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schubcalc import cli, poly
from schubcalc.perms import parse_permutation
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
