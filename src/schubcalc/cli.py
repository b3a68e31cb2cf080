"""Batch command line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 on success, 1 on
a domain error (well-formed input outside an operation's domain), 2 on a
usage error (argparse failures and malformed permutation/word syntax, which
report the position of the offending character), 3 on an internal error
(any other exception, such as a failed invariant check, reported as one line
`error: internal: <type>: <message>`).  A reader that closes stdout early
also gives exit 1.  No exit prints a traceback.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import complexes, perms, pipedreams, poly, shapes, shuffles
from .perms import ParseError


def _parse_shape(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad shape {text!r}", 0) from exc


def _require(args, name: str, flag: str | None = None):
    value = getattr(args, name, None)
    if value is None:
        raise ParseError(f"missing required argument {flag or name}", 0)
    return value


def _emit(args, payload_text: str, payload_json) -> None:
    if args.format == "json":
        import json  # imported here: text output, the default, does not need it
        print(json.dumps(payload_json, sort_keys=True))
    else:
        print(payload_text)


# -- perm ----------------------------------------------------------------


def _perm_reduced_words(args):
    words = perms.reduced_words(perms.parse_permutation(_require(args, "perm")))
    return "\n".join(perms.format_word(w) for w in words), [list(w) for w in words]


def _perm_lehmer(args):
    code = perms.lehmer_code(perms.parse_permutation(_require(args, "perm")))
    return ",".join(map(str, code)), list(code)


def _permutation_payload(result):
    text = perms.format_permutation(result)
    return text, {"permutation": text}


_PERM_ACTIONS = {
    "reduced-words": _perm_reduced_words,
    "lehmer": _perm_lehmer,
    "demazure": lambda args: _permutation_payload(
        perms.demazure(perms.parse_word(_require(args, "word", "--word")))),
    "tau": lambda args: _permutation_payload(
        perms.tau(perms.parse_permutation(_require(args, "perm")), args.power)),
}


def _cmd_perm(args) -> int:
    text, data = _PERM_ACTIONS[args.action](args)
    _emit(args, text, data)
    return 0


# -- poly ----------------------------------------------------------------


_POLY_FAMILIES = {
    "schubert": lambda args: poly.schubert(perms.parse_permutation(args.arg)),
    "grothendieck": lambda args: poly.grothendieck(perms.parse_permutation(args.arg)),
    "schur": lambda args: poly.schur(_parse_shape(args.arg), args.vars),
    "fqs": lambda args: poly.fundamental_quasisymmetric(_parse_shape(args.arg), args.vars),
    "slide": lambda args: poly.slide(_parse_shape(args.arg)),
    "glide": lambda args: poly.glide(_parse_shape(args.arg)),
    "backstable": lambda args: poly.backstable_truncation(perms.parse_permutation(args.arg),
                                                          args.lower_bound),
}


def _cmd_poly(args) -> int:
    result = _POLY_FAMILIES[args.family](args)
    _emit(args, str(result), result.to_json())
    return 0


# -- expand --------------------------------------------------------------


# rule -> (its expansion of args; for an index of that expansion, its sort
# key, its text, its JSON field and its JSON value)
_EXPAND_RULES = {
    "schubert-slides": (
        lambda args: poly.expand_schubert_into_slides(perms.parse_permutation(args.arg)),
        lambda word: word, perms.format_word, "word", list),
    "schur-fqs": (
        lambda args: poly.expand_schur_into_fundamentals(_parse_shape(args.arg), args.vars),
        lambda tableau: tableau, lambda tableau: str(shapes.tableau_to_json(tableau)),
        "tableau", shapes.tableau_to_json),
    "groth-glides": (
        lambda args: poly.expand_grothendieck_into_glides(perms.parse_permutation(args.arg)),
        pipedreams.PipeDream.sorted_crosses, lambda dream: str(list(dream.sorted_crosses())),
        "pipe_dream", pipedreams.to_json),
}


def _cmd_expand(args) -> int:
    expand, key, text, field, value = _EXPAND_RULES[args.rule]
    items = sorted(expand(args).items(), key=lambda item: key(item[0]))
    _emit(args, "\n".join(f"{text(index)}: {p}" for index, p in items),
          [{field: value(index), "polynomial": p.to_json()} for index, p in items])
    return 0


# -- pipedreams ----------------------------------------------------------


_DREAM_POOLS = {
    "list": lambda p, args: (pipedreams.all_pipe_dreams(p, max_excess=args.max_excess)
                             if args.all else pipedreams.reduced_pipe_dreams(p)),
    "qy": lambda p, args: pipedreams.quasi_yamanouchi_pipe_dreams(p, reduced_only=not args.all),
    "render": lambda p, args: pipedreams.reduced_pipe_dreams(p),
}


def _cmd_pipedreams(args) -> int:
    if args.max_excess is not None:  # only `list --all` reads it
        if args.max_excess < 0:
            raise ParseError(f"--max-excess must be at least 0, not {args.max_excess}", 0)
        if args.action != "list" or not args.all:
            raise ParseError("--max-excess applies only to `list --all`", 0)
    if args.all and args.action == "render":  # render draws the reduced dreams only
        raise ParseError("--all applies only to `list` and `qy`", 0)
    pool = _DREAM_POOLS[args.action](perms.parse_permutation(args.perm), args)
    dreams = sorted(pool, key=lambda d: d.sorted_crosses())
    if args.action != "render":
        _emit(args, "\n".join(repr(d) for d in dreams),
              [pipedreams.to_json(d) for d in dreams])
    elif args.format == "svg":
        print("\n".join(pipedreams.render_svg(d) for d in dreams))
    else:
        print("\n\n".join(pipedreams.render_ascii(d) for d in dreams))
    return 0


# -- complex -------------------------------------------------------------


def _subword_from_args(args) -> complexes.SimplicialComplex:
    return complexes.subword_complex(perms.parse_word(_require(args, "word", "--word")),
                                     perms.parse_permutation(_require(args, "perm", "--perm")))


def _word_set_from_args(args) -> complexes.SimplicialComplex:
    words = [perms.parse_word(w) for w in _require(args, "words", "--words").split(";")]
    return complexes.word_set_complex(perms.parse_word(_require(args, "word", "--word")), words)


_COMPLEX_BUILDERS = {
    "subword": _subword_from_args,
    "sr-generators": _subword_from_args,
    "slide": lambda args: complexes.slide_complex(
        perms.parse_word(_require(args, "word", "--word")),
        perms.parse_word(_require(args, "target", "--target"))),
    "delta-w": _word_set_from_args,
    "tableau": lambda args: complexes.tableau_complex(
        args.family, _parse_shape(_require(args, "shape", "--shape")), args.vars),
}


def _complex_from_args(args) -> complexes.SimplicialComplex:
    kind = args.kind
    if kind == "classify":
        # infer the complex family from the flags that were supplied
        if args.shape is not None:
            kind = "tableau"
        elif args.target is not None:
            kind = "slide"
        elif args.words is not None:
            kind = "delta-w"
        else:
            kind = "subword"
    return _COMPLEX_BUILDERS[kind](args)


def _cmd_complex(args) -> int:
    if args.kind == "decompose-ssyt":
        decomposition = complexes.ssyt_standardization_decomposition(
            _parse_shape(_require(args, "shape", "--shape")), args.vars)
        lines = []
        data = []
        for t, sub in decomposition.items():
            result = complexes.classify_ball_or_sphere(sub)
            lines.append(f"{shapes.tableau_to_json(t)}: {len(sub.facets)} facets, {result.kind}")
            data.append({"tableau": shapes.tableau_to_json(t),
                         "complex": sub.to_json(), "kind": result.kind})
        _emit(args, "\n".join(lines), data)
        return 0
    if args.kind == "sr-generators":
        complex_ = _complex_from_args(args)
        gens = sorted(sorted(g) for g in complexes.stanley_reisner_generators(complex_))
        _emit(args, "\n".join(str(g) for g in gens), gens)
        return 0

    complex_ = _complex_from_args(args)
    if args.classify or args.kind == "classify":
        result = complexes.classify_ball_or_sphere(complex_)
        payload = {"kind": result.kind,
                   "boundary_ridges": sorted(sorted(r) for r in result.boundary_ridges),
                   "reason": result.reason}
        _emit(args, f"{result.kind}" + (f" ({result.reason})" if result.reason else ""),
              payload)
        return 0
    labels = None
    if args.kind in ("subword", "slide", "delta-w") and args.word:
        ambient = perms.parse_word(args.word)
        labels = {p: f"{p}:{ambient[p - 1]}" for p in range(1, len(ambient) + 1)}
    if args.format == "dot":
        print(complexes.to_dot(complex_, labels))
    elif args.format == "svg":
        print(complexes.to_svg(complex_, labels))
    else:
        _emit(args, repr(complex_), complex_.to_json())
    return 0


# -- shuffle -------------------------------------------------------------


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad positions {text!r}", 0) from exc


def _shuffle_insert(args) -> int:
    """monk and pieri: insert at --pos; with --trace, the steps on stderr."""
    positions = _parse_positions(_require(args, "pos", "--pos"))
    monk = args.action == "monk"
    if monk and len(positions) != 1:
        raise ParseError("monk insertion takes one position", 0)
    trace: list[str] | None = [] if args.trace else None
    word = perms.parse_word(_require(args, "word", "--word"))
    result = (shuffles.monk_shuffle(args.i, word, positions[0], trace=trace) if monk else
              shuffles.pieri_shuffle(args.i, word, positions, variant=args.variant, trace=trace))
    if trace:
        print("\n".join(trace), file=sys.stderr)
    _emit(args, perms.format_word(result), list(result))
    return 0


def _shuffle_monk_inv(args) -> int:
    word, position = shuffles.monk_unshuffle(
        args.i, perms.parse_word(_require(args, "word", "--word")),
        perms.parse_permutation(_require(args, "perm", "--perm")))
    _emit(args, f"{perms.format_word(word)} @ {position}",
          {"word": list(word), "position": position})
    return 0


def _shuffle_pieri_inv(args) -> int:
    word = perms.parse_word(_require(args, "word", "--word"))
    source = perms.parse_permutation(_require(args, "perm", "--perm"))
    k = len(word) - source.length
    if k < 1:
        raise ValueError(f"word {perms.format_word(word)} is not longer than "
                         f"{perms.format_permutation(source)} (k = {k}, need k >= 1)")
    if not shuffles.pieri_relation(source, perms.prod_word(word), args.i, k, args.variant):
        raise ValueError(f"word {perms.format_word(word)} is not a reduced word for a "
                         f"Pieri term of {perms.format_permutation(source)} "
                         f"(i = {args.i}, k = {k}, variant {args.variant})")
    marked = shuffles.pieri_unshuffle(args.i, word, source, variant=args.variant)
    word, positions = marked.word_and_positions()
    _emit(args, f"{perms.format_word(word)} @ {','.join(map(str, positions))}",
          {"word": list(word), "positions": list(positions)})
    return 0


def _shuffle_verify(args) -> int:
    """Shuffle every reduced word of --perm at every choice of k positions
    (Monk: k = 1), compare the outputs with the reduced words of the
    product's terms, and invert each output."""
    target = perms.parse_permutation(_require(args, "perm", "--perm"))
    i, k = args.i, args.k
    label = f"{args.rule} bijection on {args.perm}, i={i}"
    if args.rule == "monk":
        def unshuffle(out):
            w, j = shuffles.monk_unshuffle(i, out, target)
            return w, (j,)

        k = 1
        shuffle = lambda w, pos: shuffles.monk_shuffle(i, w, pos[0], validate=True)
        terms = lambda: shuffles.monk_rhs(target, i)
    else:
        if k < 1:
            raise ValueError("need k >= 1")
        variant = args.rule.removeprefix("pieri-")
        label += f", k={k}"
        shuffle = lambda w, pos: shuffles.pieri_shuffle(i, w, pos, variant=variant, validate=True)
        unshuffle = lambda out: shuffles.pieri_unshuffle(
            i, out, target, variant=variant).word_and_positions()
        terms = lambda: shuffles.pieri_targets(target, i, k, variant)
    outputs = {(w, pos): shuffle(w, pos) for w in perms.reduced_words(target)
               for pos in itertools.combinations(range(1, len(w) + k + 1), k)}
    ok = sorted(outputs.values()) == sorted(w for s in terms() for w in perms.reduced_words(s))
    for key, out in sorted(outputs.items()):
        ok = ok and unshuffle(out) == key
    print(f"{label}: {'ok' if ok else 'FAILED'} ({len(outputs)} shuffles)")
    return 0 if ok else 1


_SHUFFLE_ACTIONS = {
    "monk": _shuffle_insert,
    "monk-inv": _shuffle_monk_inv,
    "pieri": _shuffle_insert,
    "pieri-inv": _shuffle_pieri_inv,
    "verify": _shuffle_verify,
}


def _cmd_shuffle(args) -> int:
    return _SHUFFLE_ACTIONS[args.action](args)


def _cmd_selftest(args) -> int:
    from . import selftest  # imported here: no other command runs the corpus
    return selftest.run(verbose=True)


# -- wiring --------------------------------------------------------------


def _perm_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=tuple(_PERM_ACTIONS))
    p.add_argument("perm", nargs="?", help="bracketed one-line notation")
    p.add_argument("--word", help="word argument for demazure")
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(func=_cmd_perm)


def _poly_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=tuple(_POLY_FAMILIES))
    p.add_argument("arg", help="permutation or comma-separated shape")
    p.add_argument("--vars", type=int, default=3, help="number of variables")
    p.add_argument("--lower-bound", type=int, default=1, dest="lower_bound")
    p.set_defaults(func=_cmd_poly)


def _expand_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("rule", choices=tuple(_EXPAND_RULES))
    p.add_argument("arg")
    p.add_argument("--vars", type=int, default=3)
    p.set_defaults(func=_cmd_expand)


def _pipedreams_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=tuple(_DREAM_POOLS))
    p.add_argument("perm")
    p.add_argument("--all", action="store_true", help="include non-reduced pipe dreams")
    p.add_argument("--max-excess", type=int, default=None, dest="max_excess")
    p.set_defaults(func=_cmd_pipedreams)


def _complex_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("subword", "slide", "delta-w", "tableau",
                                    "classify", "decompose-ssyt", "sr-generators"))
    p.add_argument("--word", help="ambient word")
    p.add_argument("--perm", help="target permutation")
    p.add_argument("--target", help="target word for slide complexes")
    p.add_argument("--words", help="semicolon-separated word set for delta-w")
    p.add_argument("--family", choices=shapes.FAMILIES, default="ssyt")
    p.add_argument("--shape", help="comma-separated shape")
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--classify", action="store_true")
    p.set_defaults(func=_cmd_complex)


def _shuffle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=tuple(_SHUFFLE_ACTIONS))
    p.add_argument("--i", type=int, required=False, default=1)
    p.add_argument("--word", required=False)
    p.add_argument("--pos", help="position (monk) or comma-separated positions (pieri)")
    p.add_argument("--perm", help="source permutation for the inverses / verify")
    p.add_argument("--variant", choices=("c", "r"), default="c")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--rule", choices=("monk", "pieri-c", "pieri-r"), default="monk")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_shuffle)


# command -> (its help line, the function adding its arguments), in help order
_COMMANDS = {
    "perm": ("permutation and word operations", _perm_arguments),
    "poly": ("polynomial families", _poly_arguments),
    "expand": ("expansion identities", _expand_arguments),
    "pipedreams": ("pipe dream enumeration and rendering", _pipedreams_arguments),
    "complex": ("simplicial complexes", _complex_arguments),
    "shuffle": ("Monk/Pieri insertion bijections", _shuffle_arguments),
    "selftest": ("run the built-in verification corpus",
                 lambda p: p.set_defaults(func=_cmd_selftest)),
}


def _check_format(args) -> None:
    """Every command prints text and JSON but `pipedreams render`, which
    draws text and SVG; the complexes that print themselves also draw SVG
    and DOT.  Any other --format value is a usage error, not ignored."""
    render = args.command == "pipedreams" and args.action == "render"
    drawn = (args.command == "complex" and not args.classify
             and args.kind in ("subword", "slide", "delta-w", "tableau"))
    if args.format == "json" and render:
        raise ParseError("--format json does not apply to `pipedreams render`", 0)
    if args.format == "svg" and not (render or drawn):
        raise ParseError("--format svg applies only to `pipedreams render` and "
                         "`complex subword|slide|delta-w|tableau` without --classify", 0)
    if args.format == "dot" and not drawn:
        raise ParseError("--format dot applies only to "
                         "`complex subword|slide|delta-w|tableau` without --classify", 0)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of one command line.  Every command is registered with its
    help line, which is all the top-level usage, help and errors print; only
    the command that argv names gets its arguments and its -h, as the others
    are never parsed.  That command is the first token naming one: before
    it come top-level options only, and no value of --format names one."""
    # --format may come before or after the subcommand; given in both places,
    # the one after wins.  Each subparser has its own --format action that
    # defaults to SUPPRESS, so a subcommand without one keeps the top-level
    # value (default text) instead of writing a default over it.
    formats = ("text", "json", "svg", "dot")
    parser = argparse.ArgumentParser(prog="schubcalc")
    parser.add_argument("--format", choices=formats, default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, add_help=name == chosen)
        if name == chosen:
            p.add_argument("--format", choices=formats, default=argparse.SUPPRESS)
            add_arguments(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help prints to stdout before argparse exits
            sys.stdout.flush()
            raise
        _check_format(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone.  As in the SIGPIPE note of Python's `signal`
        # docs, point stdout at devnull so the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
