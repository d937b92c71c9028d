"""Command-line pipeline: every stage of the toolkit as a subcommand.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 inputs parsed but the requested computation is impossible.

Subcommands::

    build-graph    strokes + variants -> reduced class-inclusion snapshot
    annotate       add phoneticity / semanticity / synset annotations
    chains         emit least-phonetic or most-semantic chains
    freqdist       pairwise distance matrix of frequency lists
    features       baseline or chain-augmented document vectors
    evaluate       cross-validated linear classification of a vectors file
    query-unknown  synset distribution approximating an unannotated class
"""

from __future__ import annotations

import argparse
import sys

from . import formats
from .charstore import CharacterStore, Language
from .classify import DEFAULT_C, DEFAULT_K, DEFAULT_SEED, cross_validate
from .errors import DataError, InputError
from .features import (DEFAULT_LANGUAGE, DEFAULT_MIN_COUNT, DEFAULT_STRATEGY,
                       STRATEGIES, document_vectors)
from .freqlists import DEFAULT_N, aggregate_ufl, distance_matrix
from .graphcore import CHAIN_KINDS, lift_to_classes, transitive_reduce
from .inferschar import (DEFAULT_DIRECTION, DEFAULT_MAX_DEPTH, DIRECTIONS,
                         semantic_approximation)
from .phonetics import (
    DEFAULT_BINS,
    FeatureTable,
    class_readings,
    phoneticity,
    phoneticity_histogram,
)
from .semantics import SEMANTICITY_COEFFICIENTS, annotate_classes, annotate_semanticity
from .strokesig import DEFAULT_TOLERANCE, char_signature, detect_inclusions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage is 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -- subcommands -------------------------------------------------------------
# Each returns the rows of its summary, if it has one; ``main`` prints them.

def cmd_build_graph(args: argparse.Namespace) -> dict[str, object]:
    strokes = formats.load_file(formats.parse_strokes, args.strokes)
    if args.codepoint_range:
        lo, hi = formats.codepoint_range(args.codepoint_range)
        strokes = {cp: s for cp, s in strokes.items() if lo <= cp <= hi}
    if not strokes:
        raise DataError("no characters to build a graph from")
    # each stage is dropped once the next holds what it needs, and each
    # character's strokes once its signature is made
    chars = list(strokes)
    sigs = {cp: char_signature(strokes.pop(cp)) for cp in chars}
    del strokes
    char_edges = detect_inclusions(sigs, tolerance=args.tolerance)
    del sigs

    variant_pairs = (formats.load_file(formats.parse_variants, args.variants)
                     if args.variants else set())
    frequencies = (formats.load_file(formats.parse_freq_counts, args.ufl).as_dict()
                   if args.ufl else None)
    store = CharacterStore(set(chars) | {cp for pair in variant_pairs for cp in pair},
                           variant_pairs, frequencies)

    lifted = lift_to_classes(char_edges, store)
    inclusions = len(char_edges)
    del char_edges
    reduced = transitive_reduce(lifted)
    del lifted
    reduced.meta["tolerance"] = repr(args.tolerance)

    formats.save_snapshot(args.out, reduced, store)
    return {"characters": len(chars), "character_inclusions": inclusions,
            "classes": len(reduced.nodes),
            "class_inclusions": reduced.edge_count()}


def cmd_annotate(args: argparse.Namespace) -> dict[str, object]:
    # flags that act only on the data of another flag's file
    for flag, needed in (("relations", "synsets"), ("definitions", "synsets"),
                         ("phi_histogram", "readings"), ("languages", "readings"),
                         ("feature_table", "readings")):
        if getattr(args, flag) and not getattr(args, needed):
            raise InputError(f"--{flag.replace('_', '-')} needs --{needed}")
    g, store, annotations = formats.load_file(formats.parse_snapshot, args.snapshot)

    annotated_phi = []
    if args.readings:
        # a table per invocation: its memos end with the command
        table = FeatureTable.load(args.feature_table)
        # each language once, in order of first mention
        languages = list(dict.fromkeys(Language.parse(tok) for tok in
                                       args.languages.split(","))) \
            if args.languages else list(Language)
        readings = class_readings(
            formats.load_file(formats.parse_readings, args.readings), store)
        for lang in languages:
            try:
                phoneticity(g, readings, lang, table)
                annotated_phi.append(lang)
            except DataError:
                print(f"note: no computable {lang.value} distances; skipped",
                      file=sys.stderr)

    radicals = (formats.load_file(formats.parse_radicals, args.radicals)
                if args.radicals else {})
    synstore = (formats.load_file(formats.parse_synsets, args.synsets)
                if args.synsets else None)
    if args.relations:  # checked above to come with --synsets
        formats.load_file(formats.parse_relations, args.relations, store=synstore)
    annotate_semanticity(g, store, synstore, radicals,
                         coefficients=tuple(args.coefficients))

    if synstore is not None:
        definitions = (formats.load_file(formats.parse_definitions, args.definitions)
                       if args.definitions else {})
        annotations = annotate_classes(synstore, definitions, store.classes)

    any_s = float(g.meta.get("s_raw_max", "0")) > 0
    if not annotated_phi and not any_s and not annotations:
        raise DataError("no edge could be annotated with phoneticity or "
                        "semanticity and no class received synsets")

    if args.phi_histogram:
        lines = ["language,bin_lo,bin_hi,count"]
        for lang in annotated_phi:
            edges, counts = phoneticity_histogram(g, lang, bins=args.bins)
            for i, c in enumerate(counts):
                lines.append(f"{lang.value},{edges[i]:g},{edges[i + 1]:g},{c}")
        formats.write_lines(args.phi_histogram, lines)

    formats.save_snapshot(args.out, g, store, annotations)
    return {"phi_languages": " ".join(l.value for l in annotated_phi) or "-",
            "s_raw_max": g.meta.get("s_raw_max", "0"),
            "annotated_classes": len(annotations)}


def _class_id(token: str, store: CharacterStore) -> int:
    """The class a ``--class`` token names: ``U+XXXX`` (or ``u+``) the
    class of that member codepoint, any other token the class of that id."""
    if token[:2] in ("U+", "u+"):
        cp = formats.codepoint(token[2:])
        if cp not in store.class_of:
            raise DataError(f"U+{cp:04X} is in no class")
        return store.class_of[cp]
    cid = formats.decimal(token, "class id", 0)
    if cid not in store.by_id:
        raise DataError(f"no class with id {cid}")
    return cid


def _resolve_class(args, store: CharacterStore) -> list[int]:
    if args.all:
        return [cls.id for cls in store.classes]
    # each class once, in order of first mention
    return list(dict.fromkeys(_class_id(token, store)
                              for token in getattr(args, "class")))


def cmd_chains(args: argparse.Namespace) -> None:
    language = Language.parse(args.language)
    g, store, _ = formats.load_file(formats.parse_snapshot, args.snapshot)
    kind = CHAIN_KINDS[args.kind]
    lines = [f"{cid}\t" + " ".join(str(c) for c in kind.chain(g, cid, language))
             for cid in _resolve_class(args, store)]
    formats.write_lines(args.out, lines)


def cmd_freqdist(args: argparse.Namespace) -> None:
    lists = [formats.load_file(formats.parse_freq_counts, p) for p in args.lists]
    mat = distance_matrix(lists, args.n)
    # each list is named by its path as given: basenames can repeat
    lines = ["\t".join(["list"] + args.lists)]
    for name, row in zip(args.lists, mat):
        lines.append("\t".join([name] + [f"{d:.6f}" for d in row]))
    formats.write_lines(args.out, lines)
    if args.ufl_out:
        ufl = aggregate_ufl(lists, renormalize=args.renormalize)
        formats.write_lines(args.ufl_out, [f"{cp:X}\t{f:.12g}"
                                           for cp, f in ufl.entries])


def cmd_features(args: argparse.Namespace) -> dict[str, object]:
    language = Language.parse(args.language)
    g, store, _ = formats.load_file(formats.parse_snapshot, args.snapshot)
    docs = formats.load_file(formats.parse_corpus, args.corpus)
    # every error is raised here, before --out is opened
    vocab, vectors = document_vectors(
        g, [text for _, text in docs], store.class_of,
        STRATEGIES[args.strategy], language, min_count=args.min_count)

    with formats.open_output(args.out) as fh:
        formats.write_vectors(fh, (label for label, _ in docs), vectors)
    if args.vocab_out:
        lines = [f"{cid}\t{vocab.provenance[cid]}"
                 for cid in sorted(vocab.provenance)]
        formats.write_lines(args.vocab_out, lines)
    return {"documents": len(docs), "vocabulary": len(vocab),
            "vocabulary_added": len(vocab.added_ids())}


def cmd_evaluate(args: argparse.Namespace) -> None:
    # every category needs an example in each fold
    labels, vectors = formats.load_file(formats.parse_vectors, args.vectors,
                                       min_per_label=args.k)
    report = cross_validate(vectors, labels, k=args.k, C=args.C, seed=args.seed)
    formats.write_lines(args.out, report.lines())
    if report.models_capped:
        print(f"note: {report.models_capped} of {report.models} one-vs-rest "
              f"models stopped at the {report.max_iterations}-iteration cap",
              file=sys.stderr)


def cmd_query_unknown(args: argparse.Namespace) -> None:
    g, store, annotations = formats.load_file(formats.parse_snapshot, args.snapshot)
    targets = _resolve_class(args, store)
    lines = []
    for cid in targets:
        vec = semantic_approximation(g, annotations, cid,
                                     max_depth=args.max_depth,
                                     direction=args.direction)
        if not vec:
            lines.append(f"{cid}\t-\t0")
            continue
        for sid, w in sorted(vec.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"{cid}\t{sid}\t{w:.6f}")
    formats.write_lines(args.out, lines)


# -- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sinograph",
                     description="Subcharacter inclusion graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # the classes chains and query-unknown answer for: listed, or all
    selector = argparse.ArgumentParser(add_help=False)
    group = selector.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", action="append",
                       help="class id, or a member codepoint as U+XXXX")
    group.add_argument("--all", action="store_true")

    p = sub.add_parser("build-graph", help="mine inclusions, build the "
                       "reduced class graph")
    p.add_argument("--strokes", required=True)
    p.add_argument("--variants")
    p.add_argument("--ufl", help="frequency counts used to pick class "
                   "representatives")
    p.add_argument("--tolerance", type=formats.real, default=DEFAULT_TOLERANCE)
    p.add_argument("--codepoint-range", metavar="LO-HI",
                   help="restrict to a hex codepoint range, e.g. 4E00-9FFF")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph, outputs=("out",))

    p = sub.add_parser("annotate", help="compute phoneticity, semanticity "
                       "and synset annotations")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--readings")
    p.add_argument("--radicals")
    p.add_argument("--synsets")
    p.add_argument("--relations")
    p.add_argument("--definitions")
    p.add_argument("--languages", help="comma-separated subset of cmn,ja_on,ja_kun")
    p.add_argument("--feature-table", help="custom phoneme feature TSV")
    p.add_argument("--coefficients", type=formats.real, nargs=3,
                   default=list(SEMANTICITY_COEFFICIENTS),
                   metavar=("F1", "F2", "R"))
    p.add_argument("--phi-histogram", help="write a phi histogram CSV here")
    p.add_argument("--bins", type=formats.decimal, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_annotate, outputs=("out", "phi_histogram"))

    p = sub.add_parser("chains", parents=[selector],
                       help="least-phonetic / most-semantic chains")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--kind", choices=list(CHAIN_KINDS), required=True)
    p.add_argument("--language", default=DEFAULT_LANGUAGE.value)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_chains, outputs=("out",))

    p = sub.add_parser("freqdist", help="pairwise frequency-list distances")
    p.add_argument("--lists", nargs="+", required=True)
    p.add_argument("--n", type=formats.decimal, default=DEFAULT_N)
    p.add_argument("--ufl-out", help="write the aggregated list here")
    p.add_argument("--renormalize", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_freqdist, outputs=("out", "ufl_out"))

    p = sub.add_parser("features", help="document feature vectors")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=formats.decimal, default=DEFAULT_MIN_COUNT)
    p.add_argument("--strategy", choices=list(STRATEGIES), default=DEFAULT_STRATEGY)
    p.add_argument("--language", default=DEFAULT_LANGUAGE.value)
    p.add_argument("--vocab-out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features, outputs=("out", "vocab_out"))

    p = sub.add_parser("evaluate", help="cross-validated classification")
    p.add_argument("--vectors", required=True)
    p.add_argument("--k", type=formats.decimal, default=DEFAULT_K)
    p.add_argument("--C", type=formats.real, default=DEFAULT_C)
    p.add_argument("--seed", type=formats.decimal, default=DEFAULT_SEED)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate, outputs=("out",))

    p = sub.add_parser("query-unknown", parents=[selector],
                       help="approximate the semantics of an unannotated class")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--max-depth", type=formats.decimal, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--direction", choices=DIRECTIONS, default=DEFAULT_DIRECTION)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_query_unknown, outputs=("out",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        # an empty value would read as the flag left out
        for name, value in vars(args).items():
            if "" in (value if isinstance(value, list) else [value]):
                raise InputError(f"--{name.replace('_', '-')} has an empty value")
        # at most one artefact takes standard output, and then the summary
        # goes to standard error
        on_stdout = [f"--{flag.replace('_', '-')}" for flag in args.outputs
                     if getattr(args, flag) == "-"]
        if len(on_stdout) > 1:
            raise InputError(f"{' and '.join(on_stdout)} both write to "
                             f"standard output")
        summary = args.func(args) or {}
        for key, value in summary.items():
            print(f"{key}\t{value}", file=sys.stderr if on_stdout else sys.stdout)
        return EXIT_OK
    except InputError as exc:
        print(f"sinograph: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"sinograph: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DataError as exc:
        print(f"sinograph: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
