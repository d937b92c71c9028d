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
from .charstore import CharacterStore, Language, Reading
from .classify import DEFAULT_C, DEFAULT_K, cross_validate
from .errors import DataError, InputError
from .features import (
    CHAIN_KINDS,
    DEFAULT_LANGUAGE,
    DEFAULT_MIN_COUNT,
    STRATEGIES,
    augment,
    baseline_vectors,
)
from .freqlists import aggregate_ufl, distance_matrix
from .graphcore import from_edges, lift_to_classes, transitive_reduce
from .inferschar import DEFAULT_MAX_DEPTH, semantic_approximation
from .phonetics import DEFAULT_BINS, FeatureTable, phoneticity, phoneticity_histogram
from .semantics import (
    SEMANTICITY_COEFFICIENTS,
    SynsetStore,
    annotate_classes,
    annotate_semanticity,
)
from .strokesig import DEFAULT_TOLERANCE, char_signature, detect_inclusions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage is 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    tokens = text.split("-")
    if len(tokens) != 2 or not all(formats.HEX_NUMBER.fullmatch(t) for t in tokens):
        raise InputError(f"bad codepoint range {text!r}; expected HEX-HEX")
    lo, hi = (int(t, 16) for t in tokens)
    if lo > hi:
        raise InputError(f"empty codepoint range {text!r}")
    return lo, hi


def _load_synset_store(synsets_path: str, relations_path: str | None) -> SynsetStore:
    store = SynsetStore()
    synsets = formats.load_synsets(synsets_path)
    for sid, lemmas in synsets:
        store.add_synset(sid, lemmas)
    if relations_path:
        declared = {sid for sid, _ in synsets}
        for rel in formats.load_relations(relations_path, declared):
            store.add_relation(rel.source, rel.relation_type, rel.target)
    return store


# -- subcommands -------------------------------------------------------------

def cmd_build_graph(args: argparse.Namespace) -> int:
    strokes = formats.load_strokes(args.strokes)
    if args.codepoint_range:
        lo, hi = _parse_range(args.codepoint_range)
        strokes = {cp: s for cp, s in strokes.items() if lo <= cp <= hi}
    if not strokes:
        raise DataError("no characters to build a graph from")
    sigs = {cp: char_signature(s) for cp, s in strokes.items()}
    char_edges = detect_inclusions(sigs, tolerance=args.tolerance)

    char_graph = from_edges(char_edges, nodes=strokes.keys())
    char_reduced = transitive_reduce(char_graph)

    variant_pairs = formats.load_variants(args.variants) if args.variants else set()
    frequencies = (formats.load_freq_counts(args.ufl).as_dict()
                   if args.ufl else None)
    chars = set(strokes) | {cp for pair in variant_pairs for cp in pair}
    store = CharacterStore(chars, variant_pairs, frequencies)

    lifted = lift_to_classes(char_reduced.edges(), store.classes)
    reduced = transitive_reduce(lifted)
    reduced.meta["tolerance"] = repr(args.tolerance)

    formats.save_snapshot(args.out, reduced, store.classes)
    print(f"characters\t{len(strokes)}")
    print(f"character_inclusions\t{len(char_edges)}")
    print(f"character_inclusions_reduced\t{char_reduced.edge_count()}")
    print(f"classes\t{reduced.node_count()}")
    print(f"class_inclusions\t{reduced.edge_count()}")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    for flag, path in (("--relations", args.relations),
                       ("--definitions", args.definitions)):
        if path and not args.synsets:
            raise InputError(f"{flag} needs --synsets")
    g, classes, annotations = formats.load_snapshot(args.snapshot)

    # a table per invocation: its memos end with the command
    table = FeatureTable.load(args.feature_table)
    # each language once, in order of first mention
    languages = list(dict.fromkeys(Language.parse(tok) for tok in
                                   args.languages.split(","))) \
        if args.languages else list(Language)

    annotated_phi = []
    if args.readings:
        # a class reads as all its members do, variants included
        class_of = {cp: cls.id for cls in classes for cp in cls.members}
        readings: dict[int, list[Reading]] = {}
        for cp, reading in formats.load_readings(args.readings):
            if cp in class_of:
                readings.setdefault(class_of[cp], []).append(reading)
        for lang in languages:
            try:
                phoneticity(g, readings, lang, table)
                annotated_phi.append(lang)
            except DataError:
                print(f"note: no computable {lang.value} distances; skipped",
                      file=sys.stderr)

    radicals = formats.load_radicals(args.radicals) if args.radicals else {}
    synstore = (_load_synset_store(args.synsets, args.relations)
                if args.synsets else None)
    annotate_semanticity(g, classes, synstore, radicals,
                         coefficients=tuple(args.coefficients))

    if synstore is not None:
        definitions = (formats.load_definitions(args.definitions)
                       if args.definitions else {})
        annotations = annotate_classes(synstore, definitions, classes)

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

    formats.save_snapshot(args.out, g, classes, annotations)
    print(f"phi_languages\t{' '.join(l.value for l in annotated_phi) or '-'}")
    print(f"s_raw_max\t{g.meta.get('s_raw_max', '0')}")
    print(f"annotated_classes\t{len(annotations)}")
    return EXIT_OK


def _resolve_class(args, classes) -> list[int]:
    if args.all:
        return [cls.id for cls in sorted(classes, key=lambda c: c.id)]
    ids = []
    by_cp = {cp: cls.id for cls in classes for cp in cls.members}
    for token in args.cls or []:
        if token.startswith("U+") or token.startswith("u+"):
            token = token[2:]
        if formats.HEX_NUMBER.fullmatch(token):
            cp = int(token, 16)
            if cp in by_cp:
                ids.append(by_cp[cp])
                continue
        try:
            cid = int(token)
        except ValueError:
            raise InputError(f"cannot resolve class {token!r}") from None
        if not any(cls.id == cid for cls in classes):
            raise DataError(f"no class with id {cid}")
        ids.append(cid)
    if not ids:
        raise InputError("no class given; use --class or --all")
    return ids


def cmd_chains(args: argparse.Namespace) -> int:
    language = Language.parse(args.language)
    g, classes, _ = formats.load_snapshot(args.snapshot)
    walk = CHAIN_KINDS[args.kind].walk
    lines = [f"{cid}\t" + " ".join(str(c) for c in walk(g, cid, language))
             for cid in _resolve_class(args, classes)]
    formats.write_lines(args.out, lines)
    return EXIT_OK


def cmd_freqdist(args: argparse.Namespace) -> int:
    lists = [formats.load_freq_counts(p) for p in args.lists]
    if len(lists) < 2:
        raise InputError("need at least two frequency lists")
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
    return EXIT_OK


def cmd_features(args: argparse.Namespace) -> int:
    language = Language.parse(args.language)
    g, classes, _ = formats.load_snapshot(args.snapshot)
    docs = formats.load_corpus(args.corpus)
    labels = [label for label, _ in docs]
    texts = [text for _, text in docs]
    class_of = {cp: cls.id for cls in classes for cp in cls.members}

    vocab, vectors = baseline_vectors(texts, class_of, min_count=args.min_count)
    vocab, vectors = augment(g, vocab, vectors, STRATEGIES[args.strategy],
                             language)

    with formats.open_output(args.out) as fh:
        formats.write_vectors(fh, labels, vectors)
    if args.vocab_out:
        lines = [f"{cid}\t{vocab.provenance[cid]}"
                 for cid in sorted(vocab.provenance)]
        formats.write_lines(args.vocab_out, lines)
    print(f"documents\t{len(vectors)}")
    print(f"vocabulary\t{len(vocab)}")
    print(f"vocabulary_added\t{len(vocab.added_ids())}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    # every category needs an example in each fold
    labels, vectors = formats.load_vectors(args.vectors, min_per_label=args.k)
    report = cross_validate(vectors, labels, k=args.k, C=args.C, seed=args.seed)
    formats.write_lines(args.out, report.lines())
    if report.models_capped:
        print(f"note: {report.models_capped} of {report.models} one-vs-rest "
              f"models stopped at the {report.max_epochs}-epoch cap",
              file=sys.stderr)
    return EXIT_OK


def cmd_query_unknown(args: argparse.Namespace) -> int:
    g, classes, annotations = formats.load_snapshot(args.snapshot)
    targets = _resolve_class(args, classes)
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
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sinograph",
                     description="Subcharacter inclusion graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="mine inclusions, build the "
                       "reduced class graph")
    p.add_argument("--strokes", required=True)
    p.add_argument("--variants")
    p.add_argument("--ufl", help="frequency counts used to pick class "
                   "representatives")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--codepoint-range", metavar="LO-HI",
                   help="restrict to a hex codepoint range, e.g. 4E00-9FFF")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

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
    p.add_argument("--coefficients", type=float, nargs=3,
                   default=list(SEMANTICITY_COEFFICIENTS),
                   metavar=("F1", "F2", "R"))
    p.add_argument("--phi-histogram", help="write a phi histogram CSV here")
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("chains", help="least-phonetic / most-semantic chains")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--kind", choices=list(CHAIN_KINDS), required=True)
    p.add_argument("--language", default=DEFAULT_LANGUAGE.value)
    p.add_argument("--class", dest="cls", action="append",
                   help="class id, or a member codepoint in hex")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("freqdist", help="pairwise frequency-list distances")
    p.add_argument("--lists", nargs="+", required=True)
    p.add_argument("--n", type=int, default=3000)
    p.add_argument("--ufl-out", help="write the aggregated list here")
    p.add_argument("--renormalize", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_freqdist)

    p = sub.add_parser("features", help="document feature vectors")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--strategy", choices=list(STRATEGIES), default="baseline")
    p.add_argument("--language", default=DEFAULT_LANGUAGE.value)
    p.add_argument("--vocab-out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("evaluate", help="cross-validated classification")
    p.add_argument("--vectors", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--C", type=float, default=DEFAULT_C)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("query-unknown", help="approximate the semantics of "
                       "an unannotated class")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--class", dest="cls", action="append",
                   help="class id, or a member codepoint in hex")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--direction", choices=["sub", "super"], default="sub")
    p.add_argument("--out")
    p.set_defaults(func=cmd_query_unknown)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
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
