"""File formats: the TSV inputs and the graph snapshot.

All files are UTF-8, tab-separated, one record per line.  One loop,
``_Reader.records``, reads the lines of every file, the vectors file and
the snapshot too.  A line ends at ``\\n`` alone, one ``\\r`` before it
dropped; blank and ``#`` comment lines after any header are skipped; a
record of the wrong width is refused as ``expected <n> tab-separated
fields, got <m>``; and every error a record raises names its
``file:line``.  This module alone reads the tokens of every file and
flag.  A codepoint is hex digits in 0..10FFFF (``codepoint``), an
integer ASCII digits after an optional ``-`` (``decimal``), and a real,
a stroke coordinate too, ASCII ``float`` syntax without ``_``, blanks or
a leading ``+`` (``real``).  A malformed number is refused as ``bad
<name> '<token>'``, and one out of bounds as ``<name> '<token>' is not a
finite number in [lo, hi]`` (or ``an integer``; ``>= lo`` with no
upper bound).

* strokes.tsv      ``<hex cp>\\t<TYPE>:(x1,y1)-(x2,y2)[-(x,y)...];...``
* readings.tsv     ``<hex cp>\\t<cmn|ja_on|ja_kun>\\t<syll>[ <syll>...]``
* variants.tsv     ``<hex cp>\\t<hex cp>`` (unordered pairs)
* radicals.tsv     ``<hex cp>\\t<1..214>``
* synsets.tsv      ``<synset id>\\t<lemma>[|<lemma>...]``
* relations.tsv    ``<source id>\\t<type>\\t<target id>``
* definitions.tsv  ``<hex cp>\\t<gloss word>[|<gloss word>...]``
* freq.tsv         ``<hex cp>\\t<count>``
* corpus.tsv       ``<label>\\t<document text>`` (one document per line;
                   a label is nonempty and holds no space)
* feature table    ``C\\t<symbol>\\t<4 numbers>`` or ``V\\t<symbol>\\t<3 numbers>``
* vectors file     ``#sparse-vectors v1`` header, then
                   ``<label>\\t<id>:<weight>[ <id>:<weight>...]``, cells
                   separated by one ASCII space, labels as in corpus.tsv

The snapshot is line oriented with a version header and three sections
(META, NODES, EDGES); see ``write_snapshot`` for the columns.

Every input file, the bundled feature table included, is read by
``load_file`` below, and every file the program writes is opened by
``open_output``.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, TextIO, TypeVar

from .charstore import AllographClass, CharacterStore, Language, Reading
from .errors import DataError, InputError
from .freqlists import FrequencyList, from_counts
from .graphcore import EdgeData, InclusionGraph
from .semantics import SynsetStore
from .strokesig import STROKE_TYPES, Stroke

#: A hex number in every file and flag: hex digits only, either case.
#: ``int(token, 16)`` alone would also take a sign, "_", blanks and "0x".
HEX_NUMBER = re.compile("[0-9A-Fa-f]+")

T = TypeVar("T")

SNAPSHOT_HEADER = "#sinograph-graph v1"
VECTORS_HEADER = "#sparse-vectors v1"

_SNAPSHOT_LANGS = tuple(lang.value for lang in Language)
# sub, super, d_min and phi per language, then f1, f2, r, s_raw, s
_EDGE_FIELDS = 2 + 2 * len(_SNAPSHOT_LANGS) + 5
_SECTION_FIELDS = {"META": 2, "NODES": 4, "EDGES": _EDGE_FIELDS}
MISSING = "-"


class _Reader:
    """One input text.  ``records`` keeps ``lineno`` at the line last
    yielded, and at ``None`` when done; inside ``with``, an
    ``InputError`` is prefixed with ``path:lineno:``, or ``path:``."""

    def __init__(self, text: str, path: str) -> None:
        self.text, self.path = text, path
        self.lineno: int | None = None

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, InputError):
            where = self.path if self.lineno is None else f"{self.path}:{self.lineno}"
            raise InputError(f"{where}: {exc}") from None

    def records(self, *n_fields: int, header: str | None = None
                ) -> Iterator[list[str]]:
        """The tab-separated fields of each line but blank and ``#``
        comment lines; given a ``header``, line 1 must be it and is not
        yielded, and given ``n_fields``, a line must hold one of them."""
        numbered = enumerate(self.text.split("\n"), 1)
        if header is not None:
            self.lineno = 1
            if next(numbered)[1].strip() != header:
                raise InputError(f"missing {header!r} header")
        for self.lineno, line in numbered:
            if line.lstrip()[:1] in ("", "#"):  # blank, or a comment
                continue
            fields = line.removesuffix("\r").split("\t")
            if n_fields and len(fields) not in n_fields:
                raise InputError(f"expected {' or '.join(map(str, n_fields))} "
                                 f"tab-separated fields, got {len(fields)}")
            yield fields
        self.lineno = None


def codepoint(token: str) -> int:
    """A codepoint in every file and flag: hex digits in 0..10FFFF, else
    an ``InputError``."""
    # a leading minus before a nonzero number passes here, so that a
    # negative number is named out of range rather than malformed
    digits = token.removeprefix("-")
    if not HEX_NUMBER.fullmatch(digits) or (digits != token and not int(digits, 16)):
        raise InputError(f"bad hex codepoint {token!r}")
    cp = int(token, 16)
    if not 0 <= cp <= 0x10FFFF:
        raise InputError(f"codepoint {token!r} out of range")
    return cp


def codepoint_range(text: str) -> tuple[int, int]:
    """A ``LO-HI`` range of hex codepoints, LO <= HI, each end held to
    the codepoint rule of every file."""
    tokens = text.split("-")
    if len(tokens) != 2 or not all(HEX_NUMBER.fullmatch(t) for t in tokens):
        raise InputError(f"bad codepoint range {text!r}; expected HEX-HEX")
    lo, hi = (codepoint(t) for t in tokens)
    if lo > hi:
        raise InputError(f"empty codepoint range {text!r}")
    return lo, hi


def decimal(token: str, name: str = "decimal integer",
            lo: float | None = None, hi: float = math.inf) -> int:
    """A decimal integer in every file and flag: ASCII digits after an
    optional "-", and in [lo, hi] when ``lo`` is given, else an
    ``InputError`` naming the field ``name``.  ``int(token)`` alone would
    also take "_", blanks, "+" and non-ASCII digits."""
    if token.isascii() and (token.isdigit()
                            or token[:1] == "-" and token[1:].isdigit()):
        try:
            value = int(token)
        except ValueError:  # more digits than int() converts
            pass
        else:
            if lo is None or lo <= value <= hi:
                return value
            raise _out_of_bounds(token, name, "an integer", lo, hi)
    raise InputError(f"bad {name} {token!r}")


def real(token: str, name: str = "real number",
         lo: float | None = None, hi: float = math.inf) -> float:
    """A real number in every file and flag: ASCII ``float`` syntax with
    no "_", no surrounding blanks and no leading "+", else an
    ``InputError`` naming the field ``name``.  Given ``lo``, it must be
    finite and in [lo, hi]; without it, "nan" and "inf" pass, and the
    caller checks the range.  ``float(token)`` alone would also take
    "_", blanks, "+" and non-ASCII digits."""
    if (token.isascii() and "_" not in token and token[:1] != "+"
            and token == token.strip()):
        try:
            value = float(token)
        except ValueError:
            pass
        else:
            if lo is None or lo <= value <= hi and math.isfinite(value):
                return value
            raise _out_of_bounds(token, name, "a finite number", lo, hi)
    raise InputError(f"bad {name} {token!r}")


def _out_of_bounds(token: str, name: str, kind: str, lo: float,
                   hi: float) -> InputError:
    bounds = (f" in [{lo:g}, {hi:g}]" if hi < math.inf
              else f" >= {lo:g}" if lo > -math.inf else "")
    return InputError(f"{name} {token!r} is not {kind}{bounds}")


def read_text(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not valid UTF-8") from None


def load_file(parse: Callable[..., T], path: str, **options) -> T:
    """``parse`` of the text of the file ``path``, its errors named by
    ``path``; ``options`` are ``parse``'s other keyword arguments."""
    return parse(read_text(path), path=path, **options)


def open_output(path: str) -> contextlib.AbstractContextManager[TextIO]:
    """Standard output for ``-``, left open on exit; otherwise ``path``
    opened for writing as UTF-8 with ``\\n`` line ends."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a ``\\n`` to ``open_output(path)``."""
    with open_output(path) as fh:
        for line in lines:
            fh.write(line + "\n")


# -- inputs ----------------------------------------------------------------

def parse_strokes(text: str, path: str = "strokes.tsv") -> dict[int, list[Stroke]]:
    """Each codepoint's strokes, ``TYPE:(x1,y1)-(x2,y2)[-(x,y)...]`` items
    joined by ``;``, blanks allowed around an item, its type and a point."""
    out: dict[int, list[Stroke]] = {}
    with _Reader(text, path) as reader:
        for cp_tok, spec in reader.records(2):
            cp = codepoint(cp_tok)
            if cp in out:
                raise InputError(f"duplicate codepoint {cp_tok}")
            out[cp] = _strokes(spec)
    return out


def _strokes(spec: str) -> list[Stroke]:
    # In printable ASCII without "_", a point with no blank and no "+"
    # holds only tokens that ``float`` reads as ``real`` does, so a finite
    # pair is taken as read; every other token goes to ``real``, which
    # gives the refusal its message.
    plain = spec.isascii() and spec.isprintable() and "_" not in spec
    strokes = []
    for item in spec.split(";"):
        item = item.strip()
        if not item:
            continue
        type_tok, colon, coords = item.partition(":")
        if not colon:
            raise InputError(f"malformed stroke {item!r} (missing ':')")
        code = type_tok.strip().upper()
        if not type_tok.isascii() or code not in STROKE_TYPES:
            raise InputError(f"unknown stroke type {type_tok!r}")
        points = []
        for pt in coords.split("-("):
            pt = pt.strip().lstrip("(").rstrip(")")
            if not pt:
                raise InputError(f"malformed coordinates in stroke {item!r}")
            xy = pt.split(",")
            if len(xy) != 2:
                raise InputError(f"malformed point {pt!r} in stroke {item!r}")
            if plain and " " not in pt and "+" not in pt:
                try:
                    x, y = float(xy[0]), float(xy[1])
                except ValueError:
                    pass
                else:
                    if math.isfinite(x) and math.isfinite(y):
                        points.append((x, y))
                        continue
            points.append((real(xy[0], "coordinate", -math.inf),
                           real(xy[1], "coordinate", -math.inf)))
        strokes.append(Stroke(code, tuple(points)))
    if not strokes:
        raise InputError("empty stroke description")
    if len(strokes) > 1:  # pair_signature needs a direction for each stroke
        for i, s in enumerate(strokes):
            if s.start == s.end:
                raise InputError(f"stroke {i} is degenerate (coincident endpoints)")
    return strokes


def parse_readings(text: str, path: str = "readings.tsv"
                   ) -> list[tuple[int, Reading]]:
    out = []
    with _Reader(text, path) as reader:
        for cp_tok, lang_tok, sylls in reader.records(3):
            cp = codepoint(cp_tok)
            tokens = tuple(t for t in sylls.split(" ") if t)
            out.append((cp, Reading(Language.parse(lang_tok), tokens)))
    return out


def parse_variants(text: str, path: str = "variants.tsv"
                   ) -> set[tuple[int, int]]:
    pairs = set()
    with _Reader(text, path) as reader:
        for a_tok, b_tok in reader.records(2):
            a, b = codepoint(a_tok), codepoint(b_tok)
            if a == b:
                raise InputError("a codepoint cannot be its own variant")
            pairs.add((min(a, b), max(a, b)))
    return pairs


def parse_radicals(text: str, path: str = "radicals.tsv") -> dict[int, int]:
    out: dict[int, int] = {}
    with _Reader(text, path) as reader:
        for cp_tok, rad_tok in reader.records(2):
            cp = codepoint(cp_tok)
            if cp in out:
                raise InputError(f"duplicate codepoint {cp_tok}")
            out[cp] = decimal(rad_tok, "radical", 1, 214)
    return out


def parse_synsets(text: str, path: str = "synsets.tsv") -> SynsetStore:
    """A store of the synsets, each checked by the store."""
    store = SynsetStore()
    with _Reader(text, path) as reader:
        for sid, lemmas in reader.records(2):
            store.add_synset(_synset_id(sid), lemmas.split("|"))
    return store


def _synset_id(token: str) -> str:
    """A synset id in every file: nonempty, not ``-`` and holding no
    ``|``, else an ``InputError``.  A snapshot joins a class's synset ids
    with "|" and writes none as "-", so it could not read such an id back."""
    if token in ("", MISSING) or "|" in token:
        raise InputError(f"bad synset id {token!r}: it must be "
                         f"nonempty, not {MISSING!r}, and hold no '|'")
    return token


def _label(token: str) -> str:
    """A category label in every file: nonempty and holding no " ", else
    an ``InputError``.  A report joins the categories with " ", so it
    could not be read back with such a label."""
    if not token or " " in token:
        raise InputError(f"bad label {token!r}: it must be nonempty and "
                         f"hold no ' '")
    return token


def parse_relations(text: str, store: SynsetStore,
                    path: str = "relations.tsv") -> SynsetStore:
    """``store`` with the relations added, each checked by the store."""
    with _Reader(text, path) as reader:
        for src, typ, dst in reader.records(3):
            store.add_relation(src, typ, dst)
    return store


def parse_definitions(text: str, path: str = "definitions.tsv"
                      ) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    with _Reader(text, path) as reader:
        for cp_tok, words in reader.records(2):
            cp = codepoint(cp_tok)
            glosses = [w for w in words.split("|") if w]
            if not glosses:
                raise InputError(f"codepoint {cp_tok} has no gloss words")
            out.setdefault(cp, []).extend(glosses)
    return out


def parse_freq_counts(text: str, path: str = "freq.tsv") -> FrequencyList:
    counts: dict[int, int] = {}
    with _Reader(text, path) as reader:
        for cp_tok, cnt_tok in reader.records(2):
            cp = codepoint(cp_tok)
            counts[cp] = counts.get(cp, 0) + decimal(cnt_tok, "count", 1)
        return from_counts(counts)


def parse_corpus(text: str, path: str = "corpus.tsv") -> list[tuple[str, str]]:
    with _Reader(text, path) as reader:
        docs = [(_label(label), doc) for label, doc in reader.records(2)]
        if not docs:
            raise InputError("empty corpus")
    return docs


PhonemeScales = dict[str, tuple[float, ...]]

#: The largest magnitude of a scale value.  A squared weighted difference
#: is then at most (5 * 2e100)**2, so every distance stays finite.
MAX_SCALE = 1e100


def parse_feature_table(text: str, path: str = "phoneme_features.tsv"
                        ) -> tuple[PhonemeScales, PhonemeScales]:
    """Consonant and vowel scale values, from ``C<TAB>symbol`` rows with
    four numbers and ``V<TAB>symbol`` rows with three, each within
    ``MAX_SCALE`` of 0.  A symbol is defined once per inventory, a vowel
    is one character (nuclei are matched a character at a time), and
    both inventories must hold the ``-`` null phoneme."""
    scales: dict[str, PhonemeScales] = {"C": {}, "V": {}}
    width = {"C": 4, "V": 3}
    with _Reader(text, path) as reader:
        for kind, symbol, *values in reader.records(5, 6):
            if not symbol or width.get(kind) != len(values):
                raise InputError(f"malformed row {[kind, symbol, *values]!r}")
            if symbol in scales[kind]:
                raise InputError(f"{kind} symbol {symbol!r} defined twice")
            if kind == "V" and len(symbol) > 1:
                raise InputError(f"vowel symbol {symbol!r} is longer than "
                                 f"one character")
            scales[kind][symbol] = tuple(
                real(v, "scale value", -MAX_SCALE, MAX_SCALE) for v in values)
        if "-" not in scales["C"] or "-" not in scales["V"]:
            raise InputError("feature table must define the '-' null phonemes")
    return scales["C"], scales["V"]


# -- sparse vectors --------------------------------------------------------

def write_vectors(fh: TextIO, labels: Iterable[str],
                  vectors: Iterable[Mapping[int, float]]) -> None:
    """The vectors file: the header, then each label with its vector,
    each line written as its vector is drawn."""
    fh.write(VECTORS_HEADER + "\n")
    for label, vec in zip(labels, vectors):
        cells = " ".join(f"{cid}:{w:.12g}" for cid, w in sorted(vec.items()))
        fh.write(f"{label}\t{cells}\n")


def parse_vectors(text: str, path: str = "vectors", min_per_label: int = 0
                  ) -> tuple[list[str], list[dict[int, float]]]:
    """Labels and sparse vectors.  With ``min_per_label`` set, as for
    training, a label on fewer lines is an error naming its first line,
    and fewer than two labels one naming the first record, or the file."""
    labels: list[str] = []
    vectors: list[dict[int, float]] = []
    first_line: dict[str, int] = {}
    with _Reader(text, path) as reader:
        for label, cells in reader.records(2, header=VECTORS_HEADER):
            first_line.setdefault(_label(label), reader.lineno)
            vec: dict[int, float] = {}
            # cells are separated by one " "; an empty document has none
            for cell in cells.split(" ") if cells else ():
                try:
                    cid_tok, w_tok = cell.split(":")
                    cid, w = decimal(cid_tok), real(w_tok)
                except ValueError:
                    raise InputError(f"bad cell {cell!r}") from None
                if not math.isfinite(w):
                    raise InputError(f"non-finite weight {cell!r}")
                if cid in vec:
                    raise InputError(f"feature {cid} repeated")
                vec[cid] = w
            # An infinite ||x||^2 would overflow the classifier's margins.
            if not math.isfinite(sum(w * w for w in vec.values())):
                raise InputError("squared norm of the weights is not finite")
            labels.append(label)
            vectors.append(vec)
        for label, count in Counter(labels).items():
            if count < min_per_label:
                reader.lineno = first_line[label]
                raise InputError(f"category {label!r} has {count} examples, "
                                 f"fewer than {min_per_label}")
        if min_per_label and len(first_line) < 2:
            reader.lineno = next(iter(first_line.values()), None)
            raise InputError(f"need at least two categories, got {len(first_line)}")
    return labels, vectors


# -- snapshot --------------------------------------------------------------

def _fmt_float(v: float | None) -> str:
    return MISSING if v is None else repr(v)


def write_snapshot(
    fh: TextIO,
    g: InclusionGraph,
    store: CharacterStore,
    annotations: Mapping[int, set[str]] | None = None,
) -> None:
    """Serialize a class graph, its class memberships (in class id order)
    and annotations.

    Node columns:  id, members (hex, space separated), representative,
    synsets (| separated, '-' if none).
    Edge columns:  sub, super, then d_min and phi per language
    (cmn, ja_on, ja_kun), then f1, f2, r, s_raw, s; '-' marks absent.
    """
    annotations = annotations or {}
    fh.write(SNAPSHOT_HEADER + "\n")
    fh.write("META\n")
    for key in sorted(g.meta):
        fh.write(f"{key}\t{g.meta[key]}\n")
    fh.write("NODES\n")
    for cls in store.classes:
        members = " ".join(f"{cp:X}" for cp in sorted(cls.members))
        synsets = "|".join(sorted(annotations.get(cls.id, ()))) or MISSING
        fh.write(f"{cls.id}\t{members}\t{cls.representative:X}\t{synsets}\n")
    fh.write("EDGES\n")
    unset = _edge_cells(EdgeData())  # the cells of every edge storing none
    for sub, sup in g.edges():
        d = g.stored(sub, sup)
        fh.write(f"{sub}\t{sup}\t{unset if d is None else _edge_cells(d)}\n")


def _edge_cells(d: EdgeData) -> str:
    """An edge's attribute cells, from d_min to s, tab-joined."""
    cells = []
    for lang in _SNAPSHOT_LANGS:
        cells.append(_fmt_float(d.d_min.get(lang)))
        cells.append(_fmt_float(d.phi.get(lang)))
    cells.extend([str(d.f1), str(d.f2), repr(d.r),
                  _fmt_float(d.s_raw), _fmt_float(d.s)])
    return "\t".join(cells)


def _edge_data(cells: list[str]) -> EdgeData:
    """The ``EdgeData`` of an edge's attribute cells, from d_min to s:
    the inverse of ``_edge_cells``."""
    d = EdgeData()
    for i, lang in enumerate(_SNAPSHOT_LANGS):
        if cells[2 * i] != MISSING:
            d.d_min[lang] = real(cells[2 * i], "d_min", 0)
        if cells[2 * i + 1] != MISSING:
            d.phi[lang] = real(cells[2 * i + 1], "phi", 0, 1)
    f1, f2, r, s_raw, s = cells[2 * len(_SNAPSHOT_LANGS):]
    d.f1, d.f2 = decimal(f1, "f1", 0), decimal(f2, "f2", 0)
    d.r = real(r, "r", 0, 1)
    if s_raw != MISSING:
        d.s_raw = real(s_raw, "s_raw", 0)
    if s != MISSING:
        d.s = real(s, "s", 0, 1)
    return d


def save_snapshot(path: str, g: InclusionGraph, store: CharacterStore,
                  annotations: Mapping[int, set[str]] | None = None) -> None:
    with open_output(path) as fh:
        write_snapshot(fh, g, store, annotations)


def parse_snapshot(text: str, path: str = "snapshot"
                   ) -> tuple[InclusionGraph, CharacterStore,
                              dict[int, set[str]]]:
    """Read a snapshot written by ``write_snapshot``: its graph, the
    ``CharacterStore`` its NODES fill, and the synset annotations.

    Class ids must be integers >= 0, members and representatives
    codepoints in 0..10FFFF, and a synsets cell ``-`` or synset ids, each
    as ``parse_synsets`` reads one, joined by ``|``; the classes must
    form a partition (``CharacterStore.add``), and every edge endpoint
    must be a class declared earlier in NODES.  A META, NODES or EDGES
    line opens that section, whose lines have 2, 4 or 13 fields.  Edge
    weights must be finite and nonnegative, and phi, r and s at most 1.
    A META key and an edge are given once.  Any other content raises
    ``InputError`` naming the line, and a cycle of edges one naming it.
    """
    section = None
    g = InclusionGraph()
    store = CharacterStore()
    annotations: dict[int, set[str]] = {}
    with _Reader(text, path) as reader:
        for fields in reader.records(header=SNAPSHOT_HEADER):
            if len(fields) == 1 and fields[0] in _SECTION_FIELDS:
                section = fields[0]
                continue
            if section is None:
                raise InputError("content before any section header")
            if len(fields) != _SECTION_FIELDS[section]:
                raise InputError(f"expected {_SECTION_FIELDS[section]} "
                                 f"tab-separated fields, got {len(fields)}")
            if section == "META":
                key, value = fields
                if key in g.meta:
                    raise InputError(f"META key {key!r} repeated")
                g.meta[key] = value
            elif section == "NODES":
                cid_tok, members_tok, rep_tok, synsets_tok = fields
                cid = decimal(cid_tok, "class id", 0)
                # members are separated by one " ", as written
                members = frozenset(codepoint(m) for m in members_tok.split(" "))
                store.add(AllographClass(cid, members, codepoint(rep_tok)))
                g.add_node(cid)
                if synsets_tok != MISSING:
                    annotations[cid] = {_synset_id(sid)
                                        for sid in synsets_tok.split("|")}
            else:
                sub = decimal(fields[0], "class id", 0)
                sup = decimal(fields[1], "class id", 0)
                if sub not in g or sup not in g:
                    missing = sup if sub in g else sub
                    raise InputError(f"edge endpoint {missing} is not a "
                                     f"declared node")
                if not g.add_edge(sub, sup, _edge_data(fields[2:])):
                    raise InputError(f"edge {sub} -> {sup} repeated")
        try:
            g.topological_order()  # a chain walk would circle a cycle forever
        except DataError as exc:
            raise InputError(str(exc)) from None
    return g, store, annotations
