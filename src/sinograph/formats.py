"""File formats: the TSV inputs and the graph snapshot.

All files are UTF-8, tab-separated, one record per line, ``#`` starting
a comment line.  Codepoints are bare hex (no ``U+`` prefix).

* strokes.tsv      ``<hex cp>\\t<TYPE>:(x1,y1)-(x2,y2)[-(x,y)...];...``
* readings.tsv     ``<hex cp>\\t<cmn|ja_on|ja_kun>\\t<syll>[ <syll>...]``
* variants.tsv     ``<hex cp>\\t<hex cp>`` (unordered pairs)
* radicals.tsv     ``<hex cp>\\t<1..214>``
* synsets.tsv      ``<synset id>\\t<lemma>[|<lemma>...]``
* relations.tsv    ``<source id>\\t<type>\\t<target id>``
* definitions.tsv  ``<hex cp>\\t<gloss word>[|<gloss word>...]``
* freq.tsv         ``<hex cp>\\t<count>``
* corpus.tsv       ``<label>\\t<document text>`` (one document per line)
* feature table    ``C\\t<symbol>\\t<4 numbers>`` or ``V\\t<symbol>\\t<3 numbers>``
* vectors file     ``#sparse-vectors v1`` header, then
                   ``<label>\\t<id>:<weight>[ <id>:<weight>...]``

The snapshot is line oriented with a version header and three sections
(META, NODES, EDGES); see ``write_snapshot`` for the columns.

Every file the program writes is opened by ``open_output`` below.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys
from collections import Counter
from typing import Container, Iterable, Mapping, Sequence, TextIO

from .charstore import AllographClass, Language, Reading
from .errors import DataError, InputError
from .freqlists import FrequencyList, from_counts
from .graphcore import EdgeData, InclusionGraph
from .semantics import SemRelation
from .strokesig import Stroke, parse_stroke_spec

#: A hex number in every file and flag: hex digits only, either case.
#: ``int(token, 16)`` alone would also take a sign, "_", blanks and "0x".
HEX_NUMBER = re.compile("[0-9A-Fa-f]+")

SNAPSHOT_HEADER = "#sinograph-graph v1"
VECTORS_HEADER = "#sparse-vectors v1"

_SNAPSHOT_LANGS = tuple(lang.value for lang in Language)
# sub, super, d_min and phi per language, then f1, f2, r, s_raw, s
_EDGE_FIELDS = 2 + 2 * len(_SNAPSHOT_LANGS) + 5
MISSING = "-"


def _records(text: str, path: str, *n_fields: int):
    """(line number, fields) of each record with one of ``n_fields``
    fields; blank and comment lines are skipped."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in n_fields:
            expected = " or ".join(map(str, n_fields))
            raise InputError(f"{path}:{lineno}: expected {expected} "
                             f"tab-separated fields, got {len(fields)}")
        yield lineno, fields


def _codepoint(token: str) -> int:
    # a leading minus passes here, so that a negative number is named
    # out of range rather than malformed
    if not HEX_NUMBER.fullmatch(token.removeprefix("-")):
        raise InputError(f"bad hex codepoint {token!r}")
    cp = int(token, 16)
    if not 0 <= cp <= 0x10FFFF:
        raise InputError(f"codepoint {token!r} out of range")
    return cp


def _parse_cp(token: str, path: str, lineno: int) -> int:
    try:
        return _codepoint(token)
    except InputError as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from None


def read_text(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as the parsers number lines: by str.splitlines
        line = len((raw[:exc.start].decode("utf-8") + ".").splitlines())
        raise InputError(f"{path}:{line}: not valid UTF-8") from None


def open_output(path: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """Standard output for ``None`` or ``-``, left open on exit; otherwise
    ``path`` opened for writing as UTF-8 with ``\\n`` line ends."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path: str | None, lines: Iterable[str]) -> None:
    """Write each line and a ``\\n`` to ``open_output(path)``."""
    with open_output(path) as fh:
        for line in lines:
            fh.write(line + "\n")


# -- inputs ----------------------------------------------------------------

def parse_strokes(text: str, path: str = "strokes.tsv") -> dict[int, list[Stroke]]:
    out: dict[int, list[Stroke]] = {}
    for lineno, (cp_tok, spec) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        if cp in out:
            raise InputError(f"{path}:{lineno}: duplicate codepoint {cp_tok}")
        try:
            out[cp] = parse_stroke_spec(spec)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return out


def load_strokes(path: str) -> dict[int, list[Stroke]]:
    return parse_strokes(read_text(path), path)


def parse_readings(text: str, path: str = "readings.tsv"
                   ) -> list[tuple[int, Reading]]:
    out = []
    for lineno, (cp_tok, lang_tok, sylls) in _records(text, path, 3):
        cp = _parse_cp(cp_tok, path, lineno)
        tokens = tuple(t for t in sylls.split(" ") if t)
        try:
            out.append((cp, Reading(Language.parse(lang_tok), tokens)))
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return out


def load_readings(path: str) -> list[tuple[int, Reading]]:
    return parse_readings(read_text(path), path)


def parse_variants(text: str, path: str = "variants.tsv"
                   ) -> set[tuple[int, int]]:
    pairs = set()
    for lineno, (a_tok, b_tok) in _records(text, path, 2):
        a = _parse_cp(a_tok, path, lineno)
        b = _parse_cp(b_tok, path, lineno)
        if a == b:
            raise InputError(f"{path}:{lineno}: a codepoint cannot be its "
                             f"own variant")
        pairs.add((min(a, b), max(a, b)))
    return pairs


def load_variants(path: str) -> set[tuple[int, int]]:
    return parse_variants(read_text(path), path)


def parse_radicals(text: str, path: str = "radicals.tsv") -> dict[int, int]:
    out: dict[int, int] = {}
    for lineno, (cp_tok, rad_tok) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        if cp in out:
            raise InputError(f"{path}:{lineno}: duplicate codepoint {cp_tok}")
        try:
            rad = int(rad_tok)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad radical {rad_tok!r}") from None
        if not 1 <= rad <= 214:
            raise InputError(f"{path}:{lineno}: radical {rad} outside 1..214")
        out[cp] = rad
    return out


def load_radicals(path: str) -> dict[int, int]:
    return parse_radicals(read_text(path), path)


def parse_synsets(text: str, path: str = "synsets.tsv") -> list[tuple[str, list[str]]]:
    out = []
    seen: set[str] = set()
    for lineno, (sid, lemmas) in _records(text, path, 2):
        words = [w for w in lemmas.split("|") if w]
        if not words:
            raise InputError(f"{path}:{lineno}: synset {sid!r} has no lemmas")
        if sid in seen:
            raise InputError(f"{path}:{lineno}: duplicate synset id {sid!r}")
        seen.add(sid)
        out.append((sid, words))
    return out


def load_synsets(path: str) -> list[tuple[str, list[str]]]:
    return parse_synsets(read_text(path), path)


def parse_relations(text: str, synsets: Container[str],
                    path: str = "relations.tsv") -> list[SemRelation]:
    """Relations between the declared ``synsets``; an endpoint outside
    them is an error naming its line."""
    out = []
    for lineno, (src, typ, dst) in _records(text, path, 3):
        for role, sid in (("source", src), ("target", dst)):
            if sid not in synsets:
                raise InputError(f"{path}:{lineno}: relation {role} {sid!r} "
                                 f"is not a declared synset")
        out.append(SemRelation(src, typ, dst))
    return out


def load_relations(path: str, synsets: Container[str]) -> list[SemRelation]:
    return parse_relations(read_text(path), synsets, path)


def parse_definitions(text: str, path: str = "definitions.tsv"
                      ) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for lineno, (cp_tok, words) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        glosses = [w for w in words.split("|") if w]
        out.setdefault(cp, []).extend(glosses)
    return out


def load_definitions(path: str) -> dict[int, list[str]]:
    return parse_definitions(read_text(path), path)


def parse_freq_counts(text: str, path: str = "freq.tsv") -> FrequencyList:
    counts: dict[int, int] = {}
    for lineno, (cp_tok, cnt_tok) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        try:
            cnt = int(cnt_tok)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad count {cnt_tok!r}") from None
        if cnt <= 0:
            raise InputError(f"{path}:{lineno}: count must be positive")
        counts[cp] = counts.get(cp, 0) + cnt
    if not counts:
        raise InputError(f"{path}: no frequency records")
    return from_counts(counts)


def load_freq_counts(path: str) -> FrequencyList:
    return parse_freq_counts(read_text(path), path)


def parse_corpus(text: str, path: str = "corpus.tsv") -> list[tuple[str, str]]:
    docs = []
    for lineno, fields in _records(text, path, 2):
        label, doc = fields
        docs.append((label, doc))
    if not docs:
        raise InputError(f"{path}: empty corpus")
    return docs


def load_corpus(path: str) -> list[tuple[str, str]]:
    return parse_corpus(read_text(path), path)


PhonemeScales = dict[str, tuple[float, ...]]


def parse_feature_table(text: str, path: str = "phoneme_features.tsv"
                        ) -> tuple[PhonemeScales, PhonemeScales]:
    """Consonant and vowel scale values, from ``C<TAB>symbol`` rows with
    four numbers and ``V<TAB>symbol`` rows with three; both inventories
    must hold the ``-`` null phoneme."""
    scales: dict[str, PhonemeScales] = {"C": {}, "V": {}}
    width = {"C": 4, "V": 3}
    for lineno, (kind, symbol, *values) in _records(text, path, 5, 6):
        if not symbol or width.get(kind) != len(values):
            raise InputError(f"{path}:{lineno}: malformed row "
                             f"{[kind, symbol, *values]!r}")
        try:
            nums = tuple(float(v) for v in values)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad number") from None
        if not all(math.isfinite(v) for v in nums):
            raise InputError(f"{path}:{lineno}: non-finite number")
        scales[kind][symbol] = nums
    if "-" not in scales["C"] or "-" not in scales["V"]:
        raise InputError(f"{path}: feature table must define the '-' null "
                         f"phonemes")
    return scales["C"], scales["V"]


# -- sparse vectors --------------------------------------------------------

def write_vectors(fh: TextIO, labels: Sequence[str],
                  vectors: Sequence[Mapping[int, float]]) -> None:
    fh.write(VECTORS_HEADER + "\n")
    for label, vec in zip(labels, vectors):
        cells = " ".join(f"{cid}:{w:.12g}" for cid, w in sorted(vec.items()))
        fh.write(f"{label}\t{cells}\n")


def parse_vectors(text: str, path: str = "vectors", min_per_label: int = 0
                  ) -> tuple[list[str], list[dict[int, float]]]:
    """Labels and sparse vectors; a label on fewer than ``min_per_label``
    lines is an error naming its first line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VECTORS_HEADER:
        raise InputError(f"{path}:1: missing {VECTORS_HEADER!r} header")
    labels: list[str] = []
    vectors: list[dict[int, float]] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        label, tab, cells = line.partition("\t")
        if not tab:
            raise InputError(f"{path}:{lineno}: no tab after the label")
        first_line.setdefault(label, lineno)
        vec: dict[int, float] = {}
        for cell in cells.split():
            try:
                cid_tok, w_tok = cell.split(":")
                cid, w = int(cid_tok), float(w_tok)
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad cell {cell!r}") from None
            if not math.isfinite(w):
                raise InputError(f"{path}:{lineno}: non-finite weight {cell!r}")
            if cid in vec:
                raise InputError(f"{path}:{lineno}: feature {cid} repeated")
            vec[cid] = w
        # An infinite ||x||^2 would overflow the classifier's margins.
        if not math.isfinite(sum(w * w for w in vec.values())):
            raise InputError(f"{path}:{lineno}: squared norm of the weights "
                             f"is not finite")
        labels.append(label)
        vectors.append(vec)
    for label, count in Counter(labels).items():
        if count < min_per_label:
            raise InputError(f"{path}:{first_line[label]}: category {label!r} "
                             f"has {count} examples, fewer than {min_per_label}")
    return labels, vectors


def load_vectors(path: str, min_per_label: int = 0
                 ) -> tuple[list[str], list[dict[int, float]]]:
    return parse_vectors(read_text(path), path, min_per_label)


# -- snapshot --------------------------------------------------------------

def _fmt_float(v: float | None) -> str:
    return MISSING if v is None else repr(v)


def write_snapshot(
    fh: TextIO,
    g: InclusionGraph,
    classes: Sequence[AllographClass],
    annotations: Mapping[int, set[str]] | None = None,
) -> None:
    """Serialize a class graph, its class memberships and annotations.

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
    for cls in sorted(classes, key=lambda c: c.id):
        members = " ".join(f"{cp:X}" for cp in sorted(cls.members))
        synsets = "|".join(sorted(annotations.get(cls.id, ()))) or MISSING
        fh.write(f"{cls.id}\t{members}\t{cls.representative:X}\t{synsets}\n")
    fh.write("EDGES\n")
    for sub, sup in g.edges():
        d = g.edge(sub, sup)
        cells = [str(sub), str(sup)]
        for lang in _SNAPSHOT_LANGS:
            cells.append(_fmt_float(d.d_min.get(lang)))
            cells.append(_fmt_float(d.phi.get(lang)))
        cells.extend([str(d.f1), str(d.f2), repr(d.r),
                      _fmt_float(d.s_raw), _fmt_float(d.s)])
        fh.write("\t".join(cells) + "\n")


def save_snapshot(path: str, g: InclusionGraph,
                  classes: Sequence[AllographClass],
                  annotations: Mapping[int, set[str]] | None = None) -> None:
    with open_output(path) as fh:
        write_snapshot(fh, g, classes, annotations)


def _weight(token: str, name: str, upper: float = math.inf) -> float:
    """An edge weight cell: a finite number in [0, upper]."""
    value = float(token)
    if 0.0 <= value <= upper and value != math.inf:
        return value
    bounds = f"in [0, {upper:g}]" if upper < math.inf else ">= 0"
    raise InputError(f"{name} {token!r} is not a finite number {bounds}")


def _count(token: str, name: str) -> int:
    """An edge count cell: an integer >= 0."""
    value = int(token)
    if value >= 0:
        return value
    raise InputError(f"{name} {token!r} is negative")


def parse_snapshot(text: str, path: str = "snapshot"
                   ) -> tuple[InclusionGraph, list[AllographClass],
                              dict[int, set[str]]]:
    """Read a snapshot written by ``write_snapshot``.

    Class ids must be unique, members and representatives must be
    codepoints in 0..10FFFF, each codepoint must belong to one class only,
    and every edge endpoint must be a class declared earlier in NODES.
    An edge line has exactly its 13 fields.  Edge weights must be finite
    and nonnegative, and phi, r and s at most 1.  Any other content
    raises ``InputError`` naming the line; edges that close a cycle raise
    it naming one.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_HEADER:
        raise InputError(f"{path}:1: missing {SNAPSHOT_HEADER!r} header")
    section = None
    g = InclusionGraph()
    classes: list[AllographClass] = []
    annotations: dict[int, set[str]] = {}
    class_of: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        if line in ("META", "NODES", "EDGES"):
            section = line
            continue
        fields = line.split("\t")
        try:
            if section == "META":
                key, value = fields
                g.meta[key] = value
            elif section == "NODES":
                cid_tok, members_tok, rep_tok, synsets_tok = fields
                cid = int(cid_tok)
                if cid in g:
                    raise InputError(f"class id {cid} declared twice")
                members = frozenset(_codepoint(m) for m in members_tok.split())
                for cp in members:
                    if cp in class_of:
                        raise InputError(f"codepoint {cp:X} is in classes "
                                         f"{class_of[cp]} and {cid}")
                    class_of[cp] = cid
                classes.append(AllographClass(cid, members, _codepoint(rep_tok)))
                g.add_node(cid)
                if synsets_tok != MISSING:
                    annotations[cid] = set(synsets_tok.split("|"))
            elif section == "EDGES":
                if len(fields) != _EDGE_FIELDS:
                    raise InputError(f"expected {_EDGE_FIELDS} tab-separated "
                                     f"fields, got {len(fields)}")
                sub, sup = int(fields[0]), int(fields[1])
                if sub not in g or sup not in g:
                    missing = sup if sub in g else sub
                    raise InputError(f"edge endpoint {missing} is not a "
                                     f"declared node")
                data = EdgeData()
                i = 2
                for lang in _SNAPSHOT_LANGS:
                    if fields[i] != MISSING:
                        data.d_min[lang] = _weight(fields[i], "d_min")
                    if fields[i + 1] != MISSING:
                        data.phi[lang] = _weight(fields[i + 1], "phi", 1.0)
                    i += 2
                data.f1 = _count(fields[i], "f1")
                data.f2 = _count(fields[i + 1], "f2")
                data.r = _weight(fields[i + 2], "r", 1.0)
                if fields[i + 3] != MISSING:
                    data.s_raw = _weight(fields[i + 3], "s_raw")
                if fields[i + 4] != MISSING:
                    data.s = _weight(fields[i + 4], "s", 1.0)
                g.add_edge(sub, sup, data)
            else:
                raise InputError("content before any section header")
        except InputError as exc:  # before ValueError, its base class
            raise InputError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed {section} line") from None
    try:
        g.topological_order()  # a chain walk would circle a cycle forever
    except DataError as exc:
        raise InputError(f"{path}: {exc}") from None
    return g, classes, annotations


def load_snapshot(path: str) -> tuple[InclusionGraph, list[AllographClass],
                                      dict[int, set[str]]]:
    return parse_snapshot(read_text(path), path)


def snapshot_to_string(g: InclusionGraph, classes: Sequence[AllographClass],
                       annotations: Mapping[int, set[str]] | None = None) -> str:
    buf = io.StringIO()
    write_snapshot(buf, g, classes, annotations)
    return buf.getvalue()
