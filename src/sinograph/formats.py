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
* vectors file     ``#sparse-vectors v1`` header, then
                   ``<label>\\t<id>:<weight>[ <id>:<weight>...]``

The snapshot is line oriented with a version header and three sections
(META, NODES, EDGES); see ``write_snapshot`` for the columns.
"""

from __future__ import annotations

import io
import math
from typing import Mapping, Sequence, TextIO

from .charstore import AllographClass, Language, Reading
from .errors import InputError
from .freqlists import FrequencyList, from_counts
from .graphcore import EdgeData, InclusionGraph
from .semantics import SemRelation
from .strokesig import Stroke, parse_stroke_spec

SNAPSHOT_HEADER = "#sinograph-graph v1"
VECTORS_HEADER = "#sparse-vectors v1"

_SNAPSHOT_LANGS = tuple(lang.value for lang in Language)
MISSING = "-"


def _records(text: str, path: str, n_fields: int,
             min_fields: int | None = None):
    want = min_fields if min_fields is not None else n_fields
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if not want <= len(fields) <= n_fields:
            raise InputError(f"{path}:{lineno}: expected {n_fields} "
                             f"tab-separated fields, got {len(fields)}")
        yield lineno, fields


def _parse_cp(token: str, path: str, lineno: int) -> int:
    try:
        cp = int(token, 16)
    except ValueError:
        raise InputError(f"{path}:{lineno}: bad hex codepoint {token!r}") from None
    if not 0 <= cp <= 0x10FFFF:
        raise InputError(f"{path}:{lineno}: codepoint {token!r} out of range")
    return cp


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
    return parse_strokes(_read(path), path)


def parse_readings(text: str, path: str = "readings.tsv"
                   ) -> list[tuple[int, Reading]]:
    out = []
    for lineno, (cp_tok, lang_tok, sylls) in _records(text, path, 3):
        cp = _parse_cp(cp_tok, path, lineno)
        lang = Language.parse(lang_tok)
        tokens = tuple(t for t in sylls.split(" ") if t)
        try:
            out.append((cp, Reading(lang, tokens)))
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return out


def load_readings(path: str) -> list[tuple[int, Reading]]:
    return parse_readings(_read(path), path)


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
    return parse_variants(_read(path), path)


def parse_radicals(text: str, path: str = "radicals.tsv") -> dict[int, int]:
    out: dict[int, int] = {}
    for lineno, (cp_tok, rad_tok) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        try:
            rad = int(rad_tok)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad radical {rad_tok!r}") from None
        if not 1 <= rad <= 214:
            raise InputError(f"{path}:{lineno}: radical {rad} outside 1..214")
        out[cp] = rad
    return out


def load_radicals(path: str) -> dict[int, int]:
    return parse_radicals(_read(path), path)


def parse_synsets(text: str, path: str = "synsets.tsv") -> list[tuple[str, list[str]]]:
    out = []
    for lineno, (sid, lemmas) in _records(text, path, 2):
        words = [w for w in lemmas.split("|") if w]
        if not words:
            raise InputError(f"{path}:{lineno}: synset {sid!r} has no lemmas")
        out.append((sid, words))
    return out


def load_synsets(path: str) -> list[tuple[str, list[str]]]:
    return parse_synsets(_read(path), path)


def parse_relations(text: str, path: str = "relations.tsv") -> list[SemRelation]:
    return [SemRelation(src, typ, dst)
            for _, (src, typ, dst) in _records(text, path, 3)]


def load_relations(path: str) -> list[SemRelation]:
    return parse_relations(_read(path), path)


def parse_definitions(text: str, path: str = "definitions.tsv"
                      ) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for lineno, (cp_tok, words) in _records(text, path, 2):
        cp = _parse_cp(cp_tok, path, lineno)
        glosses = [w for w in words.split("|") if w]
        out.setdefault(cp, []).extend(glosses)
    return out


def load_definitions(path: str) -> dict[int, list[str]]:
    return parse_definitions(_read(path), path)


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
    return parse_freq_counts(_read(path), path)


def parse_corpus(text: str, path: str = "corpus.tsv") -> list[tuple[str, str]]:
    docs = []
    for lineno, fields in _records(text, path, 2):
        label, doc = fields
        docs.append((label, doc))
    if not docs:
        raise InputError(f"{path}: empty corpus")
    return docs


def load_corpus(path: str) -> list[tuple[str, str]]:
    return parse_corpus(_read(path), path)


# -- sparse vectors --------------------------------------------------------

def write_vectors(fh: TextIO, labels: Sequence[str],
                  vectors: Sequence[Mapping[int, float]]) -> None:
    fh.write(VECTORS_HEADER + "\n")
    for label, vec in zip(labels, vectors):
        cells = " ".join(f"{cid}:{w:.12g}" for cid, w in sorted(vec.items()))
        fh.write(f"{label}\t{cells}\n")


def parse_vectors(text: str, path: str = "vectors"
                  ) -> tuple[list[str], list[dict[int, float]]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != VECTORS_HEADER:
        raise InputError(f"{path}: missing {VECTORS_HEADER!r} header")
    labels: list[str] = []
    vectors: list[dict[int, float]] = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        label, _, cells = line.partition("\t")
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
    return labels, vectors


def load_vectors(path: str) -> tuple[list[str], list[dict[int, float]]]:
    return parse_vectors(_read(path), path)


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_snapshot(fh, g, classes, annotations)


def parse_snapshot(text: str, path: str = "snapshot"
                   ) -> tuple[InclusionGraph, list[AllographClass],
                              dict[int, set[str]]]:
    """Read a snapshot written by ``write_snapshot``.

    Class ids must be unique, each codepoint must belong to one class
    only, and every edge endpoint must be a class declared earlier in
    NODES; any other content raises ``InputError`` naming the line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_HEADER:
        raise InputError(f"{path}: missing {SNAPSHOT_HEADER!r} header")
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
                members = frozenset(int(m, 16) for m in members_tok.split())
                for cp in members:
                    if cp in class_of:
                        raise InputError(f"codepoint {cp:X} is in classes "
                                         f"{class_of[cp]} and {cid}")
                    class_of[cp] = cid
                classes.append(AllographClass(cid, members, int(rep_tok, 16)))
                g.add_node(cid)
                if synsets_tok != MISSING:
                    annotations[cid] = set(synsets_tok.split("|"))
            elif section == "EDGES":
                sub, sup = int(fields[0]), int(fields[1])
                if sub not in g or sup not in g:
                    missing = sup if sub in g else sub
                    raise InputError(f"edge endpoint {missing} is not a "
                                     f"declared node")
                data = EdgeData()
                i = 2
                for lang in _SNAPSHOT_LANGS:
                    if fields[i] != MISSING:
                        data.d_min[lang] = float(fields[i])
                    if fields[i + 1] != MISSING:
                        data.phi[lang] = float(fields[i + 1])
                    i += 2
                data.f1 = int(fields[i])
                data.f2 = int(fields[i + 1])
                data.r = float(fields[i + 2])
                if fields[i + 3] != MISSING:
                    data.s_raw = float(fields[i + 3])
                if fields[i + 4] != MISSING:
                    data.s = float(fields[i + 4])
                g.add_edge(sub, sup, data)
            else:
                raise InputError("content before any section header")
        except InputError as exc:  # before ValueError, its base class
            raise InputError(f"{path}:{lineno}: {exc}") from None
        except (ValueError, IndexError):
            raise InputError(f"{path}:{lineno}: malformed {section} line") from None
    return g, classes, annotations


def load_snapshot(path: str) -> tuple[InclusionGraph, list[AllographClass],
                                      dict[int, set[str]]]:
    return parse_snapshot(_read(path), path)


def snapshot_to_string(g: InclusionGraph, classes: Sequence[AllographClass],
                       annotations: Mapping[int, set[str]] | None = None) -> str:
    buf = io.StringIO()
    write_snapshot(buf, g, classes, annotations)
    return buf.getvalue()
