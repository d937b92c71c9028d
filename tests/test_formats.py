import ast
import io
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinograph import formats
from sinograph.charstore import CharacterStore, Language
from sinograph.errors import InputError
from sinograph.graphcore import EdgeData, InclusionGraph, from_edges


def test_parse_strokes():
    text = "4E00\tH:(1,5)-(9,5)\n# comment\n\n8A00\tD:(4,9)-(4.5,8);H:(2,7.6)-(6.5,7.6)\n"
    strokes = formats.parse_strokes(text)
    assert sorted(strokes) == [0x4E00, 0x8A00]
    assert len(strokes[0x8A00]) == 2
    with pytest.raises(InputError, match="strokes.tsv:1"):
        formats.parse_strokes("XYZ\tH:(1,5)-(9,5)")
    with pytest.raises(InputError, match="duplicate"):
        formats.parse_strokes("4E00\tH:(1,5)-(9,5)\n4E00\tH:(0,0)-(1,1)")


def _stroke_description(spec):
    """The strokes ``parse_strokes`` reads from ``spec`` on line 1."""
    return formats.parse_strokes(f"4E00\t{spec}\n")[0x4E00]


def test_parse_strokes_roundtrip():
    strokes = _stroke_description("D:(4,9)-(4.5,8);H:(1.97,7.6)-(6.52,7.6)")
    assert [s.calligraphic_type for s in strokes] == ["D", "H"]
    assert strokes[0].skeleton == ((4.0, 9.0), (4.5, 8.0))
    with pytest.raises(InputError) as unknown:
        _stroke_description("ZZZ:(0,0)-(1,1)")
    assert str(unknown.value) == "strokes.tsv:1: unknown stroke type 'ZZZ'"
    with pytest.raises(InputError) as one_point:
        _stroke_description("H:(0,0)")
    assert str(one_point.value) == ("strokes.tsv:1: stroke skeleton needs at "
                                    "least 2 points")


@pytest.mark.parametrize("point, token", [("(nan,5)", "nan"), ("(1,inf)", "inf"),
                                          ("(-inf,2)", "-inf"), ("(NaN,NaN)", "NaN")])
def test_parse_strokes_rejects_non_finite(point, token):
    with pytest.raises(InputError) as exc:
        _stroke_description(f"H:{point}-(9,5);S:(5,9)-(5,1)")
    assert str(exc.value) == (f"strokes.tsv:1: coordinate {token!r} is not "
                              f"a finite number")


# pieces of a coordinate token: digits, number syntax, and what ``float``
# reads but ``real`` refuses ("١" is an Arabic-Indic digit)
COORDINATE = st.lists(st.sampled_from((
    "0", "1", "7", ".", "e", "-", "+", "_", " ", "\x0b", "\x1c", "١",
    "nan", "inf", "1e999", "1e+5", "-0")), max_size=4).map("".join)


@settings(max_examples=400, deadline=None)
@given(COORDINATE, COORDINATE)
# tokens float reads and real refuses, so each must take real's refusal
@example("\x0b1", "1")
@example("1", "7\x1c")
@example("1_0", "1")
@example("+1", "1")
@example("１", "1")
@example("1e999", "-0")
def test_stroke_coordinates_are_read_as_real_reads_them(x, y):
    try:
        want = tuple(formats.real(tok, "coordinate", -math.inf) for tok in (x, y))
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _stroke_description(f"H:({x},{y})-(1,1)")
        assert str(got.value) == f"strokes.tsv:1: {exc}"
    else:
        assert _stroke_description(f"H:({x},{y})-(1,1)")[0].start == want


# pieces of a vectors cell token, as COORDINATE without the blank that
# separates cells
CELL_TOKEN = st.lists(st.sampled_from((
    "0", "1", "7", ".", "e", "-", "+", "_", "\x0b", "\x1c", "١",
    "nan", "inf", "1e999", "1e+5", "-0", "1e200")), max_size=4).map("".join)


@settings(max_examples=400, deadline=None)
@given(CELL_TOKEN, CELL_TOKEN, st.sampled_from(("", " 9:1", " 9:1e+0")))
# tokens int or float reads and decimal or real refuses
@example("\x0b1", "1", "")
@example("1", "7\x1c", "")
@example("1_0", "1", "")
@example("1", "+1", " 9:1")
@example("１", "1", "")
@example("1", "1e999", " 9:1e+0")
def test_vector_cells_are_read_as_decimal_and_real_read_them(cid, w, rest):
    """A cell reads as ``decimal`` and ``real`` read its id and weight,
    alone or beside another cell (``rest``; no generated id is 9), and a
    token either refuses is a bad cell named as written."""
    cell = f"{cid}:{w}"
    text = f"{formats.VECTORS_HEADER}\na\t{cell}{rest}\n"
    try:
        feature, weight = formats.decimal(cid), formats.real(w)
    except InputError:
        with pytest.raises(InputError) as got:
            formats.parse_vectors(text)
        assert str(got.value) == f"vectors:2: bad cell {cell!r}"
        return
    if math.isfinite(weight * weight):
        want = {feature: weight} | ({9: 1.0} if rest else {})
        assert formats.parse_vectors(text) == (["a"], [want])
    else:
        with pytest.raises(InputError, match="^vectors:2: (non-finite weight|"
                                             "squared norm of the weights)"):
            formats.parse_vectors(text)


def test_parse_strokes_rejects_degenerate_stroke_of_a_pair():
    # a lone stroke has no pair signature, so its endpoints may coincide
    assert _stroke_description("D:(3,3)-(3,3)")[0].start == (3.0, 3.0)
    with pytest.raises(InputError) as exc:
        _stroke_description("H:(1,5)-(9,5);D:(3,3)-(4,4)-(3,3)")
    assert str(exc.value) == ("strokes.tsv:1: stroke 1 is degenerate "
                              "(coincident endpoints)")


def test_stroke_types_are_ascii():
    assert _stroke_description(" h : (1,5) -(9,5) ;s:(5,9)-(5,1)")[0].skeleton == \
        ((1.0, 5.0), (9.0, 5.0))
    # "ſ".upper() is "S"
    for type_tok in ("ſ", "H\u3000"):
        with pytest.raises(InputError) as exc:
            _stroke_description(f"{type_tok}:(5,9)-(5,1)")
        assert str(exc.value) == f"strokes.tsv:1: unknown stroke type {type_tok!r}"


# Each of these ends a line for str.splitlines, but not in a file.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("char", NOT_LINE_ENDS)
def test_a_line_ends_at_newline_only(char):
    docs = formats.parse_corpus(f"sports\t一{char}二\nnews\t三四\n")
    assert docs == [("sports", f"一{char}二"), ("news", "三四")]
    with pytest.raises(InputError) as corpus:
        formats.parse_corpus(f"sports\t一{char}二\nnews\n")
    assert str(corpus.value) == ("corpus.tsv:2: expected 2 tab-separated "
                                 "fields, got 1")
    store = formats.parse_synsets(f"s1\t風{char}疹|はしか\ns2\t礦物\n")
    assert store.lemmas("s1") == {f"風{char}疹", "はしか"}
    with pytest.raises(InputError) as synsets:
        formats.parse_synsets(f"s1\t風{char}疹\ns1\t礦物\n")
    assert str(synsets.value) == "synsets.tsv:2: duplicate synset id 's1'"


def test_crlf_line_ends_read_as_lf():
    assert formats.parse_corpus("a\t一\r\nb\t二\r\n") == [("a", "一"), ("b", "二")]
    text = "#sparse-vectors v1\r\na\t1:0.5\r\n"
    assert formats.parse_vectors(text) == (["a"], [{1: 0.5}])
    # a bare "\r" ends no line, and only one is dropped before "\n"
    with pytest.raises(InputError) as bare:
        formats.parse_radicals("4E00\t1\r4E01\t2\r\n")
    assert str(bare.value) == ("radicals.tsv:1: expected 2 tab-separated "
                               "fields, got 3")
    with pytest.raises(InputError) as two:
        formats.parse_radicals("4E00\t1\r\n4E01\t2\r\r\n")
    assert str(two.value) == "radicals.tsv:2: bad radical '2\\r'"


def test_a_non_utf8_byte_is_numbered_by_newlines(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes("a\t一\u2028二\r\nb\t".encode("utf-8") + b"\xff\n")
    with pytest.raises(InputError) as exc:
        formats.load_file(formats.parse_corpus, str(path))
    assert str(exc.value) == f"{path}:2: not valid UTF-8"


def test_parse_readings():
    text = "4EBA\tcmn\tren2\n4EBA\tja_kun\thi to\n"
    readings = formats.parse_readings(text)
    assert readings[0][1].language is Language.MANDARIN
    assert readings[1][1].syllables == ("hi", "to")
    with pytest.raises(InputError):
        formats.parse_readings("4EBA\tklingon\tx\n")
    with pytest.raises(InputError):  # polysyllabic mandarin
        formats.parse_readings("4EBA\tcmn\tren2 ren2\n")


def test_parse_variants():
    pairs = formats.parse_variants("4E00\t4E01\n4E01\t4E00\n")
    assert pairs == {(0x4E00, 0x4E01)}
    with pytest.raises(InputError):
        formats.parse_variants("4E00\t4E00\n")


def test_parse_radicals():
    rads = formats.parse_radicals("6BCF\t80\n")
    assert rads == {0x6BCF: 80}
    with pytest.raises(InputError):
        formats.parse_radicals("6BCF\t215\n")
    with pytest.raises(InputError):
        formats.parse_radicals("6BCF\tabc\n")
    with pytest.raises(InputError, match="radicals.tsv:2: duplicate codepoint"):
        formats.parse_radicals("6BCF\t80\n6BCF\t81\n")


def test_parse_synsets_relations_definitions():
    store = formats.parse_synsets("s1\t風疹|はしか\ns2\t礦物\n")
    assert store.lemmas("s1") == {"風疹", "はしか"}
    assert store.lemmas("s2") == {"礦物"}
    assert formats.parse_relations("s1\thyponymy\ts2\n", store) is store
    assert [r.relation_type for r in store.relations] == ["hyponymy"]
    with pytest.raises(InputError, match="relations.tsv:2: relation target "
                                         "'s3' is not a declared synset"):
        formats.parse_relations("s1\thyponymy\ts2\ns2\tx\ts3\n", store)
    with pytest.raises(InputError, match="synsets.tsv:2: duplicate synset id"):
        formats.parse_synsets("s1\t風疹\ns1\t礦物\n")
    with pytest.raises(InputError, match="synsets.tsv:1: synset 's1' has no lemmas"):
        formats.parse_synsets("s1\t|\n")
    defs = formats.parse_definitions("75B9\tはしか|measles\n")
    assert defs == {0x75B9: ["はしか", "measles"]}


def test_parse_freq_counts():
    fl = formats.parse_freq_counts("61\t3\n62\t1\n")
    assert fl.entries == ((0x61, 0.75), (0x62, 0.25))
    with pytest.raises(InputError):
        formats.parse_freq_counts("61\t0\n")
    with pytest.raises(InputError):
        formats.parse_freq_counts("")


def test_parse_corpus():
    docs = formats.parse_corpus("sports\t人人人\nnews\t任任\n")
    assert docs == [("sports", "人人人"), ("news", "任任")]
    with pytest.raises(InputError):
        formats.parse_corpus("# nothing\n")


def test_vectors_roundtrip():
    labels = ["a", "b"]
    vectors = [{3: 0.5, 1: 0.25}, {}]
    buf = io.StringIO()
    formats.write_vectors(buf, labels, vectors)
    got_labels, got_vectors = formats.parse_vectors(buf.getvalue())
    assert got_labels == labels
    assert got_vectors == [{1: 0.25, 3: 0.5}, {}]
    with pytest.raises(InputError):
        formats.parse_vectors("no header\n")


@pytest.mark.parametrize("cells, problem", [
    ("1:0.5\u30002:0.25", "bad cell '1:0.5\\u30002:0.25'"),
    ("3:1\xa04:1", "bad cell '3:1\\xa04:1'"),
    # a tab ends the cells field, as it ends every field
    ("1:0.5\t2:0.25", "expected 2 tab-separated fields, got 3"),
    ("1:0.5\x0c2:0.25", "bad cell '1:0.5\\x0c2:0.25'"),
    ("1:0.5\u20282:0.25", "bad cell '1:0.5\\u20282:0.25'"),
    ("1:0.5  2:0.25", "bad cell ''"),
    (" 1:0.5", "bad cell ''"),
    ("1:0.5 ", "bad cell ''"),
])
def test_a_cell_separator_but_one_space_is_a_bad_cell(cells, problem):
    with pytest.raises(InputError) as exc:
        formats.parse_vectors(f"{formats.VECTORS_HEADER}\na\t{cells}\n")
    assert str(exc.value) == f"vectors:2: {problem}"


def written_snapshot(g, store, annotations=None) -> str:
    """The text ``formats.write_snapshot`` writes."""
    buf = io.StringIO()
    formats.write_snapshot(buf, g, store, annotations)
    return buf.getvalue()


def _sample_graph():
    g = InclusionGraph()
    data = EdgeData()
    data.d_min["cmn"] = 1.25
    data.phi["cmn"] = 0.75
    data.f1 = 2
    data.f2 = 1
    data.r = 0.5
    data.s_raw = 0.625
    data.s = 1.0
    g.add_edge(0, 1, data)
    g.add_edge(2, 1)
    g.add_node(3)
    g.meta["phi_dmax_cmn"] = repr(5.0)
    # classes 0..3: U+4E00, {U+4E09, U+4E8C} led by U+4E8C, U+4E0A, U+4E0B
    store = CharacterStore({0x4E00, 0x4E09, 0x4E8C, 0x4E0A, 0x4E0B},
                           [(0x4E09, 0x4E8C)], {0x4E8C: 1.0})
    annotations = {1: {"syn1", "syn0"}}
    return g, store, annotations


def test_snapshot_roundtrip():
    g, store, annotations = _sample_graph()
    text = written_snapshot(g, store, annotations)
    g2, store2, ann2 = formats.parse_snapshot(text)

    assert g2.nodes == g.nodes
    assert g2.edges() == g.edges()
    assert g2.meta == g.meta
    for e in g.edges():
        a, b = g.edge(*e), g2.edge(*e)
        assert (a.d_min, a.phi, a.f1, a.f2, a.r, a.s_raw, a.s) == \
            (b.d_min, b.phi, b.f1, b.f2, b.r, b.s_raw, b.s)
    assert store2.classes == store.classes
    assert store2.class_of == store.class_of
    assert ann2 == annotations
    # serialization is canonical: a second write is byte-identical
    assert written_snapshot(g2, store2, ann2) == text


_LANGS = st.sampled_from([lang.value for lang in Language])
_WEIGHT = st.floats(0, 1e300)
_UNIT = st.floats(0, 1)
_EDGE_DATA = st.builds(
    EdgeData, d_min=st.dictionaries(_LANGS, _WEIGHT),
    phi=st.dictionaries(_LANGS, _UNIT), f1=st.integers(0, 10**18),
    f2=st.integers(0, 10**18), r=_UNIT, s_raw=st.none() | _WEIGHT,
    s=st.none() | _UNIT)
_SYNSET_ID = st.text("ab_- 1", min_size=1).filter(lambda sid: sid != "-")


@st.composite
def snapshots(draw):
    """A class graph, its store and annotations, and each edge's drawn
    ``EdgeData`` (None where the edge stores none)."""
    n = draw(st.integers(1, 6))
    variants = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)), max_size=3))
    store = CharacterStore(range(0x4E00, 0x4E00 + n),
                           [(0x4E00 + a, 0x4E00 + b) for a, b in variants])
    order = draw(st.permutations(sorted(store.by_id)))  # edges follow it
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    g = InclusionGraph()
    for cid in order:
        g.add_node(cid)
    drawn = {}
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([])):
        drawn[a, b] = draw(st.none() | _EDGE_DATA)
        g.add_edge(a, b, drawn[a, b])
    g.meta = draw(st.dictionaries(
        st.from_regex(r"[a-z_][a-z0-9_ .:-]*", fullmatch=True),
        st.text(st.characters(blacklist_characters="\t\n\r",
                              blacklist_categories=("Cs",)), max_size=8)))
    annotations = draw(st.dictionaries(st.sampled_from(order),
                                       st.sets(_SYNSET_ID, min_size=1)))
    return g, store, annotations, drawn


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_snapshot_round_trip_keeps_every_drawn_value(case):
    """Write, parse and write again: the same text, and the parsed values
    are the drawn ones, an edge that stored none reading as unset."""
    g, store, annotations, drawn = case
    text = written_snapshot(g, store, annotations)
    g2, store2, ann2 = formats.parse_snapshot(text)
    assert written_snapshot(g2, store2, ann2) == text
    assert g2.nodes == g.nodes
    assert g2.edges() == sorted(drawn)
    assert {e: g2.stored(*e) for e in drawn} == {
        e: data or EdgeData() for e, data in drawn.items()}
    assert g2.meta == g.meta
    assert store2.classes == store.classes
    assert ann2 == annotations


def test_snapshot_rejects_garbage():
    with pytest.raises(InputError):
        formats.parse_snapshot("not a snapshot\n")
    g, store, _ = _sample_graph()
    text = written_snapshot(g, store)
    broken = text.replace("EDGES\n0\t1", "EDGES\n0\tnope", 1)
    with pytest.raises(InputError):
        formats.parse_snapshot(broken)


def test_snapshot_file_io(tmp_path):
    g, store, annotations = _sample_graph()
    path = tmp_path / "graph.snap"
    formats.save_snapshot(str(path), g, store, annotations)
    g2, _, ann2 = formats.load_file(formats.parse_snapshot, str(path))
    assert g2.edges() == g.edges()
    assert ann2 == annotations


# lines every reader skips after a file's header: blank ones, and ones
# whose first nonblank character is "#", tabs in them or not
SKIPPED = ("", " \t ", "\r", "# a comment", "  #\tthree\tfields")


def _with_skipped_lines(text):
    """``text`` with a line of ``SKIPPED`` after each of its lines, the
    header included."""
    lines = text.removesuffix("\n").split("\n")
    return "".join(f"{line}\n{SKIPPED[i % len(SKIPPED)]}\n"
                   for i, line in enumerate(lines))


def test_vectors_skip_blank_and_comment_lines():
    buf = io.StringIO()
    formats.write_vectors(buf, ["a", "b", "a"], [{3: 0.5, 1: 0.25}, {}, {2: 1.0}])
    text = _with_skipped_lines(buf.getvalue())
    assert formats.parse_vectors(text, min_per_label=1) == (
        ["a", "b", "a"], [{1: 0.25, 3: 0.5}, {}, {2: 1.0}])
    # a record is still named by its own line
    with pytest.raises(InputError) as exc:
        formats.parse_vectors(text + "c 1:0.5\n")
    assert str(exc.value) == "vectors:9: expected 2 tab-separated fields, got 1"


def test_snapshot_skips_blank_and_comment_lines():
    g, store, annotations = _sample_graph()
    text = written_snapshot(g, store, annotations)
    # after the header, in META, between sections and in NODES and EDGES
    g2, store2, ann2 = formats.parse_snapshot(_with_skipped_lines(text))
    assert (g2.nodes, g2.edges(), g2.meta) == (g.nodes, g.edges(), g.meta)
    assert (store2.classes, ann2) == (store.classes, annotations)
    assert written_snapshot(g2, store2, ann2) == text


def _splits_a_line(node):
    """Whether ``node`` splits a string at a tab or a newline."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "splitlines"
                 or node.func.attr in ("split", "rsplit", "partition", "rpartition")
                 and any(isinstance(arg, ast.Constant) and arg.value in ("\t", "\n")
                         for arg in node.args)))


def test_only_the_reader_splits_lines_into_fields():
    """Every input keeps one grammar: in ``formats``, only
    ``_Reader.records`` cuts text into lines or a line into fields."""
    tree = ast.parse(Path(formats.__file__).read_text(encoding="utf-8"))
    reader = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Reader")
    records = next(node for node in reader.body
                   if isinstance(node, ast.FunctionDef) and node.name == "records")
    in_records = {id(node) for node in ast.walk(records) if _splits_a_line(node)}
    assert len(in_records) == 2  # the text at "\n", a line at "\t"
    assert {id(node) for node in ast.walk(tree) if _splits_a_line(node)} == in_records


def test_snapshot_rejects_a_cycle():
    g, store, _ = _sample_graph()
    text = written_snapshot(g, store)
    edge = next(line for line in text.splitlines() if line.startswith("0\t1\t"))
    cyclic = text.replace(edge, edge + "\n1\t0\t" + edge[4:], 1)
    with pytest.raises(InputError, match=r"^g\.snap: graph has a cycle: "
                                         r"(0 -> 1 -> 0|1 -> 0 -> 1)$"):
        formats.parse_snapshot(cyclic, "g.snap")


@pytest.mark.parametrize("old, new, problem", [
    ("phi_dmax_cmn\t5.0", "phi_dmax_cmn\t999", "META key 'phi_dmax_cmn' repeated"),
    ("0\t1\t1.25\t", "0\t1\t0.5\t", "edge 0 -> 1 repeated"),
    ("2\t1\t-\t", "2\t1\t0.5\t", "edge 2 -> 1 repeated"),
])
def test_snapshot_rejects_a_repeated_meta_key_or_edge(old, new, problem):
    """A second line for one META key or edge, with another value, is
    refused rather than letting either line win."""
    g, store, _ = _sample_graph()
    lines = written_snapshot(g, store).splitlines()
    at = next(i for i, line in enumerate(lines, 1) if line.startswith(old))
    lines.insert(at, new + lines[at - 1][len(old):])
    with pytest.raises(InputError) as exc:
        formats.parse_snapshot("\n".join(lines) + "\n", "g.snap")
    assert str(exc.value) == f"g.snap:{at + 1}: {problem}"


@pytest.mark.parametrize("members, token", [
    ("4E09\u30004E8C", "4E09\u30004E8C"),
    ("4E09\x0c4E8C", "4E09\x0c4E8C"),
    ("4E09\xa04E8C", "4E09\xa04E8C"),
    ("4E09  4E8C", ""),
    (" 4E09 4E8C", ""),
    ("4E09 4E8C ", ""),
    ("", ""),
])
def test_snapshot_members_are_separated_by_one_space(members, token):
    g, store, _ = _sample_graph()
    lines = written_snapshot(g, store).splitlines()
    lineno = lines.index("NODES") + 3  # class 1, members 4E09 and 4E8C
    fields = lines[lineno - 1].split("\t")
    assert fields[1] == "4E09 4E8C"
    fields[1] = members
    lines[lineno - 1] = "\t".join(fields)
    with pytest.raises(InputError) as exc:
        formats.parse_snapshot("\n".join(lines) + "\n", "g.snap")
    assert str(exc.value) == f"g.snap:{lineno}: bad hex codepoint {token!r}"


def test_writing_a_snapshot_stores_no_edge_data():
    g = from_edges([(0, 1)])
    written_snapshot(g, CharacterStore({0x4E00, 0x4E01}))
    assert g.stored(0, 1) is None


def test_write_lines_to_a_file_or_standard_output(tmp_path, capsys):
    path = tmp_path / "out.txt"
    formats.write_lines(str(path), ["一\tb", "c"])
    assert path.read_bytes() == "一\tb\nc\n".encode("utf-8")
    formats.write_lines("-", ["x"])
    assert capsys.readouterr().out == "x\n"


# int() alone reads each of these: "_" separators, blanks, "+" and
# non-ASCII digits ("２" is fullwidth, "٣" Arabic-Indic)
# the last holds more digits than int() converts
NOT_DECIMAL = ("1_4", "２１", " +3", "+3", "3 ", "٣", "",
               pytest.param("1" * 5000, id="5000 digits"))


@pytest.mark.parametrize("token", NOT_DECIMAL)
def test_decimal_fields_take_ascii_digits_only(token):
    with pytest.raises(InputError) as radical:
        formats.parse_radicals(f"4E00\t1\n4E01\t{token}\n")
    assert str(radical.value) == f"radicals.tsv:2: bad radical {token!r}"
    with pytest.raises(InputError) as count:
        formats.parse_freq_counts(f"4E00\t{token}\n")
    assert str(count.value) == f"freq.tsv:1: bad count {token!r}"
    if " " not in token:  # a blank ends a vector cell
        cell = f"{token}:0.5"
        with pytest.raises(InputError) as vector:
            formats.parse_vectors(f"{formats.VECTORS_HEADER}\na\t{cell}\n")
        assert str(vector.value) == f"vectors:2: bad cell {cell!r}"


@pytest.mark.parametrize("token", NOT_DECIMAL)
@pytest.mark.parametrize("section, field, name", [
    ("NODES", 0, "class id"), ("EDGES", 0, "class id"), ("EDGES", 1, "class id"),
    ("EDGES", 8, "f1"), ("EDGES", 9, "f2")])
def test_snapshot_integers_take_ascii_digits_only(token, section, field, name):
    g, store, _ = _sample_graph()
    lines = written_snapshot(g, store).splitlines()
    lineno = lines.index(section) + 2
    fields = lines[lineno - 1].split("\t")
    fields[field] = token
    lines[lineno - 1] = "\t".join(fields)
    with pytest.raises(InputError) as exc:
        formats.parse_snapshot("\n".join(lines) + "\n", "g.snap")
    assert str(exc.value) == f"g.snap:{lineno}: bad {name} {token!r}"


@pytest.mark.parametrize("section, field", [("NODES", 0), ("EDGES", 0),
                                            ("EDGES", 1)])
def test_a_snapshot_class_id_is_an_integer_at_least_0(section, field):
    g, store, _ = _sample_graph()
    lines = written_snapshot(g, store).splitlines()
    lineno = lines.index(section) + 2
    fields = lines[lineno - 1].split("\t")
    fields[field] = "-5"
    lines[lineno - 1] = "\t".join(fields)
    with pytest.raises(InputError) as exc:
        formats.parse_snapshot("\n".join(lines) + "\n", "g.snap")
    assert str(exc.value) == f"g.snap:{lineno}: class id '-5' is not an integer >= 0"


# float() alone reads each of these: "_" separators, blanks, "+" and
# non-ASCII digits ("５" is fullwidth, "١" Arabic-Indic)
NOT_REAL = ("0_5", "５", "١", "+0.5", " 0.5", "0.5 ", "", "1e_3")

# the weight columns of an EDGES line; f1 and f2 are columns 8 and 9
WEIGHT_COLUMNS = {2: "d_min", 3: "phi", 4: "d_min", 5: "phi", 6: "d_min",
                  7: "phi", 10: "r", 11: "s_raw", 12: "s"}


@pytest.mark.parametrize("token", NOT_REAL)
def test_real_fields_take_ascii_float_syntax_only(token):
    if " " not in token:  # a blank ends a vector cell
        cell = f"1:{token}"
        with pytest.raises(InputError) as vector:
            formats.parse_vectors(f"{formats.VECTORS_HEADER}\na\t{cell}\n")
        assert str(vector.value) == f"vectors:2: bad cell {cell!r}"
    with pytest.raises(InputError) as table:
        formats.parse_feature_table("C\t-\t0\t0\t0\t0\nV\t-\t0\t0\t0\n"
                                    f"C\tb\t{token}\t1\t1\t0\n")
    assert str(table.value) == f"phoneme_features.tsv:3: bad scale value {token!r}"
    g, store, _ = _sample_graph()
    lines = written_snapshot(g, store).splitlines()
    lineno = lines.index("EDGES") + 2
    edge = lines[lineno - 1].split("\t")
    for column, name in WEIGHT_COLUMNS.items():
        fields = list(edge)
        fields[column] = token
        lines[lineno - 1] = "\t".join(fields)
        with pytest.raises(InputError) as snapshot:
            formats.parse_snapshot("\n".join(lines) + "\n", "g.snap")
        assert str(snapshot.value) == f"g.snap:{lineno}: bad {name} {token!r}"
    spec = f"H:(1,5)-(9,{token})"
    with pytest.raises(InputError) as strokes:
        formats.parse_strokes(f"4E00\tS:(5,9)-(5,1)\n4E01\t{spec}\n")
    assert str(strokes.value) == f"strokes.tsv:2: bad coordinate {token!r}"


def test_real_takes_what_repr_writes():
    for value in (0.5, 1e+20, 1e-07, -2.0, math.inf, -math.inf):
        assert formats.real(repr(value)) == value
    assert math.isnan(formats.real("nan"))


def test_a_negative_decimal_keeps_its_range_message():
    with pytest.raises(InputError) as radical:
        formats.parse_radicals("4E00\t-3\n")
    assert str(radical.value) == "radicals.tsv:1: radical '-3' is not an integer in [1, 214]"
    with pytest.raises(InputError) as count:
        formats.parse_freq_counts("4E00\t-3\n")
    assert str(count.value) == "freq.tsv:1: count '-3' is not an integer >= 1"
    assert formats.parse_vectors(f"{formats.VECTORS_HEADER}\na\t-1:0.5\n") == \
        (["a"], [{-1: 0.5}])


@pytest.mark.parametrize("text, message", [
    ("", "vectors: need at least two categories, got 0"),
    ("\na\t1:1\n\na\t2:1\n", "vectors:3: need at least two categories, got 1"),
])
def test_vectors_name_the_file_when_too_few_categories(text, message):
    text = formats.VECTORS_HEADER + "\n" + text
    formats.parse_vectors(text)  # no minimum by default
    with pytest.raises(InputError) as exc:
        formats.parse_vectors(text, min_per_label=1)
    assert str(exc.value) == message
