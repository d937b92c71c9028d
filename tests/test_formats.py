import io

import pytest

from sinograph import formats
from sinograph.charstore import AllographClass, Language
from sinograph.errors import InputError
from sinograph.graphcore import EdgeData, InclusionGraph


def test_parse_strokes():
    text = "4E00\tH:(1,5)-(9,5)\n# comment\n\n8A00\tD:(4,9)-(4.5,8);H:(2,7.6)-(6.5,7.6)\n"
    strokes = formats.parse_strokes(text)
    assert sorted(strokes) == [0x4E00, 0x8A00]
    assert len(strokes[0x8A00]) == 2
    with pytest.raises(InputError, match="strokes.tsv:1"):
        formats.parse_strokes("XYZ\tH:(1,5)-(9,5)")
    with pytest.raises(InputError, match="duplicate"):
        formats.parse_strokes("4E00\tH:(1,5)-(9,5)\n4E00\tH:(0,0)-(1,1)")


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
    syn = formats.parse_synsets("s1\t風疹|はしか\ns2\t礦物\n")
    assert syn == [("s1", ["風疹", "はしか"]), ("s2", ["礦物"])]
    rel = formats.parse_relations("s1\thyponymy\ts2\n", {"s1", "s2"})
    assert rel[0].relation_type == "hyponymy"
    with pytest.raises(InputError, match="relations.tsv:2: relation target"):
        formats.parse_relations("s1\thyponymy\ts2\ns2\tx\ts3\n", {"s1", "s2"})
    with pytest.raises(InputError, match="synsets.tsv:2: duplicate synset id"):
        formats.parse_synsets("s1\t風疹\ns1\t礦物\n")
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
    classes = [
        AllographClass(0, frozenset({0x4E00}), 0x4E00),
        AllographClass(1, frozenset({0x4E8C, 0x4E09}), 0x4E8C),
        AllographClass(2, frozenset({0x4E0A}), 0x4E0A),
        AllographClass(3, frozenset({0x4E0B}), 0x4E0B),
    ]
    annotations = {1: {"syn1", "syn0"}}
    return g, classes, annotations


def test_snapshot_roundtrip():
    g, classes, annotations = _sample_graph()
    text = formats.snapshot_to_string(g, classes, annotations)
    g2, classes2, ann2 = formats.parse_snapshot(text)

    assert g2.nodes == g.nodes
    assert g2.edges() == g.edges()
    assert g2.meta == g.meta
    for e in g.edges():
        a, b = g.edge(*e), g2.edge(*e)
        assert (a.d_min, a.phi, a.f1, a.f2, a.r, a.s_raw, a.s) == \
            (b.d_min, b.phi, b.f1, b.f2, b.r, b.s_raw, b.s)
    assert [(c.id, c.members, c.representative) for c in classes2] == \
        [(c.id, c.members, c.representative) for c in classes]
    assert ann2 == annotations
    # serialization is canonical: a second write is byte-identical
    assert formats.snapshot_to_string(g2, classes2, ann2) == text


def test_snapshot_rejects_garbage():
    with pytest.raises(InputError):
        formats.parse_snapshot("not a snapshot\n")
    g, classes, _ = _sample_graph()
    text = formats.snapshot_to_string(g, classes)
    broken = text.replace("EDGES\n0\t1", "EDGES\n0\tnope", 1)
    with pytest.raises(InputError):
        formats.parse_snapshot(broken)


def test_snapshot_file_io(tmp_path):
    g, classes, annotations = _sample_graph()
    path = tmp_path / "graph.snap"
    formats.save_snapshot(str(path), g, classes, annotations)
    g2, classes2, ann2 = formats.load_snapshot(str(path))
    assert g2.edges() == g.edges()
    assert ann2 == annotations


def test_snapshot_rejects_a_cycle():
    g, classes, _ = _sample_graph()
    text = formats.snapshot_to_string(g, classes)
    edge = next(line for line in text.splitlines() if line.startswith("0\t1\t"))
    cyclic = text.replace(edge, edge + "\n1\t0\t" + edge[4:], 1)
    with pytest.raises(InputError, match=r"^g\.snap: graph has a cycle: "
                                         r"(0 -> 1 -> 0|1 -> 0 -> 1)$"):
        formats.parse_snapshot(cyclic, "g.snap")


def test_write_lines_to_a_file_or_standard_output(tmp_path, capsys):
    path = tmp_path / "out.txt"
    formats.write_lines(str(path), ["一\tb", "c"])
    assert path.read_bytes() == "一\tb\nc\n".encode("utf-8")
    for dash in (None, "-"):
        formats.write_lines(dash, ["x"])
    assert capsys.readouterr().out == "x\nx\n"
