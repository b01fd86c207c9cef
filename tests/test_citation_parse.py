"""The citation parser against its reference form: data.parse_citation_files
reads rows of one-digit ASCII tokens, one space or tab apart, from their
bytes and any other file in one np.loadtxt pass; oracles'
per_token_parse_citation_files reads every value by float(), one at a time.
On valid files the graphs are equal, the features bit for bit (tolerance
0); on invalid ones both raise the same error type and message, the first
bad line winning. The two spellings only float() reads now fail naming the
line."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_token_parse_citation_files

import pathmpnn.data
from pathmpnn.cli import main
from pathmpnn.data import DataFormatError, parse_citation_files, write_citation_files
from pathmpnn.synth import synth_citation

# every spelling is one token; "1e-400" underflows to 0, "4.9e-324" is subnormal
SPELLINGS = ["0", "1", "-0", "+0", "1.", ".5", "-.5", "+1.5", "00012", "1e5", "1E+5", "-2.5e-3",
             "1.e5", "+.5e-3", "1e-400", "4.9e-324", "1.7976931348623157e308", "0.1",
             "123456789012345678901234567890", "0.30000000000000004"]
# str.split()'s whitespace, "\n" aside, that a line may hold between its tokens
SEPARATORS = [" ", "  ", "\t", " \t ", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
              "\u2003", "\u2028", "\u3000"]


def parse_both(tmp_path, content: bytes, cites: bytes, **splits):
    """Each parser's outcome on the files: ("graph", graph, warnings) or
    ("error", type, message)."""
    paths = tmp_path / "t.content", tmp_path / "t.cites"
    paths[0].write_bytes(content)
    paths[1].write_bytes(cites)
    outcomes = []
    for parse in (parse_citation_files, per_token_parse_citation_files):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                graph = parse(*paths, **splits)
            except ValueError as err:
                outcomes.append(("error", type(err), str(err)))
                continue
        outcomes.append(("graph", graph, [str(w.message) for w in caught]))
    return outcomes


def assert_graphs_equal(got, want):
    for name in ("features", "labels", "train_idx", "val_idx", "test_idx"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    for name in ("n", "n_classes", "ids", "edges"):
        assert getattr(got, name) == getattr(want, name), name


def assert_same_outcome(tmp_path, content: bytes, cites: bytes = b"", **splits):
    got, want = parse_both(tmp_path, content, cites, **splits)
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got == want
    else:
        assert_graphs_equal(got[1], want[1])
        assert got[2] == want[2]


number = st.one_of(st.sampled_from(SPELLINGS), st.integers(-10 ** 20, 10 ** 20).map(str),
                   st.builds(lambda x, spell: spell(x),
                             st.floats(allow_nan=False, allow_infinity=False),
                             st.sampled_from([repr, "{:e}".format, "{:.17E}".format,
                                              "{:.3f}".format, "{:+.17g}".format])))


@st.composite
def citation_files(draw):
    """Content and cites text: 1 to 12 documents of 1 to 3 columns, any
    float spelling, any whitespace between tokens and around them, "\\n" or
    "\\r\\n" line ends, blank lines anywhere; citations among the ids, an
    unknown one and self-citations among them."""
    columns = draw(st.integers(1, 3))
    suffix = st.sampled_from(["", "\xe9", "x"])
    ids = [f"d{i}" + draw(suffix) for i in range(draw(st.integers(1, 12)))]
    ends = st.sampled_from(["\n", "\r\n"])
    space = st.sampled_from(SEPARATORS)
    blank = st.sampled_from(["", " ", "\t", "\r", "\xa0 "])

    def lines(rows):
        out = []
        for tokens in rows:
            while draw(st.integers(0, 4)) == 4:     # a blank line, one time in five
                out.append(draw(blank) + draw(ends))
            edge = draw(st.sampled_from(["", " ", "\t", "\u2003"]))
            out.append(edge + "".join(t + draw(space) for t in tokens[:-1]) + tokens[-1]
                       + edge + draw(ends))
        text = "".join(out)
        return text[:-1] if text.endswith("\n") and draw(st.booleans()) else text

    content = lines([(i, *(draw(number) for _ in range(columns)),
                      draw(st.sampled_from(["A", "B", "ml", "\u03ba"]))) for i in ids])
    known = st.sampled_from(ids + ["ghost"])
    cites = lines([(draw(known), draw(known)) for _ in range(draw(st.integers(0, 15)))])
    return content.encode(), cites.encode()


@given(files=citation_files(), train_per_class=st.integers(1, 3), val_size=st.integers(0, 5),
       test_size=st.integers(1, 5))
def test_valid_files_parse_as_the_per_token_parser_does(tmp_path_factory, files,
                                                        train_per_class, val_size, test_size):
    assert_same_outcome(tmp_path_factory.mktemp("parse"), *files,
                        train_per_class=train_per_class, val_size=val_size,
                        test_size=test_size)


# one spelling per near miss of the one-digit rows, each read by np.loadtxt
# (or refused) where the byte path declines it: ("token", t) replaces a
# feature, ("gap", g) the whitespace after a token, ("short", None) drops a
# feature
NEAR_MISSES = [("token", "10"), ("token", "07"), ("token", "-0"), ("token", "+1"),
               ("token", ".5"), ("token", "\u0663"), ("token", "x"), ("gap", "  "),
               ("gap", "\r"), ("gap", "\x0b"), ("gap", "\xa0"), ("gap", ","), ("short", None)]


@st.composite
def one_digit_files(draw, miss):
    """A content file of 1 to 40 one-digit columns, space or tab gaps,
    "\n" or "\r\n" line ends and blank lines, and the same file with the
    near miss `miss` in one row; the cites file of both."""
    columns = draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 8))
    gap = st.sampled_from([" ", "\t"])
    ends = st.sampled_from(["\n", "\r\n"])
    rows = [[f"d{i}", *(str(draw(st.integers(0, 9))) for _ in range(columns)),
             draw(st.sampled_from(["A", "B"]))] for i in range(n_rows)]
    gaps = [[draw(gap) for _ in range(columns + 1)] for _ in rows]
    blanks = [draw(st.sampled_from(["", "", "\n", "\r\n \n"])) for _ in rows]

    def text(rows, gaps):
        return "".join(blank + "".join(t + g for t, g in zip(row, row_gaps)) + row[-1]
                       + draw(ends) for blank, row, row_gaps in zip(blanks, rows, gaps)).encode()

    kind, spelling = miss
    r, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(1, columns))
    bad_rows, bad_gaps = [list(row) for row in rows], [list(g) for g in gaps]
    if kind == "token":
        bad_rows[r][j] = spelling
    elif kind == "gap":
        bad_gaps[r][j - 1] = spelling
    else:
        del bad_rows[r][j], bad_gaps[r][j]
    cites = "".join(f"d{draw(st.integers(0, n_rows))} d{draw(st.integers(0, n_rows))}\n"
                    for _ in range(draw(st.integers(0, 6)))).encode()
    return text(rows, gaps), text(bad_rows, bad_gaps), cites


@pytest.mark.parametrize("miss", NEAR_MISSES, ids=repr)
@settings(derandomize=True, max_examples=10)
@given(data=st.data())
def test_one_digit_rows_and_their_near_misses_parse_as_the_per_token_parser_does(
        tmp_path_factory, miss, data):
    good, near_miss, cites = data.draw(one_digit_files(miss))
    tmp = tmp_path_factory.mktemp("digits")
    splits = {"train_per_class": 1, "val_size": 2, "test_size": 2}
    loadtxt, calls = np.loadtxt, []
    with pytest.MonkeyPatch.context() as patch:
        # blocks of a row or a few, so that a near miss can sit in any block
        patch.setattr(pathmpnn.data, "_DIGIT_BLOCK_BYTES", data.draw(st.integers(1, 200)))
        patch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        assert_same_outcome(tmp, good, cites, **splits)
        assert calls == []                  # the byte path read the one-digit rows
        if miss != ("token", "\u0663"):
            assert_same_outcome(tmp, near_miss, cites, **splits)
            return
        # float() reads the non-ASCII digit, np.loadtxt refuses it naming the line
        got, want = parse_both(tmp, near_miss, cites, **splits)
    assert want[0] == "graph" and 3.0 in want[1].features
    lineno = next(i for i, line in enumerate(near_miss.split(b"\n"), start=1)
                  if "\u0663".encode() in line)
    assert got[:2] == ("error", DataFormatError)
    assert got[2].startswith(f"{tmp / 't.content'}:{lineno}: feature values must be numbers ")


def cora_layout_files(tmp_path):
    # Cora's content file: id, tab-separated 0/1 words, label
    rows = ["31336\t0\t1\t0\t0\tNeural_Networks", "1061127\t1\t0\t0\t1\tRule_Learning",
            "1106406\t0\t0\t1\t0\tReinforcement_Learning"]
    content, cites = tmp_path / "cora.content", tmp_path / "cora.cites"
    content.write_text("\n".join(rows) + "\n")
    cites.write_text("31336\t1061127\n1106406\t31336\n")
    return content, cites


def test_cora_layout_is_read_without_loadtxt(tmp_path, monkeypatch):
    content, cites = cora_layout_files(tmp_path)
    want = per_token_parse_citation_files(content, cites)

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert_graphs_equal(parse_citation_files(content, cites), want)


def test_one_digit_rows_skip_the_finiteness_scan(tmp_path, monkeypatch):
    # a digit byte reads as 0.0 to 9.0: only np.loadtxt's rows can be nan or inf
    content, cites = cora_layout_files(tmp_path)
    want = per_token_parse_citation_files(content, cites)

    def refuse(*args, **kwargs):
        raise AssertionError("np.isfinite called")

    monkeypatch.setattr(np, "isfinite", refuse)
    assert_graphs_equal(parse_citation_files(content, cites), want)


def test_parsing_the_benchmark_network_holds_at_most_one_and_a_half_features(tmp_path):
    # the rows' strings, their bytes and the float64 features never all at once
    content, cites = tmp_path / "net.content", tmp_path / "net.cites"
    written = synth_citation(n_nodes=800, n_features=1433, seed=1)
    write_citation_files(content, cites, written)
    tracemalloc.start()
    try:
        graph = parse_citation_files(content, cites)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * graph.features.nbytes, peak / graph.features.nbytes
    assert graph.features.tobytes() == written.features.tobytes()   # five blocks of rows


def test_an_empty_content_file_parses_as_the_per_token_parser_does(tmp_path):
    assert_same_outcome(tmp_path, b"", b"d0 d1\n")
    assert_same_outcome(tmp_path, b"\n \r\n\n", b"")


GOOD = [b"d0 1 0 A", b"d1 0 1 B", b"d2 1 1 A", b"d3 0 0 B", b"d4 1 0 A"]
# one bad content line per error class, each in place of a good line
BAD_LINES = {
    "too few tokens": b"d9 1",
    "feature count": b"d9 1 0 1 A",
    "duplicate id": b"d0 0 1 B",
    "non-number": b"d9 1 x A",
    "non-finite": b"d9 nan 1 A",
    "not UTF-8": b"d\xff 0 1 A",
}


def with_lines(bad: dict) -> bytes:
    """The good content with bad[lineno] in place of that line."""
    return b"\n".join(bad.get(i, line) for i, line in enumerate(GOOD, start=1)) + b"\n"


@pytest.mark.parametrize("lineno", [1, 3])
@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_a_bad_content_line_raises_the_per_token_parsers_error(tmp_path, case, lineno):
    # a duplicate id is named on its second line: line 1's id is d2's below
    bad = {lineno: BAD_LINES[case]} if case != "duplicate id" or lineno != 1 else {1: b"d2 0 1 B"}
    got, want = parse_both(tmp_path, with_lines(bad), b"d0 d1\n")
    assert want[0] == "error" and got == want


@pytest.mark.parametrize("lineno", [1, 3])
@pytest.mark.parametrize("line", [b"d0 d1 d2", b"d0", b"d0 d\xff"], ids=["three", "one", "utf8"])
def test_a_bad_cites_line_raises_the_per_token_parsers_error(tmp_path, line, lineno):
    cites = [b"d0 d1", b"d1 d2", b"d2 d3"]
    cites[lineno - 1] = line
    got, want = parse_both(tmp_path, with_lines({}), b"\n".join(cites) + b"\n")
    assert want[0] == "error" and got == want


def test_a_hash_in_every_line_is_no_comment(tmp_path):
    got, want = parse_both(tmp_path, b"d0 1 #0 A\nd1 0 #1 B\n", b"d0 d1\n")
    assert want[0] == "error" and got == want


@pytest.mark.parametrize("first,second", [(a, b) for a in sorted(BAD_LINES)
                                          for b in sorted(BAD_LINES) if a != b])
def test_of_two_bad_lines_the_error_is_the_per_token_parsers(tmp_path, first, second):
    # the first bad line wins, but a non-finite value only once every line is read
    lines = {2: BAD_LINES[first], 4: BAD_LINES[second]}
    got, want = parse_both(tmp_path, with_lines(lines), b"d0 d1\n")
    assert want[0] == "error" and got == want


@pytest.mark.parametrize("value,number", [("1_0", 10.0), ("\u0661", 1.0)],
                         ids=["underscore", "arabic-indic-one"])
def test_spellings_only_float_reads_exit_one_naming_the_line(tmp_path, capsys, value, number):
    content, cites = tmp_path / "t.content", tmp_path / "t.cites"
    content.write_text(f"d1 1 0 A\nd2 1 {value} B\n", encoding="utf-8")
    cites.write_text("d1 d2\n")
    assert per_token_parse_citation_files(content, cites).features[1, 1] == number
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(content))}:2: feature values must be numbers "):
        parse_citation_files(content, cites)
    (tmp_path / "run.json").write_text(json.dumps(
        {"task": "citation", "content": str(content), "cites": str(cites)}))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--report", str(tmp_path / "r.jsonl")]) == 1
    assert f"error: {content}:2: feature values must be numbers" in capsys.readouterr().err

