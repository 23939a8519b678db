import json
import math
import tracemalloc

import numpy as np
import pytest

from secbit import BipartiteDistribution, Filtration, TripartiteDistribution, randomization_example, shared_bit
from secbit.errors import (
    DimensionOverflowError,
    FileFormatError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NegativeEntryError,
)
from secbit.fileio import (
    read_bipartite,
    read_distribution,
    read_filtration,
    read_tripartite,
    write_bipartite,
    write_filtration,
    write_tripartite,
)


def test_tripartite_roundtrip_is_bit_identical(tmp_path, lemur):
    path = tmp_path / "p.json"
    write_tripartite(lemur, path)
    back = read_tripartite(path)
    np.testing.assert_array_equal(back.table, lemur.table)


def test_bipartite_roundtrip(tmp_path):
    path = tmp_path / "ab.json"
    write_bipartite(shared_bit(), path)
    back = read_bipartite(path)
    np.testing.assert_array_equal(back.table, shared_bit().table)


def test_written_text_is_pinned(tmp_path):
    tri = np.zeros((2, 1, 2))
    tri[0, 0, 1] = 0.25
    tri[1, 0, 0] = 0.75
    path = tmp_path / "tri.json"
    write_tripartite(TripartiteDistribution(tri), path)
    assert path.read_text() == (
        '{\n  "dims": {\n    "a": 2,\n    "b": 1,\n    "e": 2\n  },\n  "entries": [\n'
        '    {\n      "a": 0,\n      "b": 0,\n      "e": 1,\n      "p": 0.25\n    },\n'
        '    {\n      "a": 1,\n      "b": 0,\n      "e": 0,\n      "p": 0.75\n    }\n  ]\n}\n'
    )
    write_bipartite(BipartiteDistribution(np.array([[0.0, 0.1], [1.0, 0.0]])), path)
    assert path.read_text() == (
        '{\n  "dims": {\n    "a": 2,\n    "b": 2\n  },\n  "entries": [\n'
        '    {\n      "a": 0,\n      "b": 1,\n      "p": 0.1\n    },\n'
        '    {\n      "a": 1,\n      "b": 0,\n      "p": 1.0\n    }\n  ]\n}\n'
    )


def test_declared_dims_over_the_cell_cap_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": {"a": 400, "b": 400, "e": 100}, "entries": []}))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionOverflowError):
            read_tripartite(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_omitted_cells_are_zero(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        json.dumps(
            {
                "dims": {"a": 2, "b": 2, "e": 1},
                "entries": [{"a": 0, "b": 0, "e": 0, "p": 1.0}],
            }
        )
    )
    p = read_tripartite(path)
    assert p.table[1, 1, 0] == 0.0


def test_dispatch_on_eve_key(tmp_path):
    tri = tmp_path / "tri.json"
    write_tripartite(randomization_example(), tri)
    bi = tmp_path / "bi.json"
    write_bipartite(shared_bit(), bi)
    assert read_distribution(tri).dims == (2, 2, 2)
    assert read_distribution(bi).dims == (2, 2)


@pytest.mark.parametrize(
    "doc,error",
    [
        (
            {"dims": {"a": 2, "b": 2, "e": 1}, "entries": [{"a": 0, "b": 0, "e": 0, "p": -0.2}]},
            NegativeEntryError,
        ),
        (
            {"dims": {"a": 2, "b": 2, "e": 1}, "entries": [{"a": 0, "b": 0, "e": 1, "p": 0.2}]},
            IndexOutOfRangeError,
        ),
        (
            {
                "dims": {"a": 2, "b": 2, "e": 1},
                "entries": [
                    {"a": 0, "b": 0, "e": 0, "p": 0.2},
                    {"a": 0, "b": 0, "e": 0, "p": 0.3},
                ],
            },
            FileFormatError,
        ),
        ({"entries": []}, FileFormatError),
        ({"dims": {"a": 2, "b": 2, "e": 1}}, FileFormatError),
        (
            {"dims": {"a": 2, "b": 2, "e": 1, "z": 1}, "entries": []},
            FileFormatError,
        ),
    ],
)
def test_malformed_distribution_files(tmp_path, doc, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error):
        read_tripartite(path)



_GOOD = {"a": 0, "b": 1, "e": 0, "p": 0.5}


def _second(**fields):
    """A valid first entry, then cell (1, 0, 0) with ``fields`` changed (``None`` drops a key)."""
    entry = {"a": 1, "b": 0, "e": 0, "p": 0.5, **fields}
    return [_GOOD, {key: value for key, value in entry.items() if value is not None}]


# Each bad entry raises the error, and the message, that the reader gave
# before it had a fast path for well-formed entries.
_NOT_INT = "{path} entry 1: field '%s' must be an integer"
_NOT_NUMBER = "{path} entry 1: field 'p' must be a number"
_NOT_OBJECT = "{path} entry 1: must be an object"
_NON_FINITE = "distribution table contains non-finite entries"
MALFORMED_ENTRIES = {
    "bool-index": (_second(a=True), FileFormatError, _NOT_INT % "a"),
    "float-index": (_second(a=1.0), FileFormatError, _NOT_INT % "a"),
    "list-index": (_second(a=[1]), FileFormatError, _NOT_INT % "a"),
    "missing-key": (_second(b=None), FileFormatError, _NOT_INT % "b"),
    "string-p": (_second(p="0.5"), FileFormatError, _NOT_NUMBER),
    "bool-p": (_second(p=True), FileFormatError, _NOT_NUMBER),
    "missing-p": (_second(p=None), FileFormatError, _NOT_NUMBER),
    "negative-p": (_second(p=-0.25), NegativeEntryError, "{path} entry 1: field 'p' is negative (-0.25)"),
    "nan-p": (_second(p=math.nan), InvalidParamsError, _NON_FINITE),
    "inf-p": (_second(p=math.inf), InvalidParamsError, _NON_FINITE),
    "non-dict": ([_GOOD, [1, 0, 0, 0.5]], FileFormatError, _NOT_OBJECT),
    "string-entry": ([_GOOD, "entry"], FileFormatError, _NOT_OBJECT),
    "duplicate": (_second(a=0, b=1), FileFormatError, "{path} entry 1: duplicate cell (0, 1, 0)"),
    "past-dims": (_second(a=2), IndexOutOfRangeError, "cell (2, 0, 0) outside dims (2, 2, 2)"),
    "negative-index": (_second(a=-1), IndexOutOfRangeError, "cell (-1, 0, 0) outside dims (2, 2, 2)"),
}


@pytest.mark.parametrize("entries,error,message", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
def test_malformed_entries_keep_their_errors(tmp_path, entries, error, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": {"a": 2, "b": 2, "e": 2}, "entries": entries}))
    with pytest.raises(error) as info:
        read_tripartite(path)
    assert type(info.value) is error and str(info.value) == message.format(path=path)


@pytest.mark.parametrize(
    "entry,value",
    [
        pytest.param({"p": 1}, 1.0, id="int-p"),
        pytest.param({"p": -0.0}, -0.0, id="negative-zero-p"),
        pytest.param({"p": 0.5, "q": 3}, 0.5, id="extra-key"),
    ],
)
def test_entries_off_the_fast_path_still_accepted(tmp_path, entry, value):
    path = tmp_path / "ok.json"
    entries = [{"a": 0, "b": 1, "p": 0.5}, {"a": 1, "b": 0, **entry}]
    path.write_text(json.dumps({"dims": {"a": 2, "b": 2}, "entries": entries}))
    table = read_bipartite(path).table
    assert table.tolist() == [[0.0, 0.5], [value, 0.0]]
    assert type(table[1, 0]) is np.float64 and math.copysign(1.0, table[1, 0]) == math.copysign(1.0, value)


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        read_tripartite(path)


def test_undecodable_bytes_reported(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        read_tripartite(path)
    with pytest.raises(FileFormatError, match="not valid JSON"):
        read_filtration(path)


def test_filtration_roundtrip(tmp_path):
    path = tmp_path / "f.json"
    f = Filtration(np.array([[0.6, 0.1, 0.0], [0.2, 0.5, 0.3]]))
    write_filtration(f, path)
    back = read_filtration(path)
    np.testing.assert_array_equal(back.matrix, f.matrix)


def test_filtration_file_guards(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}))
    with pytest.raises(FileFormatError):
        read_filtration(path)
    path.write_text(json.dumps({"rows": 1, "cols": 2, "entries": [[1.0, -0.5]]}))
    with pytest.raises(NegativeEntryError):
        read_filtration(path)


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": 0, "cols": -1, "entries": []},
        {"rows": 1, "cols": 10**13, "entries": [[1.0]]},
        {"rows": -1, "cols": 2, "entries": []},
    ],
)
def test_filtration_sizes_checked_before_allocating(tmp_path, doc):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError):
        read_filtration(path)
