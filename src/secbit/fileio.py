"""JSON file formats for distributions and filtrations.

Distribution files::

    { "dims": {"a": 2, "b": 2, "e": 2},
      "entries": [ {"a": 0, "b": 0, "e": 0, "p": 0.25}, ... ] }

Omitted cells are zero.  Bipartite files omit the ``e`` key in both
``dims`` and ``entries``.  Parsing rejects negative probabilities,
duplicate cells, out-of-range indices and, before allocating anything,
``dims`` of more than ``DEFAULT_TENSOR_CELL_CAP`` cells (see
:mod:`secbit.distributions`).  Entries with integer indices and a
nonnegative float ``p`` are taken on a fast path; every other entry goes
through the full checks, so the errors and their messages are those of
checking each entry in turn.

Filtration files::

    { "rows": 2, "cols": 3, "entries": [[...], [...]] }   # row-major
"""

from __future__ import annotations

import json
import operator
from pathlib import Path

import numpy as np

from .distributions import (
    BipartiteDistribution,
    TripartiteDistribution,
    _is_integer,
    bipartite_from_entries,
    from_entries,
)
from .errors import FileFormatError, NegativeEntryError
from .filtration import Filtration


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _int_field(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if not _is_integer(value):
        raise FileFormatError(f"{where}: field {key!r} must be an integer")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where} must be a number")
    if value < 0:
        raise NegativeEntryError(f"{where} is negative ({value})")
    return float(value)


def _read_table(path, arity: int | None = None) -> TripartiteDistribution | BipartiteDistribution:
    """Parse a distribution file; ``arity=None`` dispatches on the ``e`` dimension."""
    doc = _load_json(path)
    dims_obj = doc.get("dims")
    if not isinstance(dims_obj, dict):
        raise FileFormatError(f"{path}: missing 'dims' object")
    keys = ("a", "b", "e")[: arity or (3 if "e" in dims_obj else 2)]
    unexpected = set(dims_obj) - set(keys)
    if unexpected:
        raise FileFormatError(f"{path}: unexpected dims keys {sorted(unexpected)}")
    dims = tuple(_int_field(dims_obj, key, f"{path} dims") for key in keys)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: missing 'entries' list")
    cells: dict[tuple, float] = {}
    fields, int_types = operator.itemgetter(*keys, "p"), (int,) * len(keys)
    for pos, entry in enumerate(entries):
        # Fast path: int indices (not bools) of a new cell and a float p >= 0
        # (not nan) are taken as they are; all else goes through the checks.
        try:
            *index, p = fields(entry)
        except (KeyError, TypeError):
            pass
        else:
            index = tuple(index)
            if type(p) is float and p >= 0.0 and tuple(map(type, index)) == int_types and index not in cells:
                cells[index] = p
                continue
        where = f"{path} entry {pos}"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: must be an object")
        index = tuple(_int_field(entry, key, where) for key in keys)
        if index in cells:
            raise FileFormatError(f"{where}: duplicate cell {index}")
        cells[index] = _number(entry.get("p"), f"{where}: field 'p'")
    # Looked up at call time, so a profiler that rebinds these names sees every read.
    build = from_entries if len(keys) == 3 else bipartite_from_entries
    return build(dims, cells)


def read_tripartite(path) -> TripartiteDistribution:
    return _read_table(path, 3)


def read_bipartite(path) -> BipartiteDistribution:
    return _read_table(path, 2)


def read_distribution(path) -> TripartiteDistribution | BipartiteDistribution:
    """Dispatch on the presence of the ``e`` dimension."""
    return _read_table(path)


def _write_table(p: TripartiteDistribution | BipartiteDistribution, path) -> None:
    """Write the nonzero cells in row-major order."""
    keys = ("a", "b", "e")[: p.table.ndim]
    nonzero = np.nonzero(p.table)
    entries = [
        {**dict(zip(keys, map(int, index))), "p": float(value)}
        for index, value in zip(zip(*nonzero), p.table[nonzero])
    ]
    doc = {"dims": dict(zip(keys, p.dims)), "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


write_tripartite = write_bipartite = _write_table


def read_filtration(path) -> Filtration:
    """Every field is validated before the matrix is allocated."""
    doc = _load_json(path)
    rows = _int_field(doc, "rows", str(path))
    cols = _int_field(doc, "cols", str(path))
    if rows < 0 or cols < 0:
        raise FileFormatError(f"{path}: 'rows' and 'cols' must be nonnegative")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FileFormatError(f"{path}: 'entries' must be a list of {rows} rows")
    matrix = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"{path}: row {i} must be a list of {cols} numbers")
        matrix.append([_number(value, f"{path}: entry ({i},{j})") for j, value in enumerate(row)])
    return Filtration(np.array(matrix).reshape(rows, cols))


def write_filtration(f: Filtration, path) -> None:
    doc = {"rows": f.rows, "cols": f.cols, "entries": f.matrix.tolist()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
