"""Reading and writing weighted-grid data files.

The canonical "wgrid" format is JSON:

    {"dim": n, "shape": [N_1, ..., N_n],
     "weights": [row-major reals], "values": [row-major reals]}

A CSV alternative exists for 1D data: a header line followed by rows
"index,weight,value"; a first line of three numbers is refused as a
missing header.  Both loaders send weights and values through one check
that rejects NaN, infinities, negatives, nested lists and non-numbers
(JSON booleans, strings, null) and names the offending field, and a grid
with no positive weight is refused; JSON `dim` and `shape` take integers only.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .grids import Grid, WeightedGrid

__all__ = ["load_wgrid", "save_wgrid", "file_digest"]


def file_digest(path: str | Path) -> str:
    return _digest(Path(path).read_bytes())


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def load_wgrid(path: str | Path) -> WeightedGrid:
    """The grid in the file, read once: its `source_digest` is the sha256
    digest of the bytes the grid was parsed from."""
    path = Path(path)
    wg, digest = _load_csv(path) if path.suffix.lower() == ".csv" else _load_json(path)
    if not np.any(wg.weights > 0):  # the parser refused every other invalid entry
        raise DataValidationError("zero total mass")
    wg.source_digest = digest
    return wg


def _read(path: Path) -> tuple[str, str]:
    """The file's text and the digest of its bytes, from one read."""
    data = path.read_bytes()
    return data.decode(), _digest(data)


def _load_json(path: Path) -> tuple[WeightedGrid, str]:
    text, digest = _read(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"json: {exc}") from exc
    del text  # the parsed lists hold the data now; the text would only add to the peak
    if not isinstance(obj, dict):
        raise DataValidationError("json: top-level object expected")
    for field in ("dim", "shape", "weights", "values"):
        if field not in obj:
            raise DataValidationError(f"{field}: missing")
    try:
        shape = tuple(_integer(n, "shape") for n in obj["shape"])
    except TypeError as exc:
        raise DataValidationError(f"shape: {exc}") from exc
    dim = _integer(obj["dim"], "dim")
    if dim != len(shape):
        raise DataValidationError(f"dim: {obj['dim']} does not match shape of length {len(shape)}")
    grid = Grid(shape)
    weights = _parse_numbers(obj["weights"], "weights", grid.ncells)
    values = _parse_numbers(obj["values"], "values", grid.ncells)
    return WeightedGrid(grid, weights, values), digest


def _integer(raw, field: str) -> int:
    """A JSON integer (or an integral float); booleans and strings are refused."""
    try:
        n = int(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataValidationError(f"{field}: {exc}") from exc
    if isinstance(raw, (bool, str)) or n != raw:
        raise DataValidationError(f"{field}: expected an integer, got {raw!r}")
    return n


def _parse_numbers(raw, field: str, expected: int) -> np.ndarray:
    odd = set(map(type, raw)) - {int, float, list} if isinstance(raw, list) else ()
    if odd:  # nested lists are refused below, by their shape
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise DataValidationError(f"{field}: expected numbers, got {names}")
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{field}: {exc}") from exc
    if arr.ndim != 1:
        raise DataValidationError(f"{field}: expected a flat list of {expected} numbers")
    if arr.size != expected:
        raise DataValidationError(f"{field}: expected {expected} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{field}: NaN or infinity not allowed")
    if np.any(arr < 0):
        raise DataValidationError(f"{field}: negative entries not allowed")
    return arr


def _load_csv(path: Path) -> tuple[WeightedGrid, str]:
    text, digest = _read(path)
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise DataValidationError("csv: empty file")
    try:
        numbers = len(rows[0]) == 3 and [float(field) for field in rows[0]]
    except ValueError:
        numbers = False
    if numbers:  # a data row where the header belongs
        raise DataValidationError("csv: missing header line")
    body = rows[1:]
    if not body:
        raise DataValidationError("csv: no data rows")
    n = len(body)
    weights, values = np.zeros(n), np.zeros(n)
    seen = np.zeros(n, dtype=bool)  # n rows with distinct indices in range: all seen
    for row in body:
        if len(row) != 3:
            raise DataValidationError(f"csv: expected 3 columns, got {len(row)}")
        try:
            idx = int(row[0])
            w = float(row[1])
            v = float(row[2])
        except ValueError as exc:
            raise DataValidationError(f"csv: {exc}") from exc
        if not 0 <= idx < n:
            raise DataValidationError(f"index: {idx} out of range for {n} rows")
        if seen[idx]:
            raise DataValidationError(f"index: duplicate {idx}")
        seen[idx] = True
        weights[idx] = w
        values[idx] = v
    return WeightedGrid(
        Grid((n,)), _parse_numbers(weights, "weights", n), _parse_numbers(values, "values", n)
    ), digest


def save_wgrid(wg: WeightedGrid, path: str | Path) -> None:
    obj = {
        "dim": wg.grid.dim,
        "shape": list(wg.grid.shape),
        "weights": wg.weights.ravel().tolist(),
        "values": wg.values.ravel().tolist(),
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
