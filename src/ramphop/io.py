"""Deterministic CSV and JSON writers for the command-line front end.

Floats are rendered with ``repr``, the shortest representation that
round-trips exactly, so identical runs produce byte-identical files and the
CSV/JSON encodings agree to full precision.  Every CSV file goes through one
column-table writer.  Every JSON file is byte for byte
``json.dumps(document, indent=2)`` plus a newline, with each ``RowTable``
standing for the list of its rows.  json's own encoder writes it, streamed
to disk, and hands each ``RowTable`` to a renderer that spells it from its
columns, one join per row.  A matrix of state amplitudes has each distinct
float64 bit pattern spelled once, in both encodings.

Schemas (one row per scalar observation):
  spectrum : index,re,im,class,residual
  blocks   : block,index,re,im,matched
  states   : state_id,eigen_re,eigen_im,site,amplitude
  summary  : state_id,eigen_re,eigen_im,class,centroid,ipr,argmax_site,
             env_center,env_width,env_rms
  envelope : site,amplitude
  sweep    : gamma,eigen_index,re,im,class,n_real,n_imaginary
  winding  : theta,det_log_abs,det_phase plus a trailing "# winding=..." line
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .analysis import ClassifiedSpectrum, EnvelopeFit, WindingTrace


def _text(col) -> np.ndarray:
    """Cell text as an object array: ``repr`` of a float (its shortest round-trip
    form), ``str`` of anything else; an object array is text already."""
    col = np.asarray(col)
    if col.dtype == object:
        return col
    return np.array(list(map(repr if col.dtype.kind == "f" else str, col.tolist())), dtype=object)


def _matrix_text(values, spell=float.__repr__) -> np.ndarray:
    """``spell`` of every float of a matrix, as an object array of its shape.

    Each distinct float64 bit pattern is spelled once and its text gathered
    back, which pays on state amplitudes: the two states of a +-lambda pair
    have the same |psi|, and zeros repeat.  On a short column the sort costs
    more than it saves, so columns take ``_text``.
    """
    values = np.ascontiguousarray(values, dtype=float)
    unique, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    floats = unique.view(float)
    text = np.empty(len(floats), dtype=object)
    # spelled a chunk at a time, so that no list of every float is held
    for start in range(0, len(floats), 4096):
        chunk = floats[start : start + 4096].tolist()
        text[start : start + len(chunk)] = list(map(spell, chunk))
    return text[inverse].reshape(values.shape)


def _write_table(path: Path, columns: dict, footer: str | None = None) -> None:
    """Write equal-length columns as CSV, headed by their names."""
    cells = [_text(col) for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    if footer is not None:
        lines.append(footer)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class RowTable:
    """The JSON form of a column table: ``write_json`` renders it as the list
    of one dict per row, keys in column order.

    A 2-D column gives each row the list of its row.  The columns are the
    only storage, and ``write_json`` renders the table from them, one column
    at a time.  A column is 1-D float, int or str, or 2-D float; any other
    raises TypeError here, before a file is opened.
    """

    def __init__(self, columns: dict):
        self.columns = {name: np.asarray(col) for name, col in columns.items()}
        for name, col in self.columns.items():
            if (col.ndim, col.dtype.kind) not in {(1, "f"), (1, "i"), (1, "u"), (1, "U"), (2, "f")}:
                raise TypeError(f"table column {name!r} is {col.ndim}-D of dtype {col.dtype}")
        if len({len(col) for col in self.columns.values()}) > 1:
            raise ValueError("table columns differ in length")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


def _spectrum_columns(cs: ClassifiedSpectrum, residuals: np.ndarray | None) -> dict:
    """Each level in eigenvalue order with its class and residual."""
    return {
        "re": cs.eigenvalues.real,
        "im": cs.eigenvalues.imag,
        "class": cs.class_names(),
        "residual": np.zeros(len(cs.eigenvalues)) if residuals is None else residuals,
    }


def write_spectrum_csv(path: Path, cs: ClassifiedSpectrum, residuals: np.ndarray | None) -> None:
    index = np.arange(len(cs.eigenvalues))
    _write_table(path, {"index": index, **_spectrum_columns(cs, residuals)})


def write_blocks_csv(
    path: Path, sigma_a: np.ndarray, sigma_b: np.ndarray, matched: np.ndarray
) -> None:
    """Sorted block spectra next to a flag telling whether each value shows
    up in the full spectrum; ``matched`` holds the flags of sigma_a, then
    those of sigma_b."""
    levels = np.concatenate([sigma_a, sigma_b]).astype(complex)
    _write_table(
        path,
        {
            "block": ["a"] * len(sigma_a) + ["b"] * len(sigma_b),
            "index": np.concatenate([np.arange(len(sigma_a)), np.arange(len(sigma_b))]),
            "re": levels.real,
            "im": levels.imag,
            "matched": np.asarray(matched, dtype=int),
        },
    )


def write_states_csv(path: Path, eigenvalues: np.ndarray, profiles: np.ndarray) -> None:
    """Max-normalized amplitude profiles, one row per (state, site); each
    state's fields are formatted once and their text repeated down its
    sites, and each distinct amplitude is formatted once."""
    sites, states = profiles.shape
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    _write_table(
        path,
        {
            "state_id": np.repeat(_text(np.arange(states)), sites),
            "eigen_re": np.repeat(_text(eigenvalues.real), sites),
            "eigen_im": np.repeat(_text(eigenvalues.imag), sites),
            "site": np.tile(_text(np.arange(1, sites + 1)), states),
            "amplitude": _matrix_text(profiles.T).ravel(),
        },
    )


def write_states_summary_csv(path: Path, columns: dict) -> None:
    _write_table(path, columns)


def write_envelope_csv(path: Path, envelope: np.ndarray) -> None:
    _write_table(path, {"site": np.arange(1, len(envelope) + 1), "amplitude": envelope})


def write_sweep_csv(path: Path, columns: dict) -> None:
    _write_table(path, columns)


def write_winding_csv(path: Path, trace: WindingTrace, base: complex) -> None:
    _write_table(
        path,
        {"theta": trace.thetas, "det_log_abs": trace.det_log_abs, "det_phase": trace.det_phase},
        footer=f"# winding={trace.winding} point_gap={str(trace.point_gap).lower()} "
        f"base_re={float(base.real)!r} base_im={float(base.imag)!r} "
        f"theta_steps={trace.theta_steps}",
    )


def spectrum_json_entries(cs: ClassifiedSpectrum, residuals: np.ndarray | None) -> RowTable:
    """The spectrum table's rows without their index."""
    return RowTable(_spectrum_columns(cs, residuals))


def envelope_fit_json(fit: EnvelopeFit) -> dict:
    return {
        "amplitude": fit.amplitude,
        "center": fit.center,
        "center_unconstrained": fit.center_unconstrained,
        "width": fit.width_param,
        "rms_error": fit.rms_error,
        "support_sites": int(np.sum(fit.support_mask)),
    }


_json_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses
_INF = json.encoder.INFINITY


def _json_float(value: float) -> str:
    """A float as json.dumps spells it: ``repr``, or NaN, Infinity, -Infinity."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _json_cells(col: np.ndarray, pad: str):
    """The JSON text of each row's cell of a table column, nested at line
    prefix ``pad``.

    Floats, ints and strings are spelled a column at a time.  A 2-D float
    column gives each row a list, joined from its deduplicated text only as
    the row is written, so that a table of state amplitudes never holds all
    its rows as text at once.
    """
    kind = col.dtype.kind
    if col.ndim == 2 and kind == "f":
        if col.shape[1] == 0:
            return ["[]"] * len(col)
        item = pad + "  "
        spell = float.__repr__ if np.isfinite(col).all() else _json_float
        text = _matrix_text(col, spell)
        sep, head, tail = ",\n" + item, "[\n" + item, "\n" + pad + "]"
        return (head + sep.join(row) + tail for row in text)
    values = col.tolist()
    if kind == "f":
        return list(map(float.__repr__ if np.isfinite(col).all() else _json_float, values))
    if kind in "iu":
        return list(map(int.__repr__, values))
    return list(map(_json_str, values))


def _row_table(table: RowTable, pad: str, emit) -> None:
    """Pass ``table`` to ``emit`` as ``json.dumps(indent=2)`` writes its rows
    at line prefix ``pad``: its columns spelled one at a time, then one join
    per row."""
    if not table:
        emit("[]")
        return
    inner = pad + "  "
    field = inner + "  "
    leads = [
        ("," if j else "{") + "\n" + field + _json_str(key) + ": "
        for j, key in enumerate(table.columns)
    ]
    columns = [_json_cells(col, field) for col in table.columns.values()]
    close = "\n" + inner + "}"
    lead = "[\n" + inner
    for cells in zip(*columns):
        emit(lead + "".join([piece for pair in zip(leads, cells) for piece in pair]) + close)
        lead = ",\n" + inner
    emit("\n" + pad + "]")


def write_json(path: Path, document: dict) -> None:
    """Write ``json.dumps(document, indent=2)`` and a newline, byte for byte,
    where a ``RowTable`` stands for the list of its rows.

    json's own encoder writes the document.  Its ``default`` hook takes each
    ``RowTable`` and returns ``""``, whose text the encoder yields next; in
    its place ``_row_table`` streams the table at the indentation of the
    current line, so the largest document is never held whole.  The text
    goes to ``<name>.partial`` beside ``path``, which replaces ``path`` only
    once it is complete.  A document that json.dumps rejects raises what
    json.dumps raises; on that or any other error ``path`` is left as it was
    and the partial file is removed.
    """
    tables: list[RowTable] = []

    def table(value):
        if not isinstance(value, RowTable):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return ""

    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w") as f:
            pad, parts = "", []
            for chunk in json.JSONEncoder(indent=2, default=table).iterencode(document):
                if not tables:
                    parts.append(chunk)
                    continue
                head = "".join(parts)  # the text before the table's '""' chunk
                parts.clear()
                f.write(head)
                if "\n" in head:  # a line break: strings hold none raw
                    line = head.rpartition("\n")[2]
                    pad = line[: len(line) - len(line.lstrip(" "))]
                _row_table(tables.pop(), pad, f.write)
            f.write("".join(parts) + "\n")
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
