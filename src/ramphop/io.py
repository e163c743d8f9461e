"""Deterministic CSV and JSON writers for the command-line front end.

Floats are rendered with ``repr``, the shortest representation that
round-trips exactly, so identical runs produce byte-identical files and the
CSV/JSON encodings agree to full precision.  Every CSV file goes through one
column-table writer.  Every JSON file is byte for byte
``json.dumps(document, indent=2)`` plus a newline, from an emitter that
renders each list of finite floats as one join of their ``repr``.

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


def _write_table(path: Path, columns: dict, footer: str | None = None) -> None:
    """Write equal-length columns as CSV, headed by their names."""
    cells = [_text(col) for col in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    if footer is not None:
        lines.append(footer)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def table_rows(columns: dict) -> list[dict]:
    """The JSON form of a column table: one dict per row, keys in column order."""
    values = [np.asarray(col).tolist() for col in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values, strict=True)]


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
    state's fields are formatted once and their text repeated down its sites."""
    sites, states = profiles.shape
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    _write_table(
        path,
        {
            "state_id": np.repeat(_text(np.arange(states)), sites),
            "eigen_re": np.repeat(_text(eigenvalues.real), sites),
            "eigen_im": np.repeat(_text(eigenvalues.imag), sites),
            "site": np.tile(_text(np.arange(1, sites + 1)), states),
            "amplitude": profiles.ravel(order="F"),
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


def spectrum_json_entries(cs: ClassifiedSpectrum, residuals: np.ndarray | None) -> list[dict]:
    """The spectrum table's rows without their index."""
    return table_rows(_spectrum_columns(cs, residuals))


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


def _json_scalar(value) -> str | None:
    """A string, number, bool or None as json.dumps spells it, else None."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    return None


def _json_key(key) -> str:
    """A dict key as json.dumps converts it to a string, quoted."""
    if isinstance(key, str):
        return _json_str(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return '"' + _json_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json(value, pad: str, out: list[str]) -> None:
    """Append ``value`` as ``json.dumps(value, indent=2)`` writes it, nested at
    line prefix ``pad``, to ``out``.

    The type tests run in json's own order.  A list of finite floats is one
    C-level join of their ``repr``; any other list goes element by element.
    """
    text = _json_scalar(value)
    if text is not None:
        out.append(text)
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        try:
            body = sep.join(map(float.__repr__, value))
        except TypeError:  # float.__repr__ rejects every non-float
            body = None
        out.append("[\n" + inner)
        if body is not None and "n" not in body:  # "n" marks nan and inf
            out.append(body)
        else:
            lead = ""
            for item in value:
                text = _json_scalar(item)
                if text is None:
                    out.append(lead)
                    _json(item, inner, out)
                else:
                    out.append(lead + text)
                lead = sep
        out.append("\n" + pad + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        lead = "{\n" + inner
        for key, item in value.items():
            text = _json_scalar(item)
            if text is None:
                out.append(lead + _json_key(key) + ": ")
                _json(item, inner, out)
            else:
                out.append(lead + _json_key(key) + ": " + text)
            lead = sep
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: Path, document: dict) -> None:
    """Write ``json.dumps(document, indent=2)`` and a newline, byte for byte."""
    parts: list[str] = []
    _json(document, "", parts)
    parts.append("\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        f.writelines(parts)
