"""Deterministic CSV and JSON writers for the command-line front end.

Floats are rendered with ``repr``, the shortest representation that
round-trips exactly, so identical runs produce byte-identical files and the
CSV/JSON encodings agree to full precision.

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


def _f(x) -> str:
    return repr(float(x))


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_spectrum_csv(
    path: Path, cs: ClassifiedSpectrum, residuals: np.ndarray | None
) -> None:
    lines = ["index,re,im,class,residual"]
    for i, entry in enumerate(cs.entries):
        res = residuals[i] if residuals is not None else 0.0
        lines.append(
            f"{i},{_f(entry.value.real)},{_f(entry.value.imag)},"
            f"{entry.label.value},{_f(res)}"
        )
    _write(path, lines)


def write_blocks_csv(
    path: Path, sigma_a: np.ndarray, sigma_b: np.ndarray, matched: np.ndarray
) -> None:
    """Sorted block spectra next to a flag telling whether each value shows
    up in the full spectrum; ``matched`` holds the flags of sigma_a, then
    those of sigma_b."""
    lines = ["block,index,re,im,matched"]
    rows = [("a", i, v) for i, v in enumerate(sigma_a)]
    rows += [("b", i, v) for i, v in enumerate(sigma_b)]
    for (name, i, v), flag in zip(rows, matched, strict=True):
        lines.append(f"{name},{i},{_f(v.real)},{_f(v.imag)},{int(flag)}")
    _write(path, lines)


def write_states_csv(
    path: Path, eigenvalues: np.ndarray, profiles: np.ndarray
) -> None:
    """Max-normalized amplitude profiles, one row per (state, site)."""
    lines = ["state_id,eigen_re,eigen_im,site,amplitude"]
    for k in range(profiles.shape[1]):
        e = eigenvalues[k]
        head = f"{k},{_f(e.real)},{_f(e.imag)}"
        for j in range(profiles.shape[0]):
            lines.append(f"{head},{j + 1},{_f(profiles[j, k])}")
    _write(path, lines)


def write_states_summary_csv(path: Path, rows: list[dict]) -> None:
    lines = [
        "state_id,eigen_re,eigen_im,class,centroid,ipr,argmax_site,"
        "env_center,env_width,env_rms"
    ]
    for r in rows:
        lines.append(
            f"{r['state_id']},{_f(r['eigen_re'])},{_f(r['eigen_im'])},{r['class']},"
            f"{_f(r['centroid'])},{_f(r['ipr'])},{r['argmax_site']},"
            f"{_f(r['env_center'])},{_f(r['env_width'])},{_f(r['env_rms'])}"
        )
    _write(path, lines)


def write_envelope_csv(path: Path, envelope: np.ndarray) -> None:
    lines = ["site,amplitude"]
    for j, a in enumerate(envelope):
        lines.append(f"{j + 1},{_f(a)}")
    _write(path, lines)


def write_sweep_csv(path: Path, rows: list[dict]) -> None:
    lines = ["gamma,eigen_index,re,im,class,n_real,n_imaginary"]
    for r in rows:
        lines.append(
            f"{_f(r['gamma'])},{r['eigen_index']},{_f(r['re'])},{_f(r['im'])},"
            f"{r['class']},{r['n_real']},{r['n_imaginary']}"
        )
    _write(path, lines)


def write_winding_csv(path: Path, trace: WindingTrace, base: complex) -> None:
    lines = ["theta,det_log_abs,det_phase"]
    for th, la, ph in zip(trace.thetas, trace.det_log_abs, trace.det_phase):
        lines.append(f"{_f(th)},{_f(la)},{_f(ph)}")
    lines.append(
        f"# winding={trace.winding} point_gap={str(trace.point_gap).lower()} "
        f"base_re={_f(base.real)} base_im={_f(base.imag)} theta_steps={trace.theta_steps}"
    )
    _write(path, lines)


def spectrum_json_entries(
    cs: ClassifiedSpectrum, residuals: np.ndarray | None
) -> list[dict]:
    out = []
    for i, entry in enumerate(cs.entries):
        out.append(
            {
                "re": entry.value.real,
                "im": entry.value.imag,
                "class": entry.label.value,
                "residual": float(residuals[i]) if residuals is not None else 0.0,
            }
        )
    return out


def envelope_fit_json(fit: EnvelopeFit) -> dict:
    return {
        "amplitude": fit.amplitude,
        "center": fit.center,
        "center_unconstrained": fit.center_unconstrained,
        "width": fit.width_param,
        "rms_error": fit.rms_error,
        "support_sites": int(np.sum(fit.support_mask)),
    }


def write_json(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
