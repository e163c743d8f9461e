"""Command-line front end: spectra, sweeps, state profiles, windings, figures.

Exit codes: 0 success, 2 invalid arguments, 3 solver convergence failure,
4 winding base point on the spectrum.  Identical arguments and seed produce
byte-identical output files; sweeps parallelize over gamma without touching
the output order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as rio
from .analysis import (
    EigenClass,
    classify,
    fit_envelope,
    global_envelope,
    level_spacings,
    localization,
    winding_trace,
)
from .errors import (
    BasePointOnSpectrumError,
    ConvergenceError,
    DegenerateSupportError,
    InsufficientLevelsError,
    RegimeMismatchError,
)
from .model import Boundary, LatticeParams, build_hamiltonian, classify_regime
from .solve import block_spectra, solve_spectrum

# Parameter sets behind each figure panel.  Panel 3c's ramp strength is our
# choice: 0.015 pushes more levels imaginary, with some ring levels turning
# imaginary as well.
FIGURES: dict[str, dict] = {
    "1a": {"gamma": 0.01, "length": 100, "spectrum": True, "blocks": True},
    "1b": {"gamma": 0.02, "length": 100, "spectrum": True, "blocks": True},
    "1c": {"gamma": 0.07, "length": 100, "spectrum": True, "blocks": True},
    "2a": {"length": 100, "sweep": (0.0, 1.2, 241)},
    "2b": {"length": 100, "sweep": (0.0, 1.2, 241)},
    "2c": {"gamma": 0.001, "length": 100, "spectrum": True},
    "2d": {"gamma": 0.001, "length": 100, "states": "all"},
    "2e": {"gamma": 0.001, "length": 100, "pbc_spectrum": True},
    "2f": {"gamma": 0.001, "length": 100, "pbc_states": "all"},
    "3a": {"gamma": 0.01, "length": 100, "spectrum": True, "pbc_spectrum": True, "states": "all"},
    "3b": {"gamma": 0.011, "length": 100, "spectrum": True, "pbc_spectrum": True, "states": "all"},
    "3c": {"gamma": 0.015, "length": 100, "spectrum": True, "pbc_spectrum": True, "states": "all"},
    "4a": {"gamma": 0.02, "length": 100, "states": "real"},
    "4b": {"gamma": 0.021, "length": 100, "states": "real"},
    "5a": {"gamma": 0.01, "length": 200, "spectrum": True, "pbc_spectrum": True, "states": "all"},
    "5b": {"gamma": 0.01, "length": 400, "spectrum": True, "pbc_spectrum": True, "states": "all"},
}

_CLASS_ORDER = {EigenClass.REAL: 0, EigenClass.IMAGINARY: 1, EigenClass.COMPLEX: 2}


@dataclass
class RunConfig:
    t: float = 1.0
    gamma: float = 0.0
    length: int = 100
    boundary: Boundary = Boundary.OBC
    fmt: str = "csv"
    out: Path = field(default_factory=lambda: Path("out"))
    seed: int = 0
    gamma_min: float = 0.0
    gamma_max: float = 0.0
    gamma_steps: int = 1
    workers: int = 1
    base: complex = 0.0 + 0.0j
    theta_steps: int = 256
    select: str = "all"

    def params(self) -> LatticeParams:
        return LatticeParams(
            t=self.t, gamma=self.gamma, length=self.length, boundary=self.boundary
        )

    def config_dict(self) -> dict:
        return {
            "t": self.t,
            "gamma": self.gamma,
            "length": self.length,
            "boundary": self.boundary.value,
            "format": self.fmt,
            "seed": self.seed,
        }


def _regime_dict(params: LatticeParams) -> dict:
    regime = classify_regime(params)
    return {"kind": regime.kind.value, "split": regime.split}


def _ladder_json(cs) -> dict:
    out = {}
    for label in (EigenClass.REAL, EigenClass.IMAGINARY):
        try:
            stats = level_spacings(cs, label)
        except InsufficientLevelsError:
            continue
        out[label.value] = {
            "mean": stats.mean,
            "stdev": stats.stdev,
            "relative_stdev": stats.relative_stdev,
            "interior_window": stats.interior_window,
            "is_ladder": stats.is_ladder,
        }
    return out


def cmd_spectrum(cfg: RunConfig) -> int:
    params = cfg.params()
    spec = solve_spectrum(params, want_vectors=True, seed=cfg.seed)
    if bool(np.any(spec.unconverged)):
        raise ConvergenceError("eigenvector iteration stalled")
    cs = classify(spec)
    blocks = None
    if params.boundary is Boundary.OBC:
        sigma_a, sigma_b = block_spectra(params)
        tol = 1e-8 * build_hamiltonian(params).frobenius_norm()
        union = np.concatenate([sigma_a.astype(complex), sigma_b])
        mismatch = bool(
            len(union)
            and max(np.min(np.abs(spec.eigenvalues - v)) for v in union) > tol
        )
        blocks = (sigma_a, sigma_b, tol, mismatch)
    if cfg.fmt == "csv":
        rio.write_spectrum_csv(
            Path(f"{cfg.out}_spectrum.csv"), cs, spec.residuals
        )
        if blocks is not None:
            rio.write_blocks_csv(
                Path(f"{cfg.out}_blocks.csv"),
                blocks[0],
                blocks[1],
                spec.eigenvalues,
                blocks[2],
            )
    else:
        doc = {
            "config": cfg.config_dict(),
            "regime": _regime_dict(params),
            "eigenvalues": rio.spectrum_json_entries(cs, spec.residuals),
            "analysis": {"ladder": _ladder_json(cs)},
        }
        if blocks is not None:
            doc["blocks"] = {
                "sigma_a": [float(v) for v in blocks[0]],
                "sigma_b": [{"re": v.real, "im": v.imag} for v in blocks[1]],
                "mismatch": blocks[3],
            }
        rio.write_json(Path(f"{cfg.out}.json"), doc)
    return 0


def _sweep_rows_for(cs, gamma: float) -> list[dict]:
    ordered = sorted(
        cs.entries, key=lambda e: (_CLASS_ORDER[e.label], e.index_in_class)
    )
    return [
        {
            "gamma": gamma,
            "eigen_index": e.index_in_class,
            "re": e.value.real,
            "im": e.value.imag,
            "class": e.label.value,
            "n_real": cs.counts.n_real,
            "n_imaginary": cs.counts.n_imaginary,
        }
        for e in ordered
    ]


def _sweep_point(task: tuple[float, float, int, str]) -> tuple[str, float, list[dict]]:
    t, gamma, length, boundary = task
    try:
        params = LatticeParams(t=t, gamma=gamma, length=length, boundary=Boundary(boundary))
        cs = classify(solve_spectrum(params))
        return "ok", gamma, _sweep_rows_for(cs, gamma)
    except ConvergenceError:
        return "failed", gamma, []


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.gamma_steps < 1:
        raise ValueError("gamma grid needs at least one point")
    if cfg.gamma_steps == 1:
        grid = np.array([cfg.gamma_min])
    else:
        grid = np.linspace(cfg.gamma_min, cfg.gamma_max, cfg.gamma_steps)
    tasks = [(cfg.t, float(g), cfg.length, cfg.boundary.value) for g in grid]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(task) for task in tasks]
    rows: list[dict] = []
    for status, gamma, point_rows in results:
        if status == "failed":
            rows.append(
                {
                    "gamma": gamma,
                    "eigen_index": -1,
                    "re": math.nan,
                    "im": math.nan,
                    "class": "failed",
                    "n_real": -1,
                    "n_imaginary": -1,
                }
            )
        else:
            rows.extend(point_rows)
    if cfg.fmt == "csv":
        rio.write_sweep_csv(Path(f"{cfg.out}_sweep.csv"), rows)
    else:
        doc = {
            "config": cfg.config_dict()
            | {
                "gamma_min": cfg.gamma_min,
                "gamma_max": cfg.gamma_max,
                "gamma_steps": cfg.gamma_steps,
            },
            "rows": rows,
        }
        rio.write_json(Path(f"{cfg.out}.json"), doc)
    return 0


def _parse_select(select: str) -> tuple[str, complex | None]:
    if select in ("all", "real", "imag"):
        return select, None
    if select.startswith("nearest="):
        try:
            re_s, im_s = select[len("nearest=") :].split(",")
            return "nearest", complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise ValueError(f"bad selection {select!r}") from exc
    raise ValueError(f"unknown selection {select!r}")


def _select_states(cs, eigenvalues: np.ndarray, select: str) -> list[int]:
    kind, point = _parse_select(select)
    if kind == "all":
        return list(range(len(eigenvalues)))
    if kind == "nearest":
        return [int(np.argmin(np.abs(eigenvalues - point)))]
    wanted = EigenClass.REAL if kind == "real" else EigenClass.IMAGINARY
    return [i for i, e in enumerate(cs.entries) if e.label is wanted]


def cmd_states(cfg: RunConfig) -> int:
    params = cfg.params()
    spec = solve_spectrum(params, want_vectors=True, seed=cfg.seed)
    if bool(np.any(spec.unconverged)):
        raise ConvergenceError("eigenvector iteration stalled")
    cs = classify(spec)
    picked = _select_states(cs, spec.eigenvalues, cfg.select)
    if not picked:
        raise ValueError(f"selection {cfg.select!r} matched no states")
    amps = np.abs(spec.eigenvectors[:, picked])
    profiles = amps / amps.max(axis=0)[None, :]
    summary = []
    for col, idx in enumerate(picked):
        v = spec.eigenvectors[:, idx]
        loc = localization(v)
        try:
            fit = fit_envelope(v, params.gamma)
            env_fields = (fit.center, fit.width_param, fit.rms_error)
        except DegenerateSupportError:
            env_fields = (math.nan, math.nan, math.nan)
        summary.append(
            {
                "state_id": col,
                "eigen_re": spec.eigenvalues[idx].real,
                "eigen_im": spec.eigenvalues[idx].imag,
                "class": cs.entries[idx].label.value,
                "centroid": loc.centroid,
                "ipr": loc.ipr,
                "argmax_site": loc.argmax_site,
                "env_center": env_fields[0],
                "env_width": env_fields[1],
                "env_rms": env_fields[2],
            }
        )
    envelope = global_envelope(spec.eigenvectors)
    peak_site = float(np.argmax(envelope) + 1)
    try:
        env_fit = fit_envelope(envelope, params.gamma)
        env_fit_peak = fit_envelope(envelope, params.gamma, center=peak_site)
    except DegenerateSupportError:
        env_fit = env_fit_peak = None
    if cfg.fmt == "csv":
        rio.write_states_csv(
            Path(f"{cfg.out}_states.csv"), spec.eigenvalues[picked], profiles
        )
        rio.write_states_summary_csv(Path(f"{cfg.out}_summary.csv"), summary)
        rio.write_envelope_csv(Path(f"{cfg.out}_envelope.csv"), envelope)
    else:
        doc = {
            "config": cfg.config_dict() | {"select": cfg.select},
            "regime": _regime_dict(params),
            "eigenvalues": rio.spectrum_json_entries(cs, spec.residuals),
            "states": [
                {
                    **summary[col],
                    "amplitudes": [float(a) for a in profiles[:, col]],
                }
                for col in range(len(picked))
            ],
            "analysis": {
                "ladder": _ladder_json(cs),
                "envelopes": {
                    "global": [float(a) for a in envelope],
                    "fit": rio.envelope_fit_json(env_fit) if env_fit else None,
                    "fit_at_peak": rio.envelope_fit_json(env_fit_peak)
                    if env_fit_peak
                    else None,
                },
            },
        }
        rio.write_json(Path(f"{cfg.out}.json"), doc)
    return 0


def cmd_winding(cfg: RunConfig) -> int:
    params = cfg.params()
    trace = winding_trace(params, cfg.base, cfg.theta_steps)
    if cfg.fmt == "csv":
        rio.write_winding_csv(Path(f"{cfg.out}_winding.csv"), trace, cfg.base)
    else:
        doc = {
            "config": cfg.config_dict()
            | {
                "base_re": cfg.base.real,
                "base_im": cfg.base.imag,
                "theta_steps": cfg.theta_steps,
            },
            "regime": _regime_dict(params),
            "analysis": {
                "winding": {
                    "value": trace.winding,
                    "point_gap": trace.point_gap,
                    "theta": [float(x) for x in trace.thetas],
                    "det_log_abs": [float(x) for x in trace.det_log_abs],
                    "det_phase": [float(x) for x in trace.det_phase],
                }
            },
        }
        rio.write_json(Path(f"{cfg.out}.json"), doc)
    return 0


def cmd_figure(cfg: RunConfig, figure_id: str) -> int:
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; know {sorted(FIGURES)}"
        )
    recipe = FIGURES[figure_id]
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t = recipe.get("t", 1.0)
    length = recipe["length"]
    commands: list[str] = []

    def sub(gamma: float, boundary: Boundary, stem: str) -> RunConfig:
        return RunConfig(
            t=t,
            gamma=gamma,
            length=length,
            boundary=boundary,
            fmt=cfg.fmt,
            out=outdir / f"{figure_id}_{stem}",
            seed=cfg.seed,
        )

    if "sweep" in recipe:
        lo, hi, steps = recipe["sweep"]
        scfg = sub(0.0, Boundary.OBC, "gamma")
        scfg.gamma_min, scfg.gamma_max, scfg.gamma_steps = lo, hi, steps
        scfg.workers = cfg.workers
        cmd_sweep(scfg)
        commands.append(f"sweep gamma in [{lo}, {hi}] with {steps} points")
    if recipe.get("spectrum"):
        cmd_spectrum(sub(recipe["gamma"], Boundary.OBC, "obc"))
        commands.append("obc spectrum")
    if recipe.get("pbc_spectrum"):
        cmd_spectrum(sub(recipe["gamma"], Boundary.PBC, "pbc"))
        commands.append("pbc spectrum")
    if recipe.get("states"):
        scfg = sub(recipe["gamma"], Boundary.OBC, "obc")
        scfg.select = recipe["states"]
        cmd_states(scfg)
        commands.append(f"obc states ({recipe['states']})")
    if recipe.get("pbc_states"):
        scfg = sub(recipe["gamma"], Boundary.PBC, "pbc")
        scfg.select = recipe["pbc_states"]
        cmd_states(scfg)
        commands.append(f"pbc states ({recipe['pbc_states']})")
    rio.write_json(
        outdir / f"{figure_id}_params.json",
        {
            "figure": figure_id,
            "t": t,
            "gamma": recipe.get("gamma"),
            "length": length,
            "sweep": recipe.get("sweep"),
            "commands": commands,
            "format": cfg.fmt,
            "seed": cfg.seed,
        },
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=1.0, help="uniform hopping amplitude")
    p.add_argument("--gamma", type=float, default=0.0, help="ramp strength per site")
    p.add_argument("--length", type=int, default=100, help="number of sites")
    p.add_argument(
        "--boundary", choices=["obc", "pbc"], default="obc", help="boundary condition"
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", type=Path, required=True, help="output path stem")
    p.add_argument(
        "--seed", type=int, default=0, help="seed of open-chain inverse iteration"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramphop",
        description="Spectra of 1D chains with linearly ramped nonreciprocal hopping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="classified eigenvalues plus block overlay")
    _add_common(p)
    p.set_defaults(runner="spectrum")

    p = sub.add_parser("sweep", help="classified spectra over a gamma grid")
    _add_common(p)
    p.add_argument("--gamma-min", type=float, default=0.0)
    p.add_argument("--gamma-max", type=float, default=1.2)
    p.add_argument("--gamma-steps", type=int, default=2)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers (default: RAMPHOP_WORKERS or cpu count)",
    )
    p.set_defaults(runner="sweep")

    p = sub.add_parser("states", help="eigenstate profiles and envelope fits")
    _add_common(p)
    p.add_argument(
        "--select",
        default="all",
        help="real | imag | all | nearest=RE,IM",
    )
    p.set_defaults(runner="states")

    p = sub.add_parser("winding", help="flux-insertion winding of det(H - E)")
    _add_common(p)
    p.add_argument("--base-re", type=float, default=0.0)
    p.add_argument("--base-im", type=float, default=0.0)
    p.add_argument("--theta-steps", type=int, default=256)
    p.set_defaults(runner="winding")

    p = sub.add_parser("figure", help="reproduce the data behind one figure panel")
    p.add_argument("figure_id", help="e.g. 1a, 2d, 3b, 5a")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(runner="figure")

    return parser


def _default_workers() -> int:
    env = os.environ.get("RAMPHOP_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        t=getattr(args, "t", 1.0),
        gamma=getattr(args, "gamma", 0.0),
        length=getattr(args, "length", 100),
        boundary=Boundary(getattr(args, "boundary", "obc")),
        fmt=args.format,
        out=args.out,
        seed=args.seed,
    )
    if args.runner == "sweep":
        cfg.gamma_min = args.gamma_min
        cfg.gamma_max = args.gamma_max
        cfg.gamma_steps = args.gamma_steps
        cfg.workers = args.workers if args.workers else _default_workers()
    if args.runner == "states":
        cfg.select = args.select
    if args.runner == "winding":
        cfg.base = complex(args.base_re, args.base_im)
        cfg.theta_steps = args.theta_steps
    if args.runner == "figure":
        cfg.workers = args.workers if args.workers else _default_workers()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.runner == "figure":
            return cmd_figure(cfg, args.figure_id)
        runner = {
            "spectrum": cmd_spectrum,
            "sweep": cmd_sweep,
            "states": cmd_states,
            "winding": cmd_winding,
        }[args.runner]
        return runner(cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BasePointOnSpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RegimeMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
