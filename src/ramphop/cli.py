"""Command-line front end: spectra, sweeps, state profiles, windings, figures.

Exit codes: 0 success, 2 invalid arguments, 3 solver failure (missed
residual tolerance or a LAPACK non-convergence), 4 winding base point on the
spectrum.  A sweep point whose solve fails becomes a ``failed`` row instead.
Identical arguments produce byte-identical output files; sweeps parallelize
over gamma without touching the output order.  ``figure ID`` parses and runs
the ``spectrum``/``states``/``sweep`` command lines its panel recipe lists,
with the same parser and runners as a user's own command line; a chain that
two of those lines need is solved once for the panel.  In JSON, a ``states``
document is the ``spectrum`` document of its chain plus its own sections.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import io as rio
from .analysis import (
    EigenClass,
    classify,
    fit_envelope,
    global_envelope,
    level_spacings,
    state_metrics,
    winding_trace,
)
from .eigen import RESIDUAL_RTOL
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
    "1a": {"gamma": 0.01, "length": 100, "spectrum": True},
    "1b": {"gamma": 0.02, "length": 100, "spectrum": True},
    "1c": {"gamma": 0.07, "length": 100, "spectrum": True},
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

def _params(args: argparse.Namespace) -> LatticeParams:
    return LatticeParams(
        t=args.t, gamma=args.gamma, length=args.length, boundary=Boundary(args.boundary)
    )


# Parsed arguments that do not describe the run: the subcommand, where its
# files go, how many processes compute them and what ``figure`` passes along.
_NOT_CONFIG = frozenset({"command", "out", "workers", "spectra", "runner"})


def _config(args: argparse.Namespace) -> dict:
    """The JSON ``config``: every other parsed argument, in parser order."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}


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


def _solve_with_vectors(params: LatticeParams, spectra: dict | None):
    """The checked spectrum with eigenvectors, shared through ``spectra``.

    ``figure`` passes one dict to the commands it runs, so a chain that its
    ``spectrum`` and ``states`` lines both need is solved once; a command run
    on its own gets None and solves.
    """
    if spectra is not None and params in spectra:
        return spectra[params]
    spec = solve_spectrum(params, want_vectors=True)
    failed = int(np.count_nonzero(spec.unconverged))
    if failed:
        raise ConvergenceError(
            f"{failed} of {spec.size} eigenpairs missed the residual tolerance "
            f"(gamma={params.gamma!r}, L={params.length}, boundary={params.boundary.value})"
        )
    if spectra is not None:
        spectra[params] = spec
    return spec


def _block_overlay(params: LatticeParams, spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two gauge blocks' levels, each sorted by (real, imaginary) part as
    ``eig_general`` returns them, and whether each level of sigma_a, then of
    sigma_b, lies within the residual tolerance of the spectrum."""
    sigma_a, sigma_b = block_spectra(params)
    tol = RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()
    union = np.concatenate([sigma_a, sigma_b])
    matched = np.abs(spec.eigenvalues[None, :] - union[:, None]).min(axis=1) <= tol
    return sigma_a, sigma_b, matched


def _chain_document(args: argparse.Namespace, params: LatticeParams, spec, cs) -> dict:
    """The JSON document of one solved chain; an open chain adds its block
    overlay."""
    doc = {
        "config": _config(args),
        "regime": _regime_dict(params),
        "eigenvalues": rio.spectrum_json_entries(cs, spec.residuals),
        "analysis": {"ladder": _ladder_json(cs)},
    }
    if params.boundary is Boundary.OBC:
        sigma_a, sigma_b, matched = _block_overlay(params, spec)
        doc["blocks"] = {
            "sigma_a": sigma_a.tolist(),
            "sigma_b": rio.RowTable({"re": sigma_b.real, "im": sigma_b.imag}),
            "mismatch": not matched.all(),
        }
    return doc


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params(args)
    spec = _solve_with_vectors(params, args.spectra)
    cs = classify(spec)
    if args.format == "csv":
        rio.write_spectrum_csv(Path(f"{args.out}_spectrum.csv"), cs, spec.residuals)
        if params.boundary is Boundary.OBC:
            rio.write_blocks_csv(Path(f"{args.out}_blocks.csv"), *_block_overlay(params, spec))
    else:
        rio.write_json(Path(f"{args.out}.json"), _chain_document(args, params, spec, cs))
    return 0


def _sweep_point(task: tuple[float, float, int, str]) -> dict:
    """One gamma point's rows, class by class in rank order, or its one ``failed`` row."""
    t, gamma, length, boundary = task
    params = LatticeParams(t=t, gamma=gamma, length=length, boundary=Boundary(boundary))
    try:
        cs = classify(solve_spectrum(params))
    except (ConvergenceError, np.linalg.LinAlgError):
        return {
            "gamma": [gamma],
            "eigen_index": [-1],
            "re": [math.nan],
            "im": [math.nan],
            "class": ["failed"],
            "n_real": [-1],
            "n_imaginary": [-1],
        }
    order = cs.order
    return {
        "gamma": np.full(len(order), gamma),
        "eigen_index": cs.ranks[order],
        "re": cs.eigenvalues.real[order],
        "im": cs.eigenvalues.imag[order],
        "class": cs.class_names()[order],
        "n_real": np.full(len(order), cs.counts.n_real),
        "n_imaginary": np.full(len(order), cs.counts.n_imaginary),
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.gamma_steps < 1:
        raise ValueError("gamma grid needs at least one point")
    if args.gamma_steps == 1:
        grid = np.array([args.gamma_min])
    else:
        grid = np.linspace(args.gamma_min, args.gamma_max, args.gamma_steps)
    tasks = [(args.t, float(g), args.length, args.boundary) for g in grid]
    workers = args.workers or os.cpu_count() or 1
    if workers > 1:
        # imported here: the pool costs memory that a single-worker run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(task) for task in tasks]
    columns = {name: np.concatenate([r[name] for r in results]) for name in results[0]}
    if args.format == "csv":
        rio.write_sweep_csv(Path(f"{args.out}_sweep.csv"), columns)
    else:
        doc = {"config": _config(args), "rows": rio.RowTable(columns)}
        rio.write_json(Path(f"{args.out}.json"), doc)
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


def _select_states(cs, select: str) -> np.ndarray:
    kind, point = _parse_select(select)
    if kind == "all":
        return np.arange(len(cs.eigenvalues))
    if kind == "nearest":
        return np.array([np.argmin(np.abs(cs.eigenvalues - point))])
    return np.flatnonzero(cs.mask(EigenClass.REAL if kind == "real" else EigenClass.IMAGINARY))


def cmd_states(args: argparse.Namespace) -> int:
    params = _params(args)
    spec = _solve_with_vectors(params, args.spectra)
    cs = classify(spec)
    picked = _select_states(cs, args.select)
    if not len(picked):
        raise ValueError(f"selection {args.select!r} matched no states")
    metrics = state_metrics(spec.eigenvectors[:, picked])
    profiles = metrics.profiles
    summary = {
        "state_id": np.arange(len(picked)),
        "eigen_re": spec.eigenvalues[picked].real,
        "eigen_im": spec.eigenvalues[picked].imag,
        "class": cs.class_names()[picked],
        "centroid": metrics.centroid,
        "ipr": metrics.ipr,
        "argmax_site": metrics.argmax_site,
        "env_center": metrics.env_center,
        "env_width": metrics.env_width,
        "env_rms": metrics.env_rms,
    }
    envelope = global_envelope(spec.eigenvectors)
    if args.format == "csv":
        rio.write_states_csv(
            Path(f"{args.out}_states.csv"), spec.eigenvalues[picked], profiles
        )
        rio.write_states_summary_csv(Path(f"{args.out}_summary.csv"), summary)
        rio.write_envelope_csv(Path(f"{args.out}_envelope.csv"), envelope)
    else:
        peak_site = float(np.argmax(envelope) + 1)
        try:
            env_fit = fit_envelope(envelope, params.gamma)
            env_fit_peak = fit_envelope(envelope, params.gamma, center=peak_site)
        except DegenerateSupportError:
            env_fit = env_fit_peak = None
        doc = _chain_document(args, params, spec, cs)
        doc["analysis"]["envelopes"] = {
            "global": envelope.tolist(),
            "fit": rio.envelope_fit_json(env_fit) if env_fit else None,
            "fit_at_peak": rio.envelope_fit_json(env_fit_peak) if env_fit_peak else None,
        }
        doc["states"] = rio.RowTable(summary | {"amplitudes": profiles.T})
        rio.write_json(Path(f"{args.out}.json"), doc)
    return 0


def cmd_winding(args: argparse.Namespace) -> int:
    params = _params(args)
    base = complex(args.base_re, args.base_im)
    trace = winding_trace(params, base, args.theta_steps)
    if args.format == "csv":
        rio.write_winding_csv(Path(f"{args.out}_winding.csv"), trace, base)
    else:
        doc = {
            "config": _config(args),
            "regime": _regime_dict(params),
            "analysis": {
                "winding": {
                    "value": trace.winding,
                    "point_gap": trace.point_gap,
                    "theta": trace.thetas.tolist(),
                    "det_log_abs": trace.det_log_abs.tolist(),
                    "det_phase": trace.det_phase.tolist(),
                }
            },
        }
        rio.write_json(Path(f"{args.out}.json"), doc)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Run the command lines behind one panel, then record them."""
    figure_id = args.figure_id
    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; know {sorted(FIGURES)}"
        )
    recipe = FIGURES[figure_id]
    t = recipe.get("t", 1.0)
    length = recipe["length"]
    shared = [f"--t={t!r}", f"--length={length}", f"--format={args.format}"]
    runs: dict[str, list[str]] = {}  # description -> command line
    if "sweep" in recipe:
        lo, hi, steps = recipe["sweep"]
        runs[f"sweep gamma in [{lo}, {hi}] with {steps} points"] = [
            "sweep", f"--gamma-min={lo!r}", f"--gamma-max={hi!r}", f"--gamma-steps={steps}",
            f"--workers={args.workers or os.cpu_count() or 1}", *shared,
            f"--out={args.out / f'{figure_id}_gamma'}",
        ]
    for key, command, boundary in (
        ("spectrum", "spectrum", "obc"),
        ("pbc_spectrum", "spectrum", "pbc"),
        ("states", "states", "obc"),
        ("pbc_states", "states", "pbc"),
    ):
        value = recipe.get(key)
        if not value:
            continue
        argv = [command, f"--boundary={boundary}", f"--gamma={recipe['gamma']!r}", *shared,
                f"--out={args.out / f'{figure_id}_{boundary}'}"]
        description = f"{boundary} {command}"
        if command == "states":
            argv.append(f"--select={value}")
            description += f" ({value})"
        runs[description] = argv
    args.out.mkdir(parents=True, exist_ok=True)
    spectra: dict = {}  # LatticeParams -> Spectrum, for this panel only
    for argv in runs.values():
        sub_args = build_parser().parse_args(argv)
        sub_args.spectra = spectra
        sub_args.runner(sub_args)
    rio.write_json(
        args.out / f"{figure_id}_params.json",
        {
            "figure": figure_id,
            "t": t,
            "gamma": recipe.get("gamma"),
            "length": length,
            "sweep": recipe.get("sweep"),
            "commands": list(runs),
            "format": args.format,
        },
    )
    return 0


def _add_common(p: argparse.ArgumentParser, gamma: bool = True) -> None:
    p.add_argument("--t", type=float, default=1.0, help="uniform hopping amplitude")
    if gamma:
        p.add_argument("--gamma", type=float, default=0.0, help="ramp strength per site")
    p.add_argument("--length", type=int, default=100, help="number of sites")
    p.add_argument(
        "--boundary", choices=["obc", "pbc"], default="obc", help="boundary condition"
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", type=Path, required=True, help="output path stem")
    # solved spectra that ``figure`` shares between the commands it runs
    p.set_defaults(spectra=None)


@functools.cache  # built once per process; parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramphop",
        description="Spectra of 1D chains with linearly ramped nonreciprocal hopping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="classified eigenvalues plus block overlay")
    _add_common(p)
    p.set_defaults(runner=cmd_spectrum)

    p = sub.add_parser("sweep", help="classified spectra over a gamma grid")
    _add_common(p, gamma=False)
    p.add_argument("--gamma-min", type=float, default=0.0)
    p.add_argument("--gamma-max", type=float, default=1.2)
    p.add_argument("--gamma-steps", type=int, default=2)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers (default: cpu count)",
    )
    p.set_defaults(runner=cmd_sweep)

    p = sub.add_parser("states", help="eigenstate profiles and envelope fits")
    _add_common(p)
    p.add_argument(
        "--select",
        default="all",
        help="real | imag | all | nearest=RE,IM",
    )
    p.set_defaults(runner=cmd_states)

    p = sub.add_parser("winding", help="flux-insertion winding of det(H - E)")
    _add_common(p)
    p.add_argument("--base-re", type=float, default=0.0)
    p.add_argument("--base-im", type=float, default=0.0)
    p.add_argument("--theta-steps", type=int, default=256)
    p.set_defaults(boundary="pbc", runner=cmd_winding)

    p = sub.add_parser("figure", help="reproduce the data behind one figure panel")
    p.add_argument("figure_id", help="e.g. 1a, 2d, 3b, 5a")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(runner=cmd_figure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.runner(args)
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
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
