"""The three workloads: their ops, inputs and the check of each op's files.

An op is one `ramphop` command line.  A round runs every pass of a workload
once, each pass in a freshly shuffled order; a run repeats whole rounds, so
every run attempts the same mix of ops and the failed share is fixed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Panel 2a/2b grid.  A sweep op is a window of consecutive points of it; the
# windows start every WINDOW_STRIDE points, so one round visits every regime:
# gamma=0 and the all-real points 0.005 and 0.01, the integer splits 0.1, 0.2,
# 0.5 and 1.0 (window starts), coupled points throughout, and the
# all-imaginary tail beyond 1.0.
SWEEP_GRID = np.linspace(0.0, 1.2, 241)
SWEEP_LENGTH = 100
WINDOW = 2
WINDOW_STRIDE = 20

# Figure panels as the paper states them, written out here rather than read
# from the program: which boundary gets a spectrum and/or state profiles.
PANELS: dict[str, dict] = {
    "1a": {"gamma": 0.01, "length": 100, "obc": ("spectrum",)},
    "1b": {"gamma": 0.02, "length": 100, "obc": ("spectrum",)},
    "1c": {"gamma": 0.07, "length": 100, "obc": ("spectrum",)},
    "2c": {"gamma": 0.001, "length": 100, "obc": ("spectrum",)},
    "2d": {"gamma": 0.001, "length": 100, "obc": ("states",)},
    "2e": {"gamma": 0.001, "length": 100, "pbc": ("spectrum",)},
    "2f": {"gamma": 0.001, "length": 100, "pbc": ("states",)},
    "3a": {"gamma": 0.01, "length": 100, "obc": ("spectrum", "states"), "pbc": ("spectrum",)},
    "3b": {"gamma": 0.011, "length": 100, "obc": ("spectrum", "states"), "pbc": ("spectrum",)},
    "3c": {"gamma": 0.015, "length": 100, "obc": ("spectrum", "states"), "pbc": ("spectrum",)},
    # gamma = 0.02 splits the chain at site 50: the real states stay there.
    "4a": {"gamma": 0.02, "length": 100, "obc": ("states",), "tail_after": 50},
    "4b": {"gamma": 0.021, "length": 100, "obc": ("states",)},
    "5a": {"gamma": 0.01, "length": 200, "obc": ("spectrum", "states"), "pbc": ("spectrum",)},
}

# The ring solver stalls on 14 pairs here and the command exits 3.
STALLING_RING = {"gamma": 0.011, "length": 200}

# Check-name prefix of the one known program fault: ring spectra at L=200
# break the trace identities (panel 5a) or stall (the ring above).
RING200_FAULT = "ring200.trace"

# Winding slots: (L, gamma, whether the drawn base point must see a point gap).
WINDING_SLOTS = [
    (100, 0.001, True),
    (100, 0.01, True),
    (100, 0.1, False),
    (100, 2.0, False),
    (200, 0.001, True),
    (200, 0.01, True),
    (200, 0.1, False),
    (200, 2.0, False),
]
WINDING_STEPS = 256
COARSE_STEPS = 32
MAX_DRAWS = 400


@dataclass(frozen=True)
class Op:
    """One command line; ``{out}`` in ``argv`` becomes the op's own directory.

    Ops with equal ``key`` have equal arguments, so they must write
    byte-identical files.  ``known_fault`` names the check prefix of a
    program fault that fails this op every time; such a failure counts the
    op as failed instead of failing the run.
    """

    key: str
    argv: tuple[str, ...]
    check: Callable[[Path, checks.References], list[str]]
    known_fault: str | None = None

    def command(self, outdir: Path) -> list[str]:
        return [a.replace("{out}", str(outdir)) for a in self.argv]


@dataclass
class Workload:
    name: str
    passes: list[list[Op]]

    @property
    def ops(self) -> list[Op]:
        return [op for p in self.passes for op in p]


def sweep_workload(rng: np.random.Generator, refs: checks.References) -> Workload:
    ops = []
    for start in range(0, len(SWEEP_GRID) - WINDOW + 1, WINDOW_STRIDE):
        lo, hi = float(SWEEP_GRID[start]), float(SWEEP_GRID[start + WINDOW - 1])
        argv = (
            "sweep", "--workers", "1", "--length", str(SWEEP_LENGTH),
            "--gamma-min", repr(lo), "--gamma-max", repr(hi),
            "--gamma-steps", str(WINDOW), "--out", "{out}/op",
        )
        ops.append(Op(
            key=f"sweep[{lo!r},{hi!r}]",
            argv=argv,
            check=lambda d, r, g=np.linspace(lo, hi, WINDOW): checks.sweep_failures(
                d / "op_sweep.csv", r, SWEEP_LENGTH, g),
        ))
    return Workload("sweep", [ops])


def _panel_op(panel: str, fmt: str) -> Op:
    recipe = PANELS[panel]
    return Op(
        key=f"figure[{panel},{fmt}]",
        argv=("figure", panel, "--format", fmt, "--out", "{out}"),
        check=lambda d, r: checks.panel_failures(d, r, panel, recipe, fmt),
        known_fault=RING200_FAULT if recipe["length"] > 100 and "pbc" in recipe else None,
    )


def _stalling_ring_op(fmt: str) -> Op:
    g, n = STALLING_RING["gamma"], STALLING_RING["length"]
    out = "op_spectrum.csv" if fmt == "csv" else "op.json"
    return Op(
        key=f"spectrum[pbc,{g!r},{n},{fmt}]",
        argv=("spectrum", "--boundary", "pbc", "--gamma", repr(g), "--length", str(n),
              "--format", fmt, "--out", "{out}/op"),
        check=lambda d, r: checks.spectrum_file_failures(
            f"spectrum pbc L={n} {fmt}", d / out, r, g, n, "pbc"),
        known_fault=RING200_FAULT,
    )


def panels_workload(rng: np.random.Generator, refs: checks.References) -> Workload:
    small = [p for p in PANELS if PANELS[p]["length"] == 100]
    csv_pass = [_panel_op(p, "csv") for p in small] + [_stalling_ring_op("csv")]
    json_pass = [_panel_op(p, "json") for p in small] + [_panel_op("5a", "json")]
    return Workload("panels", [csv_pass, json_pass])


def draw_base(rng: np.random.Generator, refs: checks.References, length: int, gamma: float,
              want_gap: bool) -> complex:
    """A base point off the spectrum with the wanted winding class.

    E is uniform over a box that holds the ring spectrum: |Re E| <= 2.5 and
    |Im E| <= 1.2 max|Im lambda|.  A draw is rejected when its slogdet trace
    turns the phase by more than pi/8 between grid points (too close to the
    spectrum), or when its winding is not of the wanted class.
    """
    height = 1.2 * float(np.max(np.abs(np.linalg.eigvals(checks.ring_matrix(1.0, gamma, length)).imag)))
    for _ in range(MAX_DRAWS):
        base = complex(float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-height, height)))
        coarse = checks.winding_reference(1.0, gamma, length, base, COARSE_STEPS)
        if (coarse[3] != 0) != want_gap:
            continue
        _, _, _, winding, step = refs.winding(gamma, length, base, WINDING_STEPS)
        if step <= checks.MAX_PHASE_STEP and (winding != 0) == want_gap:
            return base
    raise RuntimeError(f"no base point found for L={length} gamma={gamma}")


def winding_workload(rng: np.random.Generator, refs: checks.References) -> Workload:
    ops = []
    for length, gamma, want_gap in WINDING_SLOTS:
        base = draw_base(rng, refs, length, gamma, want_gap)
        argv = (
            "winding", "--boundary", "pbc", "--gamma", repr(gamma), "--length", str(length),
            "--base-re", repr(base.real), "--base-im", repr(base.imag),
            "--theta-steps", str(WINDING_STEPS), "--out", "{out}/op",
        )
        ops.append(Op(
            key=f"winding[{length},{gamma!r},{base!r}]",
            argv=argv,
            check=lambda d, r, n=length, g=gamma, e=base: checks.winding_failures(
                d / "op_winding.csv", r, g, n, e, WINDING_STEPS),
        ))
    return Workload("winding", [ops])


WORKLOADS = {
    "sweep": sweep_workload,
    "panels": panels_workload,
    "winding": winding_workload,
}


# ---------------------------------------------------------------------------
# corrupted copies: each check must reject its copy
# ---------------------------------------------------------------------------


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def shift_sweep_eigenvalue(path: Path) -> None:
    """Shift the real part of the first level with |E| > 0.1 by 1e-4 |E|."""
    def edit(lines):
        for i, line in enumerate(lines[1:], start=1):
            f = line.split(",")
            value = complex(float(f[2]), float(f[3]))
            if abs(value) > 0.1:
                f[2] = repr(value.real + 1e-4 * abs(value))
                lines[i] = ",".join(f)
                return
    _rewrite(path, edit)


def shift_spectrum_eigenvalue(path: Path) -> None:
    """Shift the imaginary part of the middle row by 1e-4 max(|E|, 1)."""
    def edit(lines):
        k = len(lines) // 2
        f = lines[k].split(",")
        value = complex(float(f[1]), float(f[2]))
        f[2] = repr(value.imag + 1e-4 * max(abs(value), 1.0))
        lines[k] = ",".join(f)
    _rewrite(path, edit)


def flip_winding(path: Path) -> None:
    """Winding W becomes -W, or 1 when W = 0, in the trailer line."""
    def edit(lines):
        w = int(dict(item.split("=", 1) for item in lines[-1][2:].split())["winding"])
        lines[-1] = lines[-1].replace(f"winding={w} ", f"winding={-w if w else 1} ", 1)
    _rewrite(path, edit)


def self_test(workload: Workload, verified: dict[str, Path], refs: checks.References,
              scratch: Path) -> list[str]:
    """Corrupt a copy of one verified op's files; its check must object.

    Returns the problems found: empty when the check rejected the copy.
    """
    if workload.name == "sweep":
        op, name, corrupt = workload.ops[len(workload.ops) // 2], "op_sweep.csv", shift_sweep_eigenvalue
    elif workload.name == "panels":
        op = next(o for o in workload.ops if o.key == "figure[3b,csv]")
        name, corrupt = "3b_pbc_spectrum.csv", shift_spectrum_eigenvalue
    else:
        op, name, corrupt = workload.ops[0], "op_winding.csv", flip_winding
    if op.key not in verified:
        return [f"self-test: no verified output of {op.key} to corrupt"]
    shutil.copytree(verified[op.key], scratch)
    corrupt(scratch / name)
    if not op.check(scratch, refs):
        return [f"self-test: the check of {op.key} accepted a corrupted {name}"]
    return []
