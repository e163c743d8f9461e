"""Reference computations and output checks, made apart from ramphop.

Everything here uses numpy's LAPACK bindings on dense matrices that are
assembled entry by entry from the model's definition: bond j (sites j and
j+1, counted from 1) carries forward amplitude t + gamma*j at (j-1, j) and
backward amplitude t - gamma*j at (j, j-1) in 0-based indexing; the ring
closes with t + gamma*L at (L-1, 0) and t - gamma*L at (0, L-1), the flux
phase e^{i theta} riding on the first and its conjugate on the second.

Each check returns a list of failure strings, one per violated property, each
starting with the name of the check, so that a caller can tell a known
program fault apart from a new one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)

# Axis classification rule of the program's documented output: a value within
# 1e-6 * max(1, spectral radius) of the real axis is real, else of the
# imaginary axis imaginary, else complex.
CLASS_TOL_SCALE = 1e-6

# Trace-identity tolerances of the project's own acceptance suite, used for
# rings whose eigenvalue condition numbers rule out a per-eigenvalue check.
TRACE_RTOL = 1e-9
TRACE_SQ_RTOL = 1e-6

# Winding trace agreement with slogdet: log|det| and phase, absolute plus
# relative to |log|det||.  Measured agreement is about 1e-12 at L=200.
LOG_ABS_TOL = 1e-9
PHASE_TOL = 1e-8

# Draws whose reference phase turns by more than this between grid points are
# too close to the spectrum to have an unambiguous winding on that grid.
MAX_PHASE_STEP = math.pi / 8


# ---------------------------------------------------------------------------
# matrices and references
# ---------------------------------------------------------------------------


def amplitudes(t: float, gamma: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(1, length, dtype=float)
    return t + gamma * j, t - gamma * j


def ring_matrix(t: float, gamma: float, length: int, theta: float = 0.0) -> np.ndarray:
    up, down = amplitudes(t, gamma, length)
    h = np.zeros((length, length), dtype=complex)
    for k in range(length - 1):
        h[k, k + 1] = up[k]
        h[k + 1, k] = down[k]
    phase = complex(math.cos(theta), math.sin(theta))
    h[length - 1, 0] = (t + gamma * length) * phase
    h[0, length - 1] = (t - gamma * length) * phase.conjugate()
    return h


def symmetric_chain(t: float, gamma: float, length: int) -> np.ndarray:
    """Complex symmetric tridiagonal similar to the open chain.

    Off-diagonal entries are sqrt((t+gamma j)(t-gamma j)), the principal
    complex root, so a bond with negative product becomes i*sqrt(|.|).
    """
    up, down = amplitudes(t, gamma, length)
    s = np.sqrt((up * down).astype(complex))
    h = np.zeros((length, length), dtype=complex)
    for k in range(length - 1):
        h[k, k + 1] = s[k]
        h[k + 1, k] = s[k]
    return h


class Reference:
    """Eigenvalues of a dense matrix with a per-eigenvalue error bound.

    The bound is n * eps * ||A||_F * kappa_j, the first-order perturbation
    of eigenvalue j under a backward error of n * eps * ||A||_F, with kappa_j
    the LAPACK condition number ||x_j|| * ||y_j|| / |y_j^H x_j| taken from
    the rows of the inverse eigenvector matrix.
    """

    def __init__(self, matrix: np.ndarray):
        n = matrix.shape[0]
        self.fro = float(np.linalg.norm(matrix))
        self.values, vr = np.linalg.eig(matrix)
        try:
            with np.errstate(all="ignore"):
                left = np.linalg.inv(vr)
                kappa = np.linalg.norm(vr, axis=0) * np.linalg.norm(left, axis=1)
            kappa[~np.isfinite(kappa)] = math.inf
        except np.linalg.LinAlgError:  # defective: no eigenvalue is pinned down
            kappa = np.full(n, math.inf)
        self.kappa = kappa
        self.tolerance = n * EPS * self.fro * kappa


def class_counts(values: np.ndarray) -> tuple[int, int, int]:
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    tol = CLASS_TOL_SCALE * max(1.0, radius)
    real = np.abs(values.imag) <= tol
    imag = ~real & (np.abs(values.real) <= tol)
    return int(real.sum()), int(imag.sum()), int((~real & ~imag).sum())


class References:
    """Memoized references, one per distinct (kind, t, gamma, length)."""

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def chain(self, gamma: float, length: int, t: float = 1.0) -> Reference:
        return self._get(
            ("obc", t, gamma, length),
            lambda: Reference(symmetric_chain(t, gamma, length)),
        )

    def ring(self, gamma: float, length: int, t: float = 1.0) -> Reference:
        return self._get(
            ("pbc", t, gamma, length),
            lambda: Reference(ring_matrix(t, gamma, length)),
        )

    def winding(self, gamma: float, length: int, base: complex, steps: int, t: float = 1.0):
        return self._get(
            ("winding", t, gamma, length, base, steps),
            lambda: winding_reference(t, gamma, length, base, steps),
        )


def winding_reference(t: float, gamma: float, length: int, base: complex, steps: int):
    """(thetas, log|det|, phase, winding, largest phase step) from slogdet."""
    thetas = np.linspace(0.0, 2.0 * math.pi, steps + 1)
    a = ring_matrix(t, gamma, length) - base * np.eye(length)
    cu, cd = t + gamma * length, t - gamma * length
    log_abs = np.empty(steps + 1)
    phase = np.empty(steps + 1)
    for i, th in enumerate(thetas):
        p = complex(math.cos(th), math.sin(th))
        a[length - 1, 0] = cu * p
        a[0, length - 1] = cd * p.conjugate()
        sign, logdet = np.linalg.slogdet(a)
        log_abs[i] = logdet
        phase[i] = math.atan2(sign.imag, sign.real)
    steps_phase = wrap(np.diff(phase))
    winding = int(round(float(np.sum(steps_phase)) / (2.0 * math.pi)))
    return thetas, log_abs, phase, winding, float(np.max(np.abs(steps_phase)))


def wrap(x):
    return (np.asarray(x) + math.pi) % (2.0 * math.pi) - math.pi


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def match_failures(name: str, values: np.ndarray, ref: Reference, subset: bool = False) -> list[str]:
    """Pair program eigenvalues with reference ones, nearest first.

    With ``subset`` the program lists only some of the eigenvalues (a state
    selection); otherwise both multisets must have the same size.
    """
    values = np.asarray(values, dtype=complex)
    if not subset and len(values) != len(ref.values):
        return [f"{name}: {len(values)} eigenvalues, reference has {len(ref.values)}"]
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite eigenvalue"]
    dist = np.abs(values[:, None] - ref.values[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    used_v = np.zeros(len(values), dtype=bool)
    used_r = np.zeros(len(ref.values), dtype=bool)
    worst = 0.0
    bad = 0
    left = len(values)
    for flat in order:
        i, j = divmod(int(flat), len(ref.values))
        if used_v[i] or used_r[j]:
            continue
        used_v[i] = used_r[j] = True
        d = float(dist[i, j])
        if d > ref.tolerance[j]:
            bad += 1
            worst = max(worst, d / ref.fro)
        left -= 1
        if left == 0:
            break
    if bad:
        return [f"{name}: {bad} eigenvalues off the LAPACK reference (worst gap {worst:.2e}*||H||_F)"]
    return []


def trace_failures(name: str, values: np.ndarray, t: float, gamma: float, length: int, ring: bool) -> list[str]:
    """Sum(lambda) = tr H = 0 and sum(lambda^2) = tr H^2, for the L-site chain."""
    up, down = amplitudes(t, gamma, length)
    trace_sq = 2.0 * float(np.sum(up * down))
    fro_sq = float(np.sum(up**2) + np.sum(down**2))
    if ring:
        cu, cd = t + gamma * length, t - gamma * length
        trace_sq += 2.0 * cu * cd
        fro_sq += cu**2 + cd**2
    values = np.asarray(values, dtype=complex)
    out = []
    if len(values) != length:
        out.append(f"{name}: {len(values)} eigenvalues for {length} sites")
    s1 = complex(np.sum(values))
    s2 = complex(np.sum(values**2))
    if not abs(s1) <= TRACE_RTOL * length * math.sqrt(fro_sq):
        out.append(f"{name}: sum of eigenvalues is {s1:.3e}, not 0")
    if not abs(s2 - trace_sq) <= TRACE_SQ_RTOL * abs(trace_sq) + TRACE_RTOL * fro_sq:
        out.append(f"{name}: sum of squares {s2:.6g} against tr H^2 = {trace_sq:.6g}")
    return out


# ---------------------------------------------------------------------------
# file readers
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cplx(row: dict, re: str = "re", im: str = "im") -> complex:
    return complex(float(row[re]), float(row[im]))


def read_winding_csv(path: Path) -> tuple[np.ndarray, dict]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "theta,det_log_abs,det_phase" or not lines[-1].startswith("# "):
        raise ValueError("not a winding file")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    trailer = dict(item.split("=", 1) for item in lines[-1][2:].split())
    return data, trailer


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def split_ratio(t: float, gamma: float) -> float:
    return math.inf if gamma == 0.0 else abs(t / gamma)


def sweep_failures(path: Path, refs: References, length: int, gammas: np.ndarray,
                   t: float = 1.0) -> list[str]:
    """Every gamma of a sweep CSV against the symmetric-chain reference."""
    rows = read_csv(path)
    out = []
    by_gamma: dict[float, list[dict]] = {}
    for r in rows:
        by_gamma.setdefault(float(r["gamma"]), []).append(r)
    got = np.array(sorted(by_gamma))
    if len(got) != len(gammas) or np.max(np.abs(got - np.sort(gammas))) > 4 * EPS:
        return [f"sweep: gamma points {got.tolist()} instead of {list(gammas)}"]
    for gamma, group in by_gamma.items():
        name = f"sweep gamma={gamma!r}"
        labels = [r["class"] for r in group]
        if "failed" in labels or "complex" in labels:
            out.append(f"{name}: a row is failed or complex")
            continue
        values = np.array([cplx(r) for r in group])
        ref = refs.chain(gamma, length, t)
        out += match_failures(name, values, ref)
        n_real, n_imag, n_cplx = class_counts(ref.values)
        got = (labels.count("real"), labels.count("imaginary"))
        cols = {(int(r["n_real"]), int(r["n_imaginary"])) for r in group}
        if got != (n_real, n_imag) or cols != {got}:
            out.append(f"{name}: class counts {got} / columns {sorted(cols)}, reference {(n_real, n_imag)}")
        # The anti block is i times a zero-diagonal real symmetric tridiagonal
        # of size L-m, so it holds one zero level when L-m is odd, and the
        # output convention labels the origin real.
        ratio = split_ratio(t, gamma)
        m = round(ratio) if math.isfinite(ratio) else None
        if ratio >= length:
            expect = (length, 0)
        elif abs(gamma) > abs(t):
            expect = (length % 2, length - length % 2)
        elif m is not None and m >= 1 and abs(ratio - m) <= 1e-9 * m:
            zero = (length - m) % 2
            expect = (m + zero, length - m - zero)
        else:
            expect = None
        if expect is not None and got != expect:
            out.append(f"{name}: |t/gamma|={ratio:.6g} needs {expect} real/imaginary, got {got}")
        if n_cplx:
            out.append(f"{name}: reference has {n_cplx} complex levels")
    return out


# ---------------------------------------------------------------------------
# figure panels and spectra
# ---------------------------------------------------------------------------


def decoupled(t: float, gamma: float, length: int) -> bool:
    ratio = split_ratio(t, gamma)
    m = round(ratio) if math.isfinite(ratio) else None
    return (
        ratio >= length
        or abs(gamma) > abs(t)
        or (m is not None and m >= 1 and abs(ratio - m) <= 1e-9 * m)
    )


def spectrum_failures(name: str, values: np.ndarray, refs: References, gamma: float, length: int,
                      boundary: str, subset: bool = False, t: float = 1.0) -> list[str]:
    """Open chains and L=100 rings against LAPACK; longer rings by traces.

    Ring eigenvalue condition numbers reach 1e16 at L=200, so only the trace
    identities are decidable there.  A state selection (``subset``) cannot
    be checked by traces and is matched only on rings up to L=100.
    """
    if boundary == "obc":
        return match_failures(name, values, refs.chain(gamma, length, t), subset)
    if length <= 100:
        return match_failures(name, values, refs.ring(gamma, length, t), subset)
    if subset:
        return []
    return trace_failures(f"ring{length}.trace {name}", values, t, gamma, length, ring=True)


def spectrum_file_failures(name: str, path: Path, refs: References, gamma: float, length: int,
                           boundary: str) -> list[str]:
    """A spectrum CSV (index,re,im,class,residual) or JSON document."""
    if path.suffix == ".json":
        return spectrum_doc_failures(name, path, refs, gamma, length, boundary)
    values = np.array([cplx(r) for r in read_csv(path)])
    return spectrum_failures(name, values, refs, gamma, length, boundary)


def profile_failures(name: str, profiles: dict[int, list[float]], tail_after: int | None) -> list[str]:
    out = []
    for sid, amps in profiles.items():
        a = np.asarray(amps)
        if abs(float(np.max(a)) - 1.0) > 4 * EPS or float(np.min(a)) < 0.0:
            out.append(f"{name}: profile of state {sid} peaks at {float(np.max(a))!r}, not 1")
            break
        if tail_after is not None and float(np.max(a[tail_after:])) > 1e-12:
            out.append(f"{name}: state {sid} reaches {float(np.max(a[tail_after:])):.2e} beyond site {tail_after}")
            break
    return out


def panel_failures(outdir: Path, refs: References, panel: str, recipe: dict, fmt: str) -> list[str]:
    """All files one `ramphop figure` op wrote, against the panel recipe."""
    gamma, length = recipe["gamma"], recipe["length"]
    tail_after = recipe.get("tail_after")
    out = []
    params = json.loads((outdir / f"{panel}_params.json").read_text())
    if params.get("figure") != panel or params.get("format") != fmt:
        out.append(f"{panel}: params file names {params.get('figure')}/{params.get('format')}")
    parts = [b for b in ("obc", "pbc") if recipe.get(b)]
    expected = {f"{panel}_params.json"}
    for b in parts:
        kinds = recipe[b]
        if fmt == "json":
            expected.add(f"{panel}_{b}.json")
        else:
            if "spectrum" in kinds:
                expected.add(f"{panel}_{b}_spectrum.csv")
                if b == "obc":
                    expected.add(f"{panel}_{b}_blocks.csv")
            if "states" in kinds:
                expected |= {f"{panel}_{b}_{k}.csv" for k in ("states", "summary", "envelope")}
    found = {p.name for p in outdir.iterdir()}
    if found != expected:
        return out + [f"{panel}: files {sorted(found)} instead of {sorted(expected)}"]
    for b in parts:
        name = f"{panel} {b} {fmt}"
        stem = outdir / f"{panel}_{b}"
        if fmt == "json":
            out += spectrum_doc_failures(name, Path(f"{stem}.json"), refs, gamma, length, b, tail_after)
            continue
        kinds = recipe[b]
        if "spectrum" in kinds:
            out += spectrum_file_failures(name, Path(f"{stem}_spectrum.csv"), refs, gamma, length, b)
            if b == "obc" and decoupled(1.0, gamma, length):
                flags = {r["matched"] for r in read_csv(Path(f"{stem}_blocks.csv"))}
                if flags != {"1"}:
                    out.append(f"{name}: block matched flags {sorted(flags)} on a decoupled chain")
        if "states" in kinds:
            rows = read_csv(Path(f"{stem}_states.csv"))
            profiles: dict[int, list[float]] = {}
            values: dict[int, complex] = {}
            for r in rows:
                sid = int(r["state_id"])
                profiles.setdefault(sid, []).append(float(r["amplitude"]))
                values[sid] = cplx(r, "eigen_re", "eigen_im")
            out += profile_failures(name, profiles, tail_after)
            out += spectrum_failures(f"{name} states", np.array(list(values.values())), refs,
                                     gamma, length, b, subset=True)
            summary = read_csv(Path(f"{stem}_summary.csv"))
            if len(summary) != len(profiles):
                out.append(f"{name}: {len(summary)} summary rows for {len(profiles)} states")
            env = [float(r["amplitude"]) for r in read_csv(Path(f"{stem}_envelope.csv"))]
            out += profile_failures(f"{name} envelope", {0: env}, None)
    return out


def spectrum_doc_failures(name: str, path: Path, refs: References, gamma: float, length: int,
                          boundary: str, tail_after: int | None = None) -> list[str]:
    """A JSON document from `spectrum`, `states` or `figure --format json`."""
    doc = json.loads(path.read_text())
    out = []
    values = np.array([complex(e["re"], e["im"]) for e in doc["eigenvalues"]])
    out += spectrum_failures(name, values, refs, gamma, length, boundary)
    blocks = doc.get("blocks")
    if blocks is not None and decoupled(1.0, gamma, length) and blocks["mismatch"]:
        out.append(f"{name}: blocks mismatch on a decoupled chain")
    states = doc.get("states")
    if states is not None:
        profiles = {s["state_id"]: s["amplitudes"] for s in states}
        out += profile_failures(name, profiles, tail_after)
        picked = np.array([complex(s["eigen_re"], s["eigen_im"]) for s in states])
        out += spectrum_failures(f"{name} states", picked, refs, gamma, length, boundary, subset=True)
        env = doc["analysis"]["envelopes"]["global"]
        out += profile_failures(f"{name} envelope", {0: env}, None)
    return out


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------


def winding_failures(path: Path, refs: References, gamma: float, length: int, base: complex,
                     steps: int, t: float = 1.0) -> list[str]:
    data, trailer = read_winding_csv(path)
    name = f"winding L={length} gamma={gamma!r} E={base!r}"
    out = []
    got_steps = int(trailer["theta_steps"])
    if got_steps not in (steps, 2 * steps) or len(data) != got_steps + 1:
        return [f"{name}: {len(data)} rows for theta_steps={got_steps}"]
    if complex(float(trailer["base_re"]), float(trailer["base_im"])) != base:
        out.append(f"{name}: trailer names base {trailer['base_re']},{trailer['base_im']}")
    thetas, log_abs, phase, winding, _ = refs.winding(gamma, length, base, got_steps, t)
    if np.max(np.abs(data[:, 0] - thetas)) > 4 * EPS * 2 * math.pi:
        out.append(f"{name}: theta grid differs from linspace(0, 2pi, {got_steps + 1})")
    gap = np.abs(data[:, 1] - log_abs)
    if np.any(~(gap <= LOG_ABS_TOL * np.maximum(1.0, np.abs(log_abs)))):
        out.append(f"{name}: det_log_abs off slogdet by {float(np.max(gap)):.2e}")
    dphi = np.abs(wrap(data[:, 2] - phase))
    if np.any(~(dphi <= PHASE_TOL)):
        out.append(f"{name}: det_phase off slogdet by {float(np.max(dphi)):.2e}")
    if int(trailer["winding"]) != winding:
        out.append(f"{name}: winding {trailer['winding']}, slogdet gives {winding}")
    if trailer["point_gap"] != str(winding != 0).lower():
        out.append(f"{name}: point_gap={trailer['point_gap']} with winding {winding}")
    return out
