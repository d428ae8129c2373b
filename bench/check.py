"""Independent output checks for the benchmark's CLI ops.

Nothing here imports powerfeas. The closed forms below restate the
admission conditions and update maps from the config schema in the README,
in numpy for speed and in ``fractions.Fraction`` where float rounding could
decide the answer (exact-boundary configs, grid points within 1e-9 of a
region boundary). Every ``check_*`` function returns a list of problems;
an empty list means the op passed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

EPS = np.finfo(float).eps
# A float value this close to 1 is decided again in exact arithmetic.
NEAR_BOUNDARY = 1e-9
# Rows of a region cloud re-evaluated per op.
REGION_SAMPLE = 2000


def _coords(doc) -> str:
    return doc.get("coordinates", "transformed")


def _kth_largest_ref(h: np.ndarray, d) -> np.ndarray:
    """d_j-th largest gain of each terminal column of a (K, N) gain matrix."""
    k = h.shape[0]
    return np.sort(h, axis=0)[k - np.asarray(d), np.arange(h.shape[1])]


def moduli(doc: dict, alphas=None) -> np.ndarray:
    """Per-terminal contraction moduli in the config's coordinates.

    ``alphas`` may be a (P, N) batch of target vectors replacing the
    config's own; the result then has shape (P, N).
    """
    a = np.atleast_2d(np.asarray(doc["alphas"] if alphas is None else alphas, dtype=float))
    n = a.shape[1]
    kind = doc["scenario"]
    if kind == "single_cell":
        if _coords(doc) == "original":
            return a * (n - 1)
        return a.sum(axis=1, keepdims=True) - a
    h = np.asarray(doc["gains"], dtype=float)
    if kind == "macro_diversity":  # terminal-major (N, K)
        if _coords(doc) == "original":
            loo = h.sum(axis=0)[None, :] - h  # (N, K)
            return a / h.sum(axis=1) * loo.max(axis=1)
        g = h / h.sum(axis=1, keepdims=True)
        w = a[:, :, None] * g[None]  # (P, N, K)
        return (w.sum(axis=1, keepdims=True) - w).max(axis=2)
    if kind == "fixed_assignment":  # receiver-major (K, N)
        rows = h[np.asarray(doc["assignment"]) - 1]  # (N, N): row j is terminal j's receiver
        own = np.diag(rows)
        return a * (rows.sum(axis=1) - own) / own
    # multi_connection, receiver-major (K, N)
    if doc.get("mode", "bounded") == "bounded":
        g = h / _kth_largest_ref(h, doc["d"])[None, :]
        tot = a @ g.T  # (P, K)
        return (tot[:, None, :] - a[:, :, None] * g.T[None]).max(axis=2)
    tot = a @ h.T
    ratios = (tot[:, None, :] - a[:, :, None] * h.T[None]) / h.T[None]  # (P, N, K)
    d_idx = np.asarray(doc["d"]) - 1
    return np.sort(ratios, axis=2)[:, np.arange(n), d_idx]


def moduli_exact(doc: dict, alphas=None) -> list[Fraction]:
    """The same moduli as :func:`moduli` for one target vector, in exact arithmetic.

    Covers what gets decided exactly: single-cell configs (the boundary
    probe) and the region predicates (transformed macro diversity and both
    multi-connection modes).
    """
    F = Fraction
    a = [F(v) for v in (doc["alphas"] if alphas is None else alphas)]
    n = len(a)
    kind = doc["scenario"]
    if kind == "single_cell":
        if _coords(doc) == "original":
            return [x * (n - 1) for x in a]
        s = sum(a)
        return [s - x for x in a]
    h = [[F(v) for v in row] for row in doc["gains"]]
    if kind == "macro_diversity":
        k = len(h[0])
        g = [[v / sum(row) for v in row] for row in h]
        tot = [sum(a[m] * g[m][kk] for m in range(n)) for kk in range(k)]
        return [max(tot[kk] - a[i] * g[i][kk] for kk in range(k)) for i in range(n)]
    k = len(h)
    d = doc["d"]
    if doc.get("mode", "bounded") == "bounded":
        ref = [sorted((h[kk][j] for kk in range(k)), reverse=True)[d[j] - 1] for j in range(n)]
        g = [[h[kk][i] / ref[i] for i in range(n)] for kk in range(k)]
        tot = [sum(a[i] * g[kk][i] for i in range(n)) for kk in range(k)]
        return [max(tot[kk] - a[j] * g[kk][j] for kk in range(k)) for j in range(n)]
    tot = [sum(a[i] * h[kk][i] for i in range(n)) for kk in range(k)]
    return [sorted((tot[kk] - a[j] * h[kk][j]) / h[kk][j] for kk in range(k))[d[j] - 1]
            for j in range(n)]


def update_map(doc: dict):
    """The synchronous update T(p) of a solve config, as a numpy function.

    Covers the scenarios the solve deck uses: single cell in both
    coordinates, transformed macro diversity and fixed assignment.
    """
    a = np.asarray(doc["alphas"], dtype=float)
    kind = doc["scenario"]
    if kind == "single_cell":
        sigma = float(doc["sigma"])
        if _coords(doc) == "original":
            return lambda p: a * (p.sum() - p + sigma)
        return lambda p: (a * p).sum() - a * p + sigma
    h = np.asarray(doc["gains"], dtype=float)
    sigma = np.asarray(doc["sigma"], dtype=float)
    if kind == "macro_diversity" and _coords(doc) == "transformed":
        g = h / h.sum(axis=1, keepdims=True)
        return lambda q: ((a * q) @ g - (a * q)[:, None] * g).max(axis=1) + sigma.max()
    if kind == "fixed_assignment":
        r = np.asarray(doc["assignment"]) - 1
        rows = h[r]
        own = np.diag(rows)
        return lambda p: a * (rows @ p - own * p + sigma[r]) / own
    raise ValueError(f"no update map for {kind} / {_coords(doc)}")


def affine_parts(doc: dict):
    """(A, c) with T(p) = A p + c for the affine solve configs, else None."""
    kind = doc["scenario"]
    if kind not in ("single_cell", "fixed_assignment"):
        return None
    n = len(doc["alphas"])
    t = update_map(doc)
    c = t(np.zeros(n))
    A = np.column_stack([t(np.eye(n)[j]) - c for j in range(n)])
    np.fill_diagonal(A, 0.0)
    return A, c


def apriori_iterations(lam: float, delta0: float, tol: float) -> int:
    """Picard steps a lam-contraction needs before a step drops below tol*(1-lam)."""
    return max(1, math.ceil(math.log(tol * (1.0 - lam) / delta0) / math.log(lam)))


def _traceback(stderr: str) -> list[str]:
    return ["traceback on stderr"] if "Traceback" in stderr else []


def check_admit(doc: dict, code: int, stdout: str, stderr: str) -> list[str]:
    """``check --json`` on a margin config: verdict, exit code and moduli."""
    errors = _traceback(stderr)
    want = moduli(doc)[0]
    lam = float(want.max())
    feasible = lam < 1.0
    if code != (0 if feasible else 2):
        errors.append(f"exit code {code}, expected {0 if feasible else 2} (lambda={lam!r})")
    try:
        out = json.loads(stdout)
        got = np.asarray(out["per_terminal_modulus"], dtype=float)
        if out["feasible"] is not feasible:
            errors.append(f"verdict feasible={out['feasible']}, lambda={lam!r}")
        tol = 1e-9 * max(1.0, lam)
        if abs(out["modulus"] - lam) > tol:
            errors.append(f"modulus {out['modulus']!r} != {lam!r}")
        if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
            errors.append("per-terminal moduli differ from the closed form")
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable check output: {exc}")
    return errors


def check_boundary(doc: dict, code: int, stdout: str) -> list[str]:
    """``check --json`` on a config decided exactly; the strict boundary is infeasible."""
    lam = max(moduli_exact(doc))
    feasible = lam < 1
    try:
        said = json.loads(stdout)["feasible"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable check output: {exc}"]
    errors = []
    if said is not feasible or code != (0 if feasible else 2):
        errors.append(f"certified feasible={said} (exit {code}) but exact lambda={lam}")
    return errors


def check_solve(doc: dict, code: int, stdout: str, stderr: str, trace_path=None) -> list[str]:
    """``solve --json``: residual of the returned powers, the linear solve for
    affine configs, and the trace CSV when one was written."""
    errors = _traceback(stderr)
    if code != 0:
        return errors + [f"exit code {code}, expected 0"]
    try:
        out = json.loads(stdout)
        p = np.asarray(out["powers"], dtype=float)
        iters = int(out["iterations"])
        if not (out["converged"] and out["certified"]):
            errors.append("run not converged or not certified")
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"unreadable solve output: {exc}"]
    n = len(doc["alphas"])
    if p.shape != (n,) or not np.all(np.isfinite(p)):
        return errors + [f"expected {n} finite powers"]
    tol = doc.get("solver", {}).get("tolerance", 1e-10)
    lam = float(moduli(doc).max())
    slack = 4 * n * EPS * max(1.0, float(np.abs(p).max()))
    residual = float(np.abs(update_map(doc)(p) - p).max())
    if residual > tol + slack:
        errors.append(f"residual {residual:.3e} > {tol + slack:.3e}")
    parts = affine_parts(doc)
    if parts is not None:
        A, c = parts
        exact = np.linalg.solve(np.eye(n) - A, c)
        dist = float(np.abs(p - exact).max())
        if dist > tol + slack / (1.0 - lam):
            errors.append(f"distance to the linear solve {dist:.3e}")
    if trace_path is not None:
        errors += _check_trace_csv(trace_path, n, iters, p)
    return errors


def _check_trace_csv(path, n: int, iters: int, p: np.ndarray) -> list[str]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != iters + 2:
        return [f"trace has {len(rows) - 1} rows, expected {iters + 1}"]
    if len(rows[0]) != n + 2:
        return [f"trace has {len(rows[0])} columns, expected {n + 2}"]
    last = np.asarray([float(v) for v in rows[-1][1:n + 1]])
    if not np.array_equal(last, p):
        return ["last trace row differs from the printed powers"]
    return []


def region_grid(doc: dict, resolution: int, alpha_max: float) -> np.ndarray:
    """The documented grid: every axis np.linspace(0, alpha_max, resolution),
    rows in lexicographic order with the first axis most significant."""
    n = len(doc["alphas"])
    axis = np.linspace(0.0, alpha_max, resolution)
    idx = np.indices((resolution,) * n).reshape(n, -1).T
    return axis[idx]


def region_feasible(doc: dict, pts: np.ndarray) -> np.ndarray:
    """Own region predicate over rows of ``pts``; near-boundary rows exactly."""
    mod = moduli(dict(doc, coordinates="transformed"), pts)
    verdict = (mod < 1.0).all(axis=1)
    for r in np.flatnonzero((np.abs(mod - 1.0) < NEAR_BOUNDARY).any(axis=1)):
        exact = moduli_exact(dict(doc, coordinates="transformed"), pts[r].tolist())
        verdict[r] = max(exact) < 1
    return verdict


def _region_sample(point_count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, point_count, size=min(REGION_SAMPLE, point_count)))


def check_region(doc: dict, resolution: int, alpha_max: float, code: int, stdout: str,
                 stderr: str, cloud_path, ineq_path=None, seed: int = 0) -> list[str]:
    """``region --compare hanly``: row count, a seeded sample of rows against
    the own predicate, the printed relation and the inequality rows."""
    errors = _traceback(stderr)
    if code != 0:
        return errors + [f"exit code {code}, expected 0"]
    n = len(doc["alphas"])
    k = len(doc["gains"][0]) if doc["scenario"] == "macro_diversity" else len(doc["gains"])
    with open(cloud_path) as fh:
        lines = fh.read().splitlines()
    count = resolution ** n
    if len(lines) != count + 1:
        return errors + [f"cloud has {len(lines) - 1} rows, expected {count}"]
    grid = region_grid(doc, resolution, alpha_max)
    flags = np.array([line[-1:] == "1" for line in lines[1:]])
    rows = _region_sample(count, seed)
    parsed = np.array([[float(v) for v in lines[r + 1].split(",")] for r in rows])
    if not np.array_equal(parsed[:, :n], grid[rows]):
        errors.append("sampled cloud rows are not the documented grid points")
    want = region_feasible(doc, grid[rows])
    if not np.array_equal(parsed[:, n] == 1.0, want) or not np.array_equal(flags[rows], want):
        errors.append(f"{int((flags[rows] != want).sum())} sampled feasibility flags are wrong")
    errors += _check_relation(stdout, grid, flags, k)
    if ineq_path is not None:
        errors += _check_inequalities(doc, ineq_path, n, k)
    return errors


def _check_relation(stdout: str, grid: np.ndarray, scenario: np.ndarray, k: int) -> list[str]:
    hanly = grid.sum(axis=1) < k
    only_a = scenario & ~hanly
    only_b = hanly & ~scenario
    label = f"hanly(K={k})"
    wording = {
        (False, False): f"equal to {label}",
        (True, False): f"{label} contained in scenario region",
        (False, True): f"scenario region contained in {label}",
        (True, True): "incomparable",
    }[(bool(only_a.any()), bool(only_b.any()))]
    want = [f"relation vs {label}: {wording}"]
    if only_a.any():
        want.append(f"witness only in scenario region: {tuple(grid[np.argmax(only_a)].tolist())}")
    if only_b.any():
        want.append(f"witness only in {label}: {tuple(grid[np.argmax(only_b)].tolist())}")
    lines = stdout.splitlines()
    missing = [w for w in want if w not in lines]
    return [f"missing output line {m!r}" for m in missing]


def _check_inequalities(doc: dict, path, n: int, k: int) -> list[str]:
    h = np.asarray(doc["gains"], dtype=float)
    if doc["scenario"] == "macro_diversity":
        g = (h / h.sum(axis=1, keepdims=True)).T  # (K, N)
    else:
        g = h / _kth_largest_ref(h, doc["d"])[None, :]
    want = []
    for i in range(n):
        for kk in range(k):
            coefs = g[kk].copy()
            coefs[i] = 0.0
            want.append(coefs)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != n * k:
        return [f"{len(rows)} inequality rows, expected {n * k}"]
    got = np.array([[float(v) for v in row[:n]] for row in rows])
    rhs_ok = all(row[n:] == ["1.0", "<"] for row in rows)
    if not rhs_ok or not np.allclose(got, np.array(want), rtol=1e-12, atol=0.0):
        return ["inequality rows differ from the closed form"]
    return []
