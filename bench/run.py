"""Benchmark for the powerfeas CLI.

    python3 bench/run.py --workload admit|solve|region --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI runs from ``src/`` as
``python -m powerfeas.cli`` with PYTHONPATH pointing there. One closed-loop
client runs one CLI child at a time. Set-up writes the seeded deck
(deck.py) to a temporary directory inside the checkout. The loop then
replays the deck, cycling, until ``--seconds`` have passed, timing
each child from spawn to exit and checking its output with check.py
outside the timed span. Children that only import powerfeas.cli run
between the ops and give ``setup_s``. Every run also sends the exact-boundary configs through
``check`` and counts the ones certified wrongly.

With ``--trace 1`` the loop gets half the time, and the ops it ran are then
replayed in-process with spans around each layer's calls (spans.py). Layers
the workload's command never reaches are measured on one companion op from
each other deck. The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import check
import deck
from spans import ROOT, Tracer

SETUP_EVERY = 4
IMPORT_ONLY = ["-c", "import powerfeas.cli"]
CHILD_TIMEOUT_S = 60
STEP_REPEATS = 5  # direct System.step calls per traced op: at least this many,
STEP_BUDGET_S = 0.05  # and more, up to 50, while their total stays under this
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Companion op per deck, replayed in traced runs of the other workloads.
COMPANION = {"admit": 6, "solve": 1, "region": 0}

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("cli.load_config_s", "s"),
    ("cli.self_s", "s"),
    ("cli.op_cpu_s", "s"),
    ("scenarios.validate_s", "s"),
    ("scenarios.build_s", "s"),
    ("scenarios.build_ns_per_weight", "ns"),
    ("scenarios.feasibility_formula_s", "s"),
    ("engine.contraction_modulus_s", "s"),
    ("engine.boundary_miscertified", "count"),
    ("engine.step_s", "s"),
    ("engine.solve_s", "s"),
    ("engine.solve_iters", "count"),
    ("engine.iters_vs_apriori", "ratio"),
    ("engine.iter_overhead_s", "s"),
    ("engine.write_trace_csv_s", "s"),
    ("capacity.sample_region_s", "s"),
    ("capacity.evaluate_predicate_s", "s"),
    ("capacity.predicate_ns_per_point", "ns"),
    ("capacity.compare_regions_s", "s"),
    ("capacity.export_inequalities_s", "s"),
    ("capacity.export_cloud_s", "s"),
    ("capacity.export_mb_per_s", "MB/s"),
    ("trace.traced_op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
# Per-op self time of these spans is reported under the metric name.
SELF_TIME = {
    "cli.load_config_s": "cli.load_config",
    "cli.self_s": ROOT,
    "scenarios.validate_s": "scenarios.validate",
    "scenarios.build_s": "scenarios.build",
    "scenarios.feasibility_formula_s": "scenarios.feasibility_formula",
    "engine.contraction_modulus_s": "engine.contraction_modulus",
    "engine.solve_s": "engine.solve",
    "engine.write_trace_csv_s": "engine.write_trace_csv",
    "capacity.sample_region_s": "capacity.sample_region",
    "capacity.evaluate_predicate_s": "capacity.evaluate_predicate",
    "capacity.compare_regions_s": "capacity.compare_regions",
    "capacity.export_inequalities_s": "capacity.export_inequalities",
    "capacity.export_cloud_s": "capacity.export_cloud",
}


class Runner:
    """Holds the checkout paths, the work directory and the deck's config files."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src
        self._configs: dict[int, str] = {}

    def config_path(self, op: deck.Op) -> str:
        path = self._configs.get(id(op))
        if path is None:
            path = str(self.work / f"config{len(self._configs)}.json")
            with open(path, "w") as fh:
                json.dump(op.doc, fh)
            self._configs[id(op)] = path
        return path

    def outputs(self, op: deck.Op) -> dict[str, str]:
        names = {"trace": op.trace, "out": op.out, "inequalities": op.ineq}
        return {flag: str(self.work / f"{flag}.csv") for flag, on in names.items() if on}

    def argv(self, op: deck.Op) -> list[str]:
        extra = [x for flag, path in self.outputs(op).items() for x in (f"--{flag}", path)]
        return [op.command, self.config_path(op), *op.flags, *extra]

    def spawn(self, args: list[str]) -> dict:
        """Run one child; wall time from spawn to exit, rusage from wait4."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            child = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                     env=self.env, cwd=self.root)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": child.returncode,
            "stdout": out_path.read_text(),
            "stderr": err_path.read_text(),
        }

    def check(self, op: deck.Op, code: int, stdout: str, stderr: str, sample_seed: int):
        paths = self.outputs(op)
        try:
            if op.command == "check":
                return check.check_admit(op.doc, code, stdout, stderr)
            if op.command == "solve":
                return check.check_solve(op.doc, code, stdout, stderr, paths.get("trace"))
            return check.check_region(op.doc, op.resolution, op.alpha_max, code, stdout, stderr,
                                      paths["out"], paths.get("inequalities"), sample_seed)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"missing or unreadable output: {exc}"]
        finally:
            for path in paths.values():
                if os.path.exists(path):
                    os.remove(path)

    def closed_loop(self, ops: list[deck.Op], seconds: float) -> tuple[list[dict], list[float]]:
        """Deck ops in order, cycling, until ``seconds`` have passed; one sample per op.

        Every SETUP_EVERY-th op is preceded by a child that only imports
        powerfeas.cli, so the set-up samples spread over the whole run.
        """
        samples: list[dict] = []
        setup: list[float] = []
        self.spawn(IMPORT_ONLY)  # warms the file cache and compiles the bytecode
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            op = ops[len(samples) % len(ops)]
            if len(samples) % SETUP_EVERY == 0:
                setup.append(self.spawn(IMPORT_ONLY)["wall"])
            res = self.spawn(["-m", "powerfeas.cli", *self.argv(op)])
            res["op"] = op.label
            res["errors"] = self.check(op, res["code"], res["stdout"], res["stderr"],
                                       self.seed * 7919 + len(samples))
            del res["stdout"], res["stderr"]
            samples.append(res)
        return samples, setup

    def boundary_probe(self) -> tuple[int, int, list[str]]:
        ops = deck.boundary_deck(self.seed)
        wrong = []
        for op in ops:
            res = self.spawn(["-m", "powerfeas.cli", *self.argv(op)])
            errors = check.check_boundary(op.doc, res["code"], res["stdout"])
            wrong += [f"{op.label}: {e}" for e in errors]
        return len(wrong), len(ops), wrong


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and its value.

    With TAIL_BEYOND samples or fewer no percentile qualifies; the smallest
    sample is returned then.
    """
    ordered = sorted(values)
    k = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * k / len(ordered), ordered[k - 1]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"


def traced_replay(runner: Runner, workload: str, own: list[deck.Op]) -> tuple[dict, dict, int, int]:
    """Replay the ops the untraced loop ran, plus the companion ops, in-process with spans.

    Returns per-metric value lists for the own ops and for the companions,
    and the attempted/failed op counts.
    """
    sys.path.insert(0, str(runner.root / "src"))
    from powerfeas import capacity, cli

    companions = [deck.deck(w, runner.seed)[i] for w, i in COMPANION.items() if w != workload]
    tracer = Tracer()
    tracer.install({"cli": cli, "capacity": capacity})
    own_vals: dict[str, list[float]] = {}
    comp_vals: dict[str, list[float]] = {}
    failed = 0
    try:
        for i, op in enumerate(own + companions):
            vals = own_vals if i < len(own) else comp_vals
            argv = runner.argv(op)
            code, stdout, stderr, op_id = tracer.run_main(cli.main, argv)
            results = dict(tracer.results)
            cloud = runner.outputs(op).get("out")
            cloud_bytes = os.path.getsize(cloud) if cloud and os.path.exists(cloud) else 0
            errors = runner.check(op, code, stdout, stderr, runner.seed * 7919 + 104729 + i)
            failed += bool(errors)
            for e in errors:
                print(f"FAILED traced {op.label}: {e}")
            for metric, value in layer_values(tracer, op, op_id, results, cloud_bytes).items():
                vals.setdefault(metric, []).append(value)
    finally:
        tracer.uninstall()
    out_dir = runner.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans_{workload}_seed{runner.seed}.jsonl")
    return own_vals, comp_vals, len(own) + len(companions), failed


def layer_values(tracer: Tracer, op: deck.Op, op_id: int, results: dict,
                 cloud_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced op."""
    st = tracer.self_times(op_id)
    vals = {metric: st[span] for metric, span in SELF_TIME.items() if span in st}
    vals["trace.traced_op_s"] = tracer.total(op_id, ROOT)
    if "scenarios.build_s" in vals:
        k = 1 if op.doc["scenario"] in ("single_cell", "fixed_assignment") else op.receivers
        vals["scenarios.build_ns_per_weight"] = vals["scenarios.build_s"] * 1e9 / (
            op.n * (op.n - 1) * k)
    system = results.get("scenarios.build")
    solved = results.get("engine.solve")
    if system is not None:
        x = solved[0].as_array() if solved is not None else np.ones(system.n)
        times: list[float] = []
        while len(times) < STEP_REPEATS or (sum(times) < STEP_BUDGET_S and len(times) < 50):
            start = time.perf_counter()
            system.step(x)
            times.append(time.perf_counter() - start)
        vals["engine.step_s"] = statistics.median(times)
    if solved is not None:
        iters = solved[1].iterations_used
        vals["engine.solve_iters"] = float(iters)
        vals["engine.iter_overhead_s"] = vals["engine.solve_s"] / iters - vals["engine.step_s"]
        t = check.update_map(op.doc)
        x0 = np.zeros(op.n)
        if "--init" in op.flags:
            x0[:] = float(op.flags[op.flags.index("--init") + 1])
        delta0 = float(np.abs(t(x0) - x0).max())
        lam = float(check.moduli(op.doc).max())
        tol = op.doc.get("solver", {}).get("tolerance", 1e-10)
        vals["engine.iters_vs_apriori"] = iters / check.apriori_iterations(lam, delta0, tol)
    if "capacity.evaluate_predicate_s" in vals:
        calls = tracer.calls(op_id, "capacity.evaluate_predicate")
        vals["capacity.predicate_ns_per_point"] = vals["capacity.evaluate_predicate_s"] * 1e9 / (
            calls * op.resolution ** op.n)
    if "capacity.export_cloud_s" in vals:
        vals["capacity.export_mb_per_s"] = cloud_bytes / 1e6 / vals["capacity.export_cloud_s"]
    return vals


def measure(workload: str, seed: int, seconds: float, traced: bool, root: Path,
            work: Path) -> dict:
    runner = Runner(root, work, seed)
    ops = deck.deck(workload, seed)
    for op in ops:
        runner.config_path(op)
    loop_start = time.perf_counter()
    samples, setup = runner.closed_loop(ops, seconds / 2 if traced else seconds)
    loop_s = time.perf_counter() - loop_start
    walls = [s["wall"] for s in samples]
    failed = sum(bool(s["errors"]) for s in samples)
    attempted = len(samples)
    for s in samples:
        for e in s["errors"]:
            print(f"FAILED {s['op']}: {e}")
    miscertified, probed, wrong = runner.boundary_probe()

    setup_s = statistics.median(setup)
    op_p50 = statistics.median(walls)
    pct, tail_value = tail(walls)
    print(f"workload {workload}, seed {seed}, {len(ops)} ops per cycle, "
          f"{attempted / len(ops):.2f} cycles in {loop_s:.1f} s, closed loop with 1 client")
    print(f"machine: {len(os.sched_getaffinity(0))} cores, python {platform.python_version()}, "
          f"numpy {np.__version__}; thread env "
          + ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS))
    print(f"setup_s = {setup_s:.6f} s  ({quartiles(setup)})")
    print(f"op_p50_s = {op_p50:.6f} s  ({quartiles(walls)})")
    print(f"op_tail_s = {tail_value:.6f} s  (p{pct:.1f} of n={len(walls)}, "
          f"{len(walls) - round(pct * len(walls) / 100)} samples beyond)")
    print(f"peak_rss_mb = {max(s['rss_mb'] for s in samples):.1f} MB")
    print(f"failed_ops_frac = {failed / attempted:.4f}  ({failed} of {attempted} ops)")
    print(f"boundary probe: {miscertified} of {probed} exact-boundary configs certified wrongly")
    for line in wrong:
        print(f"  {line}")
    for label in dict.fromkeys(s["op"] for s in samples):
        mine = [s["wall"] for s in samples if s["op"] == label]
        print(f"  {label}: wall median {statistics.median(mine):.4f} s over {len(mine)}")

    if not traced:
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": op_p50,
            "op_tail_s": tail_value,
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
        }
        units = dict(END_TO_END)
    else:
        replayed = [ops[i % len(ops)] for i in range(len(samples))]
        own, comp, t_attempted, t_failed = traced_replay(runner, workload, replayed)
        attempted += t_attempted
        failed += t_failed
        metrics = {}
        for name, _ in PER_LAYER:
            values = own.get(name) or comp.get(name)
            if values:
                metrics[name] = statistics.median(values)
                where = "" if own.get(name) else " (companion ops)"
                print(f"{name} = {metrics[name]:.6g}  ({quartiles(values)}){where}")
        metrics["cli.op_cpu_s"] = statistics.median(s["cpu"] for s in samples)
        metrics["engine.boundary_miscertified"] = float(miscertified)
        metrics["trace.untraced_op_s"] = op_p50 - setup_s
        metrics["trace.overhead_ratio"] = metrics["trace.traced_op_s"] / metrics["trace.untraced_op_s"]
        for name, _ in PER_LAYER:
            if name not in metrics:
                print(f"warning: no traced op reached {name}; reported as 0")
                metrics[name] = 0.0
        for name in ("cli.op_cpu_s", "trace.untraced_op_s", "trace.overhead_ratio"):
            print(f"{name} = {metrics[name]:.6g}")
        units = dict(PER_LAYER)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=deck.DECKS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "powerfeas" / "cli.py").is_file():
        print(f"error: no powerfeas source under {root / 'src'}", file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".bench_work"))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
