"""In-process traced replay of deck ops.

``Tracer.install`` wraps the public functions the CLI calls in each layer
(cli, scenarios, engine, capacity) with span recorders, by rebinding the
names the ``powerfeas.cli`` module looks them up under; ``uninstall`` puts
the originals back. Spans stay in memory until ``dump`` writes them out.
Nothing in powerfeas itself is edited.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field

# (owner attribute path, attribute, span name). Owners are resolved against
# the imported powerfeas.cli / powerfeas.capacity modules.
WRAPPED = (
    ("cli", "load_config", "cli.load_config"),
    ("cli.ScenarioConfig", "scenario", "scenarios.validate"),
    ("cli.ScenarioConfig", "build", "scenarios.build"),
    ("cli", "feasibility_formula", "scenarios.feasibility_formula"),
    ("cli", "contraction_modulus", "engine.contraction_modulus"),
    ("cli", "solve", "engine.solve"),
    ("cli", "write_trace_csv", "engine.write_trace_csv"),
    ("cli", "sample_region", "capacity.sample_region"),
    ("capacity", "evaluate_predicate", "capacity.evaluate_predicate"),
    ("cli", "compare_regions", "capacity.compare_regions"),
    ("cli", "export_inequalities", "capacity.export_inequalities"),
    ("cli", "export_cloud", "capacity.export_cloud"),
)
ROOT = "cli.main"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    results: dict = field(default_factory=dict)  # span name -> last return value
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _op: int = 0

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        s = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
        self.results[name] = result
        return result

    def _wrapper(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapped

    def install(self, modules: dict) -> None:
        for owner_path, attr, name in WRAPPED:
            head, *rest = owner_path.split(".")
            owner = modules[head]
            for part in rest:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_main(self, main, argv: list[str]) -> tuple[int, str, str, int]:
        """Run ``main(argv)`` as one traced op; returns (code, stdout, stderr, op id)."""
        self._op += 1
        self.results.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.span(ROOT, main, argv)
        return code, out.getvalue(), err.getvalue(), self._op

    def self_times(self, op: int) -> dict[str, float]:
        """Per span name, summed self time (duration minus child spans) within one op."""
        spans = [s for s in self.spans if s.op == op]
        child = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return out

    def calls(self, op: int, name: str) -> int:
        return sum(1 for s in self.spans if s.op == op and s.name == name)

    def total(self, op: int, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.op == op and s.name == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
