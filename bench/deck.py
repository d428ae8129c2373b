"""Seeded decks of CLI ops, one deck per workload.

A deck is a fixed list of slots. The slot list (scenario kind, size, the
band its modulus lambda falls in, extra flags) is the same for every seed,
so the cost mix of a deck does not move with the seed; the seed draws the
gains, noise, targets and the exact lambda inside each slot's band.
Targets are scaled with the benchmark's own closed form so that every
margin config sits at its drawn lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from check import moduli, update_map

# The workloads BENCHMARK.json lists. ``region`` stays runnable by name; it
# is left out of the list because three workloads do not fit the run-time
# budget at a run length long enough to be steady on a shared 2-core box.
WORKLOADS = ("admit", "solve")
DECKS = ("admit", "solve", "region")

# Region grids: every op samples resolution**4 points.
REGION_RESOLUTION = 16

# (kind, option, N, K, lambda band); option is the coordinate system or the
# multi-connection mode. Infeasible bands start at 1.01 and feasible bands
# end at 0.99, so every margin config has |lambda - 1| >= 0.01.
FEAS = (0.90, 0.99)
INFEAS = (1.01, 1.20)
# Apart from the N=1000 slot, the sizes give every op about the same cost
# (0.3-0.4 s of work after interpreter start on a 2-core machine; single
# cell in original coordinates stays cheaper even at N=999), so the median
# of a run falls inside a dense cluster of equal-cost ops instead of
# between kinds of different cost.
ADMIT_SLOTS = (
    ("macro_diversity", "transformed", 1000, 16, FEAS),
    ("single_cell", "transformed", 999, 1, INFEAS),
    ("multi_connection", "bounded", 230, 10, FEAS),
    ("fixed_assignment", None, 760, 8, INFEAS),
    ("macro_diversity", "original", 240, 16, FEAS),
    ("multi_connection", "exact_noiseless", 210, 10, INFEAS),
    ("single_cell", "original", 999, 1, FEAS),
    ("macro_diversity", "transformed", 370, 6, INFEAS),
    ("fixed_assignment", None, 820, 4, FEAS),
    ("multi_connection", "exact_noiseless", 220, 8, FEAS),
    ("macro_diversity", "original", 470, 4, INFEAS),
    ("multi_connection", "bounded", 280, 6, INFEAS),
    ("single_cell", "transformed", 999, 1, FEAS),
    ("macro_diversity", "transformed", 330, 7, FEAS),
    ("fixed_assignment", None, 780, 8, FEAS),
    ("multi_connection", "exact_noiseless", 225, 8, INFEAS),
    ("single_cell", "original", 999, 1, INFEAS),
    ("macro_diversity", "original", 245, 16, INFEAS),
    ("multi_connection", "bounded", 235, 10, INFEAS),
    ("fixed_assignment", None, 830, 6, INFEAS),
)
# The N=1000 op costs as much as twenty others. A deck cycle runs every other
# slot twice, with fresh draws, so the big op takes a smaller share of a run
# and the median rests on more samples.
ADMIT_DECK = ADMIT_SLOTS[:1] + ADMIT_SLOTS[1:] * 2

# Solve slots all have N=200. Slot s draws lambda within LAMBDA_HALF_WIDTH of
# its centre, all centres inside [0.90, 0.97]. The iteration count grows
# like 1/(1 - lambda), so the centres trade it against each kind's cost per
# iterate: macro-diversity steps and trace rows cost most and take the low
# centres. Every op then costs about the same, and the median and tail of a
# run do not jump between kinds. ``extra`` is "trace", "init" or None.
SOLVE_N = 200
LAMBDA_HALF_WIDTH = 0.0015
SOLVE_SLOTS = (
    ("macro_diversity", "transformed", 8, None, 0.922),
    ("macro_diversity", "transformed", 8, "trace", 0.9015),
    ("macro_diversity", "transformed", 8, "init", 0.92),
    ("single_cell", "transformed", 1, None, 0.966),
    ("fixed_assignment", None, 4, "trace", 0.966),
    ("single_cell", "original", 1, "init", 0.965),
    ("macro_diversity", "transformed", 8, None, 0.922),
    ("fixed_assignment", None, 4, None, 0.965),
    ("single_cell", "transformed", 1, "trace", 0.96),
    ("macro_diversity", "transformed", 8, "init", 0.92),
    ("fixed_assignment", None, 4, "init", 0.965),
    ("single_cell", "original", 1, None, 0.9685),
    ("fixed_assignment", None, 4, "trace", 0.966),
    ("macro_diversity", "transformed", 8, "trace", 0.9015),
)

# Region slots: (kind, option, K); all N=4. Each predicate runs on four seeded gain sets.
REGION_SLOTS = (
    ("macro_diversity", "transformed", 3),
    ("multi_connection", "bounded", 16),
    ("multi_connection", "exact_noiseless", 16),
) * 4

# A known float-rounding reproducer: the exact leave-one-out sum of the first
# five targets is 1, but float summation gives 0.9999999999999999.
REPRODUCER = (
    float.fromhex("0x1.e24eb939af6e5p-3"), float.fromhex("0x1.06e9717d03828p-3"),
    float.fromhex("0x1.79516687cae45p-3"), float.fromhex("0x1.cc3503b88bd02p-3"),
    float.fromhex("0x1.d1416b08f65acp-3"), 0.1,
)


@dataclass
class Op:
    """One CLI call: ``powerfeas <command> <config> <flags...>``.

    ``trace``/``out``/``ineq`` mark the output files the op writes; the
    runner substitutes paths in a temporary directory.
    """

    label: str
    command: str
    doc: dict
    flags: list[str] = field(default_factory=list)
    trace: bool = False
    out: bool = False
    ineq: bool = False
    resolution: int = 0
    alpha_max: float = 0.0

    @property
    def n(self) -> int:
        return len(self.doc["alphas"])

    @property
    def receivers(self) -> int:
        kind = self.doc["scenario"]
        if kind == "single_cell":
            return 1
        if kind == "macro_diversity":
            return len(self.doc["gains"][0])
        return len(self.doc["gains"])


def scenario_doc(rng: np.random.Generator, kind: str, option, n: int, k: int) -> dict:
    """A random config of one kind with unit-scale targets (lambda not yet set)."""
    doc: dict = {"scenario": kind, "alphas": rng.uniform(0.5, 1.5, n).tolist()}
    if kind == "single_cell":
        doc.update(gains=rng.uniform(0.2, 1.0, n).tolist(), sigma=float(rng.uniform(0.5, 1.5)),
                   coordinates=option)
        return doc
    sigma = rng.uniform(0.5, 1.5, k).tolist()
    if kind == "macro_diversity":
        doc.update(gains=rng.uniform(0.05, 1.0, (n, k)).tolist(), sigma=sigma, coordinates=option)
        return doc
    gains = rng.uniform(0.05, 1.0, (k, n))
    if kind == "fixed_assignment":
        assignment = rng.integers(0, k, n)
        gains[assignment, np.arange(n)] *= 4.0  # a terminal hears its own receiver best
        doc.update(gains=gains.tolist(), sigma=sigma, assignment=(assignment + 1).tolist())
        return doc
    d = rng.integers(1, min(3, k) + 1, n)
    doc.update(gains=gains.tolist(), sigma=sigma, d=d.tolist(), mode=option)
    return doc


def at_modulus(doc: dict, lam: float) -> dict:
    """Rescale the targets so the config's closed-form modulus is ``lam``."""
    a = np.asarray(doc["alphas"]) * (lam / float(moduli(doc).max()))
    return dict(doc, alphas=a.tolist())


def admit_deck(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 0])
    ops = []
    for s, (kind, option, n, k, band) in enumerate(ADMIT_DECK):
        doc = at_modulus(scenario_doc(rng, kind, option, n, k), rng.uniform(*band))
        ops.append(Op(f"admit{s}:{kind}:{option}:N{n}K{k}", "check", doc, ["--json"]))
    return ops


def solve_deck(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for s, (kind, option, k, extra, centre) in enumerate(SOLVE_SLOTS):
        lam = centre + rng.uniform(-LAMBDA_HALF_WIDTH, LAMBDA_HALF_WIDTH)
        doc = scenario_doc(rng, kind, option, SOLVE_N, k)
        if kind == "fixed_assignment" or option == "original":
            # Terminal i's modulus is alpha_i times a constant here; equal
            # moduli make lambda the spectral radius, so the iteration count
            # follows lambda instead of one outlier row.
            doc["alphas"] = (np.asarray(doc["alphas"]) / moduli(doc)[0]).tolist()
        doc = at_modulus(doc, lam)
        op = Op(f"solve{s}:{kind}:{option}:N{SOLVE_N}K{k}:{extra}", "solve", doc, ["--json"])
        if extra == "trace":
            op.trace = True
        elif extra == "init":
            # ||p*|| <= ||T(0)|| / (1 - lambda): start above every fixed-point power.
            c = update_map(doc)(np.zeros(SOLVE_N))
            op.flags += ["--init", repr(1.5 * float(c.max()) / (1.0 - lam))]
        ops.append(op)
    return ops


def diagonal_boundary(doc: dict) -> float:
    """The a at which the diagonal point a*(1,...,1) leaves the region."""
    ones = np.ones((1, len(doc["alphas"])))
    return 1.0 / float(moduli(dict(doc, coordinates="transformed"), ones).max())


def region_deck(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for s, (kind, option, k) in enumerate(REGION_SLOTS):
        doc = scenario_doc(rng, kind, option, 4, k)
        # About twice the diagonal boundary keeps the feasible share of the
        # grid away from both 0 and 1. The factor is drawn so that no axis
        # value lands on the diagonal boundary itself, where float and exact
        # arithmetic can disagree (that case belongs to the boundary probe).
        alpha_max = rng.uniform(1.8, 2.2) * diagonal_boundary(doc)
        op = Op(f"region{s}:{kind}:{option}:N4K{k}", "region", doc,
                ["--resolution", str(REGION_RESOLUTION), "--alpha-max", repr(alpha_max),
                 "--compare", "hanly"],
                out=True, ineq=option != "exact_noiseless",
                resolution=REGION_RESOLUTION, alpha_max=alpha_max)
        ops.append(op)
    return ops


def deck(workload: str, seed: int) -> list[Op]:
    return {"admit": admit_deck, "solve": solve_deck, "region": region_deck}[workload](seed)


def boundary_deck(seed: int) -> list[Op]:
    """Single-cell configs whose exact modulus is 1, decided with Fraction.

    The reproducer, a dyadic config whose float sums are exact, one in
    original coordinates, and two seeded configs whose last large target
    is chosen to make the exact leave-one-out sum 1.
    """
    rng = np.random.default_rng([seed, 3])
    targets = [list(REPRODUCER), [0.5, 0.25, 0.125, 0.0625, 0.0625, 0.03125]]
    while len(targets) < 4:
        head = rng.uniform(0.15, 0.20, 4).tolist()
        last = 1 - sum(Fraction(v) for v in head)
        if float(last) == last:  # exactly representable, so the exact sum is 1
            targets.append(head + [float(last), 0.05])
    docs = [{"scenario": "single_cell", "alphas": a, "gains": [1.0] * len(a), "sigma": 1.0,
             "coordinates": "transformed"} for a in targets]
    docs.append({"scenario": "single_cell", "alphas": [0.25] * 5, "gains": [1.0] * 5,
                 "sigma": 1.0, "coordinates": "original"})
    return [Op(f"boundary{i}", "check", doc, ["--json"]) for i, doc in enumerate(docs)]
