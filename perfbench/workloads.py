"""The four benchmark workloads and their known answers.

A workload is a list of rounds; a round is a list of checks.  A check is
one unit of work with a verdict that is known in advance (from the paper
or from algebra, never from the code under test):

- ``sweep``: one seeded family sample, sample -> instantiate -> J^2 = -1 ->
  Nijenhuis, which must be integrable; or one borrowed-family sample on a
  gamma = -1 twin, which must not be.
- ``group``: one associativity triple with the inverse law on one algebra,
  one M5 engine-vs-3x3-matrix-model pair, or one closed-form chart
  multiplication pair.
- ``moduli``: one ``dimension_report`` sample on the first family of an
  algebra; the family rank must equal the number of continuous parameters
  and the tangent dimension the paper's table, or, at a special point, be
  larger and equal 36 minus the exact rank of the exact Jacobian.
- ``report``: one ``nilcomplex report <A> --json`` in a fresh process
  (see ``run.py``); every section must pass.

Every round of a workload covers the same units (all families, all
algebras, all charts) in a seeded order with seeded draws, so rounds carry
the same mix of work whatever the seed.  Only public entry points that the
acceptance tests use are called.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from nilcomplex import acs, catalogue, charts, group, moduli

from child import RSS_TAG

# Tangent dimensions of the moduli sets (the paper's table).
EXPECTED_DIMS: Dict[str, int] = {
    "G6,3": 12, "G6,1": 12, "M5": 12, "G6,7": 10, "G6,4": 10, "G6,6": 10,
    "G6,5": 10, "G6,8": 10, "M10": 10, "M14+1": 8, "M18+1": 8,
}
TWINS = ("M14-1", "M18-1")
REPORT_SECTIONS = ("family integrability sweep", "representative tables",
                   "automorphism families", "holomorphic charts & multiplication",
                   "moduli dimension")
MODULI_TOL = 1e-9

Check = Tuple[str, Callable[[], bool]]


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _coords(rng: random.Random) -> List[Fraction]:
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]


# -- sweep ------------------------------------------------------------------


def _family_check(entry, fam, seed: int, mutate_j: bool) -> bool:
    values = fam.random_admissible(random.Random(seed))
    J = fam.instantiate(values)
    if mutate_j:
        J.m[0][0] += 1  # no longer a complex structure
    return J.square_check() and acs.is_integrable(entry.algebra, J)


def _twin_check(name: str, seed: int) -> bool:
    rep = catalogue.nonexistence_spotcheck(name, samples=1, seed=seed)
    return len(rep["samples"]) == 1 and not rep["samples"][0]["integrable"]


class Sweep:
    name = "sweep"
    traced_rounds = 10

    def __init__(self, seed: int, mutate_j: bool = False):
        self.seed = seed
        self.mutate_j = mutate_j
        self.units = [(e, f) for e in catalogue.entries() for f in e.families if f.samplable]

    def input_size(self) -> Dict:
        return {"families": len(self.units), "twins": len(TWINS),
                "checks_per_round": len(self.units) + len(TWINS)}

    def warm(self) -> None:
        pass

    def round(self, r: int) -> List[Check]:
        rng = _rng(self.name, self.seed, r)
        checks: List[Check] = []
        for e, fam in self.units:
            s = rng.getrandbits(32)
            checks.append((f"{e.name}/{fam.name}",
                           lambda e=e, fam=fam, s=s: _family_check(e, fam, s, self.mutate_j)))
        for name in TWINS:
            s = rng.getrandbits(32)
            checks.append((name, lambda name=name, s=s: _twin_check(name, s)))
        rng.shuffle(checks)
        return checks


# -- group ------------------------------------------------------------------


def _triple_check(L, a, b, c) -> bool:
    assoc = group.multiply(L, a, group.multiply(L, b, c)) == \
        group.multiply(L, group.multiply(L, a, b), c)
    return assoc and group.multiply(L, group.inverse(L, a), a) == [0] * 6


def _m5_pair_check(L, a, x) -> bool:
    lhs = group.multiply(L, group.normal_order(L, group.m5_natural_to_word(a)),
                         group.normal_order(L, group.m5_natural_to_word(x)))
    rhs = group.normal_order(L, group.m5_natural_to_word(group.m5_matrix_multiply(a, x)))
    return lhs == rhs


def _chart_pair_check(entry, rep, values, phis, seed: int) -> bool:
    try:
        charts.verify_chart_multiplication(entry, rep, values, pairs=1, seed=seed, phis=phis)
    except charts.Mismatch:
        return False
    return True


class Group:
    name = "group"
    traced_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.entries = catalogue.entries()
        self.chart_reps = [(e, r) for e in self.entries for r in e.representatives
                           if r.chart is not None]
        self.charts: List[Tuple] = []

    def input_size(self) -> Dict:
        return {"algebras": len(self.entries), "m5_pairs": 1,
                "chart_representatives": len(self.chart_reps),
                "checks_per_round": len(self.entries) + 1 + len(self.chart_reps)}

    def warm(self) -> None:
        """Chart parameter points and chart polynomials, once per run."""
        self.charts = []
        for e, rep in self.chart_reps:
            values = rep.random_admissible(_rng("chart", self.seed, e.name, rep.name),
                                           extra_conditions=rep.chart.conditions)
            self.charts.append((e, rep, values, charts.chart_polys(rep, values)))

    def round(self, r: int) -> List[Check]:
        rng = _rng(self.name, self.seed, r)
        checks: List[Check] = []
        for e in self.entries:
            a, b, c = _coords(rng), _coords(rng), _coords(rng)
            checks.append((f"triple {e.name}",
                           lambda L=e.algebra, a=a, b=b, c=c: _triple_check(L, a, b, c)))
        a, x = _coords(rng), _coords(rng)
        m5 = catalogue.get("M5").algebra
        checks.append(("m5 pair", lambda a=a, x=x: _m5_pair_check(m5, a, x)))
        for e, rep, values, phis in self.charts:
            s = rng.getrandbits(32)
            checks.append((f"chart {e.name}/{rep.name}",
                           lambda e=e, rep=rep, values=values, phis=phis, s=s:
                           _chart_pair_check(e, rep, values, phis, s)))
        rng.shuffle(checks)
        return checks


# -- moduli -----------------------------------------------------------------


def exact_rank(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / top[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _moduli_check(entry, seed: int, expected: Dict[str, int]) -> bool:
    rep = moduli.dimension_report(entry, samples=1, tol=MODULI_TOL, seed=seed,
                                  max_resamples=1)
    s = rep["samples"][0]
    if not (s["family_rank"] == rep["n_free_params"]
            and s["family_rank"] <= s["tangent_dim"] <= 36):
        return False
    if s["tangent_dim"] == expected[entry.name]:
        return True
    # The paper's dimension is the generic one.  At a special point of the
    # moduli set the tangent space is larger; a larger answer is right only
    # if the exact rank of the exact Jacobian there gives it too.
    values = {k: Fraction(v) for k, v in s["params"].items()}
    J = entry.families[0].instantiate(values)
    return (s["tangent_dim"] > expected[entry.name]
            and s["tangent_dim"] == 36 - exact_rank(moduli.jacobian_matrix(entry.algebra, J)))


class Moduli:
    name = "moduli"
    traced_rounds = 2

    def __init__(self, seed: int, expected: Optional[Dict[str, int]] = None):
        self.seed = seed
        self.expected = expected or EXPECTED_DIMS
        self.entries = catalogue.entries()

    def input_size(self) -> Dict:
        return {"algebras": len(self.entries), "tol": MODULI_TOL,
                "checks_per_round": len(self.entries)}

    def warm(self) -> None:
        pass

    def round(self, r: int) -> List[Check]:
        rng = _rng(self.name, self.seed, r)
        checks: List[Check] = []
        for e in self.entries:
            s = rng.getrandbits(32)
            checks.append((f"moduli {e.name}",
                           lambda e=e, s=s: _moduli_check(e, s, self.expected)))
        rng.shuffle(checks)
        return checks


# -- report -----------------------------------------------------------------


def report_verdict(name: str, code: int, out: str) -> Tuple[bool, str]:
    """Exit code 0, valid JSON, and every section (or every twin sample) right."""
    if code != 0:
        return False, f"exit code {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return False, "invalid JSON"
    if name in TWINS:
        ok = (doc.get("target") == name and doc.get("all_fail") is True
              and len(doc.get("samples", ())) == 20)
    else:
        ok = (doc.get("algebra") == name
              and doc.get("sections") == {s: "pass" for s in REPORT_SECTIONS})
    return ok, "" if ok else out[:300]


def peak_rss_line(stderr: str) -> int:
    """The child's own peak RSS in KiB, from the last line child.py writes."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(RSS_TAG):
            return int(line[len(RSS_TAG):])
    return 0


class Report:
    """``nilcomplex report <A> --json`` per algebra and one twin, each cold.

    The command runs as a user types it, with the CLI's default seed; the
    benchmark seed draws the twin and the order.
    """

    name = "report"
    traced_rounds = 1

    def __init__(self, seed: int, child: str, out_dir: str):
        self.seed = seed
        self.child = child
        self.out_dir = out_dir
        self.names = [e.name for e in catalogue.entries()]
        self.peak_rss_kib = 0
        self.trace_children = False
        self.summaries: List[Dict] = []

    def input_size(self) -> Dict:
        return {"algebras": len(self.names), "twins": 1,
                "checks_per_round": len(self.names) + 1}

    def _check(self, name: str, trace_prefix: Optional[str]) -> bool:
        argv = [sys.executable, self.child, "cli"]
        if trace_prefix:
            argv += ["--trace-out", trace_prefix]
        argv += ["report", name, "--json"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170,
                              stdin=subprocess.DEVNULL)
        self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_line(proc.stderr))
        code, out = proc.returncode, proc.stdout
        ok, detail = report_verdict(name, code, out)
        if trace_prefix and code == 0:
            with open(trace_prefix + ".json") as f:
                self.summaries.append(json.load(f))
        if not ok:
            raise AssertionError(detail)
        return True

    def round(self, r: int) -> List[Check]:
        rng = _rng(self.name, self.seed, r)
        names = self.names + [rng.choice(TWINS)]
        rng.shuffle(names)
        checks: List[Check] = []
        for k, name in enumerate(names):
            prefix = os.path.join(self.out_dir, f"spans-report-{self.seed}-{r}-{k}") \
                if self.trace_children else None
            checks.append((f"report {name}",
                           lambda name=name, prefix=prefix: self._check(name, prefix)))
        return checks


WORKLOADS = {"sweep": Sweep, "group": Group, "moduli": Moduli, "report": Report}


# -- running checks ---------------------------------------------------------


class Tally:
    """Verdict counts, per-check latencies and the first failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"{label}: {detail or 'wrong verdict'}"

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_check(tally: Tally, label: str, fn: Callable[[], bool], tracer=None) -> float:
    """Run one check, record its verdict, return its wall time in seconds.

    An exception counts as a failed check; the traceback is kept as detail.
    """
    t0 = time.perf_counter()
    try:
        ok = bool(tracer.call("bench.check", fn) if tracer else fn())
        detail = ""
    except Exception:  # noqa: BLE001 - every error is a failed check
        ok = False
        detail = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    tally.record(label, ok, detail)
    return dt
