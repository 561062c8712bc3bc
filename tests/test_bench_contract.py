"""The benchmark's contract with the library.

perfbench/workloads.py drives the package through its public entry points
and knows every verdict in advance.  One round of each in-process workload
must pass, and so must the moduli checks at the points where the float
rank of the constraint Jacobian falls short of the exact rank.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", [workloads.Sweep, workloads.Group, workloads.Moduli],
                         ids=lambda w: w.name)
def test_first_round_passes(workload):
    w = workload(1)
    w.warm()
    for label, check in w.round(0):
        assert check() is True, label


@pytest.mark.parametrize("seed, r, name", [(3, 26, "G6,4"), (4, 8, "G6,7"), (9, 2, "M18+1")])
def test_moduli_check_where_the_svd_misses_rank(seed, r, name):
    checks = dict(workloads.Moduli(seed).round(r))
    assert checks[f"moduli {name}"]() is True
