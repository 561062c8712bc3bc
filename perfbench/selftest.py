"""Self-test: the benchmark's verdict checks can fail.

    python3 perfbench/selftest.py

Feeds a mutated J entry into the sweep, a wrong expected dimension into
the moduli workload, and a bad exit code and bad JSON into the report
verdict, and requires fail_share > 0 for each; the unmutated sweep and
moduli rounds must give fail_share == 0.  Exits 0 when all of that holds.
"""

import sys

from child import import_nilcomplex


def share(wl, r=0) -> float:
    from workloads import Tally, run_check
    tally = Tally()
    for label, fn in wl.round(r):
        run_check(tally, label, fn)
    return tally.fail_share


def main() -> int:
    import_nilcomplex()
    from workloads import EXPECTED_DIMS, Moduli, Sweep, report_verdict
    wrong = dict(EXPECTED_DIMS, **{"M10": EXPECTED_DIMS["M10"] + 1})
    good_report = '{"target": "M14-1", "all_fail": true, "samples": [%s]}' % ",".join(["{}"] * 20)
    cases = [
        ("sweep, mutated J entry", share(Sweep(1, mutate_j=True)) > 0),
        ("sweep, unmutated", share(Sweep(1)) == 0),
        ("moduli, wrong expected dimension", share(Moduli(1, expected=wrong)) > 0),
        ("moduli, paper's dimensions", share(Moduli(1)) == 0),
        ("report, exit code 1", not report_verdict("M10", 1, "{}")[0]),
        ("report, invalid JSON", not report_verdict("M10", 0, "FAIL: x")[0]),
        ("report, twin verdict", report_verdict("M14-1", 0, good_report)[0]),
    ]
    for label, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
