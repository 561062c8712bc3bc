"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup
        import nilcomplex and build every lazy per-algebra derivation for
        the eleven algebras: the left-invariant fields and, through one
        jacobian_rank call per algebra, the 126 constraint polynomials and
        their 126 x 36 Jacobian.  The parent times the whole process.

    python3 perfbench/child.py cli [--trace-out PREFIX] ARGS...
        run ``nilcomplex ARGS...`` (what the console script runs) and exit
        with its code.  With --trace-out, the run is traced: the spans go
        to PREFIX.jsonl.gz and their per-name summary to PREFIX.json.
        The last line on stderr is the process's own peak RSS.

nilcomplex is imported from the checkout's ``src/``; any other copy is
refused.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RSS_TAG = "perfbench peak_rss_kib "


def peak_rss_kib() -> int:
    """This process's own peak RSS (VmHWM; unlike ru_maxrss it does not
    carry over the parent's RSS through fork and exec)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_nilcomplex():
    """Import nilcomplex from SRC, or exit 2 if it is missing or shadowed."""
    if not os.path.isfile(os.path.join(SRC, "nilcomplex", "__init__.py")):
        sys.stderr.write(f"perfbench: no nilcomplex package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import nilcomplex
    if os.path.dirname(os.path.dirname(os.path.abspath(nilcomplex.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported {nilcomplex.__file__}, not the copy in {SRC}\n")
        raise SystemExit(2)
    return nilcomplex


def setup() -> int:
    import random
    import_nilcomplex()
    from nilcomplex import catalogue, group, moduli
    for e in catalogue.entries():
        group.left_invariant_fields(e.algebra)
        fam = e.families[0]
        J = fam.instantiate(fam.random_admissible(random.Random(0)))
        moduli.jacobian_rank(e.algebra, J)
    return 0


def cli(argv) -> int:
    prefix = None
    if argv[:1] == ["--trace-out"]:
        prefix, argv = argv[1], argv[2:]
    import_nilcomplex()
    from nilcomplex.cli import main
    if prefix is None:
        return main(argv)
    import json
    sys.path.insert(0, HERE)
    from tracer import Tracer
    tracer = Tracer()
    with tracer:
        code = tracer.call("bench.check", main, argv)
    tracer.dump(prefix + ".jsonl.gz")
    with open(prefix + ".json", "w") as f:
        json.dump({"summary": tracer.summary(), "spans": len(tracer.names),
                   "missing": tracer.missing}, f)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        raise SystemExit(setup())
    if sys.argv[1:2] == ["cli"]:
        code = cli(sys.argv[2:])
        sys.stdout.flush()
        sys.stderr.write(f"{RSS_TAG}{peak_rss_kib()}\n")
        raise SystemExit(code)
    sys.stderr.write(__doc__)
    raise SystemExit(2)
