"""Shows that the benchmark's output checks catch corrupted outputs.

Run from the repository root:

    python3 bench/selftest.py

On the wide-pool workload it runs one clean pass, which must fail nothing,
then one pass per corruption: a cache pair entropy, one ensemble's alpha and
one ensemble's accuracy are each nudged after the stage that wrote them.
Every corruption must fail that stage's check and count as a failed
operation.  Exits 0 when all of this holds, 1 otherwise.
"""

import os
import shutil
import sys

import run  # sets the BLAS thread count and imports the package from src/


def _nudge_field(path, row, column, delta):
    """Add ``delta`` to one comma-separated field of one line of a file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    parts = lines[row].split(",")
    parts[column] = repr(float(parts[column]) + delta)
    lines[row] = ",".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _pair_row(path):
    with open(path, encoding="utf-8") as fh:
        return next(i for i, ln in enumerate(fh) if ln.startswith("pair,"))


# name -> (stage whose output is corrupted, corruption of that output file)
CORRUPTIONS = {
    "cache pair entropy": ("pairwise", lambda p: _nudge_field(p, _pair_row(p), 4, 1e-6)),
    "alpha": ("score", lambda p: _nudge_field(p, 7, 1, 1e-6)),
    "accuracy": ("score", lambda p: _nudge_field(p, 7, 2, -1.0 / 200)),
}


class CorruptingRunner(run.Runner):
    corrupt = None  # (stage, function of the output path) or None

    def run_stage(self, stage):
        result = super().run_stage(stage)
        if self.corrupt and self.corrupt[0] == stage:
            self.corrupt[1](self.out[stage])
        return result


def main():
    work = os.path.join(os.getcwd(), ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    ok = True
    try:
        runner = CorruptingRunner("wide-pool", 1, work, None)
        _, ops, failed = runner.one_pass()
        print(f"clean pass: {failed}/{ops} failed")
        ok = failed == 0 and not runner.failures
        for name, corrupt in CORRUPTIONS.items():
            runner.failures = []
            runner.corrupt = corrupt
            _, ops, failed = runner.one_pass()
            stages = [stage for stage, _ in runner.failures]
            caught = stages == [corrupt[0]] and failed >= 1
            print(f"{name}: {'caught' if caught else 'MISSED'} in {stages}, "
                  f"{failed}/{ops} failed")
            ok = ok and caught
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
