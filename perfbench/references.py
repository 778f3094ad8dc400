"""Reference outputs and the output check behind the benchmark's failures.

references/<workload>.json.gz holds, for every workload seed 0..REF_SEEDS-1,
the record file the CLI wrote at the commit that defined the benchmark.
An invocation passes when it exits 0, every record says its verdict holds,
and its records match the reference: the same count, keys and order;
integers, rationals and labels exactly; the floating-point fields, and
numbers inside the free-text detail, to 1e-9 relative (1e-9 absolute near
zero, the tolerance the program's own bound checks use), so a reordered
eigenvalue sum at the 1e-13 level still passes and a wrong answer does not.

    python3 perfbench/references.py

re-captures every reference from the current tree.  Do that only when a
change is meant to alter the records, and say so.
"""

from __future__ import annotations

import gzip
import json
import math
import re
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "references"
REF_SEEDS = 16

FLOAT_FIELDS = frozenset({
    "upper_exact", "upper_asymptotic", "ratio_cubic", "ratio_linear", "lhs", "rhs",
})
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
REL_TOL = ABS_TOL = 1e-9


def load(workload: str) -> dict[int, str]:
    data = json.loads(gzip.decompress((REF_DIR / f"{workload}.json.gz").read_bytes()))
    return {int(seed): text for seed, text in data.items()}


def save(workload: str, outputs: dict[int, str]) -> None:
    REF_DIR.mkdir(exist_ok=True)
    payload = json.dumps({str(s): outputs[s] for s in sorted(outputs)}).encode()
    (REF_DIR / f"{workload}.json.gz").write_bytes(gzip.compress(payload, 9, mtime=0))


def _close(a, b) -> bool:
    return (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
        and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    )


def _same_detail(a: str, b: str) -> bool:
    """Free text equal, integer tokens equal, other numbers close."""
    ta, tb = NUMBER.split(a), NUMBER.split(b)
    if len(ta) != len(tb):
        return False
    for i, (x, y) in enumerate(zip(ta, tb)):
        if i % 2 == 0 or x == y:
            if x != y:
                return False
        elif x.lstrip("-").isdigit() and y.lstrip("-").isdigit():
            return False
        elif not math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False
    return True


def verdict_problems(text: str) -> list[str]:
    """Records whose own verdict fails; empty when every one holds."""
    problems = []
    for i, line in enumerate(text.splitlines()):
        rec = json.loads(line)
        if not isinstance(rec, dict) or rec.get("holds") is not True or rec.get("status") != "ok":
            problems.append(f"record {i}: {line[:120]}")
    if not problems and not text:
        problems.append("no records written")
    return problems


def diff(expected: str, actual: str) -> list[str]:
    """Differences between a reference record file and a new one."""
    if expected == actual:
        return []
    exp = [json.loads(line) for line in expected.splitlines()]
    act = [json.loads(line) for line in actual.splitlines()]
    if len(exp) != len(act):
        return [f"{len(act)} records, reference has {len(exp)}"]
    problems = []
    for i, (e, a) in enumerate(zip(exp, act)):
        if list(e) != list(a):
            problems.append(f"record {i}: keys differ")
            continue
        for key in e:
            x, y = e[key], a[key]
            if key in FLOAT_FIELDS and _close(x, y):
                continue
            if key == "detail" and isinstance(x, str) and isinstance(y, str) and _same_detail(x, y):
                continue
            if x != y or type(x) is not type(y):
                problems.append(f"record {i}: {key} = {y!r}, reference {x!r}")
    return problems


def check(expected: str, rc: int, actual: str | None) -> list[str]:
    """Every reason an invocation's output fails; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    if actual is None:
        return ["no output file"]
    try:
        return verdict_problems(actual) or diff(expected, actual)
    except ValueError as exc:
        return [f"records are not JSON lines: {exc}"]


def main() -> int:
    import run

    with run.work_dir() as work:
        for name in run.WORKLOADS:
            outputs = {}
            for seed in range(REF_SEEDS):
                rep = run.invoke(name, seed, work, trace=False)
                problems = verdict_problems(rep.output or "") if rep.rc == 0 else [f"exit {rep.rc}"]
                if problems:
                    print(f"{name} seed {seed}: {problems[:3]}")
                    return 1
                outputs[seed] = rep.output
                print(f"{name} seed {seed}: {rep.output.count(chr(10))} records, {rep.wall_s:.2f} s", flush=True)
            save(name, outputs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
