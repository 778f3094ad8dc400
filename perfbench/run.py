"""fqlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  Every repetition runs one CLI
command in a fresh interpreter (child.py), one at a time, so the
lru_caches start empty as on every real call; --jobs 1 keeps the sweep in
that one process.  The workload seed is N mod 16, the seeds whose
reference outputs are committed; it goes to the command's --seed, or into
the sweep config's seed list.

Repetitions come in pairs: the same command run by the checkout's fqlab
and by the frozen reference copy in reference/src, back to back, in
alternating order.  Times are CPU seconds of the child, and each is
reported as the program's time over its pair's reference time, times the
reference's own time in REF_CPU_S: the program's time on the machine, at
the speed it had when the benchmark was defined.  The host's speed, which
drifts by more than the bounds for minutes at a time, cancels out.

With --trace 0 the run reports the end-to-end metrics: cli_ref_s, the
median time of fqlab.cli.main(argv); setup_s, the median time from
starting the interpreter to having imported fqlab.cli; and peak_rss_mb,
the median peak RSS of a repetition.  With --trace 1 the program's
repetitions alternate untraced and traced, and the run reports the
per-layer metrics of the traced ones (spans.py) plus trace.overhead_s.
The program's output is checked against its reference records
(references.py); a failed check or nonzero exit counts in "failed".  The
reference copy must exit 0 with every verdict holding, or the run stops.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import references
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
CHILD = BENCH / "child.py"
SWEEP_CONFIG = BENCH / "sweep_allchecks.json"

# Pairs of import-only children per run, after one discarded warm-up each
# that also compiles the packages' bytecode in a fresh checkout.
SETUP_PROBES = 5
MIN_PAIRS = 4
CHILD_TIMEOUT_S = 120
# Children may write bytecode under src/, whatever the caller's setting, so
# set-up time is that of loading compiled modules, as an installed package
# does, and the warm-up is the only interpreter that compiles.  Numerical
# libraries get one thread, so a child's CPU time is the work of the one
# thread that waits for it.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# Scale of the results: about the reference copy's CPU seconds for its
# import ("setup") and for each workload's main() on the 2-vCPU Xeon VM
# the benchmark was written on, when its reference records were captured.
REF_CPU_S = {
    "setup": 0.25,
    "fcount-sparse": 1.6,
    "fcount-dense": 1.6,
    "verify": 3.1,
    "sweep-allchecks": 1.2,
}


def _sweep_args(seed: int, work: Path) -> list[str]:
    config = json.loads(SWEEP_CONFIG.read_text(encoding="utf-8"))
    config["seeds"] = [5 * seed + s for s in config["seeds"]]
    path = work / "sweep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return ["sweep", "--config", str(path), "--jobs", "1"]


# name -> CLI arguments for a workload seed, before --out.
WORKLOADS = {
    "fcount-sparse": lambda seed, work: [
        "fcount", "--q", "83", "--dim", "2", "--gen", "random:1t", "--seed", str(seed),
    ],
    "fcount-dense": lambda seed, work: [
        "fcount", "--q", "59", "--dim", "2", "--gen", "all", "--seed", str(seed),
    ],
    "verify": lambda seed, work: [
        "verify", "--q", "11", "--dim", "3", "--trials", "5", "--seed", str(seed),
    ],
    "sweep-allchecks": _sweep_args,
}


@dataclass
class Rep:
    rc: int
    setup_s: float
    setup_cpu_s: float = 0.0
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    output: str | None = None
    spans: list | None = None
    error: str = ""


@dataclass
class Pair:
    ref: Rep
    prog: Rep
    ref_first: bool
    traced: bool = False


def run_pair(i: int, ref, prog, traced: bool = False) -> Pair:
    """The i-th pair of a run, in the order ABBA BAAB..., so that neither
    copy always runs first, nor always traced or untraced."""
    ref_first = i % 4 in (0, 3)
    if ref_first:
        return Pair(ref(), prog(), ref_first, traced)
    prog_rep = prog()
    return Pair(ref(), prog_rep, ref_first, traced)


@contextlib.contextmanager
def work_dir():
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as path:
        yield Path(path)


def _spawn(work: Path, root: Path, trace: bool, cli_args: list[str]) -> Rep:
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(root), str(result_path), str(int(trace)), *cli_args],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        return Rep(rc=-1, setup_s=0.0, error=f"timed out after {CHILD_TIMEOUT_S} s")
    if not result_path.exists():
        return Rep(rc=proc.returncode or -1, setup_s=0.0, error=proc.stderr.strip()[-500:])
    res = json.loads(result_path.read_text(encoding="utf-8"))
    return Rep(
        rc=proc.returncode,
        setup_s=res["imported_at"] - started,
        setup_cpu_s=res["setup_cpu_s"],
        wall_s=res.get("wall_s"),
        cpu_s=res.get("cpu_s"),
        peak_rss_mb=res.get("peak_rss_mb"),
        spans=res.get("spans"),
        error=proc.stderr.strip()[-500:],
    )


def probe(work: Path, root: Path = ROOT) -> Rep:
    """One import-only interpreter."""
    rep = _spawn(work, root, False, [])
    if rep.rc != 0:
        raise RuntimeError(f"cannot import fqlab.cli from {root}: {rep.error}")
    return rep


def invoke(name: str, seed: int, work: Path, trace: bool, root: Path = ROOT) -> Rep:
    """One repetition of a workload; rep.output holds the records written."""
    out = work / "out.jsonl"
    out.unlink(missing_ok=True)
    rep = _spawn(work, root, trace, WORKLOADS[name](seed, work) + ["--out", str(out)])
    if out.exists():
        rep.output = out.read_text(encoding="utf-8")
    return rep


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    expected = references.load(name)[seed]
    with work_dir() as work:
        probe(work, REFERENCE)  # warm-ups, discarded
        probe(work)
        started = time.monotonic()
        setups = [
            run_pair(i, lambda: probe(work, REFERENCE), lambda: probe(work))
            for i in range(SETUP_PROBES)
        ]
        pairs: list[Pair] = []
        failures: list[str] = []
        while True:
            now = time.monotonic()
            typical = (now - started) / len(pairs) if pairs else 0.0
            # Stop at the pair whose end lies nearest the deadline, and never
            # start one after it, so a hung child cannot push the run past
            # CHILD_TIMEOUT_S beyond --seconds.
            deadline = started + seconds
            if now > deadline or (len(pairs) >= MIN_PAIRS and now + typical / 2 > deadline):
                break
            traced = trace and len(pairs) % 2 == 1
            pair = run_pair(
                len(pairs),
                lambda: invoke(name, seed, work, False, REFERENCE),
                lambda: invoke(name, seed, work, traced),
                traced,
            )
            ref, prog = pair.ref, pair.prog
            if ref.rc != 0 or references.verdict_problems(ref.output or ""):
                raise RuntimeError(f"the reference copy failed: exit {ref.rc} {ref.error}")
            problems = references.check(expected, prog.rc, prog.output)
            if problems:
                failures.append("; ".join(problems[:3]) + (f" [{prog.error}]" if prog.error else ""))
            if prog.setup_cpu_s:
                setups.append(pair)
            pairs.append(pair)
    return {"name": name, "setups": setups, "pairs": pairs, "failures": failures}


def _ratios(pairs: list[Pair], attr: str) -> list[float]:
    """Program over reference, pair by pair, where both have the value."""
    out = []
    for pair in pairs:
        prog, ref = getattr(pair.prog, attr), getattr(pair.ref, attr)
        if prog is not None and ref:
            out.append(prog / ref)
    return out


def _ratio(pairs: list[Pair], attr: str) -> float:
    """Program over reference for a run: the geometric mean of the median
    ratio of the pairs run reference-first and that of the pairs run
    program-first.  Of two children run back to back the second is a few
    percent slower on the machine the benchmark was written on; this way
    that cancels, whatever the number of pairs of each order."""
    medians = [
        statistics.median(r)
        for r in (_ratios([p for p in pairs if p.ref_first is first], attr) for first in (True, False))
        if r
    ]
    return math.prod(medians) ** (1 / len(medians)) if medians else 0.0


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    plain = [p for p in run["pairs"] if not p.traced]
    return {
        "cli_ref_s": (REF_CPU_S[run["name"]] * _ratio(plain, "cpu_s"), "s"),
        "setup_s": (REF_CPU_S["setup"] * _ratio(run["setups"], "setup_cpu_s"), "s"),
        "peak_rss_mb": (_median([p.prog.peak_rss_mb for p in plain]), "MiB"),
    }


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    """Layer metrics of the traced repetitions, times rescaled like cli_ref_s."""
    ref_s = REF_CPU_S[run["name"]]
    traced = [p for p in run["pairs"] if p.traced and p.prog.spans is not None and p.ref.cpu_s]
    plain = [p for p in run["pairs"] if not p.traced]
    per_rep = []
    for p in traced:
        factor = ref_s / p.ref.cpu_s
        m = spans.layer_metrics(p.prog.spans)
        per_rep.append({name: m[name] * factor if unit == "s" else m[name]
                        for name, unit in spans.PER_LAYER if name in m})
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "trace.overhead_s":
            value = ref_s * (_ratio(traced, "cpu_s") - _ratio(plain, "cpu_s"))
        else:
            value = _median([m[name] for m in per_rep])
        out[name] = (value, unit)
    return out


def _report(run: dict, metrics: dict, trace: bool) -> None:
    pairs = run["pairs"]
    print(f"pairs: {len(pairs)} ({sum(p.traced for p in pairs)} traced), "
          f"set-up pairs: {len(run['setups'])}")
    plain = [p for p in pairs if not p.traced]
    for label, values in (
        ("reference main() CPU s", [p.ref.cpu_s for p in plain]),
        ("untraced main() CPU s", [p.prog.cpu_s for p in plain]),
        ("untraced main() wall s", [p.prog.wall_s for p in plain]),
        ("untraced / reference CPU", _ratios(plain, "cpu_s")),
        ("reference set-up CPU s", [p.ref.setup_cpu_s for p in run["setups"]]),
        ("set-up CPU s", [p.prog.setup_cpu_s for p in run["setups"]]),
        ("set-up wall s", [p.prog.setup_s for p in run["setups"]]),
        ("set-up / reference CPU", _ratios(run["setups"], "setup_cpu_s")),
    ):
        values = sorted(v for v in values if v is not None)
        if values:
            print(f"{label}: min {values[0]:.4f} median {_median(values):.4f} max {values[-1]:.4f}")
    print(f"fail_frac: {len(run['failures'])}/{len(pairs)}")
    for problem in run["failures"][:5]:
        print(f"  failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    if trace:
        total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYERS)
        fns = sorted(
            ((v, n) for n, (v, u) in metrics.items()
             if u == "s" and n.count(".") == 2),
            reverse=True,
        )
        print("largest function self times (share of traced main()):")
        for value, name in fns[:6]:
            print(f"  {name:<42} {value / total if total else 0.0:7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fqlab" / "cli.py").is_file():
        print(f"error: no fqlab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    seed = args.seed % references.REF_SEEDS
    print(f"workload {args.workload}, seed {args.seed} (workload seed {seed}), "
          f"trace {args.trace}")
    run = measure(args.workload, seed, args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    _report(run, metrics, bool(args.trace))
    attempted, failed = len(run["pairs"]), len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
