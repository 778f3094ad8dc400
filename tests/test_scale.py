"""The scale table: fqlab commands at sizes the unit tests do not reach,
each run in a fresh interpreter and held to its exit code, the exact
values its output must show, and its CPU and memory bounds.

A row's CPU bound is on main() alone (time.process_time around the call)
and its RSS bound on the whole process, the import included, so every
row runs in a process of its own.  Each bound keeps
beside it the measurement it rests on; "measured" means on a 2-vCPU VM
with numpy 2.4.  A sweep row writes its records with --out; with jobs2 it
runs again with two workers and must write the same bytes.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

import fqlab

ROOT = Path(__file__).resolve().parents[1]

# main(argv) with its stdout captured, then one JSON line: the exit code,
# main()'s CPU seconds, the process's peak RSS in MiB and the stdout.  On
# Linux the peak is VmHWM, this process image's own: ru_maxrss keeps the
# peak of the process that spawned it across exec, here the test runner's.
CHILD = """\
import contextlib, io, json, resource, sys, time
from fqlab.cli import main
out = io.StringIO()
start = time.process_time()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
cpu = time.process_time() - start
try:
    with open("/proc/self/status") as status:
        peak = int(status.read().split("VmHWM:")[1].split()[0]) / 2**10
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**20  # bytes on macOS
print(json.dumps({"exit": code, "cpu": cpu, "rss": peak, "out": out.getvalue()}))
"""


@dataclasses.dataclass(frozen=True)
class Row:
    argv: tuple[str, ...]
    exit: int = 0
    finds: tuple[str, ...] = ()  # exact substrings of stdout
    oks: int | None = None  # the number of "  ok" lines in stdout
    cpu_s: float | None = None  # bound on main()'s CPU seconds
    rss_mib: float | None = None  # bound on the process's peak RSS
    timeout: float = 60
    config: dict | None = None  # a sweep config, passed as --config FILE
    jobs2: bool = False  # a sweep run again with --jobs 2: the same bytes
    records: Callable[[str], list] | None = None  # the problems of its records


def _frozen_sweep_allchecks(text: str) -> list:
    """The problems of sweep records against the benchmark's frozen
    sweep-allchecks reference at workload seed 0, whose seeds 1..5 are
    those of perfbench/sweep_allchecks.json."""
    spec = importlib.util.spec_from_file_location("references", ROOT / "perfbench/references.py")
    references = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(references)
    return references.check(references.load("sweep-allchecks")[0], 0, text)


def refusal(*argv: str) -> Row:
    # 35 MiB measured, about the import alone, against 282, 205 and
    # 494 MiB when each was drawn or tabulated before it was refused
    return Row(argv, exit=2, rss_mib=48, timeout=30)


# every nonzero radius of F_p^2, p = 3 (mod 4), has valency p + 1, so the
# full space has f = p**2 (p - 1) (p + 1)**2 (test_full_space_f_in_closed_form)
FULL_SPACE_F = {991: 956766251612160, 211: 420199883040, 503: 32262703740288}

GRAPH_CONFIG = {
    "grid": [{"primes": [43], "dims": [3]}, {"primes": [19], "dims": [2]}],
    "generators": ["random:0.5t", "sphere:1"], "seeds": [1, 2, 3],
    "checks": ["spectrum", "variance", "mixing", "hinge"],
}
HEAVY_CONFIG = {
    "grid": [{"primes": [43, 47], "dims": [3]}],
    "generators": ["all", "sphere:1", "box:1t", "random:0.5t", "random:1t", "random:2t"],
    "seeds": [1, 2],
    "checks": ["spectrum", "variance", "mixing", "hinge", "main", "remark"],
}

ROWS = [
    # all-radii spectra at the largest roadmap sizes: 37 and 36 MiB
    # measured, against 42 and 38 MiB when the pairwise profile kept one
    # p x |E| table of squares per coordinate
    Row(("fcount", "--q", "211", "--dim", "2", "--gen", "random:1t", "--seed", "1"),
        rss_mib=60, timeout=120),
    Row(("fcount", "--q", "43", "--dim", "3", "--gen", "random:1t", "--seed", "1"),
        rss_mib=60, timeout=120),
    # in F_991^4, |E|**2 = 10**8 is at the profile guardrail and p**2 <=
    # 10**6 under the table one, so no --force; 79 MiB measured, against
    # 149 MiB with the tables of squares.  f as the int64 route of the
    # oracles gives it
    Row(("fcount", "--q", "991", "--dim", "4", "--gen", "random:10000", "--seed", "1"),
        finds=("\nf=1107659478 ",), rss_mib=100, timeout=120),
    # a sparse set of F_991^3, past the vertex guardrail: spectra from the
    # p x p table
    Row(("fcount", "--q", "991", "--dim", "3", "--gen", "random:2000", "--seed", "1")),
    # all of F_991^2 from its empty complement, no --force: 72 MiB and
    # 0.10 s measured, against 88 MiB and 0.24 s when the norm-class table
    # was a complex 2-D FFT; the closed-form table holds 8 MB and took
    # about 0.01 s of them
    Row(("fcount", "--q", "991", "--dim", "2", "--gen", "all"),
        finds=(f"\nf={FULL_SPACE_F[991]} ",), cpu_s=1, rss_mib=90),
    # all of F_211^2, no per-point table
    Row(("fcount", "--q", "211", "--dim", "2", "--gen", "all"),
        finds=(f"\nf={FULL_SPACE_F[211]} ",), rss_mib=120),
    # all of F_503^2 as one rank array: 54 MiB measured, against 85 MiB
    # when every point was a tuple
    Row(("fcount", "--q", "503", "--dim", "2", "--gen", "all"),
        finds=(f"\nf={FULL_SPACE_F[503]} ",), rss_mib=72),
    # all 9,393,931 points of F_211^3 from a one-atom generator, held once:
    # 117 MiB measured, against 188 MiB when the point set sorted a copy of
    # the atom's 75 MB rank array and kept another, and 259 MiB when the
    # atom was concatenated too
    Row(("fcount", "--q", "211", "--dim", "3", "--gen", "all"), rss_mib=140),
    # theorem checks on all of F_211^3 and a ladder of subsets, each set
    # held once: 118 MiB measured, against 188 MiB when the point set
    # copied the full space's ranks and the ladder keyed it by a copy of
    # its bytes; forced, the ladder's last rung is all of F_211^3 and
    # 117 MiB, against 259 MiB when that rung was a second copy of the space
    Row(("verify", "--q", "211", "--dim", "3", "--checks", "main,remark", "--trials", "2"),
        rss_mib=140),
    Row(("verify", "--q", "211", "--dim", "3", "--checks", "main,remark", "--trials", "2",
         "--force"), rss_mib=140),
    # refusals that come before any draw or O(p) work: |E| = 2,178,890 and
    # 3**13 points, refused from the atom's size before a draw
    refusal("fcount", "--q", "7", "--dim", "14", "--gen", "random:1t"),
    refusal("fcount", "--q", "7", "--dim", "13", "--gen", "box:3"),
    # p = 10,000,019, refused by the table guardrail before the p-entry
    # square-count table or the radii are built
    refusal("fcount", "--q", "10000019", "--dim", "2", "--gen", "random:5"),
    # F_3^1300 and F_3^700, past int64 ranks, refused forced or not before
    # the norm-class table, whose scale and class sizes would overflow
    refusal("spectrum", "--q", "3", "--dim", "1300", "--a", "1"),
    # 3**10000 has 4,772 decimal digits, past Python's default limit of
    # 4,300 for printing an int: refused before the sphere table, where it
    # raised ValueError at the first size printed
    refusal("sphere", "--q", "3", "--dim", "10000"),
    refusal("spectrum", "--q", "3", "--dim", "700", "--a", "1", "--force"),
    refusal("verify", "--q", "3", "--dim", "1300", "--a", "1", "--checks", "spectrum"),
    refusal("verify", "--q", "3", "--dim", "700", "--a", "1", "--checks", "spectrum", "--force"),
    # subset checks on the 1,092,727 vertices of F_103^3, refused by the
    # vertex guardrail before any subset is drawn
    refusal("verify", "--q", "103", "--dim", "3", "--a", "1", "--checks", "mixing"),
    refusal("verify", "--q", "103", "--dim", "3", "--a", "1", "--checks", "hinge"),
    # 5,000,008 records, refused by the record guardrail before any work;
    # unguarded, every record was held, about 30 MiB more per 1,000
    # trials, until a MemoryError under a 2 GB address-space limit
    refusal("verify", "--q", "7", "--dim", "2", "--trials", "100000"),
    # the spectrum recheck and the subset checks at p=43, d=3 hold no
    # neighbor table; ten trials span several stacks of degree columns,
    # and without spectrum the transforms are gathered from the table,
    # with no sphere FFT
    Row(("verify", "--q", "43", "--dim", "3", "--a", "1", "--trials", "3",
         "--checks", "spectrum,variance,mixing,hinge", "--seed", "1")),
    Row(("verify", "--q", "43", "--dim", "3", "--a", "1", "--trials", "10",
         "--checks", "spectrum,variance,mixing,hinge", "--seed", "1")),
    Row(("verify", "--q", "43", "--dim", "3", "--a", "1", "--trials", "10",
         "--checks", "variance,mixing,hinge", "--seed", "1")),
    # subset checks on the 571,787 vertices of F_83^3, one check's draws
    # held at a time: 86 MiB measured, against 104 MiB when the draws of
    # all three checks were held together and each was sorted as a copy
    Row(("verify", "--q", "83", "--dim", "3", "--a", "1", "--trials", "5",
         "--checks", "variance,mixing,hinge"), rss_mib=92),
    # every radius of F_83^3 rechecked from the (norm, dot) count tables:
    # 0.012 s measured, against 4.4 s when each of the 82 radii was
    # rechecked by an FFT over F_83^3
    Row(("spectrum", "--q", "83", "--dim", "3"), oks=82, cpu_s=1),
    # every radius of F_211^3, past the vertex guardrail, without --force:
    # 40 MiB measured, p x p tables only, where one FFT over the 9.4
    # million points of F_211^3 would hold 150 MB of complex values
    Row(("spectrum", "--q", "211", "--dim", "3"), oks=210, rss_mib=52),
    # graph checks at p=43, d=3
    Row(("sweep",), config=GRAPH_CONFIG, jobs2=True),
    # all checks on F_43^3 and F_47^3 from each set's profile: 0.6 s
    # measured, against 5.5 s when every set's degree columns were made by
    # FFT in every radius
    Row(("sweep",), config=HEAVY_CONFIG, cpu_s=3, timeout=120, jobs2=True),
    # subset and theorem checks of 3065 points of F_211^2 from one profile
    Row(("fcount", "--q", "211", "--dim", "2", "--gen", "random:1t",
         "--checks", "variance,mixing,hinge,main,remark")),
    # the benchmark's all-checks sweep, its records the frozen reference's
    Row(("sweep", "--config", "perfbench/sweep_allchecks.json"),
        jobs2=True, records=_frozen_sweep_allchecks),
]


def run_row(argv, timeout) -> dict:
    """main(argv) in a fresh interpreter at the repository root: its exit
    code, CPU seconds, peak RSS in MiB and stdout."""
    src = str(Path(fqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(argv))],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _row_id(row: Row) -> str:
    if row.config is not None:
        return f"sweep {'+'.join(str(p) for g in row.config['grid'] for p in g['primes'])}"
    return " ".join(row.argv)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_scale_row(row, tmp_path):
    argv = list(row.argv)
    if row.config is not None:
        (tmp_path / "config.json").write_text(json.dumps(row.config))
        argv += ["--config", str(tmp_path / "config.json")]
    outs = []
    for jobs in (1, 2) if row.jobs2 else (None,):
        run = argv if jobs is None else argv + [
            "--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}.jsonl")]
        got = run_row(run, row.timeout)
        assert got["exit"] == row.exit, got["out"][-2000:]
        for text in row.finds:
            assert text in got["out"], got["out"][:2000]
        if row.oks is not None:
            assert got["out"].count("  ok\n") == row.oks
        if row.cpu_s is not None:
            assert got["cpu"] < row.cpu_s, got["cpu"]
        if row.rss_mib is not None:
            assert got["rss"] < row.rss_mib, got["rss"]
        if jobs is not None:
            outs.append((tmp_path / f"jobs{jobs}.jsonl").read_bytes())
    if row.jobs2:
        assert outs[0] == outs[1]
    if row.records is not None:
        problems = row.records(outs[0].decode())
        assert not problems, problems[:5]


def test_full_space_f_in_closed_form():
    assert all(f == p**2 * (p - 1) * (p + 1) ** 2 for p, f in FULL_SPACE_F.items())
