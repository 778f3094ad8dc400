"""Command-line front end: single-instance queries, inequality-check
batteries, and reproducible parameter sweeps with JSONL/CSV records.

Subcommands: sphere, spectrum, fcount, verify, sweep, each one entry of
COMMANDS.  A call that names its command first builds only that
command's parser; any other (no arguments, help, an unknown command)
builds the full parser from the same table.  Exit codes: 0 when
every requested verdict holds, 1 when at least one verdict fails or stdout
closes early, 2 on invalid arguments or refused guardrails.  Records are
byte-deterministic for a given config: fixed key order, integers bare,
reals at 12 significant digits, rationals as reduced "num/den" strings;
record seeds derive from a hash of the config digest and the cell key, so
reruns and replays never depend on scheduling.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import operator
import os
import random
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bounds, euclid
from .bounds import check_main_theorem, degree_profiles, subset_counts
from .errors import BadSpec, FqlabError, TooLarge, VerificationFailed
from .euclid import SpectralSummary, degree_columns, recheck_spectrum, recheck_table
from .field import PrimeField, make_field
from .geometry import (
    PointSet,
    generate_point_set,
    load_point_set,
    parse_generator,
    sphere_points,
    sphere_table,
)
from .spectral import (
    bound_limit,
    degree_sum_bound,
    hinge_bound,
    mixing_bound,
    variance_bound,
    within_bound,
)

# The interpreter's own SHA-256, as random.py takes its SHA-512: hashlib loads OpenSSL.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

TOOL_VERSION = __version__

CHECK_NAMES = ("spectrum", "variance", "mixing", "hinge", "main", "remark")
# The sweep-record columns that each subset check's verdicts fill: its
# own, and for hinge also the degree-sum step that its bound squares.
CHECK_COLUMNS = {"variance": ("variance",), "mixing": ("mixing",), "hinge": ("hinge", "eq2")}
SUBSET_CHECKS = frozenset(CHECK_COLUMNS)

# verify holds every record until the end of the run, so a run that would
# make more is refused unless forced: 100,008 records (2,000 trials on
# F_7^2) peaked at 95 MiB of RSS on a 2-vCPU VM, and at 141 MiB written
# with --out.
VERIFY_MAX_RECORDS = 10**5

DEFAULT_SWEEP_CONFIG = {
    "grid": [
        {"primes": [3, 7, 11, 19], "dims": [2]},
        {"primes": [3, 7], "dims": [3]},
    ],
    "generators": ["all", "sphere:1", "box:1t", "random:0.5t", "random:1t", "random:2t"],
    "seeds": [1, 2, 3, 4, 5],
    "checks": ["main", "remark"],
    "allow_1mod4": False,
}

SWEEP_FIELDS = (
    "status", "p", "dim", "generator", "seed", "cell_seed", "set_size",
    "f_value", "null_pair_count", "distance_count", "distance_set",
    "lower_bound", "upper_exact", "upper_asymptotic", "delta_implied",
    "regime", "ratio_cubic", "ratio_linear",
    "lower_ok", "upper_ok", "asym_ok", "delta_ok",
    "spectrum_ok", "variance_ok", "mixing_ok", "hinge_ok", "eq2_ok",
    "holds", "error", "config_digest", "tool_version",
)
# The sweep-record fields that a BoundReport fills.
REPORT_FIELDS = SWEEP_FIELDS[SWEEP_FIELDS.index("set_size"):SWEEP_FIELDS.index("delta_ok") + 1]
# The check behind each sweep-record verdict column that is not named
# {check}_ok, for replay commands.
COLUMN_CHECKS = {
    "lower_ok": "main", "upper_ok": "main", "asym_ok": "main",
    "delta_ok": "remark", "eq2_ok": "hinge",
}

# The detail text of a verify record, per subset column.
VERIFY_DETAILS = {"variance": "|B|={b}", "mixing": "e={e}", "hinge": "hinges", "eq2": "degree-sum"}

VERIFY_FIELDS = (
    "status", "check", "p", "dim", "a", "lam_kind", "trial",
    "set_size", "c_size", "lhs", "rhs", "holds", "detail", "seed",
    "tool_version",
)

SPECTRUM_FIELDS = (
    "p", "dim", "a", "n", "valency", "second_eigenvalue", "ramanujan_bound",
    "bound_ok", "trace_sum_residual", "trace_square_residual", "classes",
    "tool_version",
)
# The spectrum-record fields that a SpectralSummary holds under the same name.
SUMMARY_FIELDS = tuple(
    name for name in SpectralSummary._fields if name in SPECTRUM_FIELDS
)


# ---------------------------------------------------------------------------
# record serialization


def format_real(x: float) -> str:
    """Reals are emitted with 12 significant digits."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize {x!r}")
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def _formatters(null: str, quote) -> tuple[dict, object]:
    """(by_type, other): by_type maps each record value type to the
    function that formats a value of exactly that type, quote wrapping
    rationals and strings, and other formats a value of any other type by
    the first type in its method resolution order that by_type names (a
    numpy float64 is a float), raising TypeError when there is none."""
    by_type = {
        type(None): lambda v: null,
        bool: lambda v: "true" if v else "false",
        int: int.__repr__,
        float: format_real,
        Fraction: lambda v: quote(f"{v.numerator}/{v.denominator}"),
        str: quote,
    }

    def other(v):
        for t in type(v).__mro__:
            if t in by_type:
                return by_type[t](v)
        raise TypeError(f"unsupported record value {v!r}")

    return by_type, other


def emit(records: list[dict], fmt: str, fields: tuple[str, ...]) -> str:
    """Serialize records with a fixed field order.

    jsonl writes one flat object per line, strings quoted as json.dumps
    quotes them; csv writes a header row (even for an empty record list)
    followed by one row per record.
    """
    if fmt == "jsonl":
        by_type, other = _formatters("null", json.encoder.encode_basestring_ascii)
        text = by_type.get
        keys = [f"{json.dumps(k)}:" for k in fields]
        lines = []
        for rec in records:
            values = [rec.get(k) for k in fields]
            body = ",".join([key + text(type(v), other)(v) for key, v in zip(keys, values)])
            lines.append("{" + body + "}\n")
        return "".join(lines)
    if fmt == "csv":
        import csv
        by_type, other = _formatters("", str)
        text = by_type.get
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for rec in records:
            writer.writerow([text(type(v), other)(v) for v in [rec.get(k) for k in fields]])
        return buf.getvalue()
    raise BadSpec(f"unknown output format {fmt!r}")


def _record(fields: tuple[str, ...], **values) -> dict:
    rec = {name: None for name in fields}
    for key, val in values.items():
        if key not in rec:
            raise KeyError(f"unknown record field {key!r}")
        rec[key] = val
    return rec


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at path; BadSpec names a path that cannot
    be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise BadSpec(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _write_output(path: str, payload: str) -> None:
    """Write payload to path as UTF-8; BadSpec names a path that cannot be
    written, but a closed pipe stays a BrokenPipeError."""
    try:
        Path(path).write_bytes(payload.encode("utf-8"))
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise BadSpec(f"cannot write {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# shared helpers


def derive_seed(*parts) -> int:
    """A 64-bit seed from a hash of the joined parts; stable across runs."""
    key = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(sha256(key).digest()[:8], "big")


def config_digest(config: dict) -> str:
    return sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _distinct_sets(sets) -> tuple[list, list[int]]:
    """(distinct, index): each rank array of sets once, as its first set,
    and each set's position in distinct.  Two sets are one when their ranks
    are the same in the same order: sets of one size and rank sum are the
    candidates, and the same object or np.array_equal decides, so no two
    unequal sets can share a place."""
    distinct, index, candidates = [], [], {}
    for E in sets:
        same = candidates.setdefault((E.ranks.size, int(E.ranks.sum())), [])
        at = next((i for i in same if distinct[i] is E
                   or np.array_equal(distinct[i].ranks, E.ranks)), len(distinct))
        if at == len(distinct):
            same.append(at)
            distinct.append(E)
        index.append(at)
    return distinct, index


def _field_for_cli(q: int, allow_1mod4: bool) -> PrimeField:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        F = make_field(q)
    if F.minus_one_is_square:
        if not allow_1mod4:
            raise BadSpec(
                f"q = {q} is 1 mod 4, so -1 is a square and the standing "
                "hypothesis fails; pass --allow-1mod4 to proceed anyway"
            )
        for w in caught:
            print(f"note: {w.message}", file=sys.stderr)
    return F


def _canonical_checks(names) -> tuple[str, ...]:
    """names in CHECK_NAMES order, duplicates dropped; BadSpec names any
    that is not a check."""
    bad = [n for n in names if n not in CHECK_NAMES]
    if bad:
        raise BadSpec(f"unknown checks {bad}; valid: {', '.join(CHECK_NAMES)}")
    return tuple(n for n in CHECK_NAMES if n in names)


def _parse_checks(text: str) -> tuple[str, ...]:
    checks = _canonical_checks([tok.strip() for tok in text.split(",") if tok.strip()])
    if not checks:
        raise BadSpec("no checks requested")
    return checks


def _spanning_sizes(n: int, trials: int) -> list[int]:
    """Deterministic sizes sweeping 1..n on a geometric ladder."""
    if trials == 1:
        return [n]
    return [max(1, min(n, round(n ** (i / (trials - 1))))) for i in range(trials)]


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


# ---------------------------------------------------------------------------
# checks, each written once and shared by verify, sweep, spectrum and fcount


def _spectrum_rows(F, dim, spectra, radii):
    """Yield (a, holds, detail) for each radius a: the ceiling test on its
    spectrum plus the recheck of its norm-class row, all read off one
    recheck_table, made before the first radius.  This is the only pass
    that makes one."""
    worst, at = recheck_table(F, dim)
    for a in radii:
        s = spectra[a]
        ok = within_bound(s.second_eigenvalue, s.ramanujan_bound)
        detail = f"trace=({s.trace_sum_residual:.3g},{s.trace_square_residual:.3g})"
        try:
            worst_a = recheck_spectrum(s, worst, at)
            detail += f";eigvec={worst_a:.3g}"
        except VerificationFailed as exc:
            ok = False
            detail += f";{exc}"
        yield a, ok, detail


# Each column's bound as a function of (n, k, lambda, set sizes), in the
# order each item's verdicts come (a hinge item judges hinge, then eq2);
# each calls its bound through this module's name, so that a test can
# stub it.
COLUMN_BOUNDS = {
    "variance": lambda n, k, lam, b: variance_bound(n, lam, b),
    "mixing": lambda n, k, lam, b, c: mixing_bound(lam, b, c),
    "hinge": lambda n, k, lam, b: hinge_bound(n, k, lam, b),
    "eq2": lambda n, k, lam, b: degree_sum_bound(n, k, lam, b),
}


def _bound(memo, column, n, k, lam, sizes):
    """(rhs, limit): column's bound at (n, k, lam, set sizes) and the
    largest count numerator it admits, bound_limit(rhs, lhs_den), lhs_den
    being n for the variance and mixing deviations and 1 for the hinge and
    degree-sum counts.  A bound depends on nothing else, and the dilation
    x -> t x maps G_p(a) onto G_p(t**2 a), so radii, sets and stacks
    share it: each is made once per memo."""
    key = column, n, k, lam, sizes
    if key not in memo:
        rhs = COLUMN_BOUNDS[column](n, k, lam, *sizes)
        memo[key] = rhs, bound_limit(rhs, n if column in ("variance", "mixing") else 1)
    return memo[key]


def _item_counts(check, d, B, C, n, k):
    """[(column, count numerator, its denominator, set sizes, e)] of one
    subset item of check, read off d, the degree column of its set B (a
    sorted vertex array) in a k-regular graph on n vertices; C is the
    sorted vertex array that mixing pairs with B.

    d sums to t = k|B|.  The variance numerator over n is n (d.d) - t**2;
    the mixing deviation over n is |e n - t|C||, e the sum of d over C,
    the adjacent pairs from B into C, which only mixing carries; the
    hinge count is the sum over B of d squared and the degree sum that of
    d, both over 1."""
    t = k * B.size
    if check == "variance":
        return [("variance", n * int(d @ d) - t * t, n, (B.size,), None)]
    if check == "mixing":
        e = int(d[C].sum())
        return [("mixing", abs(e * n - t * C.size), n, (B.size, C.size), e)]
    inside = d[B]
    return [("hinge", int(inside @ inside), 1, (B.size,), None),
            ("eq2", int(inside.sum()), 1, (B.size,), None)]


def _judge_sets(F, dim, spectra, sets, checks, force, profiled=True) -> list:
    """(report, flags, holds) of each point set of F_p^dim under checks,
    in order, or in its place the FqlabError its profile raised: the one
    route from a set to its verdicts, for fcount, sweep and verify.

    The profiles come from one bounds.degree_profiles call, each giving
    its set's report; unprofiled, as a spectrum-only sweep asks, no
    profile is made and report is None.  flags are the {column}_ok record
    flags of the graph checks among checks.  A set is checked against
    itself, so its counts in every radius come from bounds.subset_counts,
    with no degree column made.  A column holds when, in every radius,
    its count is at most the limit of its bound under both the exact
    second eigenvalue and the ceiling; those limits depend on the column,
    the set sizes and the radius' (valency, exact lambda, ceiling) alone,
    so sets of one size share each radius' limits, radii of one such
    triple share them too (dilations map the radii of a square class onto
    one another), and each bound comes from one _bound memo.  One
    _spectrum_rows pass, made only when some set is judged, gives every
    set its spectrum_ok.  holds is every flag and the main and remark
    verdicts among checks."""
    columns = [column for check in checks for column in CHECK_COLUMNS.get(check, ())]
    theorem_checks = [c for c in ("main", "remark") if c in checks]
    profiles = degree_profiles(F, dim, sets, force) if profiled else [None] * len(sets)
    made = [prof for prof in profiles if not isinstance(prof, FqlabError)]
    # All the reports, then all the counts: made set by set in turn, they
    # took about 6% more CPU in the benchmark's all-checks sweep groups.
    reports = [check_main_theorem(F, dim, prof, spectra) if profiled else None for prof in made]
    n, radii = F.p**dim, range(1, F.p)
    spectrum_ok = {}
    if "spectrum" in checks and made:
        spectrum_ok["spectrum_ok"] = all(
            holds for _, holds, _ in _spectrum_rows(F, dim, spectra, radii)
        )
    graphs = [(s.valency, s.second_eigenvalue, s.ramanujan_bound)
              for s in map(spectra.get, radii)] if columns else []
    memo, limits, judged = {}, {}, []
    for prof, report in zip(made, reports):
        counts = subset_counts(F, dim, prof) if columns else {}
        flags = {}
        for column in columns:
            sizes = (prof.size,) * (2 if column == "mixing" else 1)
            if (column, sizes) not in limits:
                limit = {g: min(_bound(memo, column, n, g[0], lam, sizes)[1] for lam in g[1:])
                         for g in set(graphs)}
                limits[column, sizes] = [limit[g] for g in graphs]
            flags[f"{column}_ok"] = all(map(operator.le, counts[column], limits[column, sizes]))
        flags.update(spectrum_ok)
        holds = all(flags.values()) and all(_theorem_row(c, report)[2] for c in theorem_checks)
        judged.append((report, flags, holds))
    verdicts = iter(judged)
    return [prof if isinstance(prof, FqlabError) else next(verdicts) for prof in profiles]


def _theorem_row(check, report) -> tuple[float, float, bool, str]:
    """(lhs, rhs, holds, detail) of the f(E) sandwich ("main") or of the
    distance-count floor ("remark") in one report."""
    if check == "main":
        return (
            float(report.f_value), report.upper_exact,
            report.lower_ok and report.upper_ok and report.asym_ok,
            f"lower={report.lower_bound.numerator}/{report.lower_bound.denominator},"
            f"asym={report.upper_asymptotic:.6g},regime={report.regime}",
        )
    return (
        float(report.delta_implied), float(report.distance_count), report.delta_ok,
        f"distances={report.distance_count}",
    )


def _report_fields(report) -> dict:
    """The sweep-record fields that one report fills, each its attribute of
    the same name; only the distance set needs formatting."""
    fields = {name: getattr(report, name) for name in REPORT_FIELDS}
    fields["distance_set"] = ",".join(str(r) for r in report.distance_set)
    return fields


# ---------------------------------------------------------------------------
# verify


def _verify_record(check, p, dim, seed, lhs, rhs, holds, detail, **fields) -> dict:
    return _record(
        VERIFY_FIELDS,
        status="ok" if holds else "fail", check=check, p=p, dim=dim,
        lhs=float(lhs), rhs=float(rhs), holds=holds, detail=detail,
        seed=seed, tool_version=TOOL_VERSION, **fields,
    )


def _subset_draws(n, check, trials, rng):
    """Yield (B, C) for each trial of check, B then C drawn from rng, sizes
    on the _spanning_sizes ladder: B a sorted int64 vertex array of
    F_p^dim, n = p**dim, and C one too for mixing, None otherwise.

    The sizes never decrease, so once a variance or hinge stream reaches
    size n, every later B is all of F_p^dim whatever the stream's state,
    and is taken without a draw.  Mixing still draws its size-n sets: its
    next C reads the state that draw leaves.
    """
    def draw(size):
        ranks = np.array(rng.sample(range(n), size), dtype=np.int64)
        ranks.sort()  # in place: a sorted copy raised F_83^3's peak RSS by 16 MiB
        return ranks

    for size in _spanning_sizes(n, trials):
        B = np.arange(n, dtype=np.int64) if size == n and check != "mixing" else draw(size)
        yield B, draw(rng.randint(1, n)) if check == "mixing" else None


def _subset_records(F, dim, spectra, check, a, args) -> tuple[list[dict], str]:
    """(records, summary line) of subset check on radius a, trial by trial.

    The trials' (B, C) come from check's own seeded stream (_subset_draws).
    One euclid.degree_columns pass makes the columns of every B, stacked,
    and each trial reads its counts off its B's row (_item_counts), each
    stack dropped before the next is made.  Each trial is then judged under
    the exact second eigenvalue of spectra[a] (lam_kind "exact") and then
    its ceiling ("ceiling"), its columns in the order of COLUMN_BOUNDS: lhs
    is the count, its numerator over its denominator, rhs the bound, and
    holds whether the numerator is at most the bound's limit, all bounds
    from one _bound memo.
    """
    p, s = F.p, spectra[a]
    rng = random.Random(derive_seed(args.seed, check, p, dim, a))
    draws = list(_subset_draws(p**dim, check, args.trials, rng))
    counts = []
    for start, G, deg in degree_columns(F, dim, [B for B, _ in draws], [a], args.force):
        counts += [_item_counts(check, d, B, C, G.n, G.valency)
                   for d, (B, C) in zip(deg, draws[start:start + len(deg)])]
        del deg
    records, memo = [], {}
    for trial, ((B, C), got) in enumerate(zip(draws, counts)):
        for lam_kind, lam in (("exact", s.second_eigenvalue), ("ceiling", s.ramanujan_bound)):
            for column, num, den, sizes, e in got:
                rhs, limit = _bound(memo, column, s.n, s.valency, lam, sizes)
                records.append(_verify_record(
                    check, p, dim, args.seed, num / den, rhs, num <= limit,
                    VERIFY_DETAILS[column].format(b=B.size, e=e), a=a, lam_kind=lam_kind,
                    trial=trial, set_size=B.size, c_size=None if C is None else C.size,
                ))
    ok = all(r["holds"] for r in records)
    return records, (f"{check:<8}  p={p} dim={dim} a={a}: {args.trials} subsets, "
                     f"exact and ceiling  {_status(ok)}")


def _guard_records(radii, checks, trials, force) -> None:
    """Refuse a verify run of more than VERIFY_MAX_RECORDS records unless
    forced, counted from its arguments before any work: one spectrum
    verdict per radius; per radius and trial, each subset check's columns
    under the exact lambda and the ceiling; and main and remark once per
    point set, at most the trials and F_p^dim."""
    count = sum(
        radii if check == "spectrum"
        else radii * trials * 2 * len(CHECK_COLUMNS[check]) if check in SUBSET_CHECKS
        else trials + 1
        for check in checks
    )
    if count > VERIFY_MAX_RECORDS and not force:
        raise TooLarge(
            f"{count} verify records exceed the record guardrail "
            f"{VERIFY_MAX_RECORDS}; pass --force to override"
        )


def _point_set_draws(p, dim, cap, trials, seed):
    """The sorted ranks of each rung of verify's point-set ladder, sizes
    _spanning_sizes(cap, trials), drawn from one seeded stream.  A rung of
    size n = p**dim is all of F_p^dim whatever the stream's state, and is
    range(n), taken without a draw or an array: the sizes never decrease,
    so no later draw reads the state it would leave."""
    n = p**dim
    rng = random.Random(derive_seed(seed, "main", p, dim))
    for size in _spanning_sizes(cap, trials):
        yield range(n) if size == n else sorted(rng.sample(range(n), size))


def _verify_point_sets(F, dim, spectra, checks, args) -> tuple[list[dict], list[str]]:
    """(records, summary lines) of main and then remark on one list of
    point sets, the distinct sets judged by one _judge_sets call, each
    set's first error raised.

    The sets are F_p^dim itself, when the profile and enumeration
    guardrails admit it, and a ladder of random subsets; a size-n rung is
    that same PointSet object again.  Unless forced, rung sizes
    stay at most isqrt(PROFILE_MAX_PAIRS), where even the pairwise profile
    fits.
    """
    p, n = F.p, F.p**dim
    cap = n if args.force else min(n, math.isqrt(bounds.PROFILE_MAX_PAIRS))
    spec = parse_generator("all")
    full = _pre_draw_refusal(spec, F, dim, args.force)[1] or _outcome(
        generate_point_set, F, dim, spec, seed=0, force=args.force
    )
    held = isinstance(full, PointSet)
    sets = [full] if held else []
    for ranks in _point_set_draws(p, dim, cap, args.trials, args.seed):
        if len(ranks) == n and held:
            sets.append(full)
        else:
            sets.append(PointSet(ranks, p=p, dim=dim, origin_label=f"random-subset:{len(ranks)}"))
    wanted = [c for c in ("main", "remark") if c in checks]
    distinct, index = _distinct_sets(sets)
    judged = _judge_sets(F, dim, spectra, distinct, wanted, args.force)
    reports = []
    for i in index:
        if isinstance(judged[i], FqlabError):
            raise judged[i]
        reports.append(judged[i][0])
    records, lines = [], []
    for check in wanted:
        rows = [_verify_record(check, p, dim, args.seed, *_theorem_row(check, report),
                               trial=trial, set_size=report.set_size)
                for trial, report in enumerate(reports)]
        records += rows
        ok = all(r["holds"] for r in rows)
        lines.append(f"{check:<8}  p={p} dim={dim}: {len(sets)} point sets  {_status(ok)}")
    return records, lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_sphere(args) -> int:
    F = _field_for_cli(args.q, args.allow_1mod4)
    # Python prints no int of more than `limit` decimal digits (0 is no
    # limit).  p**dim has more exactly when p**dim >= 10**limit, and surely
    # does past limit log2(10) + 1 bits, so no larger power is made.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit > 0 and args.dim > 0 and (
        args.dim * math.log2(F.p) > limit * math.log2(10) + 1 or F.p**args.dim >= 10**limit
    ):
        raise BadSpec(
            f"{F.p}**{args.dim} has more than {limit} decimal digits, Python's limit "
            "for printing an integer (sys.set_int_max_str_digits), so its sphere "
            "sizes cannot be printed"
        )
    table = sphere_table(F, args.dim)
    radii = range(F.p) if args.a is None else [args.a % F.p]
    for a in radii:
        print(f"a={a} size={table.sizes[a]}")
        if args.list:
            for pt in sphere_points(F, args.dim, a, force=args.force):
                print("  " + ",".join(str(c) for c in pt))
    if args.a is None:
        print(f"total={sum(table.sizes)} (p**dim = {F.p ** args.dim})")
    return 0


def cmd_spectrum(args) -> int:
    F = _field_for_cli(args.q, args.allow_1mod4)
    radii = range(1, F.p) if args.a is None else [args.a]
    spectra = euclid.spectra(F, args.dim, radii, args.force)
    records, all_ok = [], True
    for a, bound_ok, detail in _spectrum_rows(F, args.dim, spectra, radii):
        s = spectra[a]
        if not bound_ok:
            print(f"a={a}: check failed: {detail}")
        all_ok &= bound_ok
        classes_txt = "; ".join(f"{v:.10g} x{mult}" for v, mult in s.classes)
        print(f"a={a} valency={s.valency} n={s.n}")
        print(f"  eigenvalues: {classes_txt}")
        print(
            f"  second={s.second_eigenvalue:.10g} "
            f"bound={s.ramanujan_bound:.10g}  {_status(bound_ok)}"
        )
        records.append(_record(
            SPECTRUM_FIELDS, bound_ok=bound_ok, tool_version=TOOL_VERSION,
            classes=";".join(f"{format_real(v)}x{mult}" for v, mult in s.classes),
            **{name: getattr(s, name) for name in SUMMARY_FIELDS},
        ))
    if args.out:
        _write_output(args.out, emit(records, args.format, SPECTRUM_FIELDS))
    return 0 if all_ok else 1


def cmd_fcount(args) -> int:
    F = _field_for_cli(args.q, args.allow_1mod4)
    checks = _parse_checks(args.checks)
    if args.points and args.gen:
        raise BadSpec("--points and --gen are mutually exclusive; pick one input source")
    if args.points:
        text = _read_text(args.points)
        E = load_point_set(text, F, dim=args.dim, label=f"points:{Path(args.points).name}")
    else:
        if args.gen is None:
            raise BadSpec("fcount needs --points FILE or --gen SPEC")
        if args.dim is None:
            raise BadSpec("--gen requires --dim")
        spec = parse_generator(args.gen)
        _, refused = _pre_draw_refusal(spec, F, args.dim, args.force)
        if refused is not None:
            raise refused
        E = generate_point_set(F, args.dim, spec, seed=args.seed, force=args.force)
    dim, generator = E.dim, E.origin_label
    if dim < 2:
        raise BadSpec(f"dimension must be >= 2, got {dim}")
    bounds.guard_profile(len(E), F.p, dim, args.force)  # before any spectrum
    spectra = euclid.spectra(F, dim, range(1, F.p), args.force)
    (judged,) = _judge_sets(F, dim, spectra, [E], checks, args.force)
    if isinstance(judged, FqlabError):
        raise judged
    report, oks, holds = judged
    print(f"p={F.p} dim={dim} |E|={report.set_size} generator={generator}")
    print(f"f={report.f_value} null_pairs={report.null_pair_count}")
    print(
        f"distances({report.distance_count}): "
        + ",".join(str(r) for r in report.distance_set)
    )
    print(
        f"lower={report.lower_bound.numerator}/{report.lower_bound.denominator}"
        f" <= f <= exact={report.upper_exact:.10g}"
        f" <= asym={report.upper_asymptotic:.10g}"
    )
    print(
        f"delta_implied={float(report.delta_implied):.10g}"
        f" <= {report.distance_count}"
    )
    print(
        f"regime={report.regime} ratio_cubic={report.ratio_cubic:.10g}"
        f" ratio_linear={report.ratio_linear:.10g}"
    )
    if oks:
        print("graph checks: " + " ".join(
            f"{k}={_status(oks[k])}" for k in SWEEP_FIELDS if k in oks
        ))
    print(f"verdict: {_status(holds)}")
    if args.out:
        rec = _record(
            SWEEP_FIELDS,
            status="ok" if holds else "fail",
            p=F.p, dim=dim, generator=generator, seed=args.seed,
            cell_seed=derive_seed(args.seed), holds=holds, error="",
            config_digest="", tool_version=TOOL_VERSION, **_report_fields(report),
            **oks,
        )
        _write_output(args.out, emit([rec], args.format, SWEEP_FIELDS))
    return 0 if holds else 1


def cmd_verify(args) -> int:
    F = _field_for_cli(args.q, args.allow_1mod4)
    dim = args.dim
    if dim < 2:
        raise BadSpec(f"dimension must be >= 2, got {dim}")
    checks = _parse_checks(args.checks)
    if args.trials < 1:
        raise BadSpec("--trials must be at least 1")
    if args.a is not None and not 0 < args.a < F.p:
        raise BadSpec(f"radius must be a nonzero residue mod {F.p}, got {args.a}")
    a_values = [args.a] if args.a is not None else range(1, F.p)
    _guard_records(len(a_values), checks, args.trials, args.force)
    need_all = {"main", "remark"} & set(checks)
    radii = range(1, F.p) if need_all else a_values
    spectra = euclid.spectra(F, dim, radii, args.force)
    if SUBSET_CHECKS.intersection(checks):  # refused before any subset is drawn
        euclid.guard_spectrum(F.p, dim, args.force)
    records, lines = [], []
    for check in checks:  # records and summary lines in check-major order
        if check == "spectrum":  # one _spectrum_rows pass over every radius
            for a, ok, detail in _spectrum_rows(F, dim, spectra, a_values):
                lam, bound = spectra[a].second_eigenvalue, spectra[a].ramanujan_bound
                records.append(_verify_record(
                    "spectrum", F.p, dim, args.seed, lam, bound, ok, detail, a=a,
                ))
                lines.append(
                    f"spectrum  p={F.p} dim={dim} a={a}: "
                    f"lambda={lam:.10g} <= {bound:.6g}  {_status(ok)}"
                )
        elif check in SUBSET_CHECKS:
            for a in a_values:
                got, line = _subset_records(F, dim, spectra, check, a, args)
                records += got
                lines.append(line)
    if need_all:
        got, more = _verify_point_sets(F, dim, spectra, checks, args)
        records += got
        lines += more
    print(*lines, sep="\n")
    passed = sum(1 for r in records if r["holds"])
    all_ok = passed == len(records)
    print(f"verify: {passed}/{len(records)} checks passed  {_status(all_ok)}")
    if not all_ok:
        first = next(r for r in records if not r["holds"])
        print(
            "replay: fqlab verify"
            f" --q {first['p']} --dim {first['dim']}"
            + (f" --a {first['a']}" if first["a"] is not None else "")
            + f" --checks {first['check']} --trials {args.trials} --seed {args.seed}"
            + (" --allow-1mod4" if args.allow_1mod4 else "")
            + (" --force" if args.force else ""),
            file=sys.stderr,
        )
    if args.out:
        _write_output(args.out, emit(records, args.format, VERIFY_FIELDS))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# sweep


def normalize_config(config: dict) -> dict:
    """Validate a sweep config and fill defaults; raises BadSpec."""
    if not isinstance(config, dict):
        raise BadSpec("sweep config must be a JSON object")
    known = {"grid", "generators", "seeds", "checks", "allow_1mod4"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise BadSpec(f"unknown config keys {unknown}")
    grid = config.get("grid")
    if not isinstance(grid, list) or not grid:
        raise BadSpec("config needs a non-empty 'grid' list")
    norm_grid = []
    for block in grid:
        if not isinstance(block, dict) or set(block) - {"primes", "dims"}:
            raise BadSpec("grid blocks must be {'primes': [...], 'dims': [...]}")
        primes = block.get("primes")
        dims = block.get("dims")
        if not primes or not dims:
            raise BadSpec("grid blocks need non-empty primes and dims")
        if any(type(p) is not int for p in primes):
            raise BadSpec("primes must be integers")
        if any(type(d) is not int or d < 2 for d in dims):
            raise BadSpec("dims must be integers >= 2")
        norm_grid.append({"primes": list(primes), "dims": list(dims)})
    generators = config.get("generators")
    if not isinstance(generators, list) or not generators:
        raise BadSpec("config needs a non-empty 'generators' list")
    for gen in generators:
        parse_generator(str(gen))
    seeds = config.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise BadSpec("config needs a non-empty 'seeds' list")
    if any(type(s) is not int for s in seeds):
        raise BadSpec("seeds must be integers")
    checks = config.get("checks", ["main", "remark"])
    if not isinstance(checks, list) or not checks:
        raise BadSpec("config needs a non-empty 'checks' list")
    checks = list(_canonical_checks(checks))
    allow = config.get("allow_1mod4", False)
    if type(allow) is not bool:
        raise BadSpec("allow_1mod4 must be true or false")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for block in norm_grid:
            for p in block["primes"]:
                F = make_field(p)
                if F.minus_one_is_square and not allow:
                    raise BadSpec(
                        f"prime {p} is 1 mod 4; set allow_1mod4 in the config"
                    )
    return {
        "grid": norm_grid,
        "generators": [str(g) for g in generators],
        "seeds": list(seeds),
        "checks": checks,
        "allow_1mod4": allow,
    }


def _outcome(fn, *args, **kwargs):
    """fn's result, or the FqlabError it raised, so a failure can be shared
    by every cell it belongs to."""
    try:
        return fn(*args, **kwargs)
    except FqlabError as exc:
        return exc


def _pre_draw_refusal(spec, F, dim, force) -> tuple[int | None, FqlabError | None]:
    """(size, refusal) of the set that generator spec would draw in
    F_p^dim, before any draw: a one-atom generator makes exactly
    size_floor points, so a set past the profile guardrail is refused from
    that size; a union's floor bounds no route's cost (the complement's
    falls as the set grows), and a size_floor error is the generator's
    own, left to it, so both give (None, None)."""
    size = _outcome(spec.size_floor, F, dim) if len(spec.atoms) == 1 else None
    if not isinstance(size, int):
        return None, None
    return size, _outcome(bounds.guard_profile, size, F.p, dim, force)


def _run_sweep_group(task) -> list[dict]:
    """Every cell of one (p, dim): each cell's point set first (a
    generator that ignores the seed is generated once), then the distinct
    sets judged by one _judge_sets call, the records last.  Sets with the
    same ranks in the same order (_distinct_sets) share one profile, one
    report and one set of verdicts.

    Every check but the spectrum reads each set's degree profile, so
    unless the spectrum is the only check, a one-atom generator past the
    profile guardrail is refused before any draw (_pre_draw_refusal), its
    cells recording the size, and any other set past it gets its error in
    its own cells; a spectrum-only sweep makes no profile.  A (p, dim)
    with no set makes no spectrum recheck.
    """
    p, dim, gens, seeds, checks, digest, force = task
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = make_field(p)
    spectra = euclid.spectra(F, dim, range(1, p), force)
    theorem_checks = [c for c in ("main", "remark") if c in checks]
    profiled = set(checks) != {"spectrum"}
    records, cells = [], []
    for gen in gens:
        spec, made = parse_generator(gen), None
        size, refused = _pre_draw_refusal(spec, F, dim, force) if profiled else (None, None)
        for seed in seeds:
            cseed = derive_seed(digest, p, dim, gen, seed)
            rec = _record(
                SWEEP_FIELDS,
                status="ok", p=p, dim=dim, generator=gen, seed=seed,
                cell_seed=cseed, error="", config_digest=digest,
                tool_version=TOOL_VERSION,
            )
            records.append(rec)
            if refused is not None:
                rec.update(status="error", error=str(refused), holds=False, set_size=size)
                continue
            if made is None or spec.uses_seed:
                made = _outcome(generate_point_set, F, dim, spec, seed=cseed, force=force)
            if isinstance(made, FqlabError):
                rec.update(status="error", error=str(made), holds=False)
                continue
            rec["set_size"] = len(made)
            cells.append((rec, made))
    distinct, index = _distinct_sets([E for _, E in cells])
    judged = _judge_sets(F, dim, spectra, distinct, checks, force, profiled)
    for (rec, _), i in zip(cells, index):
        if isinstance(judged[i], FqlabError):
            rec.update(status="error", error=str(judged[i]), holds=False)
            continue
        report, oks, holds = judged[i]
        if theorem_checks:
            rec.update(_report_fields(report))
        rec.update(oks, holds=holds, status="ok" if holds else "fail")
    return records


def run_sweep(config: dict, jobs: int = 1, force: bool = False) -> tuple[list[dict], str]:
    """Run every cell of a sweep config; returns (sorted records, digest)."""
    config = normalize_config(config)
    digest = config_digest(config)
    pairs = []
    for block in config["grid"]:
        for p in block["primes"]:
            for dim in block["dims"]:
                if (p, dim) not in pairs:
                    pairs.append((p, dim))
    tasks = [
        (
            p, dim,
            tuple(config["generators"]), tuple(config["seeds"]),
            tuple(config["checks"]), digest, force,
        )
        for p, dim in pairs
    ]
    if jobs > 1 and len(tasks) > 1:
        # A pool forks all its workers at the first submit, so it gets no
        # more than there are groups.
        import concurrent.futures
        workers = min(jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_sweep_group, tasks))
    else:
        chunks = [_run_sweep_group(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r["p"], r["dim"], r["generator"], r["seed"]))
    return records, digest


def _print_sweep_summary(records: list[dict], elapsed: float) -> None:
    ok = sum(1 for r in records if r["status"] == "ok")
    fail = sum(1 for r in records if r["status"] == "fail")
    err = sum(1 for r in records if r["status"] == "error")
    print(f"sweep: {len(records)} cells, {ok} ok, {fail} failed, {err} errors "
          f"({elapsed:.1f}s)")
    header = f"{'regime':<8}{'cells':>6}  {'ratio_cubic':<24}  {'ratio_linear':<24}"
    print(header)
    for reg in ("a", "b"):
        rows = [
            r for r in records
            if r["regime"] == reg and r["ratio_cubic"] is not None
        ]
        if not rows:
            print(f"{reg:<8}{0:>6}")
            continue
        rc = [r["ratio_cubic"] for r in rows]
        rl = [r["ratio_linear"] for r in rows]
        print(
            f"{reg:<8}{len(rows):>6}  "
            f"{min(rc):.6g} .. {max(rc):.6g}".ljust(34)
            + f"  {min(rl):.6g} .. {max(rl):.6g}"
        )


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise BadSpec("--jobs must be at least 1")
    if args.config:
        try:
            config = json.loads(_read_text(args.config))
        except json.JSONDecodeError as exc:
            raise BadSpec(f"cannot parse config: {exc}") from None
    else:
        config = DEFAULT_SWEEP_CONFIG
    config = normalize_config(config)
    if args.show_config:
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0
    if not args.out:
        raise BadSpec("sweep needs --out FILE")
    start = time.monotonic()
    records, _ = run_sweep(config, jobs=args.jobs, force=args.force)
    payload = emit(records, args.format, SWEEP_FIELDS)
    _write_output(args.out, payload)
    _print_sweep_summary(records, time.monotonic() - start)
    print(f"wrote {args.out} ({len(records)} records, {args.format})")
    bad = [r for r in records if r["status"] != "ok"]
    for r in bad[:5]:
        failed = [k for k in SWEEP_FIELDS if k.endswith("_ok") and r[k] is False]
        replayed = {COLUMN_CHECKS.get(k, k.removesuffix("_ok")) for k in failed}
        print(
            f"replay: fqlab fcount --q {r['p']} --dim {r['dim']}"
            f" --gen '{r['generator']}' --seed {r['cell_seed']}"
            + (f" --checks {','.join(c for c in CHECK_NAMES if c in replayed)}"
               if failed else "")
            + (" --allow-1mod4" if config["allow_1mod4"] else "")
            + (" --force" if args.force else "")
            + (f"  # {r['error']}" if r["error"] else "")
            + (f"  # failed: {','.join(failed)}" if failed else ""),
            file=sys.stderr,
        )
    return 0 if not bad else 1


# ---------------------------------------------------------------------------
# argument parsing


def _record_options(sp) -> None:
    sp.add_argument("--out", default=None, help="write records to this path")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")


def _space_options(sp, records=True, dim_required=True) -> None:
    """The options of a command over F_q^dim: the field's, the records'
    when it writes any, then --dim."""
    sp.add_argument("--q", type=int, required=True, help="odd prime modulus")
    sp.add_argument("--allow-1mod4", action="store_true",
                    help="permit primes with -1 a square")
    sp.add_argument("--force", action="store_true", help="override size guardrails")
    if records:
        _record_options(sp)
    sp.add_argument("--dim", type=int, required=dim_required, help="ambient dimension")


def _sphere_options(sp) -> None:
    _space_options(sp, records=False)
    sp.add_argument("--a", type=int, default=None, help="one radius only")
    sp.add_argument("--list", action="store_true", help="print the points")


def _spectrum_options(sp) -> None:
    _space_options(sp)
    sp.add_argument("--a", type=int, default=None)


def _fcount_options(sp) -> None:
    _space_options(sp, dim_required=False)
    sp.add_argument("--points", default=None, help="point file (one per line)")
    sp.add_argument("--gen", default=None, help="generator expression")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--checks", default="main,remark",
                    help="checks the verdict covers; graph checks judge the set itself")


def _verify_options(sp) -> None:
    _space_options(sp)
    sp.add_argument("--a", type=int, default=None,
                    help="restrict graph-local checks to one radius")
    sp.add_argument("--checks", default=",".join(CHECK_NAMES))
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)


def _sweep_options(sp) -> None:
    _record_options(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", default=None, help="JSON config file")
    group.add_argument("--default", action="store_true", help="use the built-in default grid")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, one per (p, dim) group (default 1)")
    sp.add_argument("--show-config", action="store_true",
                    help="print the normalized config and exit")
    sp.add_argument("--force", action="store_true")


# name -> (help summary, the function that adds its options, its handler)
COMMANDS = {
    "sphere": ("sphere sizes, optionally the points", _sphere_options, cmd_sphere),
    "spectrum": ("eigenvalues of one or all radii", _spectrum_options, cmd_spectrum),
    "fcount": ("distance statistics of one point set", _fcount_options, cmd_fcount),
    "verify": ("run check batteries on one instance", _verify_options, cmd_verify),
    "sweep": ("run a config grid and emit records", _sweep_options, cmd_sweep),
}


def _command_parser(name, sp=None) -> argparse.ArgumentParser:
    """sp, or a new parser "fqlab name", with the options of command name
    and its handler and name as the defaults of func and command, so that
    both routes give a command one namespace."""
    sp = sp or argparse.ArgumentParser(prog=f"fqlab {name}")
    _, add_options, func = COMMANDS[name]
    add_options(sp)
    sp.set_defaults(func=func, command=name)
    return sp


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command of COMMANDS a subcommand."""
    parser = argparse.ArgumentParser(
        prog="fqlab",
        description=(
            "Exact distance-geometry laboratory over prime fields: sphere "
            "counts, distance-graph spectra, and inequality verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in COMMANDS.items():
        _command_parser(name, sub.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:  # that command's parser alone
        args = _command_parser(argv[0]).parse_args(argv[1:])
    else:  # no arguments, help, an unknown command or an option first
        args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) and not Path(args.out).parent.exists():  # before any work
            raise BadSpec(f"cannot write {args.out}: No such file or directory")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except FqlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early; point it at devnull so the
        # interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
