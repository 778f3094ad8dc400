"""Distance-multiplicity statistics of a point set and the inequalities
that sandwich them.

For a point set E, write deg(x, r) for the number of points of E at
quadratic distance r from x.  The central statistic is

    f(E) = sum over r != 0, x in E of deg(x, r)**2,

the number of ordered hinges (u, x, w) whose two legs share one nonzero
distance.  The module computes f exactly from a degree profile, derives
the realized distance set, builds a Cauchy-Schwarz lower bound and two
spectral upper bounds (per-radius exact, and the uniform ceiling form),
and assembles a report that classifies the set-size regime and carries
one verdict per inequality.

The profile has three exact routes, picked by a fixed cost model: for
sparse sets all |E|**2 distances, a chunk at a time in buffers of small
integers made once per pass; for sets that nearly fill F_p^dim the
pairwise profile of the complement, carried over to E by a p x p table
of sphere intersection counts in integer arithmetic; for dense sets
between the two (|E|**2 well above p**(dim+1), the paper's regime a) the
set's certified degree column in every radius' graph.  degree_profiles,
the one entry to them, takes many sets of one F_p^dim at once, and its
pairwise passes stack the small sets, and small complements, of one
size, so a sweep's seeds of one generator share one pass; fcount,
sweep and verify's point-set ladder each profile their distinct sets of
one F_p^dim in one call.  All keep per-radius sums only, never
|E| * p degrees.  The same sums give every subset-check count of the set
against itself in every radius' graph (subset_counts), and
check_main_theorem reads the report off them, so one profile serves
both.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import BadSpec, DimensionMismatch, FqlabError, MissingSpectrum, TooLarge
from .euclid import SPECTRUM_MAX, SpectralSummary, degree_columns, ramanujan_bound
from .field import PrimeField
from .geometry import PointSet, intersection_table, size_threshold, sphere_table
from .record import Record
from .spectral import hinge_bound, within_bound

# Profiles are refused above this cost, in pair-equivalents, of the
# cheapest route (profile_route) unless forced.
PROFILE_MAX_PAIRS = 10**8
# The pairwise route costs about |E|**2, the complement route |C|**2 + p**2
# (C = F_p^dim minus E: its pairwise profile and one p x p product), and
# the convolution about PROFILE_FFT_RATIO * p**(dim+1) (p transforms of
# p**dim points), so pairwise and convolution cross near the paper's
# regime threshold |E| = p**((dim+1)/2).  Measured in CPU time (best of 3,
# random sets, one core of a 2-vCPU Xeon VM, numpy 2.4) on p = 59, 83,
# 103, 211 (dim 2), 11, 19, 43 (dim 3) and 7, 11 (dim 4): at a ratio of 7
# the convolution took 1.4 to 2.9 times the pairwise time, at 10 1.0 to
# 2.1 times, at 15 0.51 to 1.46 times, at 20 0.49 to 1.17 times and at 30
# 0.27 to 0.79 times.
PROFILE_FFT_RATIO = 20
# Pairs per chunk of the pairwise profile, its working set: two buffers of
# entries (int16 or int32 at sizes inside the guardrails) and one int64 bin
# index, 12 or 16 bytes a pair, so 0.75 or 1 MiB, made once per pass;
# each chunk's bin counts take at most 16 bytes a pair more.  Sets of m
# points with m**2 <= PAIR_CHUNK share a pass, whole sets to a chunk.
# A fresh process faults each page of them in once: the first profile of
# the fcount-sparse set (756 points of F_83^2) took 200 page faults
# (2-vCPU VM, numpy 2.4), against 1,590 with 2**18 pairs and p x |E|
# tables of squares.  Smaller chunks fault less but loop more: 2**15 and
# 2**14 took 9% and 45% more CPU on 10**4 points of F_991^4.
PAIR_CHUNK = 1 << 16


class DegreeProfile(Record, eq=False):
    """Distance multiplicities of one point set, summed per radius.

    With deg(x, r) the number of other points of E at distance r from x,
    hinges[r] = sum over x in E of deg(x, r)**2 and pairs[r] = sum over x
    in E of deg(x, r), the ordered pairs of distinct points at distance r;
    pairs[0] counts null pairs only.  Both are length-p int64 vectors, and
    pairs sums to |E|(|E| - 1).
    """

    size: int
    hinges: np.ndarray
    pairs: np.ndarray

    def f_value(self) -> int:
        return int(self.hinges[1:].sum())

    def nonzero_pair_count(self) -> int:
        """Ordered pairs of distinct points at nonzero distance."""
        return int(self.pairs[1:].sum())

    def distance_values(self) -> frozenset[int]:
        """Distances realized by distinct ordered pairs; may contain 0."""
        return frozenset(int(r) for r in np.flatnonzero(self.pairs))


def subset_counts(F: PrimeField, dim: int, prof: DegreeProfile) -> dict[str, list[int]]:
    """The count numerators of the subset checks on a set E checked
    against itself, read off its profile: per record column ("variance",
    "mixing", "hinge" and "eq2", the degree sum), one exact int per radius
    a = 1, ..., p - 1, in that order.

    With m = |E|, n = p**dim, k_a the valency of radius a and D(v) =
    #{y in E : ||v - y|| = a} for every vertex v of F_p^dim, the hinge
    count, the sum over E of D**2, is hinges[a], and the degree sum e, the
    sum over E of D, is pairs[a].  The mixing deviation of (E, E) is |e n
    - k_a m**2| over n.  The variance numerator over n is n * sum over
    all v of D(v)**2 - (k_a m)**2, and that sum counts the triples (v, y,
    z), y and z in E at distance a from v: k_a when y = z, and I[a, t]
    for y != z at distance t, I = geometry.intersection_table, so it is m
    k_a + sum over t of I[a, t] pairs[t].  These equal the counts the
    degree columns give, with no column made.
    """
    p, n, m = F.p, F.p**dim, prof.size
    k = sphere_table(F, dim).sizes
    pairs = prof.pairs.tolist()
    table = intersection_table(F, dim)[1:]
    # sum over t of I[a, t] pairs[t] <= max(I) m**2, pairs summing to m(m - 1)
    if int(table.max(initial=0)) * m * m < 2**63:
        shared = (table @ prof.pairs).tolist()
    else:
        shared = [sum(map(operator.mul, row, pairs)) for row in table.tolist()]
    radii = range(1, p)
    return {
        "variance": [n * (m * k[a] + s) - (k[a] * m) ** 2 for a, s in zip(radii, shared)],
        "mixing": [abs(pairs[a] * n - k[a] * m * m) for a in radii],
        "hinge": prof.hinges[1:].tolist(),
        "eq2": pairs[1:],
    }


def _complement_fits(p: int, dim: int, c: int) -> bool:
    """Whether every int64 sum of the complement route, for a complement
    of c points, stays below 2**63.

    Every sphere has k_r <= kmax = p**(dim-1) + p**(dim//2) points, so
    pairs_C[r] <= |C| kmax, and an entry of I is at most p**(dim-1).  The
    terms _complement_profile adds, (|E| - 2|C|) K_r**2, 2 K_r pairs_C[r],
    |C| K_r, sum over t of I[r, t] pairs_C[t] and hinges_C[r], are then at
    most max(|E|, 2|C|) kmax**2, 2|C| kmax**2, |C| kmax, p**(dim-1) |C|**2
    and |C| kmax**2.  Past 2**63 the route is not taken: all of F_3^13
    fits, and all of F_3^14, whose hinges do pass 2**63, does not.
    """
    kmax = p ** (dim - 1) + p ** (dim // 2)
    m = p**dim - c
    return (max(m, 2 * c) + 3 * c) * kmax**2 + c * kmax + p ** (dim - 1) * c * c < 2**63


def profile_route(m: int, p: int, dim: int, force: bool = False) -> tuple[str, int]:
    """The cheapest exact route to the profile of an m-point set of
    F_p^dim, and its cost in pair-equivalents: "pairwise" at m**2,
    "complement" at |C|**2 + p**2 for the complement C, and "convolved"
    at PROFILE_FFT_RATIO * p**(dim+1).  The convolution needs p**dim <=
    SPECTRUM_MAX unless forced, and the complement sums that fit int64;
    a tie goes to the route named first."""
    c = p**dim - m
    costs = {"pairwise": m * m}
    if _complement_fits(p, dim, c):
        costs["complement"] = c * c + p * p
    if force or p**dim <= SPECTRUM_MAX:
        costs["convolved"] = PROFILE_FFT_RATIO * p ** (dim + 1)
    route = min(costs, key=costs.get)
    return route, costs[route]


def _refusal(route: str, cost: int, dim: int, force: bool) -> TooLarge | None:
    """The TooLarge error of a profile whose route costs cost pair-
    equivalents, past PROFILE_MAX_PAIRS and not forced, else None."""
    if cost <= PROFILE_MAX_PAIRS or force:
        return None
    what = {
        "pairwise": "|E|**2",
        "complement": "|C|**2 + p**2 for the complement C of E",
        "convolved": f"{PROFILE_FFT_RATIO} p**{dim + 1} for the convolution",
    }[route]
    return TooLarge(
        f"{what} = {cost} exceeds the profile guardrail "
        f"{PROFILE_MAX_PAIRS}; pass --force to override"
    )


def guard_profile(m: int, p: int, dim: int, force: bool = False) -> None:
    """Refuse the profile of an m-point set of F_p^dim when the cost of
    the route profile_route picks exceeds PROFILE_MAX_PAIRS, unless
    forced; fcount calls it before building any spectrum, and fcount,
    sweep and verify before drawing a one-atom generator's sets."""
    refusal = _refusal(*profile_route(m, p, dim, force), dim, force)
    if refusal is not None:
        raise refusal


def degree_profiles(
    F: PrimeField, dim: int, sets: Sequence[PointSet], force: bool = False
) -> list[DegreeProfile | FqlabError]:
    """Sum deg(x, r)**2 and deg(x, r) over x in E for every r, for each
    set E of sets, by one of three exact routes; one entry per set, in
    order: its DegreeProfile, or in its place the error its profile
    raised (TooLarge past the guardrail).

    profile_route picks each set's route once, the cheapest; past
    PROFILE_MAX_PAIRS the set is refused unless forced.  All routes give
    the same vectors.  The pairwise route evaluates all |E|**2 distances
    (_pairwise_profile).  The complement route takes the pairwise profile
    of C = F_p^dim minus E and carries it over to E in integer arithmetic
    (_complement_profile).  The convolution route reads radius r != 0 off
    the degree column of E in the radius-r distance graph, deg(., r) =
    1_E * 1_{S_r} over Z_p^dim, gathered at E; euclid.degree_columns
    makes it, with E as a one-row stack, and raises VerificationFailed
    rather than return a column that fails its certificate, so a wrong
    table cannot give a wrong profile.  deg(x, 0) is |E| - 1 minus the
    rest.

    The sets the pairwise route takes, and the complements the complement
    route takes, of one size m with m**2 <= PAIR_CHUNK go through
    _pairwise_profile as one (S, m) stack of ranks, so equal-size sets
    share one pass; a larger set goes alone, as a one-row view of its
    ranks.  The complement route carries its sets over after the passes.
    A set of another field or dimension is refused always.
    """
    p = F.p
    for E in sets:
        if E.dim != dim:
            raise DimensionMismatch(f"point set has dimension {E.dim}, expected {dim}")
        if E.p != p:
            raise BadSpec(f"point set lies in F_{E.p}^{dim}, not F_{p}^{dim}")
    # per set: its (hinges, pairs) rows, or the error in their place
    out: list = [None] * len(sets)
    # the sets, or complements, of each pass: one pass per size m with
    # m**2 <= PAIR_CHUNK, and one for each larger set alone
    passes: dict[int, list[tuple[int, np.ndarray]]] = {}
    carried = []  # the sets on the complement route
    for i, E in enumerate(sets):
        route, cost = profile_route(len(E), p, dim, force)
        out[i] = _refusal(route, cost, dim, force)
        if out[i] is not None:
            continue
        if route == "convolved":
            try:
                out[i] = np.zeros((2, p), dtype=np.int64)
                _convolved_profile(F, dim, E.ranks, out[i], force)
            except FqlabError as exc:
                out[i] = exc
            continue
        if route == "complement":
            carried.append(i)
        pairs = E.ranks if route == "pairwise" else _complement(p, dim, E.ranks)
        m = pairs.size
        passes.setdefault(m if m * m <= PAIR_CHUNK else -1 - i, []).append((i, pairs))
    # each pass's sets take consecutive rows of one array
    stacked = np.zeros((sum(map(len, passes.values())), 2, p), dtype=np.int64)
    top = 0
    for group in passes.values():
        rows = stacked[top : top + len(group)]
        top += len(group)
        if group[0][1].size:
            stack = np.stack([ranks for _, ranks in group]) if len(group) > 1 else group[0][1][None]
            _pairwise_profile(p, dim, stack, rows)
        for (i, _), row in zip(group, rows):
            out[i] = row
    del passes
    for i in carried:
        try:
            _complement_profile(F, dim, sets[i].ranks, out[i])
        except FqlabError as exc:
            out[i] = exc
    return [
        got if isinstance(got, FqlabError)
        else DegreeProfile(size=len(E), hinges=got[0], pairs=got[1])
        for E, got in zip(sets, out)
    ]


def _pairwise_profile(p: int, dim: int, stack: np.ndarray, sums: np.ndarray) -> None:
    """Add to sums[s] the (hinges, pairs) sums of the m x m distance block
    of set s, for each row s of the (S, m) rank stack, m >= 1; sums is a
    C-contiguous (S, 2, p) int64 array.  The blocks go a chunk of at most
    PAIR_CHUNK pairs at a time, in buffers made once per call: whole sets
    when m**2 <= PAIR_CHUNK, else rows of the one set, so nothing held
    grows with p m or with S m**2.

    ||x - y|| = sum over j of (x_j - y_j)**2 mod p.  An entry is the sum
    of dim squares, in the narrowest of int16, int32 and int64 that holds
    dim (p - 1)**2 (and, when p <= 2m, the chunk's bin indices), reduced
    mod p as v - (v // p) p: numpy divides by one scalar without a divide
    instruction per entry, and its `%` measured about 8 times slower.
    When p <= 2m each row is counted into p bins.  Otherwise each row is
    sorted and only the distances that occur are counted, from its runs of
    equal entries, so no work or memory grows with p.
    """
    S, m = stack.shape
    if m * m <= PAIR_CHUNK:
        per, rows = min(S, PAIR_CHUNK // (m * m)), m  # whole sets a chunk
    else:
        per, rows = 1, max(1, PAIR_CHUNK // m)
    height = per * rows  # rows of each chunk buffer
    # p bins cost O(p) a row and sorting O(m log m): bins measured 1.3 to
    # 1.5 times faster at p = 2m and 1.0 to 1.1 at 4m, sorting 1.1 to 1.4
    # times faster at 8m (m = 60..2000, dim 2)
    by_bins = p <= 2 * m
    # entries are sums of dim squares and, in the bins route, bin indices
    # below height * p
    top = max(dim * (p - 1) ** 2, height * p if by_bins else 0)
    small = np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64
    # One (S, m) array per coordinate of the ranks; a distance does not
    # depend on their order.
    coords = [c.astype(small) for c in np.unravel_index(stack, (p,) * dim)]
    block, term = np.empty((2, height, m), dtype=small)
    if by_bins:
        index = np.empty((height, m), dtype=np.int64)
        offsets = np.arange(0, height * p, p, dtype=small)[:, None]
    else:
        run_starts = np.empty((height, m), dtype=bool)
    for first in range(0, S, per):
        last = min(S, first + per)
        s = sums[first:last]
        flat = s.reshape(-1)  # a view: sums is C-contiguous
        for start in range(0, m, rows):
            stop = min(m, start + rows)
            # the chunk's own rows of each buffer; a short last chunk reads
            # no row left from the one before
            shape = (last - first, stop - start, m)
            n = shape[0] * shape[1]
            b, t = block[:n].reshape(shape), term[:n].reshape(shape)
            np.subtract(coords[0][first:last, start:stop, None],
                        coords[0][first:last, None], out=b)
            np.multiply(b, b, out=b)
            for c in coords[1:]:
                np.subtract(c[first:last, start:stop, None], c[first:last, None], out=t)
                np.multiply(t, t, out=t)
                np.add(b, t, out=b)
            np.floor_divide(b, p, out=t)
            np.multiply(t, p, out=t)
            np.subtract(b, t, out=b)
            b = block[:n]
            if by_bins:
                np.add(b, offsets[:n], out=b)
                ix = index[:n]
                ix[...] = b  # bincount reads intp; this cast fills the one buffer
                deg = np.bincount(ix.ravel(), minlength=n * p).reshape(*shape[:2], p)
                s[:, 0] += np.einsum("sij,sij->sj", deg, deg)
                s[:, 1] += deg.sum(axis=1)
            else:
                b.sort(axis=1)  # a run of r in row x is deg(x, r) long
                edge = run_starts[:n]
                edge[:, 0] = True
                np.not_equal(b[:, 1:], b[:, :-1], out=edge[:, 1:])
                runs = np.flatnonzero(edge)
                # flat index of (set, hinges row, distance) in s; numpy's
                # add.at takes one flat index about 4 times faster than a
                # (set, distance) pair
                at = b.ravel()[runs]
                if shape[0] > 1:
                    at = at + runs // (shape[1] * m) * (2 * p)
                deg = np.diff(runs, append=n * m)
                np.add.at(flat, at + p, deg)
                np.multiply(deg, deg, out=deg)
                np.add.at(flat, at, deg)
    # Each row counted its own point at distance 0: (d - 1)**2 = d**2 - 2d + 1.
    sums[:, 0, 0] += m - 2 * sums[:, 1, 0]
    sums[:, 1, 0] -= m


def _complement(p: int, dim: int, ranks: np.ndarray) -> np.ndarray:
    """The increasing ranks of F_p^dim outside ranks."""
    outside = np.ones(p**dim, dtype=bool)
    outside[ranks] = False
    return np.flatnonzero(outside)


def _complement_profile(
    F: PrimeField, dim: int, ranks: np.ndarray, sums: np.ndarray
) -> None:
    """Turn the (hinges, pairs) rows of sums, which hold the pairwise
    profile of the complement C of E in F_p^dim, into E's, in O(p**2)
    work; E is given by its ranks.

    Every point has K_r other points at distance r in F_p^dim: k_r = |S_r|
    for r != 0 and k_0 - 1.  A point x of E has K_r minus its neighbors
    in C there, so summing over E, and then over the pairs of C that
    share a neighbor x (a pair at distance t has I[r, t] of them, from
    geometry.intersection_table, and a point of C counts itself at
    radius 0),

        pairs_E[r]  = (|E| - |C|) K_r + pairs_C[r]
        hinges_E[r] = |E| K_r**2 - 2 K_r (|C| K_r - pairs_C[r]) + |C| K_r
                      + sum over t of I[r, t] pairs_C[t] - hinges_C[r]
                      - 2 [r = 0] pairs_C[0].

    profile_route takes this route only where _complement_fits bounds
    every int64 sum below 2**63.
    """
    m = ranks.size
    c = F.p**dim - m
    hinges_c, pairs_c = sums.copy()
    K = np.array(sphere_table(F, dim).sizes, dtype=np.int64)
    K[0] -= 1
    sums[1] = (m - c) * K + pairs_c
    sums[0] = (m - 2 * c) * K * K + 2 * K * pairs_c + c * K
    sums[0] += intersection_table(F, dim) @ pairs_c - hinges_c
    sums[0, 0] -= 2 * pairs_c[0]


def _convolved_profile(
    F: PrimeField, dim: int, ranks: np.ndarray, sums: np.ndarray, force: bool
) -> None:
    """Fill the (hinges, pairs) rows of sums from E's degree column in
    every radius' graph, gathered at E's ranks."""
    m = ranks.size
    null = np.full(m, m - 1, dtype=np.int64)
    for _, G, deg in degree_columns(F, dim, [ranks], range(1, F.p), force):
        inside = deg[0, ranks]
        del deg  # dropped before the next radius' column is made
        sums[:, G.a] = inside @ inside, inside.sum()
        null -= inside
    sums[:, 0] = null @ null, null.sum()


def lower_bound_f(profile: DegreeProfile, q: int) -> Fraction:
    """Cauchy-Schwarz floor N**2 / ((q-1)|E|), exact.

    N counts ordered pairs at nonzero distance, so the bound stays valid
    when null pairs exist.  Defined as 0 for the empty set.
    """
    m = profile.size
    if m == 0:
        return Fraction(0)
    N = profile.nonzero_pair_count()
    return Fraction(N * N, (q - 1) * m)


def upper_bound_f(m: int, spectra: Mapping[int, SpectralSummary]) -> tuple[float, float]:
    """Spectral ceilings on f(E) for a set of m points: (per-radius exact,
    uniform asymptotic form).

    The first sums the hinge bound over radii with each radius' exact
    valency and exact second eigenvalue, each distinct term computed once.
    The second replaces them with the max valency and the
    2*p**((dim-1)/2) ceiling, which is the shape the asymptotic statement
    uses; it dominates the first whenever the ceiling really does bound
    every second eigenvalue.
    """
    if not spectra:
        raise MissingSpectrum("no spectra supplied")
    sample = next(iter(spectra.values()))
    p, dim = sample.p, sample.dim
    missing = [a for a in range(1, p) if a not in spectra]
    if missing:
        raise MissingSpectrum(f"missing spectra for radii {missing}")
    for s in spectra.values():
        if s.p != p or s.dim != dim:
            raise MissingSpectrum("supplied spectra mix fields or dimensions")
    if m == 0:
        return 0.0, 0.0
    qd = p**dim
    # A term depends on the radius only through (valency, second
    # eigenvalue), which the dilations x -> t x share across a square
    # class of radii: one term per distinct pair, added in radius order.
    terms, exact = {}, 0.0
    for a in range(1, p):
        s = spectra[a]
        key = s.valency, s.second_eigenvalue
        if key not in terms:
            terms[key] = hinge_bound(qd, *key, m)
        exact += terms[key]
    kmax = max(spectra[a].valency for a in range(1, p))
    ceiling = ramanujan_bound(p, dim)
    asym = (p - 1) * m * (kmax * m / qd + ceiling) ** 2
    return exact, float(asym)


class BoundReport(Record):
    """Every statistic and verdict for one point set.

    regime is "a" when |E| >= q**((dim+1)/2) (ties inclusive) and "b"
    below; ratio_cubic = f*q/|E|**3 is the regime-a diagnostic and
    ratio_linear = f/(|E|*q**dim) the regime-b one.  The four verdicts
    cover the sandwich lower <= f <= upper_exact <= upper_asymptotic and
    the implied floor on the number of realized nonzero distances.
    """

    q: int
    dim: int
    set_size: int
    f_value: int
    distance_set: tuple[int, ...]
    null_pair_count: int
    lower_bound: Fraction
    upper_exact: float
    upper_asymptotic: float
    delta_implied: Fraction
    regime: str
    ratio_cubic: float
    ratio_linear: float
    lower_ok: bool
    upper_ok: bool
    asym_ok: bool
    delta_ok: bool

    @property
    def distance_count(self) -> int:
        return len(self.distance_set)


def check_main_theorem(
    F: PrimeField, dim: int, prof: DegreeProfile, spectra: Mapping[int, SpectralSummary]
) -> BoundReport:
    """Assemble the full report for one point set from its degree profile.

    The verdicts are hard inequalities; the regime label and the two
    dimensionless ratios are reported, not asserted, since the asymptotic
    statement fixes no constants.  delta_implied = N**2/(|E| f) lower
    bounds the number of realized nonzero distances (0 when f = 0).
    """
    m = prof.size
    f = prof.f_value()
    N = prof.nonzero_pair_count()
    nz = tuple(sorted(r for r in prof.distance_values() if r != 0))
    lower = lower_bound_f(prof, F.p)
    if m == 0:
        upper_exact, upper_asym = 0.0, 0.0
    else:
        upper_exact, upper_asym = upper_bound_f(m, spectra)
    delta_implied = Fraction(N * N, m * f) if f else Fraction(0)
    regime = "a" if m >= size_threshold(F.p, dim) else "b"
    return BoundReport(
        q=F.p,
        dim=dim,
        set_size=m,
        f_value=f,
        distance_set=nz,
        null_pair_count=int(prof.pairs[0]),
        lower_bound=lower,
        upper_exact=upper_exact,
        upper_asymptotic=upper_asym,
        delta_implied=delta_implied,
        regime=regime,
        ratio_cubic=float(f * F.p / m**3) if m else 0.0,
        ratio_linear=float(f / (m * F.p**dim)) if m else 0.0,
        lower_ok=bool(lower <= f),
        upper_ok=within_bound(f, upper_exact),
        asym_ok=within_bound(upper_exact, upper_asym),
        delta_ok=bool(delta_implied <= len(nz)),
    )
