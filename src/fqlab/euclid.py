"""The distance graph on F_p^dim joining points at quadratic distance a.

For a nonzero residue a, vertices are all p**dim points and x ~ y exactly
when ||x - y|| = a.  Translation invariance makes this a Cayley graph of
the additive group with the radius-a sphere as connection set, so each
frequency vector m carries one eigenvalue: the additive character summed
over the sphere,

    lam_m = sum over s with ||s|| = a of cos(2*pi*(m.s)/p),

which is exactly real because the sphere is closed under negation.  The
sphere is also invariant under the orthogonal group, which is transitive
on nonzero vectors of equal norm, so lam_m depends only on ||m||: every
radius has at most p + 1 distinct eigenvalues, with sphere sizes as
multiplicities.  The module computes one p x p table of them per (p, dim),
for all radii at once, in closed form: the sphere's Fourier transform is
a Salie sum for odd dim, one cosine per entry, and a Kloosterman sum for
even dim, one matrix of quadratic characters times one vector of
cosines, in O(p**2) work whatever dim is (never a dense eigensolver or
an FFT, and no point of F_p^dim is visited).

recheck_table recomputes the whole table from exact counts of points by
(norm, dot product with one frequency), with no character sum, quadric
count, FFT or p**dim array, and recheck_spectrum judges one radius' row
by it and by the trace identities.  class_transform gathers the sphere's
Fourier transform over Z_p^dim from one radius' row, by frequency norm.

Subset counts need no neighbor table either: the number of neighbors a
vertex v has inside a set B is the cyclic convolution of the indicators
of B and of the sphere over Z_p^dim.  degree_columns is the one route to
a degree column: it transforms each stack of sets once (set_transforms),
and per radius gathers the sphere's transform (class_transform) and
makes every column of the stack with one inverse FFT (certified_columns),
in O(S n log n) time and O(S n) memory for S sets.  verify's subset
pass takes it once per (check, radius), with that check's drawn sets,
and reads each trial's counts off its set's row; the convolution route
of bounds.degree_profiles takes it with the point set as a one-row
stack.  The subset checks of sweep and fcount, which judge a set against
itself, read their counts off its profile instead
(bounds.subset_counts).  Every column is certified exact, so a wrong
table row whose counts leave the integers is refused, not counted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BadSpec, TooLarge, VerificationFailed
from .field import PrimeField
from .geometry import _quadric_counts, _space_size, sphere_size, sphere_table
from .record import Record

# Work over all of F_p^dim (set transforms and degree columns) is refused
# above this many vertices, and the p x p norm-class table above
# this many entries (8 MB of float), unless forced.
SPECTRUM_MAX = 10**6
GROUP_TOL = 1e-6  # eigenvalues closer than this share a multiplicity class
TRACE_REL_TOL = 1e-6  # trace residual tolerance, relative to n * valency
EIGVEC_TOL = 1e-8  # eigenvector residual tolerance, relative to valency
# A degree column is accepted only if every entry lies this close to an
# integer before rounding; exact counts make the true residual 0.
DEGREE_RESIDUAL_TOL = 0.25
# Degree columns are made for at most max(1, STACK_ELEMENTS // n) sets of
# an n-vertex graph at a time, so a stack's transforms and columns stay
# near 2 MiB apiece however many sets share a radius.
STACK_ELEMENTS = 2**18


class EuclidGraphSpec(Record):
    """Descriptor of one distance graph; construction fixes its constants."""

    field: PrimeField
    dim: int
    a: int
    valency: int
    n: int


def euclid_graph(F: PrimeField, dim: int, a: int) -> EuclidGraphSpec:
    """Build the graph descriptor; a must be a nonzero residue, dim >= 2."""
    if dim < 2:
        raise BadSpec(f"graph dimension must be >= 2, got {dim}")
    if not 0 < a < F.p:
        raise BadSpec(f"radius must be a nonzero residue mod {F.p}, got {a}")
    return EuclidGraphSpec(
        field=F, dim=dim, a=a, valency=sphere_size(F, dim, a), n=F.p**dim
    )


def guard_spectrum(p: int, dim: int, force: bool = False) -> None:
    """Refuse work over all p**dim > SPECTRUM_MAX vertices of F_p^dim
    unless forced; degree_columns, the one such route, calls it, and
    verify calls it before it draws a subset for that route."""
    if p**dim > SPECTRUM_MAX and not force:
        raise TooLarge(
            f"p**dim = {p}**{dim} = {p ** dim} exceeds the spectrum guardrail "
            f"{SPECTRUM_MAX}; pass --force to override"
        )


def guard_table(p: int, force: bool = False) -> None:
    """Refuse the p x p norm-class table above SPECTRUM_MAX entries unless
    forced; the spectra of every radius are read off it."""
    if p * p > SPECTRUM_MAX and not force:
        raise TooLarge(
            f"p**2 = {p}**2 = {p * p} exceeds the spectrum table guardrail "
            f"{SPECTRUM_MAX}; pass --force to override"
        )


def ramanujan_bound(p: int, dim: int) -> float:
    """The ceiling 2 * p**((dim-1)/2) on nontrivial eigenvalue magnitudes."""
    return 2.0 * float(p) ** ((dim - 1) / 2)


@functools.lru_cache(maxsize=16)
def _norm_class_table(F: PrimeField, dim: int) -> np.ndarray:
    """Every radius' eigenvalue on every norm class of frequencies, in
    closed form, as a read-only p x p float array.

    values[a, c] is lam_m of G_p(a) for each nonzero m with ||m|| = c, and
    0 for a class with no nonzero m.  Row 0 is the same transform of the
    radius-0 sphere, origin included; it is no graph's row.  For c != 0
    write x = (b/c) m + y with y orthogonal to m: then m.x = b, and the
    form on the (dim-1)-space orthogonal to m has determinant c, so

        lam(a, c) = sum over b of N_{dim-1}(c; a - b**2/c) cos(2*pi*b/p),

    N_n(delta; u) the quadric counts of geometry._quadric_counts.  With eta
    the quadratic character (eta(0) = 0) and r(v) the sum of cos(2*pi*b/p)
    over the roots of b**2 = v (1 at v = 0, 2 cos(2*pi*beta/p) at
    v = beta**2 != 0, else 0), that sum collapses to the sphere's Fourier
    transform as Iosevich and Rudnev (Trans. AMS 359, 2007) evaluate it:

        odd dim (Salie):         p**((dim-1)/2) eta(e c) r(a c),
                                 e = (-1)**((dim-1)/2);
        even dim (Kloosterman):  p**((dim-2)/2) g(a c),
                                 g(u) = sum over b of eta(e (u - b**2)) cos(2*pi*b/p)
                                      = sum over v of eta(e (u - v)) r(v),
                                 e = (-1)**((dim-2)/2).

    An isotropic m (c = 0) spans a hyperbolic plane with some m', whose
    orthogonal (dim-2)-space has determinant -1: the x with m.x = 0 give
    p N_{dim-2}(-1; a) and every other b gives p**(dim-2), so

        lam(a, 0) = p N_{dim-2}(-1; a) - p**(dim-2),

    an integer, exact.  Every entry is real by construction.  O(p**2)
    work, one p x p gather of row[a c] scaled by column, and two p x p
    arrays at the peak, whatever dim is: no FFT, and no point of F_p^dim
    visited.
    """
    p = F.p
    t = np.arange(p)
    eta = np.array(F.square_counts, dtype=np.float64) - 1.0  # b*b = t has 1 + eta(t) roots
    roots = np.bincount(t * t % p, weights=np.cos(2.0 * math.pi / p * t), minlength=p)  # r
    # eta(e x) = eta(e) eta(x), so the sign e is a factor of the scale
    if dim % 2:
        row = roots
        scale = float(p ** ((dim - 1) // 2)) * eta[(-1) ** ((dim - 1) // 2) % p] * eta
    else:
        # g(u) / eta(e) = sum over v of eta(u - v) r(v), a cyclic
        # convolution: the direct linear one, folded mod p
        full = np.convolve(roots, eta)
        row = full[:p]
        row[:-1] += full[p:]
        scale = float(p ** ((dim - 2) // 2)) * eta[(-1) ** ((dim - 2) // 2) % p]
    index = np.multiply.outer(t, t)
    index %= p
    values = row[index]  # row[a c]
    del index
    values *= scale
    if dim >= 2:
        values[:, 0] = [p * N - p ** (dim - 2) for N in _quadric_counts(F, dim - 2, -1)]
    values[:, _class_sizes(F, dim) == 0] = 0.0
    values.setflags(write=False)
    return values


def _class_sizes(F: PrimeField, dim: int) -> np.ndarray:
    """The number of nonzero frequencies of each norm: the sphere sizes,
    less the zero frequency, which is the trivial class."""
    counts = np.array(sphere_table(F, dim).sizes, dtype=np.int64)
    counts[0] -= 1
    return counts


def _group_classes(
    values: np.ndarray, counts: np.ndarray, tol: float
) -> tuple[tuple[float, int], ...]:
    """Merge (value, count) pairs, sorted by descending value, into classes:
    a value more than tol below its class's first member opens a new class,
    whose value is the count-weighted mean."""
    order = np.argsort(-values, kind="stable")
    vals, mults = values[order], counts[order]
    starts, head = [0], float(vals[0])
    for i, v in enumerate(vals.tolist()):
        if head - v > tol:
            starts.append(i)
            head = v
    sizes = np.add.reduceat(mults, starts)
    means = np.add.reduceat(vals * mults, starts) / sizes
    return tuple(zip(means.tolist(), sizes.tolist()))


class SpectralSummary(Record, eq=False):
    """The spectrum of one graph plus its summary statistics.

    norm_values[c] is the eigenvalue on every nonzero frequency m with
    ||m|| = c (0 where there is none), the graph's read-only row of the
    norm-class table, and class_sizes[c] the number of such m; m = 0
    carries trivial_eigenvalue.
    """

    p: int
    dim: int
    a: int
    n: int
    valency: int
    trivial_eigenvalue: float
    second_eigenvalue: float
    ramanujan_bound: float
    trace_sum_residual: float
    trace_square_residual: float
    norm_values: np.ndarray
    class_sizes: np.ndarray

    @functools.cached_property
    def classes(self) -> tuple[tuple[float, int], ...]:
        """Every eigenvalue grouped into multiplicity classes, sorted by
        descending value, values within GROUP_TOL sharing a class; built on
        first read."""
        held = self.class_sizes > 0
        return _group_classes(
            np.append(self.norm_values[held], self.trivial_eigenvalue),
            np.append(self.class_sizes[held], 1),
            GROUP_TOL,
        )


def spectra(
    F: PrimeField, dim: int, radii, force: bool = False
) -> dict[int, SpectralSummary]:
    """The spectrum summary of the distance graph G_p(a) for every radius a
    in radii, read off one norm-class table.

    Nonzero frequencies of one norm share one eigenvalue (the connection
    sphere is invariant under the orthogonal group, which by Witt's theorem
    is transitive on nonzero vectors of equal norm), so the spectrum of
    G_p(a) is row a of the table with the class sizes as multiplicities.
    The table is the closed form of _norm_class_table (Salie sums for odd
    dim, Kloosterman sums for even dim), real by construction, built once
    per (p, dim) in O(p**2) with no FFT.  The second eigenvalue (max |lam_m|
    over nonzero m) and both trace residuals are array operations over the
    (every radius 1..p-1 x populated classes) block, whichever radii are
    asked for: float sums depend on the block's shape, so a radius' summary
    does not depend on the other radii asked for.  The grouping into
    multiplicity classes waits until a summary's classes are read.
    The table is refused above p**2 = SPECTRUM_MAX entries unless forced,
    and a space past int64 ranks (geometry._space_size) always; nothing
    here grows with p**dim.  radii is a range or a list.
    """
    if not radii:
        return {}
    guard_table(F.p, force)  # before any O(p) work: listing radii, building graphs
    graphs = [euclid_graph(F, dim, a) for a in radii]
    # before any table work: past int64 ranks the table's scale and the
    # class sizes leave the float and int64 ranges
    n = _space_size(F.p, dim)
    values = _norm_class_table(F, dim)
    counts = _class_sizes(F, dim)
    counts.setflags(write=False)
    held = counts > 0
    lam, mult = values[1:, held], counts[held]
    k = np.array(sphere_table(F, dim).sizes[1:], dtype=np.float64)
    second = np.abs(lam).max(axis=1).tolist()
    trace_sum = np.abs(k + lam @ mult).tolist()
    trace_square = np.abs(k * k + (lam * lam) @ mult - n * k).tolist()
    ceiling = ramanujan_bound(F.p, dim)
    out = {}
    for G in graphs:
        out[G.a] = SpectralSummary(
            p=F.p,
            dim=dim,
            a=G.a,
            n=n,
            valency=G.valency,
            trivial_eigenvalue=float(G.valency),
            second_eigenvalue=second[G.a - 1],
            ramanujan_bound=ceiling,
            trace_sum_residual=trace_sum[G.a - 1],
            trace_square_residual=trace_square[G.a - 1],
            norm_values=values[G.a],
            class_sizes=counts,
        )
    return out


@functools.lru_cache(maxsize=2)
def _norm_grid(p: int, dim: int) -> np.ndarray:
    """||x|| for every x in Z_p^dim, as a read-only (p,) * dim array indexed
    by the coordinates (norms are symmetric in them, so the axis order needs
    no care)."""
    squares = np.arange(p, dtype=np.int64) ** 2 % p
    grid = functools.reduce(np.add.outer, [squares] * dim) % p
    grid.setflags(write=False)
    return grid


def class_transform(p: int, dim: int, values, trivial: float) -> np.ndarray:
    """A sphere transform read off norm-class values: the rfftn layout
    over Z_p^dim (the (p,) * dim rank-order array, last axis cut to p // 2
    + 1) holding values[||m||] at every frequency m != 0 and trivial at
    m = 0.

    With values row a of the norm-class table and trivial the valency it
    is the rfftn of the radius-a sphere's indicator, gathered from the
    table in place of an FFT over all p**dim points.
    """
    T = np.asarray(values)[_norm_grid(p, dim)[..., : p // 2 + 1]]
    T[(0,) * dim] = trivial  # m = 0 is a class of its own
    return T


def _form_counts(F: PrimeField, scales) -> np.ndarray:
    """#{x in F_p^len(scales) : sum over i of scales[i] x_i**2 = u} for
    every u, as int64: the cyclic convolution of the vectors #{x : c x**2 =
    u} = square_counts[u / c], one per scale c, exact; no entry passes
    p**len(scales)."""
    p = F.p
    squares = np.array(F.square_counts, dtype=np.int64)
    out = np.zeros(p, dtype=np.int64)
    out[0] = 1
    for c in scales:
        full = np.convolve(out, squares[np.arange(p) * pow(c, -1, p) % p])
        out = full[:p]
        out[:-1] += full[p:]
    return out


def _dot_counts(F: PrimeField, dim: int):
    """Yield (c, H) for one frequency m of each kind of populated norm class:
    c = ||m|| and H[a, j] = #{s : ||s|| = a, m.s = j}, j = 0, ..., (p - 1) //
    2 (-j counts the same), exact int64 counts, at most p**(dim-1).

    For m = e_1 (c = 1) and m = (1, b, 0, ...), c = 1 + b**2 a non-square,
    s = (j/c) m + y, y on the orthogonal basis (-b, 1, 0, ...) (norm c),
    e_3, ...: H[a, j] = M[a - j**2/c], M the norm counts of c x_2**2 +
    x_3**2 + ... + x_dim**2.  An isotropic m, (x, y, 1, 0, ...) with x**2 +
    y**2 = -1 or, in dim 2 with p = 1 (mod 4), (i, 1) with i**2 = -1, has
    the isotropic partner m' = e_3 - m/2 (or (-i, 1)/2), m.m' = 1; s = u m +
    j m' + w with w on (-y, x, 0, ...) (norm -1), e_4, ... (nothing in dim
    2) has ||s|| = 2 u j + ||w||, so H[a, j] = p**(dim-2) for j != 0 and
    H[a, 0] = p #{w : ||w|| = a}."""
    p = F.p
    u, j = np.arange(p)[:, None], np.arange((p + 1) // 2)
    squares = F.square_counts
    nonsquare = next(c for c in range(2, p) if not squares[c] and squares[c - 1])
    for c in (1, nonsquare):
        yield c, _form_counts(F, [c] + [1] * (dim - 2))[(u - j * j * pow(c, -1, p)) % p]
    if dim >= 3 or F.minus_one_is_square:
        H = np.full((p, j.size), p ** (dim - 2), dtype=np.int64)
        H[:, 0] = p * (_form_counts(F, [p - 1] + [1] * (dim - 3)) if dim >= 3 else u[:, 0] == 0)
        yield 0, H


def _recomputed_table(F: PrimeField, dim: int) -> np.ndarray:
    """The p x p norm-class table of (F, dim) from _dot_counts, 0 on a class
    with no nonzero frequency.  Dilating m by t != 0 gives lam(a, t**2
    ||m||) = sum over j of H[a, j] cos(2*pi*t*j/p) for every radius a, so
    one product of H with the cosines of t = 1, ..., (p - 1) // 2 fills
    ||m||'s square class.  It rounds by about (p + 1) u k_a (Higham), H's
    row summing to the sphere size k_a; np.einsum's own loop makes it, with
    no BLAS work buffer."""
    p = F.p
    j = np.arange((p + 1) // 2)
    waves = np.cos(2.0 * math.pi / p * np.multiply.outer(j, j[1:]))
    waves[1:] *= 2.0  # j and -j
    out = np.zeros((p, p))
    for c, H in _dot_counts(F, dim):
        t = j[1:] if c else j[1:2]
        out[:, t * t * c % p] = np.einsum("aj,jt->at", H.astype(np.float64), waves[:, t - 1])
    return out


def recheck_table(F: PrimeField, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(worst, at): for every radius a, row 0 too, the largest |recomputed
    - table value| over row a of the norm-class table of (F, dim) and its
    class.  O(p**2) memory and O(p**3) work whatever dim is."""
    resid = _recomputed_table(F, dim)
    resid -= _norm_class_table(F, dim)
    np.abs(resid, out=resid)
    at = resid.argmax(axis=1)
    return resid[np.arange(F.p), at], at


def recheck_spectrum(s: SpectralSummary, worst: np.ndarray, at: np.ndarray) -> float:
    """Recheck the summary s of radius a against recheck_table's (worst,
    at) of its (p, dim); returns worst[a].

    The eigenvalue sum must vanish (no loops) and the square sum must be
    n * valency (each vertex closes valency 2-walks), both to TRACE_REL_TOL
    relative to n * valency.  worst[a] must stay within EIGVEC_TOL times the
    valency and worst[0] within EIGVEC_TOL times the radius-0 sphere's size:
    |lam - table value| is the max-norm residual of A chi_m - lam chi_m for
    each character chi_m of its class.  A breach raises VerificationFailed
    naming the radius and the norm class.
    """
    n, k = s.n, s.valency
    trace_tol = TRACE_REL_TOL * n * k
    r1, r2 = s.trace_sum_residual, s.trace_square_residual
    if r1 > trace_tol or r2 > trace_tol:
        raise VerificationFailed(
            f"trace residuals ({r1}, {r2}) exceed tolerance {trace_tol}"
        )
    for a, size in ((s.a, k), (0, int(s.class_sizes[0]) + 1)):
        tol = EIGVEC_TOL * size
        if not worst[a] <= tol:  # nan too
            raise VerificationFailed(
                f"eigenvector residual {float(worst[a])} at radius {a}, "
                f"norm class {int(at[a])} exceeds {tol}"
            )
    return float(worst[s.a])


def set_transforms(p: int, dim: int, members) -> np.ndarray:
    """rfftn over the last dim axes of the (len(members), p, ..., p) stack
    whose row i is the indicator of the distinct ranks members[i]; each row
    is in the layout of class_transform."""
    rows = np.repeat(np.arange(len(members)), [len(m) for m in members])
    ind = np.zeros((len(members), p**dim))
    ind[rows, np.concatenate(members)] = 1.0
    return np.fft.rfftn(ind.reshape((len(members),) + (p,) * dim), axes=range(1, dim + 1))


def certified_columns(
    G: EuclidGraphSpec, T: np.ndarray, hats: np.ndarray, sizes
) -> np.ndarray:
    """The degree columns of a stack of sets, as an (S, n) int64 array.

    hats is the set_transforms stack of S sets of sizes[i] distinct
    vertices and T the sphere transform of G, as class_transform gathers
    it from G's row of the norm-class table; row i is irfftn(hats[i] * T),
    deg[i, v] = #{y in B_i : ||v - y|| = a}, rounded to int64.  Every row
    keeps its exactness certificate: its entries lie within
    DEGREE_RESIDUAL_TOL of their rounding and sum to valency * sizes[i].
    A breach raises VerificationFailed naming the first failing row.
    """
    raw = np.fft.irfftn(
        hats * T, s=(G.field.p,) * G.dim, axes=range(1, G.dim + 1)
    ).reshape(len(sizes), G.n)
    deg = np.rint(raw).astype(np.int64)
    raw -= deg
    residual = np.abs(raw, out=raw).max(axis=1)
    totals = deg.sum(axis=1)
    want = G.valency * np.asarray(sizes, dtype=np.int64)
    bad = np.flatnonzero((residual >= DEGREE_RESIDUAL_TOL) | (totals != want))
    if bad.size:
        i = int(bad[0])
        raise VerificationFailed(
            f"degree column of row {i} ({sizes[i]} vertices) fails its certificate: "
            f"rounding residual {float(residual[i])!r}, sum {int(totals[i])} != {int(want[i])}"
        )
    return deg


def degree_columns(F: PrimeField, dim: int, members, radii, force: bool = False):
    """Yield (start, G, deg) per stack of the rank arrays members and per
    radius a in radii, stacks outer: G is G_p(a) on F_p^dim and deg the
    certified degree columns of members[start:start + len(deg)] in G.

    A stack holds at most max(1, STACK_ELEMENTS // p**dim) sets and is
    transformed once for all radii.  Nothing yielded is kept here, so one
    column array is alive at a time if the caller drops each before the
    next.  Work past the vertex guardrail is refused before the first
    stack unless forced; no members, no work.
    """
    if not members:
        return
    p = F.p
    guard_spectrum(p, dim, force)
    values = _norm_class_table(F, dim)
    step = max(1, STACK_ELEMENTS // p**dim)
    for start in range(0, len(members), step):
        stack = members[start:start + step]
        hats, sizes = set_transforms(p, dim, stack), [m.size for m in stack]
        for a in radii:
            G = euclid_graph(F, dim, a)
            yield start, G, certified_columns(
                G, class_transform(p, dim, values[a], G.valency), hats, sizes
            )
        del hats
