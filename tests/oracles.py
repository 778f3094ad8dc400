"""Independent brute-force routes used to cross-check the package.

Everything here recomputes quantities from first principles: exhaustive
enumeration over F_p^dim, literal loops over point triples, character
sums over whole spheres and over every point per norm class, sphere
intersections point by point, neighbor tables, and dense matrix powers.
Only the per-verdict subset pass calls the package's degree columns and
bounds, so an agreement is evidence, not tautology; the counts it reads
off those columns (variance_check, hinge_count, degree_sum_check and
mixing_check) are plain loops and sums here, one row at a time.  The
other calls into the package are spectrum,
the one-radius reading of the package's spectra that the tests use,
degree_profile, the one-set reading of the package's degree_profiles,
class_transform, whose gather the per-frequency recheck judges,
parse_generator, which hands the generator oracle its atoms, and
derive_seed and _spanning_sizes, which fix verify's streams and ladders.
The routes the package replaced are kept here as their oracles: the
Fraction routes of the subset bounds, counts and verdict (now integer
numerators and thresholds), the convolution of the sphere sizes (now a
closed form), the generators' tuple-per-point route (now rank arrays),
the int64 arithmetic of the pairwise profile (now chunks of small
integers reduced by floor division), the Gauss-sum fft2 of the
norm-class table (now Salie and Kloosterman closed forms), the spectrum
recheck by one FFT of each radius' sphere over F_p^dim (now one recheck
of the whole table from (norm, dot) counts), verify's draw loops (which
now skip the draws that cannot depend on the seed), vertex_array, the
sorted, deduplicated and range-checked form that verify's draws took
(now each draw sorted as an int64 rank array), the subset
pass's per-verdict judging (now counts against integer limits from one
memo), which reads the package's degree columns and bounds, and the
SHA-256 keys by which sweep and verify deduped their point sets (now an
exact compare of the sets of one size and rank sum).  The package's
records are judged against dataclass twins (dataclass_twin), the
@dataclass decorations they replaced, and replace copies a record as
dataclasses.replace copied those.
The distance, adjacency, neighbor-table, eigenvalue-gather, point-rank,
point-tuple and point-text helpers the tests need, and the package does
not, live here too.
"""

import dataclasses
import functools
import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from fqlab import (
    BadSpec,
    DimensionMismatch,
    FqlabError,
    VerificationFailed,
    degree_profiles,
    parse_generator,
    spectra,
)
from fqlab.bounds import BoundReport, DegreeProfile
from fqlab.cli import _spanning_sizes, derive_seed
from fqlab.euclid import (
    EIGVEC_TOL,
    TRACE_REL_TOL,
    EuclidGraphSpec,
    SpectralSummary,
    class_transform,
    degree_columns,
)
from fqlab.field import PrimeField
from fqlab.geometry import GeneratorSpec, PointSet, SphereTable, _Atom, ranks_to_coords
from fqlab.spectral import (
    bound_threshold,
    degree_sum_bound,
    hinge_bound,
    mixing_bound,
    variance_bound,
)

# The package's record classes, every subclass of fqlab.record.Record.
RECORD_CLASSES = (
    DegreeProfile, BoundReport, EuclidGraphSpec, SpectralSummary, PrimeField,
    SphereTable, PointSet, _Atom, GeneratorSpec,
)


def dataclass_twin(cls):
    """The frozen dataclass with the fields, defaults, eq flag and
    __post_init__ of the record class cls, by make_dataclass: what each
    record did when it was a @dataclass."""
    fields = [
        (name, object, dataclasses.field(default=cls._defaults[name])) if name in cls._defaults
        else (name, object)
        for name in cls._fields
    ]
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, eq=cls.__eq__ is not object.__eq__
    )


def replace(obj, **changes):
    """A record like obj with the given fields changed, built by its class
    from every field, as dataclasses.replace builds a dataclass."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


# Symmetry validation is skipped above this many table entries.
VALIDATE_MAX_ENTRIES = 2_000_000


class VertexOutOfRange(FqlabError):
    """A vertex index falls outside [0, n) for the graph at hand."""


def vertex_array(n: int, S) -> np.ndarray:
    """The distinct vertices of S as a sorted int64 array; raises
    VertexOutOfRange when one leaves [0, n)."""
    arr = S if isinstance(S, np.ndarray) else np.fromiter(S, dtype=np.int64)
    arr = np.sort(arr.astype(np.int64, copy=False))
    distinct = np.empty(arr.size, dtype=bool)
    distinct[:1] = True
    np.not_equal(arr[1:], arr[:-1], out=distinct[1:])
    arr = arr[distinct]
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise VertexOutOfRange(f"vertex set leaves [0, {n})")
    return arr


def norm_brute(p: int, x) -> int:
    return sum(c * c for c in x) % p


def dist_brute(p: int, x, y) -> int:
    return sum((a - b) ** 2 for a, b in zip(x, y)) % p


def distance(F, x, y) -> int:
    """||x - y|| over the field F, for points of equal dimension."""
    if len(x) != len(y):
        raise DimensionMismatch(f"points have dimensions {len(x)} and {len(y)}")
    return dist_brute(F.p, x, y)


def adjacent(G, x, y) -> bool:
    """Whether x and y are joined in the distance graph G."""
    if len(x) != G.dim or len(y) != G.dim:
        raise DimensionMismatch(
            f"points of dimension {len(x)}, {len(y)} in a dim {G.dim} graph"
        )
    return x != y and distance(G.field, x, y) == G.a


def points(E) -> tuple[tuple[int, ...], ...]:
    """The points of a PointSet as coordinate tuples, in rank-array order."""
    return tuple(map(tuple, ranks_to_coords(E.p, E.dim, E.ranks).tolist()))


def format_point_text(ps) -> str:
    """A point set in the point-file format: one comma-separated point per line."""
    return "".join(",".join(str(c) for c in pt) + "\n" for pt in points(ps))


def degree_profile(F, dim: int, E, force: bool = False):
    """The degree profile of one point set: the package's degree_profiles
    of [E], its error raised."""
    (prof,) = degree_profiles(F, dim, [E], force)
    if isinstance(prof, FqlabError):
        raise prof
    return prof


@dataclass(frozen=True, eq=False)
class RegularGraphView:
    """A k-regular graph on vertices 0..n-1; adj[v] lists the k neighbors
    of v."""

    n: int
    k: int
    adj: np.ndarray


def make_view(n: int, k: int, adj: np.ndarray) -> RegularGraphView:
    """Wrap a neighbor table after validating its shape and range, and its
    symmetry when it has at most VALIDATE_MAX_ENTRIES entries."""
    adj = np.asarray(adj, dtype=np.int64)
    if adj.shape != (n, k):
        raise BadSpec(f"adjacency table shape {adj.shape} != ({n}, {k})")
    if adj.size and (adj.min() < 0 or adj.max() >= n):
        raise VertexOutOfRange("neighbor index outside [0, n)")
    if adj.size and adj.size <= VALIDATE_MAX_ENTRIES:
        src = np.repeat(np.arange(n, dtype=np.int64), k)
        dst = adj.ravel()
        fwd = np.lexsort((dst, src))
        rev = np.lexsort((src, dst))
        if not (
            np.array_equal(src[fwd], dst[rev]) and np.array_equal(dst[fwd], src[rev])
        ):
            raise BadSpec("adjacency table is not symmetric")
    return RegularGraphView(n=n, k=k, adj=adj)


def regular_view(G) -> RegularGraphView:
    """The neighbor table of the distance graph G: row x holds the ranks of
    the translates x + s over the radius-a sphere, found by enumeration."""
    p, dim = G.field.p, G.dim
    X = points_by_rank(p, dim)
    S = np.array(sphere_points_brute(p, dim, G.a), dtype=np.int64)
    adj = ((X[:, None, :] + S[None, :, :]) % p) @ (p ** np.arange(dim))
    return make_view(n=G.n, k=G.valency, adj=adj)


def view_column(view: RegularGraphView, B) -> np.ndarray:
    """deg[v] = |N(v) inside B| for every vertex v, read off the neighbor
    table as ind_B[adj].sum(1); duplicates in B count once."""
    members = sorted({int(v) for v in B})
    if members and not (0 <= members[0] and members[-1] < view.n):
        raise VertexOutOfRange(f"vertex set leaves [0, {view.n})")
    ind = np.zeros(view.n, dtype=np.int64)
    ind[members] = 1
    return ind[view.adj].sum(axis=1)


def table_counts(view: RegularGraphView, B, C) -> tuple[Fraction, int, int, int]:
    """(variance, e(B, C), hinges, degree-sum) of the vertex set B, by
    literal loops over the neighbor table, the variance about the mean
    k|B|/n; duplicates in B and C count once."""
    Bset, Cset = {int(v) for v in B}, {int(v) for v in C}
    deg = [sum(1 for u in row if u in Bset) for row in view.adj.tolist()]
    mean = Fraction(view.k * len(Bset), view.n)
    variance = sum((d - mean) ** 2 for d in deg)
    e = sum(deg[v] for v in Cset)
    return variance, e, sum(deg[v] ** 2 for v in Bset), sum(deg[v] for v in Bset)


def neighbors(view, v: int) -> list[int]:
    """Row v of a regular-graph view's neighbor table."""
    if not 0 <= v < view.n:
        raise VertexOutOfRange(f"vertex {v} not in [0, {view.n})")
    return [int(u) for u in view.adj[v]]


def sphere_sizes_brute(p: int, dim: int) -> list[int]:
    """Count points of each norm by enumerating all p**dim vectors."""
    sizes = [0] * p
    for x in product(range(p), repeat=dim):
        sizes[norm_brute(p, x)] += 1
    return sizes


def sphere_sizes_convolution(p: int, dim: int) -> list[int]:
    """Count points of each norm by iterated cyclic convolution of the
    square-count table, in Python ints: O(dim * p**2) work, so it reaches
    the sizes that enumeration cannot."""
    sizes = np.array([1] + [0] * (p - 1), dtype=object)  # F_p^0: one point, norm 0
    for _ in range(dim):
        sizes = sum(np.roll(sizes, x * x % p) for x in range(p))
    return sizes.tolist()


def intersection_counts_brute(p: int, dim: int) -> np.ndarray:
    """counts[v, r] = |S_r & (S_r + v)| for every point v (by rank) and
    radius r: the points x with ||x|| = r and ||x - v|| = r, counted by
    enumerating all p**dim points for each v."""
    pts = points_by_rank(p, dim)
    norms = (pts * pts).sum(axis=1) % p
    counts = np.zeros((len(pts), p), dtype=np.int64)
    for v, shift in enumerate(pts):
        shifted = ((pts - shift) ** 2).sum(axis=1) % p
        counts[v] = np.bincount(norms[norms == shifted], minlength=p)
    return counts


def sphere_points_brute(p: int, dim: int, a: int) -> list[tuple]:
    return sorted(
        x for x in product(range(p), repeat=dim) if norm_brute(p, x) == a % p
    )


def point_rank(p: int, point) -> int:
    """The rank sum(x_i * p**i) of one point, least significant first."""
    return sum(x * p**i for i, x in enumerate(point))


def rank_point(p: int, dim: int, rank: int) -> tuple:
    """The point of rank rank in F_p^dim."""
    return tuple(rank // p**i % p for i in range(dim))


def generate_points_brute(p: int, dim: int, spec: str, seed: int = 0) -> list[tuple]:
    """The points of a valid generator expression as coordinate tuples, the
    route the package took before point sets became rank arrays: atom by
    atom from one random.Random(seed), all in rank order, random in
    random.sample's order over the ranks, box in itertools.product order,
    sphere lexicographic, line for t = 0, ..., p - 1, and a union keeping
    each point's first occurrence."""
    total, threshold = p**dim, float(p) ** ((dim + 1) / 2)
    rng = random.Random(seed)
    seen, out = set(), []
    for atom in parse_generator(spec).atoms:
        if atom.kind == "all":
            pts = [rank_point(p, dim, r) for r in range(total)]
        elif atom.kind == "random":
            n = atom.count
            if n is None:
                n = min(total, max(1, round(atom.rel * threshold)))
            pts = [rank_point(p, dim, r) for r in rng.sample(range(total), n)]
        elif atom.kind == "box":
            side = atom.side
            if side is None:
                side = min(p, max(1, round(max(1.0, atom.rel * threshold) ** (1.0 / dim))))
            pts = list(product(range(side), repeat=dim))
        elif atom.kind == "sphere":
            pts = sphere_points_brute(p, dim, atom.radius)
        else:
            base, step = atom.base, atom.direction
            pts = [tuple((b + t * d) % p for b, d in zip(base, step)) for t in range(p)]
        for pt in pts:
            if pt not in seen:
                seen.add(pt)
                out.append(pt)
    return out


def degree_profile_brute(p: int, points) -> list[list[int]]:
    """deg[i][r] = number of other points at distance r from points[i]."""
    prof = [[0] * p for _ in points]
    for i, x in enumerate(points):
        for y in points:
            if x != y:
                prof[i][dist_brute(p, x, y)] += 1
    return prof


def pairwise_profile_arith(p: int, dim: int, ranks) -> np.ndarray:
    """The (hinges, pairs) rows of the degree profile from all |E|**2
    coordinate differences, squared and summed in int64 and reduced mod p
    by `%` rather than by floor division, in fresh chunks of 2**22 pairs
    rather than the package's reused buffers."""
    ranks = np.asarray(ranks, dtype=np.int64)
    coords = ranks[:, None] // p ** np.arange(dim, dtype=np.int64) % p
    m = coords.shape[0]
    sums = np.zeros((2, p), dtype=np.int64)
    if m == 0:
        return sums
    chunk = max(1, (1 << 22) // m)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        rows = stop - start
        acc = np.zeros((rows, m), dtype=np.int64)
        for j in range(dim):
            acc += (coords[start:stop, j, None] - coords[None, :, j]) ** 2
        acc %= p
        acc += np.arange(0, rows * p, p, dtype=np.int64)[:, None]
        deg = np.bincount(acc.ravel(), minlength=rows * p).reshape(rows, p)
        deg[:, 0] -= 1  # each row includes the point's own zero distance
        sums += [np.einsum("ij,ij->j", deg, deg), deg.sum(axis=0)]
    return sums


def f_brute(p: int, points) -> int:
    """Ordered triples (c, x, y) with ||c-x|| = ||c-y|| != 0, literally."""
    total = 0
    for c in points:
        for x in points:
            r = dist_brute(p, c, x)
            if r == 0:
                continue
            for y in points:
                if dist_brute(p, c, y) == r:
                    total += 1
    return total


def nonzero_pairs_brute(p: int, points) -> int:
    return sum(
        1 for x in points for y in points if x != y and dist_brute(p, x, y) != 0
    )


def null_pairs_brute(p: int, points) -> int:
    return sum(
        1 for x in points for y in points if x != y and dist_brute(p, x, y) == 0
    )


def distance_set_brute(p: int, points) -> set[int]:
    return {dist_brute(p, x, y) for x in points for y in points if x != y}


def neighbors_brute(p: int, dim: int, a: int, x) -> list[tuple]:
    """All y with y != x and ||x-y|| = a, by scanning the whole space."""
    return [
        y
        for y in product(range(p), repeat=dim)
        if y != x and dist_brute(p, x, y) == a
    ]


def adjacency_matrix_brute(p: int, dim: int, a: int) -> np.ndarray:
    """Dense 0/1 adjacency with vertex order = lexicographic point order.

    Independent of the package's rank encoding on purpose; only
    basis-independent quantities (traces, degree lists) are compared.
    """
    pts = list(product(range(p), repeat=dim))
    n = len(pts)
    A = np.zeros((n, n), dtype=np.int64)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if x != y and dist_brute(p, x, y) == a:
                A[i, j] = 1
    return A


def closed_walk_counts(A: np.ndarray) -> tuple[int, int, int]:
    """Traces of A, A**2, A**3: closed walks of length 1, 2, 3."""
    A2 = A @ A
    return int(A.trace()), int(A2.trace()), int((A2 @ A).trace())


def points_by_rank(p: int, dim: int) -> np.ndarray:
    """All p**dim points as rows, row r holding the point of rank
    sum(x_i * p**i) (least significant coordinate first)."""
    return np.array([t[::-1] for t in product(range(p), repeat=dim)], dtype=np.int64)


def eigenvalue_at_brute(p: int, dim: int, a: int, m) -> float:
    """lam_m = sum over the radius-a sphere of cos(2*pi*(m.s)/p), literally."""
    return sum(
        math.cos(2 * math.pi * (sum(mi * si for mi, si in zip(m, s)) % p) / p)
        for s in sphere_points_brute(p, dim, a)
    )


def eigenvalues_brute(p: int, dim: int, a: int) -> tuple[np.ndarray, float]:
    """Every lam_m, indexed by the rank of m, and the worst |imaginary part|.

    The character is summed over the whole sphere for each frequency, in
    blocks of frequencies: O(p**dim * |sphere|) work, independent of any
    symmetry of the spectrum.
    """
    X = points_by_rank(p, dim)
    S = X[(X * X).sum(axis=1) % p == a % p]
    lam = np.empty(len(X))
    imag = 0.0
    block = max(1, (1 << 20) // max(1, len(S)))
    for start in range(0, len(X), block):
        phase = 2 * np.pi * ((X[start:start + block] @ S.T) % p) / p
        lam[start:start + block] = np.cos(phase).sum(axis=1)
        imag = max(imag, float(np.abs(np.sin(phase).sum(axis=1)).max()))
    return lam, imag


def norm_class_table_brute(p: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Every radius' eigenvalue on every norm class, by pairing one
    representative frequency m per class with all p**dim points x.

    values[a, c] is lam_m of the radius-a graph for ||m|| = c (0 for a
    class with no nonzero m) and imag[a] the worst imaginary part over row
    a.  The exact counts H[t, a] of x with m.x = t and ||x|| = a give every
    radius' character sum at once, cos @ H: O(p**(dim+1)) work, with no
    Gauss sum.
    """
    X = points_by_rank(p, dim)
    norms = (X * X).sum(axis=1) % p
    angles = 2.0 * math.pi * np.arange(p) / p
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    values, imag = np.zeros((p, p)), np.zeros((p, p))
    classes, first = np.unique(norms[1:], return_index=True)
    for c, r in zip(classes, first + 1):
        H = np.bincount((X @ X[r]) % p * p + norms, minlength=p * p).reshape(p, p)
        values[:, c] = cos_t @ H
        imag[:, c] = sin_t @ H
    return values, np.abs(imag).max(axis=1)


def _gauss_sum(p: int) -> complex:
    """G(1) = sum over x in F_p of exp(2*pi*i*x**2/p), which Gauss showed
    is sqrt(p) when p == 1 (mod 4) and i*sqrt(p) when p == 3 (mod 4)."""
    return math.sqrt(p) * (1 if p % 4 == 1 else 1j)


def norm_class_table_fft2(p: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The norm-class table by the Gauss-sum route the package took before
    its closed form: (values, imag) as in norm_class_table_brute, imag[a]
    the worst imaginary part over row a's populated classes.

    Writing the sphere indicator as (1/p) sum over t of
    w**(t(||s|| - a)), w = exp(2*pi*i/p), each coordinate's sum over s_j
    is the Gauss sum G(t) w**(-m_j**2 (4t)**-1), and G(t) = eta(t) G(1),
    so for m != 0 with ||m|| = c

        lam(a, c) = (1/p) sum over t != 0 of G(t)**dim w**(-t a - c (4t)**-1):

    one fft2 of the p x p array holding eta(t)**dim at (t, (4t)**-1),
    scaled by G(1)**dim / p.
    """
    t = np.arange(1, p)
    eta = np.array([1.0 if pow(int(x), (p - 1) // 2, p) == 1 else -1.0 for x in t])
    curve = np.zeros((p, p))
    curve[t, [pow(4 * int(x), -1, p) for x in t]] = eta**dim
    table = np.fft.fft2(curve)
    table *= _gauss_sum(p) ** dim / p
    sizes = np.array(sphere_sizes_convolution(p, dim), dtype=np.int64)
    sizes[0] -= 1
    held = sizes > 0
    values = np.where(held, table.real, 0.0)
    return values, np.abs(table.imag[:, held]).max(axis=1)


def norm_class_table_closed_form(
    p: int, dim: int, eta_sign: int = 1, frequency: int = 1, isotropic_shift: int = 0
) -> np.ndarray:
    """The closed form of the norm-class table as written, by literal loops
    over Python ints and math.cos: for c != 0, with eta the quadratic
    character and e = (-1)**h,

        odd dim, h = (dim-1)/2:  p**h eta(e c) (sum of cos(2 pi b/p) over b**2 = a c),
        even dim, h = (dim-2)/2: p**h (sum over b of eta(e (a c - b**2)) cos(2 pi b/p)),

    and p N_{dim-2}(-1; a) - p**(dim-2) at c = 0, the count taken by
    iterated convolution; 0 on a class with no nonzero m.  O(p**3) work.
    The other arguments plant one defect: eta times eta_sign, cos(2 pi
    frequency b/p), and column 0 off by isotropic_shift.
    """
    def eta(x):
        x %= p
        return 0 if x == 0 else eta_sign * (1 if pow(x, (p - 1) // 2, p) == 1 else -1)

    cos = [math.cos(2 * math.pi * frequency * b / p) for b in range(p)]
    h = (dim - 1) // 2 if dim % 2 else (dim - 2) // 2
    e = (-1) ** h
    values = np.zeros((p, p))
    for a in range(p):
        for c in range(1, p):
            if dim % 2:
                root_sum = sum(cos[b] for b in range(p) if b * b % p == a * c % p)
                values[a, c] = p**h * eta(e * c) * root_sum
            else:
                values[a, c] = p**h * sum(eta(e * (a * c - b * b)) * cos[b] for b in range(p))
    if dim >= 2:
        # x_1**2 + ... + x_{dim-3}**2 - x_{dim-2}**2, a form of determinant -1
        counts = np.array([1] + [0] * (p - 1), dtype=object)
        for j in range(dim - 2):
            sign = -1 if j == 0 else 1
            counts = sum(np.roll(counts, sign * x * x % p) for x in range(p))
        values[:, 0] = [p * int(N) - p ** (dim - 2) + isotropic_shift for N in counts]
    sizes = np.array(sphere_sizes_convolution(p, dim))
    sizes[0] -= 1
    values[:, sizes == 0] = 0.0
    return values


def dot_counts_brute(p: int, dim: int, m) -> np.ndarray:
    """H[a, j] = #{s : ||s|| = a, m.s = j} for the frequency m, a, j in
    0..p-1, by pairing m with all p**dim points."""
    X = points_by_rank(p, dim)
    return np.bincount(
        (X * X).sum(axis=1) % p * p + X @ np.array(m) % p, minlength=p * p
    ).reshape(p, p)


def sphere_transform(G) -> np.ndarray:
    """rfftn of the radius-a sphere indicator over Z_p^dim, as the package
    took it before its whole-table recheck.

    The indicator is norms == a over all p**dim points, laid out in rank
    order as a (p,) * dim array.  T[m] = sum over s with ||s|| = a of
    exp(-2*pi*i*(m.s)/p), which is lam_m, for the half of the frequencies
    whose last axis index is at most p // 2 (the rest are their negatives,
    with the same norm and value): class_transform's layout.  No sphere is
    enumerated and no eigenvalue is read.
    """
    p = G.field.p
    squares = np.arange(p) ** 2 % p
    norms = functools.reduce(np.add.outer, [squares] * G.dim) % p
    return np.fft.rfftn(norms == G.a)


def recheck_transform(G, s, T) -> float:
    """The per-frequency recheck of the spectrum summary s of G that the
    package made before its whole-table recheck; returns the worst
    eigenvector residual.

    The trace residuals s carries must stay within TRACE_REL_TOL * n *
    valency.  Then the value s gives for ||m||, gathered by
    class_transform, is compared with T[m], T = sphere_transform(G), at
    every frequency m: |T[m] - lam| is the max-norm residual of A chi_m -
    lam chi_m, which must stay under EIGVEC_TOL times the valency.  So
    beside the table's values it sees that lam is constant on every norm
    class (Witt) and class_transform's layout.  Raises VerificationFailed
    on a breach, naming the frequency, and BadSpec if s belongs to another
    graph.
    """
    if (s.p, s.dim, s.a) != (G.field.p, G.dim, G.a):
        raise BadSpec(f"summary of (p, dim, a) = {(s.p, s.dim, s.a)} is for another graph")
    n, k, p = G.n, G.valency, G.field.p
    trace_tol = TRACE_REL_TOL * n * k
    r1, r2 = s.trace_sum_residual, s.trace_square_residual
    if r1 > trace_tol or r2 > trace_tol:
        raise VerificationFailed(f"trace residuals ({r1}, {r2}) exceed tolerance {trace_tol}")
    resid = np.abs(T - class_transform(p, G.dim, s.norm_values, s.trivial_eigenvalue))
    worst = float(resid.max())
    eig_tol = EIGVEC_TOL * k
    if worst > eig_tol:
        # axis j of the rank-order layout holds coordinate dim - 1 - j
        at = np.unravel_index(resid.argmax(), resid.shape)
        m = tuple(int(c) for c in reversed(at))
        raise VerificationFailed(f"eigenvector residual {worst} at m = {m} exceeds {eig_tol}")
    return worst


def spectrum(G):
    """The spectrum summary of the one distance graph G."""
    return spectra(G.field, G.dim, [G.a])[G.a]


def eigenvalues(s) -> np.ndarray:
    """All p**dim eigenvalues of a spectral summary s, indexed by the rank
    of the frequency vector: s.norm_values gathered by norm, with m = 0
    carrying s.trivial_eigenvalue."""
    lam = np.array(s.norm_values)[(points_by_rank(s.p, s.dim) ** 2).sum(axis=1) % s.p]
    lam[0] = s.trivial_eigenvalue  # m = 0 has norm 0 but is a class of its own
    return lam


def eigvec_residual_brute(G, s, ranks) -> float:
    """max over the frequency ranks given of ||A chi_m - lam chi_m||_inf,
    where chi_m(x) = exp(2*pi*i*(m.x)/p), A is applied by explicit neighbor
    sums over the radius-a sphere (n x len(ranks) complex values), and lam
    is the value the summary s gives for ||m||."""
    p, dim = G.field.p, G.dim
    X = points_by_rank(p, dim)
    ranks = list(ranks)
    V = np.exp(2j * np.pi * ((X @ X[ranks].T) % p) / p)
    AV = np.zeros_like(V)
    weights = p ** np.arange(dim)
    for x in sphere_points_brute(p, dim, G.a):
        AV += V[((X + np.array(x)) % p) @ weights]
    lam = np.array([
        s.norm_values[norm_brute(p, X[r])] if r else s.trivial_eigenvalue for r in ranks
    ])
    return float(np.abs(AV - lam * V).max())


def group_classes_brute(lam: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Sort all eigenvalues descending and cut wherever a value falls more
    than tol below the first member of its class."""
    vals = np.sort(lam)[::-1]
    classes = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[start] - vals[i] > tol:
            classes.append((float(vals[start:i].mean()), i - start))
            start = i
    return classes


def variance_lhs_brute(p: int, dim: int, a: int, B) -> Fraction:
    """Sum over every vertex of (|N(v) cap B| - k|B|/n)^2, exactly."""
    Bset = set(B)
    n = p**dim
    k = len(neighbors_brute(p, dim, a, (0,) * dim))
    mean = Fraction(k * len(Bset), n)
    total = Fraction(0)
    for v in product(range(p), repeat=dim):
        deg = sum(1 for y in neighbors_brute(p, dim, a, v) if y in Bset)
        total += (Fraction(deg) - mean) ** 2
    return total


def mixing_e_brute(p: int, a: int, B, C) -> int:
    """Ordered adjacent pairs (u in B, v in C) by direct distance tests."""
    return sum(
        1 for u in B for v in C if u != v and dist_brute(p, u, v) == a
    )


def hinge_brute(p: int, a: int, E) -> int:
    """Ordered triples (u, v, w) in E**3 with uv and vw edges; u = w allowed."""
    E = list(E)
    total = 0
    for u in E:
        for v in E:
            if u == v or dist_brute(p, u, v) != a:
                continue
            for w in E:
                if w != v and dist_brute(p, v, w) == a:
                    total += 1
    return total


# --- the Fraction routes of the subset bounds, counts and verdict --------

BOUND_TOL = 1e-9  # the pinned bound tolerance


def hinge_bound_fraction(n: int, k: int, lam: float, m: int) -> float:
    """m * (k*m/n + lam)**2, assembled in Fractions, floated last."""
    if m <= 0:
        return 0.0
    b = Fraction(k * m, n) + Fraction(float(lam))
    return float(m * b * b)


def degree_sum_bound_fraction(n: int, k: int, lam: float, m: int) -> Fraction:
    """k*m**2/n + lam*m as a Fraction sum, exact in the float lam."""
    return Fraction(k * m * m, n) + Fraction(float(lam)) * m


def within_bound_fraction(lhs, rhs) -> bool:
    """lhs <= rhs + 1e-9 by Python's own exact comparison: the tolerance
    added exactly to a Fraction bound and in floating point to a float
    one."""
    if isinstance(rhs, Fraction):
        return bool(lhs <= rhs + Fraction(BOUND_TOL))
    return bool(lhs <= rhs + BOUND_TOL)


def variance_check(deg: np.ndarray) -> list[int]:
    """The exact neighbor-count variance over all vertices, for every row
    i, as its numerator over n: the sum over v of (deg[i, v] -
    k|B_i|/n)**2 is (n * sum deg[i]**2 - t_i**2) / n, deg[i] the degree
    column of B_i and t_i = k|B_i| the row sum."""
    n = deg.shape[1]
    out = []
    for row in deg.tolist():
        t = sum(row)
        out.append(n * sum(d * d for d in row) - t * t)
    return out


def _member_rows(deg: np.ndarray, members):
    """(row, the members of that row's set) for every row of deg, as
    lists of ints; raises VertexOutOfRange when a member leaves [0, n)."""
    n = deg.shape[1]
    for row, m in zip(deg.tolist(), members):
        m = [int(v) for v in m]
        if any(not 0 <= v < n for v in m):
            raise VertexOutOfRange(f"vertex set leaves [0, {n})")
        yield row, m


def hinge_count(deg: np.ndarray, members) -> list[int]:
    """Ordered hinges (u, v, w) in E_i**3 with uv and vw edges, u == w
    counting, for every row i: the sum over v in members[i] of deg[i, v]
    squared, deg[i] the degree column of E_i and members[i] its sorted
    vertex array."""
    return [sum(row[v] ** 2 for v in m) for row, m in _member_rows(deg, members)]


def degree_sum_check(deg: np.ndarray, members) -> list[int]:
    """The sum over v in members[i] of deg[i, v], for every row i: with
    deg[i] the degree column of B_i this is e(B_i, members[i]), and with
    members[i] = B_i = E it is e(E, E), the mixing step the hinge bound
    squares."""
    return [sum(row[v] for v in m) for row, m in _member_rows(deg, members)]


def mixing_check(deg: np.ndarray, C) -> list[tuple[int, int]]:
    """(e_i, |e_i * n - t_i|C_i||) for every row i, the second the
    numerator over n of the deviation |e_i - k|B_i||C_i|/n|; deg[i] is
    the degree column of B_i, t_i = k|B_i| its row sum, and C[i] the
    sorted vertex array of C_i."""
    e = degree_sum_check(deg, C)
    n = deg.shape[1]
    totals = deg.sum(axis=1).tolist()
    return [(ei, abs(ei * n - t * len(c))) for ei, t, c in zip(e, totals, C)]


def variance_fraction(deg: np.ndarray) -> list[Fraction]:
    """Sum over v of (deg[i, v] - k|B_i|/n)**2 for every row i of a degree
    column stack, the row sum standing for k|B_i|."""
    n = deg.shape[1]
    return [
        sum((Fraction(int(d)) - Fraction(int(row.sum()), n)) ** 2 for d in row)
        for row in deg
    ]


def mixing_fraction(deg: np.ndarray, C) -> list[tuple[int, Fraction]]:
    """(e_i, |e_i - k|B_i||C_i|/n|) for every row i, e_i the degree sum
    of row i over the distinct vertices of C[i]."""
    n = deg.shape[1]
    out = []
    for row, c in zip(deg, C):
        members = sorted(set(int(v) for v in c))
        e = sum(int(row[v]) for v in members)
        out.append((e, abs(e - Fraction(int(row.sum()) * len(members), n))))
    return out


# --- the subset pass, one verdict at a time -----------------------------


def graph_rows_per_verdict(F, dim, spectra, radii, members, items, force):
    """Yield (a, i, column, lam_kind, lhs, rhs, holds) for the i-th (check,
    row, C) item, set members[row] judged by check as in a trial of
    verify's subset pass (cli._subset_records), paired with C for mixing,
    on each radius a, one verdict at a time: per (stack, radius) of the package's
    degree_columns, the counts of this module, row by row, and per item
    each bound computed anew under the exact second eigenvalue and the
    ceiling, judged by cross-multiplying its count with bound_threshold.
    The columns and bounds are the package's own."""
    bounds = {
        "variance": lambda n, k, lam, b: variance_bound(n, lam, b),
        "mixing": lambda n, k, lam, b, c: mixing_bound(lam, b, c),
        "hinge": lambda n, k, lam, b: hinge_bound(n, k, lam, b),
        "eq2": lambda n, k, lam, b: degree_sum_bound(n, k, lam, b),
    }
    for start, G, deg in degree_columns(F, dim, members, radii, force):
        stack = members[start:start + len(deg)]
        n, k, s = G.n, G.valency, spectra[G.a]
        variance, hinges, sums = variance_check(deg), hinge_count(deg, stack), degree_sum_check(deg, stack)
        for i, (check, row, C) in enumerate(items):
            row -= start
            if not 0 <= row < len(stack):
                continue
            b = stack[row].size
            if check == "mixing":
                [(_, deviation)] = mixing_check(deg[[row]], [C])
                sides = [("mixing", deviation, n, (b, C.size))]
            elif check == "variance":
                sides = [("variance", variance[row], n, (b,))]
            else:
                sides = [("hinge", hinges[row], 1, (b,)), ("eq2", sums[row], 1, (b,))]
            for lam_kind, lam in (("exact", s.second_eigenvalue), ("ceiling", s.ramanujan_bound)):
                for column, lhs_num, lhs_den, sizes in sides:
                    rhs = bounds[column](n, k, lam, *sizes)
                    num, den = bound_threshold(rhs)
                    holds = lhs_num * den <= num * lhs_den
                    yield G.a, i, column, lam_kind, lhs_num / lhs_den, rhs, holds


# --- verify's draws, as the command made them before it skipped any -------


def subset_draws_replay(p, dim, a, check, trials, seed):
    """The (B, C) of each trial of verify's subset check on radius a, as
    sorted rank lists, every set drawn: one random.Random(derive_seed(seed,
    check, p, dim, a)) draws B, then C for mixing (None otherwise), per size
    of _spanning_sizes(p**dim, trials)."""
    n = p**dim
    rng = random.Random(derive_seed(seed, check, p, dim, a))
    draws = []
    for size in _spanning_sizes(n, trials):
        B = sorted(rng.sample(range(n), size))
        C = sorted(rng.sample(range(n), rng.randint(1, n))) if check == "mixing" else None
        draws.append((B, C))
    return draws


def point_set_draws_replay(p, dim, cap, trials, seed):
    """The sorted ranks of each rung of verify's point-set ladder, every
    rung drawn from one random.Random(derive_seed(seed, "main", p, dim))."""
    rng = random.Random(derive_seed(seed, "main", p, dim))
    return [sorted(rng.sample(range(p**dim), size)) for size in _spanning_sizes(cap, trials)]


# --- the set dedupe, as sweep and verify keyed their sets by a digest -----


def distinct_sets_sha256(sets) -> tuple[list, list[int]]:
    """(distinct, index) of a list of point sets as cli._distinct_sets
    gives them, by the route it replaced: each set keyed by the SHA-256
    digest of its rank buffer, the first set of each key kept."""
    keys = [hashlib.sha256(E.ranks).digest() for E in sets]
    firsts = list(dict.fromkeys(keys))
    distinct = [sets[keys.index(key)] for key in firsts]
    return distinct, [firsts.index(key) for key in keys]
