"""Vectors in F_p^dim: sphere counts and enumeration, point-set
generators, and the point-set text format.

A point is named by its rank sum(x_i * p**i), least significant
coordinate first.  A PointSet is one read-only int64 rank array with p,
dim and a label; generators build the array directly, callers derive
coordinates (ranks // p**i % p) only where they need them, and tuples of
ints appear only at the edges: point text and sphere enumeration.
Sphere sizes, and the sizes of the intersections of a sphere with its
translates, come in closed form from the quadratic character, so
counting never enumerates the space; enumeration is a separate,
guardrailed operation.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import (
    BadSpec,
    DimensionMismatch,
    InfeasibleSize,
    TooLarge,
    VerificationFailed,
)
from .field import PrimeField
from .record import Record

Point = tuple[int, ...]

# Enumerating p**dim points is refused above this unless forced.
SPHERE_ENUM_MAX = 10**7


def guard_enumeration(count: int, force: bool = False) -> None:
    """Refuse to enumerate more than SPHERE_ENUM_MAX points unless forced."""
    if count > SPHERE_ENUM_MAX and not force:
        raise TooLarge(
            f"{count} points exceed the enumeration guardrail {SPHERE_ENUM_MAX}; "
            "pass --force to override"
        )


def _space_size(p: int, dim: int) -> int:
    """p**dim, refused when dim < 1 or int64 ranks cannot name every point."""
    if dim < 1:
        raise BadSpec(f"dimension must be >= 1, got {dim}")
    n = p**dim
    if n - 1 > np.iinfo(np.int64).max:
        raise BadSpec(f"F_{p}^{dim} has {p}**{dim} points, more than int64 ranks can name")
    return n


def coords_to_ranks(p: int, coords: np.ndarray) -> np.ndarray:
    """The ranks of the rows of an (n, dim) coordinate array."""
    coords = np.asarray(coords, dtype=np.int64)
    weights = p ** np.arange(coords.shape[1], dtype=np.int64)
    return coords @ weights


def ranks_to_coords(p: int, dim: int, ranks: np.ndarray) -> np.ndarray:
    """The (n, dim) coordinates of n ranks: column i is ranks // p**i % p."""
    return ranks[:, None] // p ** np.arange(dim, dtype=np.int64) % p


class SphereTable(Record):
    """Exact sphere sizes: sizes[a] = #{x in F_p^dim : ||x|| = a}."""

    p: int
    dim: int
    sizes: tuple[int, ...]


def _quadric_counts(F: PrimeField, n: int, delta: int) -> tuple[int, ...]:
    """N_n(delta; b) for every b: the number of x in F_p^n with Q(x) = b,
    for a nondegenerate quadratic form Q in n variables of determinant
    delta, which counts only through its square class.

    With eta the quadratic character of F_p (eta(0) = 0) (Lidl and
    Niederreiter, Finite Fields, Theorems 6.26 and 6.27),

        p**(n-1) + p**((n-1)/2) * eta((-1)**((n-1)/2) * b * delta)    n odd,
        p**(n-1) + v(b) * p**(n/2-1) * eta((-1)**(n/2) * delta)       n even,

    with v(0) = p - 1 and v(b) = -1 otherwise; n = 0 leaves only Q() = 0.
    The counts are exact Python ints, in O(p) work whatever p**n is.
    """
    p = F.p
    if n == 0:
        return (1,) + (0,) * (p - 1)
    eta = [c - 1 for c in F.square_counts]  # x*x = t has 1 + eta(t) roots
    if n % 2:
        sign, half = (-1) ** ((n - 1) // 2) * delta, p ** ((n - 1) // 2)
        # the three counts, made once and indexed by eta + 1, so p entries
        # share three ints whatever their size
        base = p ** (n - 1)
        values = (base - half, base, base + half)
        counts = tuple(values[eta[sign * b % p] + 1] for b in range(p))
    else:
        step = p ** (n // 2 - 1) * eta[(-1) ** (n // 2) * delta % p]
        counts = (p ** (n - 1) + (p - 1) * step,) + (p ** (n - 1) - step,) * (p - 1)
    assert sum(counts) == p**n
    return counts


@functools.lru_cache(maxsize=256)
def sphere_table(F: PrimeField, dim: int) -> SphereTable:
    """Sizes of all p spheres at once, in closed form: the number of x in
    F_p^dim with x_1**2 + ... + x_dim**2 = a is N_dim(1; a) of
    _quadric_counts, in O(p) work whatever p**dim is."""
    if dim < 1:
        raise BadSpec(f"dimension must be >= 1, got {dim}")
    return SphereTable(p=F.p, dim=dim, sizes=_quadric_counts(F, dim, 1))


def _intersection_counts(F: PrimeField, dim: int) -> np.ndarray:
    """The p x p int64 table I[r, t] = |S_r & (S_r + v)| for any nonzero v
    of norm t, S_r the sphere of norm r in F_p^dim, in closed form.

    By Witt's theorem the orthogonal group is transitive on the nonzero
    vectors of one norm, so the count depends on v only through ||v||.  A
    point x lies in both spheres exactly when ||x|| = r and 2 x.v = t.
    For t != 0, x = v/2 + y with y in the (dim-1)-space orthogonal to v,
    whose form has determinant t up to squares, and ||y|| = r - t/4:
    I[r, t] = N_{dim-1}(t; r - t/4).  For t = 0, v is isotropic, the
    space orthogonal to it is the line of v plus a (dim-2)-space of
    determinant -1, and I[r, 0] = p * N_{dim-2}(-1; r); dim 1 has no such
    v, and that column is 0.  O(p**2) work in numpy, no float.
    """
    p = F.p
    eta = np.array(F.square_counts) - 1
    nonsquare = int(np.argmin(eta))
    # row 0 for determinants that are squares, row 1 for the rest
    counts = np.array(
        [_quadric_counts(F, dim - 1, 1), _quadric_counts(F, dim - 1, nonsquare)],
        dtype=np.int64,
    )
    # index[r, t] = (r - t/4 mod p) + p [t is a nonsquare], into counts
    # flattened; column 0 is overwritten below
    index = np.add.outer(np.arange(p, dtype=np.int64), p - np.arange(p) * pow(4, -1, p) % p)
    index %= p
    index += np.where(eta < 0, p, 0)
    table = counts.ravel()[index]
    del index
    table[:, 0] = p * np.array(_quadric_counts(F, dim - 2, -1)) if dim >= 2 else 0
    return table


@functools.lru_cache(maxsize=16)
def intersection_table(F: PrimeField, dim: int) -> np.ndarray:
    """_intersection_counts, read-only, once it meets the double count

        sum over t of I[r, t] * #{v != 0 : ||v|| = t} = k_r (k_r - 1)

    at every radius r, k_r the sphere sizes: both sides count ordered
    pairs of distinct points of S_r.  Raises VerificationFailed where a
    row breaks it.
    """
    table = _intersection_counts(F, dim)
    k = np.array(sphere_table(F, dim).sizes, dtype=np.int64)
    others = k.copy()
    others[0] -= 1  # #{v != 0 : ||v|| = t}
    breach = np.flatnonzero(table @ others != k * (k - 1))
    if breach.size:
        raise VerificationFailed(
            f"sphere intersection table of F_{F.p}^{dim} fails its double "
            f"count at radius {int(breach[0])}"
        )
    table.flags.writeable = False
    return table


def sphere_size(F: PrimeField, dim: int, a: int) -> int:
    return sphere_table(F, dim).sizes[a % F.p]


def sphere_points(F: PrimeField, dim: int, a: int, force: bool = False) -> list[Point]:
    """All points of norm a, in lexicographic coordinate order.

    The points are found coordinate by coordinate, pruning any prefix whose
    remaining norm has an empty sphere in the remaining coordinates, so
    every prefix tried leads to at least one point.
    """
    if dim < 1:
        raise BadSpec(f"dimension must be >= 1, got {dim}")
    p = F.p
    a = a % p
    guard_enumeration(p**dim, force)
    tables = [sphere_table(F, j).sizes for j in range(1, dim)]
    roots: list[list[int]] = [[] for _ in range(p)]
    for x in range(p):
        roots[x * x % p].append(x)
    out: list[Point] = []
    prefix: list[int] = []

    def descend(remaining: int, need: int) -> None:
        if remaining == 1:
            for x in roots[need]:
                out.append(tuple(prefix) + (x,))
            return
        lower = tables[remaining - 2]
        for x in range(p):
            rest = (need - x * x) % p
            if lower[rest]:
                prefix.append(x)
                descend(remaining - 1, rest)
                prefix.pop()

    descend(dim, a)
    return out


class PointSet(Record, eq=False):
    """A duplicate-free ordered set of points of F_p^dim, held as their
    ranks: a read-only int64 array, the one given when it is read-only and
    owns its memory, else a copy of the ranks given."""

    ranks: np.ndarray
    p: int
    dim: int
    origin_label: str = ""

    def __post_init__(self):
        n = _space_size(self.p, self.dim)
        ranks = np.asarray(self.ranks, dtype=np.int64)
        if ranks.ndim != 1:
            raise DimensionMismatch(f"ranks must be a flat array, got shape {ranks.shape}")
        # Increasing ranks need one neighbor compare; any others one sort,
        # whose copy is freed before a copy is kept.
        ordered = ranks if np.all(ranks[1:] > ranks[:-1]) else np.sort(ranks)
        if ordered.size and (ordered[0] < 0 or ordered[-1] >= n):
            raise BadSpec(f"point rank outside [0, {n}) of F_{self.p}^{self.dim}")
        if ordered is not ranks:
            twins = np.flatnonzero(ordered[1:] == ordered[:-1])
            if twins.size:
                twin = ranks_to_coords(self.p, self.dim, ordered[twins[:1]])[0]
                raise BadSpec(f"duplicate point {tuple(twin.tolist())}")
            del ordered
        if ranks.flags.writeable or not ranks.flags.owndata:
            ranks = ranks.copy()
            ranks.flags.writeable = False
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return self.ranks.size


def size_threshold(p: int, dim: int) -> float:
    """The regime boundary p**((dim+1)/2) on the set-size axis."""
    return float(p) ** ((dim + 1) / 2)


class _Atom(Record):
    kind: str
    count: int | None = None
    rel: float | None = None
    side: int | None = None
    radius: int | None = None
    base: Point | None = None
    direction: Point | None = None


class GeneratorSpec(Record):
    """A parsed point-set generator expression; text keeps the original."""

    text: str
    atoms: tuple[_Atom, ...]

    @property
    def uses_seed(self) -> bool:
        """Only random atoms draw on the seed; any other set is the same
        for every seed."""
        return any(atom.kind == "random" for atom in self.atoms)

    def size_floor(self, F: PrimeField, dim: int) -> int:
        """The largest atom's size in F_p^dim, from the atoms' parameters:
        a floor on the generated set's size, for guardrails before a draw."""
        total = _space_size(F.p, dim)
        return max(_atom_size(F, dim, total, atom) for atom in self.atoms)


def _parse_size_token(token: str, what: str) -> tuple[int | None, float | None]:
    # A trailing "t" makes the size relative to the threshold p**((dim+1)/2).
    if token.endswith("t"):
        try:
            rel = float(token[:-1])
        except ValueError:
            raise BadSpec(f"cannot parse {what} {token!r}") from None
        if not math.isfinite(rel) or rel <= 0:
            raise BadSpec(f"{what} multiplier must be positive, got {token!r}")
        return None, rel
    try:
        value = int(token)
    except ValueError:
        raise BadSpec(f"cannot parse {what} {token!r}") from None
    if value < 0:
        raise BadSpec(f"{what} must be nonnegative, got {value}")
    return value, None


def _parse_point_token(token: str) -> Point:
    try:
        return tuple(int(part) for part in token.split(","))
    except ValueError:
        raise BadSpec(f"cannot parse point {token!r}") from None


def _parse_atom(token: str) -> _Atom:
    token = token.strip()
    if token == "all":
        return _Atom(kind="all")
    head, sep, arg = token.partition(":")
    if not sep or not arg:
        raise BadSpec(f"unrecognized generator {token!r}")
    if head == "random":
        count, rel = _parse_size_token(arg, "random size")
        return _Atom(kind="random", count=count, rel=rel)
    if head == "box":
        side, rel = _parse_size_token(arg, "box side")
        return _Atom(kind="box", side=side, rel=rel)
    if head == "sphere":
        try:
            radius = int(arg)
        except ValueError:
            raise BadSpec(f"cannot parse sphere radius {arg!r}") from None
        return _Atom(kind="sphere", radius=radius)
    if head == "line":
        base_txt, sep2, dir_txt = arg.partition(";")
        if not sep2:
            raise BadSpec(f"line generator needs 'base;direction', got {arg!r}")
        return _Atom(
            kind="line",
            base=_parse_point_token(base_txt),
            direction=_parse_point_token(dir_txt),
        )
    raise BadSpec(f"unknown generator kind {head!r}")


def parse_generator(text: str) -> GeneratorSpec:
    """Parse a generator expression.

    Grammar: atoms joined by '+', each atom one of
      all              every point of the space
      random:N         N distinct points, uniform; N may be 'Xt' for
                       round(X * p**((dim+1)/2)), clamped to the space
      box:S            the box [0,S)^dim; S may be 'Xt' (side solved from
                       the target size, clamped to [1, p])
      sphere:A         all points of norm A
      line:P;D         the p points P + t*D, direction D nonzero
    """
    atoms = tuple(_parse_atom(tok) for tok in text.split("+"))
    return GeneratorSpec(text=text, atoms=atoms)


def _box_side(p: int, dim: int, atom: _Atom) -> int:
    """The box atom's side, solved from its target size if relative."""
    side = atom.side
    if side is None:
        target = max(1.0, atom.rel * size_threshold(p, dim))
        side = min(p, max(1, round(target ** (1.0 / dim))))
    if side > p:
        raise BadSpec(f"box side {side} exceeds p = {p}")
    return side


def _atom_size(F: PrimeField, dim: int, total: int, atom: _Atom) -> int:
    """The number of points atom makes in F_p^dim (total points), from its
    parameters alone; a random count past total raises InfeasibleSize."""
    p = F.p
    if atom.kind == "random":
        n = atom.count
        if n is None:
            n = min(total, max(1, round(atom.rel * size_threshold(p, dim))))
        if n > total:
            raise InfeasibleSize(f"requested {n} distinct points from a space of {total}")
        return n
    if atom.kind == "box":
        return _box_side(p, dim, atom) ** dim
    if atom.kind == "sphere":
        if not 0 <= atom.radius < p:
            raise BadSpec(f"sphere radius {atom.radius} is not a residue mod {p}")
        return sphere_size(F, dim, atom.radius)
    return p if atom.kind == "line" else total


def _atom_ranks(
    F: PrimeField, dim: int, total: int, atom: _Atom, rng: random.Random, force: bool
) -> np.ndarray:
    p, size = F.p, _atom_size(F, dim, total, atom)
    if atom.kind in ("all", "random", "box"):
        guard_enumeration(size, force)
    if atom.kind == "all":
        return np.arange(size, dtype=np.int64)
    if atom.kind == "random":
        return np.array(rng.sample(range(total), size), dtype=np.int64)
    if atom.kind == "box":
        side = _box_side(p, dim, atom)
        # itertools.product order: the first coordinate varies slowest
        return coords_to_ranks(p, np.indices((side,) * dim).reshape(dim, -1).T)
    if atom.kind == "sphere":
        points = sphere_points(F, dim, atom.radius, force=force)
        return coords_to_ranks(p, np.array(points, dtype=np.int64).reshape(-1, dim))
    if atom.kind == "line":
        base, direction = atom.base, atom.direction
        if len(base) != dim or len(direction) != dim:
            raise BadSpec("line base/direction dimension mismatch")
        if any(not 0 <= c < p for c in base + direction):
            raise BadSpec(f"line coordinates must be residues mod {p}")
        if all(c == 0 for c in direction):
            raise BadSpec("line direction must be nonzero")
        t = np.arange(p, dtype=np.int64)[:, None]
        return coords_to_ranks(p, (np.array(base) + t * np.array(direction)) % p)
    raise BadSpec(f"unknown generator kind {atom.kind!r}")


def generate_point_set(
    F: PrimeField,
    dim: int,
    spec: GeneratorSpec | str,
    seed: int = 0,
    force: bool = False,
) -> PointSet:
    """Produce a point set from a generator expression, deterministically.

    The same (spec, seed) always yields the same set in the same order.
    Unions deduplicate, keeping the first occurrence.
    """
    gs = parse_generator(spec) if isinstance(spec, str) else spec
    total = _space_size(F.p, dim)
    rng = random.Random(seed)
    parts = [_atom_ranks(F, dim, total, atom, rng, force) for atom in gs.atoms]
    ranks = parts[0]
    if len(parts) > 1:  # a union; one atom's ranks reach PointSet uncopied
        ranks = np.concatenate(parts)
        ranks = ranks[np.sort(np.unique(ranks, return_index=True)[1])]
    ranks.flags.writeable = False  # fresh, so PointSet keeps it
    return PointSet(ranks, p=F.p, dim=dim, origin_label=gs.text)


def parse_point_text(text: str) -> list[Point]:
    """Parse the one-point-per-line text format.

    Lines hold comma-separated decimal residues; '#' comments and blank
    lines are ignored, the dimension is fixed by the first data line, and
    duplicate points are rejected.
    """
    points: list[Point] = []
    seen: set[Point] = set()
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pt = tuple(int(part) for part in line.split(","))
        except ValueError:
            raise BadSpec(
                f"line {lineno}: cannot parse {line!r} as comma-separated residues"
            ) from None
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise DimensionMismatch(
                f"line {lineno}: expected {dim} coordinates, got {len(pt)}"
            )
        if pt in seen:
            raise BadSpec(f"line {lineno}: duplicate point {line!r}")
        seen.add(pt)
        points.append(pt)
    return points


def load_point_set(
    text: str, F: PrimeField, dim: int | None = None, label: str = "points"
) -> PointSet:
    """Parse point text and validate every coordinate against the field."""
    pts = parse_point_text(text)
    if not pts:
        if dim is None:
            raise BadSpec("empty point list and no dimension given")
        return PointSet([], p=F.p, dim=dim, origin_label=label)
    d = len(pts[0])
    if dim is not None and d != dim:
        raise DimensionMismatch(f"points have dimension {d}, expected {dim}")
    for pt in pts:
        if any(not 0 <= c < F.p for c in pt):
            raise BadSpec(f"coordinate out of range [0, {F.p}) in point {pt}")
    return PointSet(coords_to_ranks(F.p, pts), p=F.p, dim=d, origin_label=label)
