"""Finitely generated abelian groups presented by integer matrices.

A group is Z^g modulo the column span of an integer relation matrix.  All
structure questions (invariant factors, exponents, membership, kernels,
exactness of complexes) reduce to Smith normal form over Z, computed here with
arbitrary-precision integers and explicit unimodular transforms.  Membership
factors each generator set once and then tests any number of vectors against
that one factorisation.

>>> G = FgAbGroup.of_cyclics("a", "b", orders=(2, 4))
>>> exponent(G)
4
>>> invariant_factors(G)
(2, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import IllDefinedMap, NotComposable, RankMismatch

Matrix = list[list[int]]


# --- integer matrix helpers --------------------------------------------------

def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out

def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def columns_of(m: Sequence[Sequence[int]]) -> list[list[int]]:
    if not m:
        return []
    return [[row[j] for row in m] for j in range(len(m[0]))]


def matrix_from_columns(cols: Sequence[Sequence[int]], rows: int) -> Matrix:
    return [[col[i] for col in cols] for i in range(rows)]


class SNF(NamedTuple):
    d: Matrix        # diagonal, d1 | d2 | ..., entries >= 0
    u: Matrix        # unimodular row transform
    v: Matrix        # unimodular column transform; u @ m @ v == d
    diagonal: tuple[int, ...]


def smith_normal_form(m: Sequence[Sequence[int]]) -> SNF:
    """Diagonalise an integer matrix by unimodular row and column operations.

    Returns (D, U, V) with U*M*V = D, the diagonal non-negative with each entry
    dividing the next, and det(U), det(V) = +-1.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        # find a pivot of least absolute value in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # make the pivot divide the rest of the block
            stray = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            add_row(stray, t, 1)
        if a[t][t] < 0:
            negate_row(t)

    diag = [a[i][i] for i in range(n)]
    return SNF(a, u, v, tuple(diag))


def integer_kernel(m: Sequence[Sequence[int]], cols: int) -> list[list[int]]:
    """Basis of the integer kernel of m acting on Z^cols (columns as vectors)."""
    if not m or cols == 0:
        return [list(col) for col in identity_matrix(cols)]
    snf = smith_normal_form(m)
    rank = sum(1 for d in snf.diagonal if d != 0)
    vcols = columns_of(snf.v)
    return [vcols[j] for j in range(rank, cols)]


def _lattice_solver(gens: Sequence[Sequence[int]], dim: int):
    """Factor the generators once; the returned function maps a vector v of
    length dim to integer coefficients c with sum c_i * gens_i = v, or None."""
    if not gens:
        return lambda v: [] if all(x == 0 for x in v) else None
    snf = smith_normal_form(matrix_from_columns(gens, dim))
    diag, n = snf.diagonal, len(gens)

    def solve(v: Sequence[int]) -> Optional[list[int]]:
        y = mat_vec(snf.u, list(v))
        coeffs = [0] * n
        for i in range(dim):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if y[i] != 0:
                    return None
            elif y[i] % d:
                return None
            else:
                coeffs[i] = y[i] // d
        return mat_vec(snf.v, coeffs)

    return solve


def solve_in_lattice(gens: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[list[int]]:
    """Integer coefficients c with sum c_i * gens_i = v, or None.

    ``gens`` is a list of vectors, all of the same length.
    """
    return _lattice_solver(gens, len(v))(v)


def lattice_spans(gens: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]],
                  dim: int) -> bool:
    """Does the integer span of ``gens`` contain every one of ``vectors``?

    All vectors have length ``dim``.  The generators are factored once, and
    not at all when there is nothing to test.
    """
    if not vectors:
        return True
    solve = _lattice_solver(gens, dim)
    return all(solve(v) is not None for v in vectors)


def preimage_lattice(m: Sequence[Sequence[int]], target_gens: Sequence[Sequence[int]],
                     cols: int) -> list[list[int]]:
    """Generators of {x in Z^cols : m*x lies in the span of target_gens}."""
    rows = len(m)
    stacked_cols = columns_of(m) + [list(g) for g in target_gens]
    if not stacked_cols:
        return [list(c) for c in identity_matrix(cols)]
    stacked = matrix_from_columns(stacked_cols, rows)
    kernel = integer_kernel(stacked, len(stacked_cols))
    return [vec[:cols] for vec in kernel]


# --- presented groups ---------------------------------------------------------

@dataclass(frozen=True)
class FgAbGroup:
    """Z^g modulo the column span of ``relations`` (one row per generator).

    >>> q = FgAbGroup(("x", "y"), ((2, 0), (0, 0)))   # Z/2 + Z
    >>> free_rank(q), invariant_factors(q)
    (1, (2,))
    """

    labels: tuple[str, ...]
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.relations and len(self.relations) != len(self.labels):
            raise RankMismatch("relation matrix needs one row per generator")
        widths = {len(row) for row in self.relations}
        if len(widths) > 1:
            raise RankMismatch("ragged relation matrix")

    @staticmethod
    def free(*labels: str) -> "FgAbGroup":
        return FgAbGroup(tuple(labels), tuple(() for _ in labels))

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup((), ())

    @staticmethod
    def of_cyclics(*labels: str, orders: Sequence[int]) -> "FgAbGroup":
        """Direct sum of cyclic groups Z/order_i (order 0 meaning Z)."""
        n = len(labels)
        rels = tuple(
            tuple((orders[i] if i == j else 0) for j in range(n) if orders[j] != 0)
            for i in range(n)
        )
        return FgAbGroup(tuple(labels), rels)

    @property
    def n_generators(self) -> int:
        return len(self.labels)

    @property
    def relation_columns(self) -> list[list[int]]:
        return columns_of(self.relations)

    def is_free(self) -> bool:
        return all(x == 0 for row in self.relations for x in row)


def _normal_form(g: FgAbGroup) -> tuple[int, tuple[int, ...]]:
    if g.n_generators == 0:
        return 0, ()
    if not g.relations or not g.relations[0]:
        return g.n_generators, ()
    snf = smith_normal_form([list(r) for r in g.relations])
    torsion = tuple(d for d in snf.diagonal if d not in (0, 1))
    rank = g.n_generators - sum(1 for d in snf.diagonal if d != 0)
    return rank, torsion


def free_rank(g: FgAbGroup) -> int:
    return _normal_form(g)[0]


def invariant_factors(g: FgAbGroup) -> tuple[int, ...]:
    """Torsion invariant factors d1 | d2 | ..., each at least 2."""
    return _normal_form(g)[1]


def order_of(g: FgAbGroup) -> Optional[int]:
    """Group order, or None when infinite."""
    rank, torsion = _normal_form(g)
    if rank > 0:
        return None
    out = 1
    for d in torsion:
        out *= d
    return out


def exponent(g: FgAbGroup) -> int:
    """Least e >= 1 with e*g = 0, or 0 when no finite e kills the group."""
    rank, torsion = _normal_form(g)
    if rank > 0:
        return 0
    return torsion[-1] if torsion else 1


def has_exponent(g: FgAbGroup, e: int) -> bool:
    """The divisibility predicate: e*g = 0 (not necessarily minimal e)."""
    ex = exponent(g)
    return ex != 0 and e % ex == 0


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    ra = len(a.relations[0]) if a.relations and a.relations[0] else 0
    rb = len(b.relations[0]) if b.relations and b.relations[0] else 0
    rels = tuple(tuple(row) + (0,) * rb for row in a.relations) + \
        tuple((0,) * ra + tuple(row) for row in b.relations)
    return FgAbGroup(a.labels + b.labels, rels)


@dataclass(frozen=True)
class Lattice:
    """Subgroup of a free ambient group, given by generating integer vectors."""

    ambient: FgAbGroup
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.ambient.is_free():
            raise RankMismatch("lattice ambient must be free")
        for g in self.generators:
            if len(g) != self.ambient.n_generators:
                raise RankMismatch("generator length differs from ambient rank")

    @property
    def rank_of_ambient(self) -> int:
        return self.ambient.n_generators


def contains(sub: Lattice, v: Sequence[int]) -> bool:
    """Is v an integer combination of the lattice generators?"""
    if len(v) != sub.rank_of_ambient:
        raise RankMismatch("vector length differs from ambient rank")
    return lattice_spans(sub.generators, [v], sub.rank_of_ambient)


def lattices_equal(a: Lattice, b: Lattice) -> bool:
    dim = a.rank_of_ambient
    if dim != b.rank_of_ambient:
        return False
    return lattice_spans(b.generators, a.generators, dim) and \
        lattice_spans(a.generators, b.generators, dim)


def lattice_basis(sub: Lattice) -> list[list[int]]:
    """A basis of the lattice (independent vectors with the same span)."""
    dim = sub.rank_of_ambient
    if not sub.generators:
        return []
    # U*G*V = D, so the columns of G*V = U^-1 * D are d_i times those of
    # U^-1: the first rank of them are a basis
    g = matrix_from_columns(sub.generators, dim)
    snf = smith_normal_form(g)
    rank = sum(1 for d in snf.diagonal if d != 0)
    return columns_of(mat_mul(g, snf.v))[:rank]


def quotient(ambient: FgAbGroup, sub: Lattice) -> FgAbGroup:
    """Presentation of ambient/sub, keeping the generator labels."""
    if not ambient.is_free():
        raise RankMismatch("quotient ambient must be free")
    if sub.rank_of_ambient != ambient.n_generators:
        raise RankMismatch("lattice does not live in this ambient group")
    rels = tuple(tuple(g[i] for g in sub.generators) for i in range(ambient.n_generators))
    return FgAbGroup(ambient.labels, rels)


@dataclass(frozen=True)
class GroupMap:
    """Homomorphism between presented groups, as a matrix on chosen generators.

    Column j is the image of the j-th source generator.  Construction checks
    that every source relation is carried into the relation lattice of the
    target, so the matrix genuinely defines a map of quotients.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = len(self.matrix)
        if rows != self.target.n_generators:
            raise RankMismatch("matrix needs one row per target generator")
        for row in self.matrix:
            if len(row) != self.source.n_generators:
                raise RankMismatch("matrix needs one column per source generator")
        images = [mat_vec(self.matrix, rel) for rel in self.source.relation_columns]
        if not lattice_spans(self.target.relation_columns, images, rows):
            raise IllDefinedMap("matrix does not respect the source relations")

    @staticmethod
    def make(source: FgAbGroup, target: FgAbGroup, matrix: Sequence[Sequence[int]]) -> "GroupMap":
        return GroupMap(source, target, tuple(tuple(r) for r in matrix))

    @staticmethod
    def zero(source: FgAbGroup, target: FgAbGroup) -> "GroupMap":
        return GroupMap.make(source, target,
                             [[0] * source.n_generators for _ in range(target.n_generators)])

    @staticmethod
    def scalar(group: FgAbGroup, c: int) -> "GroupMap":
        n = group.n_generators
        return GroupMap.make(group, group, [[c if i == j else 0 for j in range(n)] for i in range(n)])


def kernel_presentation(f: GroupMap) -> tuple[FgAbGroup, GroupMap]:
    """Present Ker f and return it with its inclusion into the source."""
    src, tgt = f.source, f.target
    gens = preimage_lattice([list(r) for r in f.matrix], tgt.relation_columns,
                            src.n_generators)
    gens = gens + src.relation_columns
    rels = preimage_lattice(matrix_from_columns(gens, src.n_generators) if gens else [],
                            src.relation_columns, len(gens))
    labels = tuple(f"k{i}" for i in range(len(gens)))
    ker = FgAbGroup(labels, tuple(tuple(r[i] for r in rels) for i in range(len(gens))))
    incl = GroupMap.make(ker, src, matrix_from_columns(gens, src.n_generators))
    return ker, incl


def image_presentation(f: GroupMap) -> FgAbGroup:
    """Im f presented as source/kernel (the first isomorphism theorem)."""
    src = f.source
    rels = preimage_lattice([list(r) for r in f.matrix], f.target.relation_columns,
                            src.n_generators)
    return FgAbGroup(src.labels, tuple(tuple(r[i] for r in rels) for i in range(src.n_generators)))


def cokernel_presentation(f: GroupMap) -> FgAbGroup:
    tgt = f.target
    cols = columns_of(f.matrix) + tgt.relation_columns
    return FgAbGroup(tgt.labels, tuple(tuple(c[i] for c in cols) for i in range(tgt.n_generators)))


class ExactnessReport(NamedTuple):
    ok: bool
    failed_at: Optional[int]   # index i: exactness fails at the target of maps[i]


def check_exact(maps: Sequence[GroupMap]) -> ExactnessReport:
    """Is image = kernel at every interior node of the complex?

    ``failed_at = i`` points at the node between maps[i] and maps[i+1].
    """
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise NotComposable("consecutive maps do not compose")
    for i in range(len(maps) - 1):
        into, outof = maps[i], maps[i + 1]
        node = into.target
        im_gens = columns_of(into.matrix) + node.relation_columns
        ker_gens = preimage_lattice([list(r) for r in outof.matrix],
                                    outof.target.relation_columns,
                                    node.n_generators) + node.relation_columns
        dim = node.n_generators
        if not (lattice_spans(ker_gens, im_gens, dim) and lattice_spans(im_gens, ker_gens, dim)):
            return ExactnessReport(False, i)
    return ExactnessReport(True, None)
