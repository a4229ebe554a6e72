"""Finitely generated abelian groups presented by integer matrices.

A group is Z^g modulo the span of its relations.  ``FgAbGroup.relations`` has
one row per generator, so each column is a relation; column j of a
``GroupMap``'s matrix is the image of source generator j.  Internally both are
read as vectors (``relation_columns`` and ``images``), computed once.  Every
lattice question (membership, bases, equality, kernels, exactness of
complexes) is one use of a row Hermite normal form, computed with
arbitrary-precision integers.  Smith forms have two jobs.  A group's
invariant factors and exponent need no transforms and no Hermite pass, and
take two steps: rows whose one nonzero entry is +-1 or alone in its column
split off with no arithmetic, whatever rows are left are diagonalized by
pivoting on a least entry, and one gcd/lcm fix-up makes the diagonal a
divisibility chain.  Only ``smith_normal_form``, which returns the
transforms U and V, alternates row and column Hermite forms until a pass
leaves the matrix diagonal.  A group computes its invariants and the
Hermite basis of its relations once, and a lattice its Hermite basis once,
unless its builder stored that basis with it.

>>> G = FgAbGroup.of_cyclics("a", "b", orders=(2, 4))
>>> exponent(G)
4
>>> invariant_factors(G)
(2, 4)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .errors import IllDefinedMap, NotComposable, RankMismatch

Matrix = list[list[int]]


# --- integer matrix helpers --------------------------------------------------

def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _transpose(m: Sequence[Sequence[int]], width: int) -> Matrix:
    """The columns of m, which has ``width`` columns, as a list of rows."""
    return list(map(list, zip(*m))) if m else [[] for _ in range(width)]


class SNF(NamedTuple):
    d: Matrix        # diagonal, d1 | d2 | ..., entries >= 0
    u: Matrix        # unimodular row transform
    v: Matrix        # unimodular column transform; u @ m @ v == d
    diagonal: tuple[int, ...]


def hermite_form(rows: Sequence[Sequence[int]], width: int) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form of the first ``width`` columns of ``rows``.

    The columns are swept left to right.  Euclid on the rows still live in a
    column leaves one row, which is made positive at that pivot; each entry
    above the pivot is then reduced into [0, pivot).  Entries past ``width``
    are carried along unchanged, so an identity block there records the row
    operations.  Returns (basis, rest): the pivot rows in column order, and
    the rows that end up zero in their first ``width`` entries.
    """
    pending = [list(r) for r in rows]
    basis: Matrix = []
    for col in range(width):
        live = [r for r in pending if r[col]]
        if not live:
            continue
        pending = [r for r in pending if not r[col]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            left = [p]
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r = [x - q * y for x, y in zip(r, p)]
                    (left if r[col] else pending).append(r)
            live = left
        p = live[0] if live[0][col] > 0 else [-x for x in live[0]]
        for i, b in enumerate(basis):
            q = b[col] // p[col]
            if q:
                basis[i] = [x - q * y for x, y in zip(b, p)]
        basis.append(p)
    return basis, pending


def _reduce(basis: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """v reduced by a Hermite basis: each of its pivot entries is brought into
    [0, pivot).  v lies in the span iff the result is zero in the columns the
    basis was formed on."""
    v = list(v)
    for b in basis:
        col = next(i for i, x in enumerate(b) if x)
        q = v[col] // b[col]
        if q:
            v = [x - q * y for x, y in zip(v, b)]
    return v


def _with_identity(rows: Sequence[Sequence[int]]) -> Matrix:
    return [list(r) + e for r, e in zip(rows, identity_matrix(len(rows)))]


def _row_form(a: Matrix, t: Matrix, width: int) -> tuple[Matrix, Matrix]:
    """Hermite form of the rows of a, applying the same row operations to t."""
    basis, rest = hermite_form([x + y for x, y in zip(a, t)], width)
    out = basis + rest
    return [r[:width] for r in out], [r[width:] for r in out]


def _is_diagonal(a: Matrix) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _first_stray(diag: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j, in lexicographic order with d_i != 0 not
    dividing d_j, or None.  The entries are non-negative; 0 and 1 divide all
    they can, and a value seen to divide every later entry is not tried again."""
    dividing: set[int] = set()
    for i, d in enumerate(diag):
        if d <= 1 or d in dividing:
            continue
        for j in range(i + 1, len(diag)):
            if diag[j] % d:
                return i, j
        dividing.add(d)
    return None


def _split(rows: Sequence[Sequence[int]]) -> tuple[list[int], Matrix]:
    """Split off, with no arithmetic, each row whose one nonzero entry x is
    +-1 or alone in its column: the Smith diagonal gets |x|.

    A unit in column j clears the rest of that column by row operations
    that change nothing else; a lone entry's row and column meet nothing
    else.  Either way the matrix is (|x|) plus the matrix without that row
    and column, and the rest of column j is zero.  So no other column's
    count of nonzero rows ever changes, and the counts are taken once, when
    the first single entry other than +-1 is met.  A unit split can leave a
    row with one nonzero entry; the rows after it are read after the split,
    and the rows already kept are read again only if it touched one of
    them.  Zero rows go.  Nothing is eliminated, so nothing fills in.
    Returns (the entries split off, the nonzero rows left).
    """
    left = [list(r) for r in rows]
    lone = None
    diagonal = []
    rescan = True
    while rescan:
        rescan = False
        keep = []
        for row in left:
            nonzero = len(row) - row.count(0)
            if nonzero == 1:
                x = sum(row)
                j = row.index(x)
                if x in (1, -1):
                    rescan = rescan or any(r[j] for r in keep)
                    for r in left:
                        r[j] = 0
                else:
                    if lone is None:
                        lone = [len(c) - c.count(0) == 1 for c in zip(*left)]
                    if not lone[j]:
                        keep.append(row)
                        continue
                diagonal.append(abs(x))
            elif nonzero:
                keep.append(row)
        left = keep
    return diagonal, left


def _diagonalize(rows: Sequence[Sequence[int]]) -> list[int]:
    """|d| for each nonzero entry d of a diagonal form of the rows, reached by
    unimodular row and column operations.

    The pivot is a least nonzero |entry|.  Row operations reduce the rest of
    its column to remainders of at most half its size; once the column is
    clear, column operations do the same to the rest of its row, which then
    touch no other row.  When both are clear the pivot is set aside, and its
    row, its column and any zero rows go.  Otherwise a remainder is smaller
    than the pivot, so the next least entry is too, and the pivots shrink
    until one clears.  No transforms are carried, and nothing makes the
    entries a divisibility chain.
    """
    a = [list(r) for r in rows if any(r)]
    entries = []
    while a:
        least = min(filter(None, map(abs, chain.from_iterable(a))))
        at = next(i for i, r in enumerate(a) if least in r or -least in r)
        piv = a[at]
        j = piv.index(least) if least in piv else piv.index(-least)
        p = piv[j]
        clear = True
        for r in a:
            if r is not piv and r[j]:
                q = (2 * r[j] + p) // (2 * p)
                r[:] = [x - q * y for x, y in zip(r, piv)]
                clear = clear and not r[j]
        if clear:
            for k, x in enumerate(piv):
                if x and k != j:
                    piv[k] = x - (2 * x + p) // (2 * p) * p
                    clear = clear and not piv[k]
        if clear:
            entries.append(least)
            del a[at]
            for r in a:
                del r[j]
        a = [r for r in a if any(r)]
    return entries


def _smith_elimination(m: Sequence[Sequence[int]], u: Matrix,
                       vt: Matrix) -> tuple[Matrix, Matrix, Matrix, tuple[int, ...]]:
    """Bring m to Smith form D; returns (D, u, vt, diagonal of D), the blocks
    after the same operations.  Only ``smith_normal_form`` runs it.

    A row Hermite form and a column Hermite form alternate until the matrix is
    diagonal; where d_i does not divide d_j, column j is added to column i
    and the forms run again.  Row operations are applied to the carried block
    u (one row per row of m), column operations to vt (one row per column of
    m, so V transposed: a column operation on m is a row operation on vt).

    A column pass that leaves the matrix diagonal ends the passes: its pivots
    are positive and come first, so a row pass would find one live row per
    column, nothing to reduce above it and the rows already in order, and
    would change nothing.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    while True:
        a, u = _row_form(a, u, cols)
        while not _is_diagonal(a):
            at, vt = _row_form(_transpose(a, cols), vt, rows)
            a = _transpose(at, rows)
            if _is_diagonal(a):
                break
            a, u = _row_form(a, u, cols)
        diag = [a[i][i] for i in range(min(rows, cols))]
        stray = _first_stray(diag)
        if stray is None:
            return a, u, vt, tuple(diag)
        i, j = stray
        for row in a:
            row[i] += row[j]
        vt[i] = [x + y for x, y in zip(vt[i], vt[j])]


def smith_normal_form(m: Sequence[Sequence[int]]) -> SNF:
    """Diagonalise an integer matrix by unimodular row and column operations.

    Returns (D, U, V) with U*M*V = D, the diagonal non-negative with each entry
    dividing the next, and det(U), det(V) = +-1.  U and V are carried through
    the alternating Hermite passes of ``_smith_elimination`` as identity
    blocks.  ``FgAbGroup.normal_form``, which wants only the invariants, runs
    neither: it splits off what needs no arithmetic (``_split``) and
    diagonalizes the rest by pivoting (``_diagonalize``).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d, u, vt, diagonal = _smith_elimination(m, identity_matrix(rows), identity_matrix(cols))
    return SNF(d, u, _transpose(vt, cols), diagonal)


def _spans(basis: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> bool:
    """Does the span of a Hermite basis contain every one of ``vectors``?"""
    return not any(any(_reduce(basis, v)) for v in vectors)


def preimage_lattice(images: Sequence[Sequence[int]], target_gens: Sequence[Sequence[int]],
                     dim: int) -> list[list[int]]:
    """The Hermite basis of {x : sum x_j * images_j lies in the span of
    target_gens}.

    All vectors have length ``dim``.  One Hermite form over dim + n columns,
    n = len(images), of image j followed by the unit vector e_j and of each
    target generator followed by n zeros.  The basis rows that vanish in the
    first dim columns come last; they span the lattice's vectors (0, x), x in
    the preimage, so their last n entries are its Hermite basis.
    """
    n = len(images)
    stacked = _with_identity(images) + [list(t) + [0] * n for t in target_gens]
    basis, _ = hermite_form(stacked, dim + n)
    return [r[dim:] for r in basis if not any(r[:dim])]


# --- presented groups ---------------------------------------------------------

@dataclass(unsafe_hash=True)
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

    @cached_property
    def relation_columns(self) -> Matrix:
        """The relations as vectors, computed once."""
        return _transpose(self.relations, len(self.relations[0]) if self.relations else 0)

    @cached_property
    def relation_basis(self) -> Matrix:
        """The Hermite basis of the relation lattice, computed once."""
        return hermite_form(self.relation_columns, self.n_generators)[0]

    def is_free(self) -> bool:
        return all(x == 0 for row in self.relations for x in row)

    @cached_property
    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors), computed once, with no
        transforms.

        Two steps.  Rows whose one nonzero entry is +-1 or alone in its
        column split off with no arithmetic (``_split``), and whatever rows
        are left are diagonalized by pivoting on a least entry
        (``_diagonalize``).  One fix-up then replaces each pair d_i, d_j that
        ``_first_stray`` finds by their gcd and lcm, which leaves the Smith
        invariants.  No Hermite pass runs.  The split does no arithmetic on
        purpose: eliminating every +-1 pivot by a Schur complement fills
        dense matrices in and is slower on them.
        """
        if not self.relations or not self.relations[0]:
            return self.n_generators, ()
        diagonal, rest = _split(self.relations)
        if rest:
            diagonal += _diagonalize(rest)
        while (stray := _first_stray(diagonal)) is not None:
            i, j = stray
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
        return self.n_generators - len(diagonal), tuple(d for d in diagonal if d != 1)


def free_rank(g: FgAbGroup) -> int:
    return g.normal_form[0]


def invariant_factors(g: FgAbGroup) -> tuple[int, ...]:
    """Torsion invariant factors d1 | d2 | ..., each at least 2."""
    return g.normal_form[1]


def order_of(g: FgAbGroup) -> Optional[int]:
    """Group order, or None when infinite."""
    rank, torsion = g.normal_form
    if rank > 0:
        return None
    out = 1
    for d in torsion:
        out *= d
    return out


def exponent(g: FgAbGroup) -> int:
    """Least e >= 1 with e*g = 0, or 0 when no finite e kills the group."""
    rank, torsion = g.normal_form
    if rank > 0:
        return 0
    return torsion[-1] if torsion else 1


def has_exponent(g: FgAbGroup, e: int) -> bool:
    """The divisibility predicate: e*g = 0 (not necessarily minimal e)."""
    ex = exponent(g)
    return ex != 0 and e % ex == 0


def _presented(labels: tuple[str, ...], vectors: Sequence[Sequence[int]]) -> FgAbGroup:
    """The group on ``labels`` with the given relation vectors."""
    return FgAbGroup(labels, tuple(map(tuple, _transpose(vectors, len(labels)))))


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    na, nb = a.n_generators, b.n_generators
    return _presented(a.labels + b.labels,
                      [c + [0] * nb for c in a.relation_columns] +
                      [[0] * na + c for c in b.relation_columns])


@dataclass(unsafe_hash=True)
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

    @cached_property
    def hermite_basis(self) -> tuple[tuple[int, ...], ...]:
        """The lattice's canonical basis, computed once.  A builder that knows
        it (the Hermite form is unique) may store it here instead."""
        return tuple(map(tuple, hermite_form(self.generators, self.rank_of_ambient)[0]))


def contains(sub: Lattice, v: Sequence[int]) -> bool:
    """Is v an integer combination of the lattice generators?"""
    if len(v) != sub.rank_of_ambient:
        raise RankMismatch("vector length differs from ambient rank")
    return _spans(sub.hermite_basis, [v])


def lattices_equal(a: Lattice, b: Lattice) -> bool:
    return a.rank_of_ambient == b.rank_of_ambient and a.hermite_basis == b.hermite_basis


def lattice_basis(sub: Lattice) -> list[list[int]]:
    """The Hermite basis of the lattice: independent vectors with the same
    span, in row echelon form with positive pivots and each entry above a
    pivot in [0, pivot)."""
    return [list(b) for b in sub.hermite_basis]


def quotient(sub: Lattice) -> FgAbGroup:
    """Presentation of sub.ambient/sub, keeping the ambient's generator labels.

    The relations are the lattice's Hermite basis, computed once per lattice
    and shared with ``lattice_basis``, ``lattices_equal`` and ``contains``, so
    the quotient's invariants start from an echelon matrix with at most
    rank-of-sub columns rather than from the raw generators.  Transposed, the
    basis has a single nonzero entry, a pivot, in the row of the first pivot
    column, and again in the next pivot column's row once a pivot 1 has split
    off: the parity basis (1, ..., 1), 2*e_1, ..., 2*e_(m-1) splits whole,
    its unit and then its lone entries 2, and its quotient runs no
    elimination.  A ``Lattice`` is built only in a free ambient of its
    generators' length, so the quotient checks nothing of its own.
    """
    return _presented(sub.ambient.labels, sub.hermite_basis)


@dataclass(unsafe_hash=True)
class GroupMap:
    """Homomorphism between presented groups, as a matrix on chosen generators.

    ``matrix`` has one row per target generator; its column j, ``images[j]``,
    is the image of the j-th source generator.  Construction checks
    that every source relation is carried into the relation lattice of the
    target, so the matrix genuinely defines a map of quotients; the target
    eliminates its relations once for every map into it.
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
        relation_images = [[sum(c * x for c, x in zip(row, rel)) for row in self.matrix]
                           for rel in self.source.relation_columns]
        if relation_images and not _spans(self.target.relation_basis, relation_images):
            raise IllDefinedMap("matrix does not respect the source relations")

    @cached_property
    def images(self) -> Matrix:
        """The images of the source generators (the matrix's columns), computed once."""
        return _transpose(self.matrix, self.source.n_generators)

    @cached_property
    def kernel_generators(self) -> Matrix:
        """The Hermite basis of the source vectors that f carries into the
        target relations, computed once: it presents the kernel and the
        image, and ``check_exact`` compares it with an image's basis as it
        stands.  It holds the source relations, since construction checked
        that f carries those into the target relations."""
        tgt = self.target
        return preimage_lattice(self.images, tgt.relation_columns, tgt.n_generators)

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
    src = f.source
    gens = f.kernel_generators
    rels = preimage_lattice(gens, src.relation_columns, src.n_generators)
    ker = _presented(tuple(f"k{i}" for i in range(len(gens))), rels)
    return ker, GroupMap.make(ker, src, _transpose(gens, src.n_generators))


def image_presentation(f: GroupMap) -> FgAbGroup:
    """Im f presented as source/kernel (the first isomorphism theorem)."""
    return _presented(f.source.labels, f.kernel_generators)


def cokernel_presentation(f: GroupMap) -> FgAbGroup:
    return _presented(f.target.labels, f.images + f.target.relation_columns)


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
        im_gens = into.images + node.relation_columns
        # outof's kernel generators are a Hermite basis, and hold
        # node.relation_columns too
        if outof.kernel_generators != hermite_form(im_gens, node.n_generators)[0]:
            return ExactnessReport(False, i)
    return ExactnessReport(True, None)
