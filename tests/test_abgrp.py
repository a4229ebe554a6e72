import random

import pytest

from realcycle import abgrp
from realcycle.abgrp import (
    ExactnessReport,
    FgAbGroup,
    GroupMap,
    Lattice,
    check_exact,
    contains,
    direct_sum,
    exponent,
    free_rank,
    has_exponent,
    image_presentation,
    invariant_factors,
    kernel_presentation,
    lattice_basis,
    lattices_equal,
    order_of,
    quotient,
    smith_normal_form,
)
from realcycle.errors import IllDefinedMap, NotComposable, RankMismatch


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


class TestSmithNormalForm:
    def test_already_diagonal(self):
        snf = smith_normal_form([[2, 0], [0, 6]])
        assert snf.diagonal == (2, 6)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0]])
        assert snf.diagonal == (0,)

    def test_two_by_two(self):
        m = [[2, 4], [6, 8]]
        snf = smith_normal_form(m)
        assert snf.diagonal == (2, 4)
        assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d

    def test_transforms_are_unimodular(self):
        rng = random.Random(3)
        for _ in range(50):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(m)
            assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
            assert abs(det(snf.u)) == 1
            assert abs(det(snf.v)) == 1
            diag = [d for d in snf.diagonal if d != 0]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_invariants_stable_under_rerandomised_reduction(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(1, 3)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            base = smith_normal_form(m).diagonal
            # conjugate by random unimodular matrices: shear + swap generators
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for row in range(n):
                        u[row][j] += c * u[row][i]
            scrambled = mat_mul(u, m)
            assert smith_normal_form(scrambled).diagonal == base

    def test_invariant_factors_match_determinantal_divisors(self):
        # d1 * ... * dk equals the gcd of all k x k minors
        import itertools
        from math import gcd as igcd

        rng = random.Random(88)
        for _ in range(30):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
            diag = smith_normal_form(m).diagonal
            for k in range(1, min(rows, cols) + 1):
                g = 0
                for rsel in itertools.combinations(range(rows), k):
                    for csel in itertools.combinations(range(cols), k):
                        minor = det([[m[i][j] for j in csel] for i in rsel])
                        g = igcd(g, minor)
                product = 1
                for d in diag[:k]:
                    product *= d
                assert product == g


class TestGroups:
    def test_exponent_examples(self):
        assert exponent(FgAbGroup.of_cyclics("a", "b", orders=(2, 4))) == 4
        assert exponent(FgAbGroup.trivial()) == 1
        assert exponent(FgAbGroup.free("x")) == 0

    def test_has_exponent_predicate(self):
        g = FgAbGroup.of_cyclics("a", orders=(4,))
        assert has_exponent(g, 4) and has_exponent(g, 8)
        assert not has_exponent(g, 2)
        assert not has_exponent(FgAbGroup.free("x"), 100)

    def test_quotient_examples(self):
        z2 = FgAbGroup.free("e1", "e2")
        q = quotient(Lattice(z2, ((1, 1), (2, 0))))
        assert invariant_factors(q) == (2,)
        assert order_of(q) == 2

        z = FgAbGroup.free("e")
        assert order_of(quotient(Lattice(z, ((1,),)))) == 1

        z3 = FgAbGroup.free("a", "b", "c")
        gamma = Lattice(z3, ((1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)))
        q3 = quotient(gamma)
        assert invariant_factors(q3) == (2, 2)
        assert exponent(q3) == 2

    def test_contains(self):
        z2 = FgAbGroup.free("a", "b")
        gamma = Lattice(z2, ((1, 1), (2, 0), (0, 2)))
        assert contains(gamma, (3, 1))
        assert not contains(gamma, (1, 0))
        assert contains(gamma, (0, 0))
        with pytest.raises(RankMismatch):
            contains(gamma, (1, 0, 0))

    def test_lattice_basis_spans_same_lattice(self):
        z3 = FgAbGroup.free("a", "b", "c")
        lat = Lattice(z3, ((1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)))
        basis = lattice_basis(lat)
        assert lattices_equal(lat, Lattice(z3, tuple(tuple(b) for b in basis)))
        assert len(basis) == 3


class TestGroupMap:
    def test_ill_defined_rejected(self):
        z2 = FgAbGroup.of_cyclics("x", orders=(2,))
        z4 = FgAbGroup.of_cyclics("y", orders=(4,))
        with pytest.raises(IllDefinedMap):
            GroupMap.make(z2, z4, [[1]])  # 2*1 = 2 is not 0 mod 4
        GroupMap.make(z2, z4, [[2]])      # 2*2 = 4 is fine

    def test_composability_checked(self):
        z = FgAbGroup.free("e")
        z2 = FgAbGroup.of_cyclics("x", orders=(2,))
        f = GroupMap.scalar(z, 2)
        g = GroupMap.make(z2, z2, [[1]])
        with pytest.raises(NotComposable):
            check_exact([f, g])

    def test_kernel_has_no_redundant_generators(self):
        # x2 on Z/4 + Z/6 has kernel <2a> + <3b> = Z/2 + Z/2: two generators,
        # since the preimage of the target relations holds the source ones
        g = FgAbGroup.of_cyclics("a", "b", orders=(4, 6))
        ker, incl = kernel_presentation(GroupMap.scalar(g, 2))
        assert ker.n_generators == 2
        assert invariant_factors(ker) == (2, 2) and free_rank(ker) == 0
        free = FgAbGroup.free("a", "b")
        rels = list(g.relation_columns)
        assert lattices_equal(Lattice(free, tuple(incl.images) + tuple(rels)),
                              Lattice(free, ((2, 0), (0, 3), *rels)))

    def test_a_map_computes_its_kernel_generators_once(self, monkeypatch):
        # the image, the kernel and exactness at the map's source all read
        # one preimage of the target relations
        g = FgAbGroup.of_cyclics("a", "b", orders=(4, 6))
        into, mul = GroupMap.scalar(g, 3), GroupMap.scalar(g, 2)
        image, (ker, _) = image_presentation(mul), kernel_presentation(mul)
        report = check_exact([into, mul])
        calls = []
        original = abgrp.preimage_lattice

        def counted(images, *args):
            calls.append([list(v) for v in images])
            return original(images, *args)

        monkeypatch.setattr(abgrp, "preimage_lattice", counted)
        into, mul = GroupMap.scalar(g, 3), GroupMap.scalar(g, 2)
        assert (image_presentation(mul), kernel_presentation(mul)[0], check_exact([into, mul])) \
            == (image, ker, report)
        assert calls.count(mul.images) == 1


def bockstein_row():
    z = FgAbGroup.free("e")
    z2 = FgAbGroup.of_cyclics("x", orders=(2,))
    zero = FgAbGroup.trivial()
    return [
        GroupMap.zero(zero, z),
        GroupMap.scalar(z, 2),
        GroupMap.make(z, z2, [[1]]),
        GroupMap.zero(z2, zero),
    ]


class TestCheckExact:
    def test_mod2_row_exact(self):
        assert check_exact(bockstein_row()) == ExactnessReport(True, None)

    def test_wrong_quotient_detected(self):
        z = FgAbGroup.free("e")
        z4 = FgAbGroup.of_cyclics("x", orders=(4,))
        zero = FgAbGroup.trivial()
        seq = [
            GroupMap.zero(zero, z),
            GroupMap.scalar(z, 2),
            GroupMap.make(z, z4, [[2]]),   # complex, but cokernel Z/2 survives
            GroupMap.zero(z4, zero),
        ]
        report = check_exact(seq)
        assert not report.ok
        assert report.failed_at == 2   # at the Z/4 node

    def test_identity_on_torsion(self):
        z2 = FgAbGroup.of_cyclics("x", orders=(2,))
        zero = FgAbGroup.trivial()
        seq = [
            GroupMap.zero(zero, z2),
            GroupMap.make(z2, z2, [[1]]),
            GroupMap.zero(z2, zero),
        ]
        assert check_exact(seq).ok


class TestExponentLaws:
    def test_direct_sum_with_an_empty_relation_set(self):
        # the constructor accepts relations=() for a labelled group and reads it as free
        bare = FgAbGroup(("a",), ())
        three = FgAbGroup.of_cyclics("b", orders=(3,))
        for total in (direct_sum(bare, three), direct_sum(three, bare)):
            assert free_rank(total) == 1 and invariant_factors(total) == (3,)
        for other in (FgAbGroup.free("a"), FgAbGroup.trivial()):
            for total in (direct_sum(other, three), direct_sum(three, other)):
                assert free_rank(total) == other.n_generators
                assert invariant_factors(total) == (3,)
