import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddjump as dj
from ddjump.errors import InconclusiveError, NotSpanningError
from ddjump.lattice import SEPARATED, SPANNING, SUBLATTICE, decompose_vector_with, hermite_basis

SIR_JUMPS = ((-1, 1), (1, 0), (0, -1))


def test_sir_jumps_spanning_with_expected_decompositions():
    an = dj.classify_jumps(SIR_JUMPS)
    assert an.verdict == SPANNING
    # BFS shortest decompositions, verified by summation below
    assert an.decompositions[(1, 0)] == ((1, 0),)
    assert sorted(an.decompositions[(0, 1)]) == [(-1, 1), (1, 0)]
    assert sorted(an.decompositions[(-1, 0)]) == [(-1, 1), (0, -1)]
    assert an.decompositions[(0, -1)] == ((0, -1),)
    for target, parts in an.decompositions.items():
        assert tuple(np.sum(parts, axis=0)) == target


def test_even_lattice_is_sublattice():
    an = dj.classify_jumps([(2, 0), (0, 2), (-2, 0), (0, -2)])
    assert an.verdict == SUBLATTICE
    basis = np.array(an.witness_basis)
    # witness basis is strict: index 4 sublattice, and contains every jump
    assert abs(np.linalg.det(basis)) == 4
    for J in [(2, 0), (0, 2), (-2, 0), (0, -2)]:
        sol = np.linalg.solve(basis.T.astype(float), np.array(J, dtype=float))
        assert np.allclose(sol, np.round(sol))


def test_positive_quadrant_jumps_are_separated():
    an = dj.classify_jumps([(1, 0), (0, 1)])
    assert an.verdict == SEPARATED
    v = np.array(an.witness_vector)
    assert np.any(v != 0)
    for J in [(1, 0), (0, 1)]:
        assert v @ np.array(J) >= 0


def test_rank_deficient_jumps_are_sublattice():
    an = dj.classify_jumps([(1, 0), (-1, 0)])
    assert an.verdict == SUBLATTICE


def test_inconclusive_when_radius_too_small():
    # e2 needs two jumps; radius 1 cannot certify spanning, and the set is
    # neither a sublattice nor separated
    with pytest.raises(InconclusiveError):
        dj.classify_jumps(SIR_JUMPS, search_radius=1)


def test_hermite_basis_exact_integers():
    basis = hermite_basis([(2, 4), (4, 2)])
    B = np.array(basis)
    assert abs(round(np.linalg.det(B.astype(float)))) == 12
    for row in [(2, 4), (4, 2)]:
        sol = np.linalg.solve(B.T.astype(float), np.array(row, dtype=float))
        assert np.allclose(sol, np.round(sol), atol=1e-9)


def test_decompose_unit_vector():
    an = dj.classify_jumps(SIR_JUMPS)
    parts, n, mass = decompose_vector_with(an, (0, 1))
    assert sorted(parts) == [(-1, 1), (1, 0)]
    assert n == 2


def test_decompose_zero_vector_is_empty():
    an = dj.classify_jumps(SIR_JUMPS)
    parts, n, mass = decompose_vector_with(an, (0, 0))
    assert parts == ()
    assert n == 0
    assert mass == 0.0


def test_decompose_sums_and_bounds():
    an = dj.classify_jumps(SIR_JUMPS)
    z = (3, -2)
    parts, n, mass = decompose_vector_with(an, z)
    assert tuple(np.sum(parts, axis=0)) == z
    znorm = math.sqrt(np.array(z) @ an.M @ np.array(z))
    assert n <= an.mu * znorm
    assert mass <= an.nu * znorm


def test_decompose_requires_spanning():
    an = dj.classify_jumps([(1, 0), (0, 1)])
    with pytest.raises(NotSpanningError):
        decompose_vector_with(an, (1, 1))


def test_decompose_with_a_fresh_classification():
    parts, n, mass = decompose_vector_with(dj.classify_jumps(SIR_JUMPS), (0, 1))
    assert tuple(np.sum(parts, axis=0)) == (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_decompose_random_targets(z1, z2):
    an = dj.classify_jumps(SIR_JUMPS)
    z = (z1, z2)
    parts, n, mass = decompose_vector_with(an, z)
    if z == (0, 0):
        assert parts == ()
        return
    assert tuple(np.sum(parts, axis=0)) == z
    znorm = math.sqrt(np.array(z) @ an.M @ np.array(z))
    assert n <= an.mu * znorm + 1e-9
    assert mass <= an.nu * znorm + 1e-9


def test_mu_nu_with_certificate_norm(cert05):
    an = dj.classify_jumps(SIR_JUMPS, norm_matrix=cert05.M)
    assert an.verdict == SPANNING
    # decomposition masses measured in the certificate norm
    z = (5, 3)
    parts, n, mass = decompose_vector_with(an, z)
    expect = sum(math.sqrt(np.array(q) @ cert05.M @ np.array(q)) for q in parts)
    assert mass == pytest.approx(expect)
    znorm = cert05.m_norm(np.array(z))
    assert n <= an.mu * znorm and mass <= an.nu * znorm
