"""Differential test over random models: the invariant count, the Casimir
nullspace, the Jacobi residuals and the config echo, each against an
independent oracle, and the aggregate Jacobi condition against the sum of
the gyrostats' pair increments.

Standard library only.  The models come from fixed seeds, so every
environment checks the same ones (`helpers.random_glom`): M in 3..7 modes,
1..4 random triples of distinct modes in random order, and each slot zeroed
with probability 0.3."""

import functools
import itertools

import pytest

from glomkit.cli import model_to_config, parse_model_config
from glomkit.hamiltonian import build_J, casimirs, gyrostat_increment, jacobi
from glomkit.invariants import count_invariants, verify_conserved
from glomkit.models import instantiate

from helpers import (
    dense_matrix,
    model_table,
    mul_vector,
    nullspace_symbolic_reference,
    oracle_raw_count,
    parse,
    random_glom,
    triple_residual,
)

SEEDS = range(16)


@functools.lru_cache(maxsize=None)
def analysed(seed: int):
    """The random model of this seed, its invariant report and its Casimirs."""
    g = random_glom(seed)
    return g, count_invariants(g), casimirs(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_model_matches_the_oracles(seed):
    g, report, cas = analysed(seed)

    # the raw count against point evaluation of the exact instance, and
    # the basis, taken at the reported point, conserved by that instance
    exact = instantiate(g, report.param_point or {})
    assert report.raw_count == oracle_raw_count(exact)
    assert all(verify_conserved(exact, form) for form in report.basis)

    # the sub-Pfaffian nullspace against denominator clearing, each vector
    # in the kernel of J, and each Casimir conserved by the symbolic field
    J = build_J(g)
    assert len(cas.nullspace_basis) == len(nullspace_symbolic_reference(J))
    zero = [J.table.zero()] * J.rows
    assert all(mul_vector(J, v) == zero for v in cas.nullspace_basis)
    assert all(verify_conserved(g, form) for form in cas.casimirs)

    assert parse_model_config(model_to_config(g)) == g


def assert_jacobi_matches_the_triple_sums(J):
    # every triple's cyclic sum, taken entry by entry, against the sums
    # jacobi collects from the stored entries; keys come out sorted
    expected = {}
    for triple in itertools.combinations(range(J.rows), 3):
        if r := triple_residual(J, J, triple):
            expected[tuple(t + 1 for t in triple)] = r
    report = jacobi(J)
    assert report.residuals == expected
    assert list(report.residuals) == sorted(report.residuals)
    assert report.aggregate == sum(expected.values(), J.table.zero())


@pytest.mark.parametrize("seed", SEEDS)
def test_random_model_jacobi_matches_the_triple_sums(seed):
    assert_jacobi_matches_the_triple_sums(build_J(analysed(seed)[0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_model_aggregate_sums_the_gyrostat_increments(seed):
    # each gyrostat adds the cross terms of its mode-sharing pairs with the
    # ones before it, and together they make the whole aggregate condition
    g = analysed(seed)[0]
    increments = [gyrostat_increment(g, K) for K in range(1, g.K + 1)]
    assert sum(increments, g.var_table.zero()) == jacobi(build_J(g)).aggregate


def test_jacobi_matches_the_triple_sums_on_a_non_skew_matrix():
    # jacobi reads column m as it is stored, never through row m, and
    # differentiates entries that are not affine in the state
    table = model_table(4, 1)
    rows = [
        ["x1", "a1*x2 + 1", "x3^2", "c1"],
        ["0", "x4", "p1*x1*x3", "x2 - b1"],
        ["q1", "x1 + x4", "0", "a1*x2"],
        ["x3", "0", "c1*x4^2", "x1*x2"],
    ]
    assert_jacobi_matches_the_triple_sums(
        dense_matrix(table, [[parse(table, e) for e in row] for row in rows])
    )


def test_the_random_models_cover_the_cases_they_are_for():
    # guards the seeds: every order 3..7, several gyrostats on shared modes,
    # models with and without Casimirs, and a range of invariant counts
    models, reports, sets = zip(*map(analysed, SEEDS))
    assert {g.modes for g in models} == set(range(3, 8))
    assert any(g.K >= 3 for g in models)
    nullities = [len(cas.nullspace_basis) for cas in sets]
    assert 0 in nullities and any(n >= 2 for n in nullities)
    residual_counts = [len(jacobi(build_J(g)).residuals) for g in models]
    assert 0 in residual_counts and max(residual_counts) >= 3
    assert len({report.raw_count for report in reports}) >= 4
