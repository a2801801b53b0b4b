import tracemalloc

import numpy as np
import pytest

from sunbch import cached_algebra, spectral
from sunbch.verify import _PROPERTIES, RunConfig, _jacobi_fd, _jacobi_ff, run_suite

from conftest import trace_tensors


def test_small_run_passes():
    report = run_suite(RunConfig(n=3, seed=7, trials=10))
    assert report["pass"] is True
    assert report["failed"] == []
    names = [row["name"] for row in report["properties"]]
    assert "compose_route_agreement" in names
    assert "cubic_regroup" not in names  # n = 4 only
    assert "su2_closed_form" not in names  # n = 2 only
    for row in report["properties"]:
        assert row["pass"] and row["checks"] >= 1
        assert 0 <= row["worst_index"] < row["checks"]


def test_dimension_gated_properties():
    names2 = [r["name"] for r in run_suite(RunConfig(2, 7, 3))["properties"]]
    names4 = [r["name"] for r in run_suite(RunConfig(4, 7, 3))["properties"]]
    assert "su2_closed_form" in names2
    assert "cubic_regroup" in names4


def test_unreachable_tolerance_reports_failure():
    report = run_suite(RunConfig(n=2, seed=7, trials=5, tol=1e-16))
    assert report["pass"] is False
    assert len(report["failed"]) > 0
    failing = {row["name"]: row for row in report["properties"]}
    for name in report["failed"]:
        assert failing[name]["max_residual"] > 1e-16


def test_reports_are_reproducible():
    a = run_suite(RunConfig(n=3, seed=11, trials=8))
    b = run_suite(RunConfig(n=3, seed=11, trials=8))
    assert a == b


def test_seed_changes_worst_instance():
    a = run_suite(RunConfig(n=3, seed=1, trials=20))
    b = run_suite(RunConfig(n=3, seed=2, trials=20))
    residuals_a = [r["max_residual"] for r in a["properties"]]
    residuals_b = [r["max_residual"] for r in b["properties"]]
    assert residuals_a != residuals_b


def test_config_validation():
    for n in (1, 9):
        with pytest.raises(ValueError, match="2..8"):
            RunConfig(n=n, seed=0, trials=1)
    with pytest.raises(ValueError):
        RunConfig(n=2, seed=-1, trials=1)
    with pytest.raises(ValueError):
        RunConfig(n=2, seed=0, trials=0)
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol"):
            RunConfig(n=2, seed=0, trials=1, tol=tol)
    for cap in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="spectral_cap"):
            RunConfig(n=2, seed=0, trials=1, spectral_cap=cap)


def test_report_echoes_config():
    report = run_suite(RunConfig(n=2, seed=5, trials=4, tol=1e-6))
    assert report["n"] == 2
    assert report["seed"] == 5
    assert report["trials"] == 4
    assert report["tol"] == 1e-6
    assert report["spectral_cap"] == pytest.approx(0.9 * np.pi)


def test_unmeetable_spectral_cap_is_a_value_error():
    # No draw with spectral radius below 1e-7 has eigenvalue gaps of 1e-6.
    with pytest.raises(ValueError, match="spectral_cap 1e-07") as info:
        run_suite(RunConfig(n=3, seed=1, trials=1, spectral_cap=1e-7))
    assert "min_gap 1e-06" in str(info.value)


PER_TRIAL = {name for name, _, per_trial, _ in _PROPERTIES if per_trial}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_checks_count_trials_or_index_combinations(n):
    one, three = (run_suite(RunConfig(n, 3, trials))["properties"] for trials in (1, 3))
    assert [row["name"] for row in one] == [row["name"] for row in three]
    for a, b in zip(one, three):
        if a["name"] in PER_TRIAL:
            assert (a["checks"], b["checks"]) == (1, 3)
        else:
            assert a["checks"] == b["checks"] > 3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_residuals_match_three_contractions(n):
    """The residuals summed over the index arrays agree with the three
    cyclic contractions of the dense trace oracle written out, within
    1e-15, and every slot they leave out is exactly zero there."""
    basis, t = cached_algebra(n)
    f, d = trace_tensors(n)
    ff = (
        np.einsum("klm,mpq->klpq", f, f)
        + np.einsum("lpm,mkq->klpq", f, f)
        + np.einsum("pkm,mlq->klpq", f, f)
    )
    fd = (
        np.einsum("klm,mpq->klpq", f, d)
        + np.einsum("kqm,mpl->klpq", f, d)
        + np.einsum("kpm,mlq->klpq", f, d)
    )
    for check, dense in ((_jacobi_ff, ff), (_jacobi_fd, fd)):
        checks, slots, residuals = check(basis, t)
        assert checks == dense.size and np.all(np.diff(slots) > 0)
        np.testing.assert_allclose(residuals, np.abs(dense.ravel()[slots]), rtol=0, atol=1e-15)
        assert not np.delete(dense.ravel(), slots).any()


EXHAUSTIVE = {name: check for name, check, per_trial, _ in _PROPERTIES if not per_trial}


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_exhaustive_check_stays_below_one_dim4_array(name):
    """At N = 8 each exhaustive check holds less than one dim**4 float64
    array (126 MB): the identities run on the index arrays."""
    basis, t = cached_algebra(8)
    t.scatter  # build the cached scatter lists before tracing
    tracemalloc.start()
    try:
        EXHAUSTIVE[name](basis, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < basis.dim**4 * 8


@pytest.mark.parametrize("n", [3, 8])
def test_coeff_route_agreement_catches_a_perturbed_opitz_kernel(monkeypatch, n):
    """Both monomial routes read ``exp_divided_differences``, and
    ``linearize_fn`` reads it on no sampler draw inside the reach, so only
    the property's residual against ``linearize_fn`` sees a fault there:
    with the kernel's last entry scaled by 1 + 1e-6 the property fails."""
    config = RunConfig(n=n, seed=16, trials=10)
    kernel = spectral.exp_divided_differences

    def perturbed(values):
        row = kernel(values)
        row[-1] *= 1.0 + 1e-6
        return row

    def row(report):
        return next(r for r in report["properties"] if r["name"] == "coeff_route_agreement")

    assert row(run_suite(config))["pass"]
    monkeypatch.setattr(spectral, "exp_divided_differences", perturbed)
    failed = row(run_suite(config))
    print(f"N = {n}: residual {failed['max_residual']:.1e}")
    assert not failed["pass"]
