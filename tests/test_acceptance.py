"""Acceptance gate: every exit criterion at its pinned tolerance, one
pass/fail line per criterion."""

import pytest

from lanedual import acceptance, groundstate
from lanedual import dualsolve as ds


@pytest.fixture(scope="module")
def shared():
    return acceptance._Shared(seed=0)


def _report(res):
    line = f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"
    print(line)
    assert res.passed, line


def test_criterion_1_bubble_anchor(shared):
    _report(acceptance.criterion_1_bubble_anchor(shared))


def test_criterion_2_exponent_identities(shared):
    _report(acceptance.criterion_2_exponent_identities(shared))


def test_criterion_3_dual_energy_identity(shared):
    _report(acceptance.criterion_3_dual_energy_identity(shared))


def test_criterion_4_compactness_threshold(shared):
    _report(acceptance.criterion_4_compactness_threshold(shared))


def test_criterion_5_test_function_expansion(shared):
    _report(acceptance.criterion_5_test_function_expansion(shared))


def test_criterion_6_norm_rate_sweeps(shared):
    _report(acceptance.criterion_6_norm_rate_sweeps(shared))


def test_criterion_7_star_properties(shared):
    _report(acceptance.criterion_7_star_properties(shared))


def test_criterion_8_symmetry_breaking(shared):
    _report(acceptance.criterion_8_symmetry_breaking(shared))


def test_criterion_9_radial_monotonicity(shared):
    _report(acceptance.criterion_9_radial_monotonicity(shared))


def test_criterion_10_cherrier_probe(shared):
    _report(acceptance.criterion_10_cherrier_probe(shared))


def test_criterion_11_biharmonic_window(shared):
    _report(acceptance.criterion_11_biharmonic_window(shared))


def test_quick_battery_all_pass(shared):
    results = acceptance.quick_battery(shared)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
              f"{res.detail}")
    assert all(res.passed for res in results)


def test_criterion_4_needs_the_threshold_margin(shared, monkeypatch):
    # D 0.5% above the threshold fails the verdict `lanedual solve` reads
    def half_percent(mesh, pack, **kw):
        return ds.DualReport(pack, {}, D=1.0, f=None, g=None, converged=True,
                             el_residual=0.0, restarts=[], near_optimal=[],
                             traces=[], threshold=1.0 / 1.005)

    monkeypatch.setattr(ds, "maximize_D", half_percent)
    res = acceptance.criterion_4_compactness_threshold(shared)
    assert not res.passed
    assert "margin 0.5% (need >= 1%)" in res.detail


def test_radial_annulus_reports_do_not_shoot(monkeypatch):
    # criteria 3, 9 and 11 read no S, so their radial solves need no shoot
    def fail(*args, **kwargs):
        raise AssertionError("shot")

    monkeypatch.setattr(groundstate, "shoot", fail)
    mesh, rep = acceptance._Shared(seed=0).radial_annulus_report(1.0, 9.0, 5)
    assert rep.converged and mesh.nnodes == 257
    assert "above compactness threshold" not in rep.verdicts()
