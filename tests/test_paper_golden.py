"""Golden values of the quick-mode paper numbers (F1–F7, F11).

The simulator and the analytic model are deterministic, so a refactor
below the engine must reproduce these numbers to ``rel=1e-9``.  A change
that moves one on purpose updates it here and says why in CHANGES.md.
"""

import pytest

from repro.experiments import (
    exp_f1_ecm_validation,
    exp_f2_block_sweep,
    exp_f3_scaling,
    exp_f4_temporal,
    exp_f5_offsite_ranking,
    exp_f6_ode_speedup,
    exp_f7_ablation_lc,
    exp_f11_distributed,
)


def golden(*values: float):
    return pytest.approx(list(values), rel=1e-9)


def test_f1_ecm_validation():
    result = exp_f1_ecm_validation.run(quick=True)
    assert [
        result["mean_abs_err_pct"], result["max_abs_err_pct"]
    ] == golden(13.555954182646145, 22.257810927292695)


def test_f2_block_sweep():
    result = exp_f2_block_sweep.run(quick=True)
    assert result["gaps_pct"] == golden(1.3201316233556286, 0.6774487560640768)


def test_f3_saturation_cores():
    knees = exp_f3_scaling.run(quick=True)["saturation_cores"]
    # Keyed (machine, stencil): CascadeLakeSP sorts before Rome.
    assert [knees[k] for k in sorted(knees)] == golden(
        11.021659482758622, 23.198390151515156
    )


def test_f4_best_speedup():
    result = exp_f4_temporal.run(quick=True)
    assert [result["best_speedup"]["3d7pt"]] == golden(1.7382519958068234)


def test_f5_offsite_ranking():
    result = exp_f5_offsite_ranking.run(quick=True)
    assert result["kendall_taus"] == [1.0, 1.0]
    assert result["top1_hits"] == [True, True]
    assert [result["mean_abs_err_pct"]] == golden(13.183849785851384)


def test_f6_ode_speedup():
    result = exp_f6_ode_speedup.run(quick=True)
    assert result["speedups"] == golden(1.5284100348489045, 1.520116031231889)
    assert [result["geomean_speedup"]] == golden(1.524257391738518)


def test_f7_ablation_lc():
    result = exp_f7_ablation_lc.run(quick=True)
    assert [
        result["mean_abs_err_full_pct"], result["mean_abs_err_nolc_pct"]
    ] == golden(4.874754121501561, 40.861655892469265)
    assert tuple(result["block_full"]) == (32, 16, 48)
    assert tuple(result["block_nolc"]) == (4, 4, 48)


def test_f11_distributed():
    result = exp_f11_distributed.run(quick=True)
    assert [
        result["weak_efficiency_min"], result["strong_efficiency_last"]
    ] == golden(0.9282195469369745, 0.8495038371404081)
