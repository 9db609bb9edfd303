"""Technology data (paper Table 1) and the default R ratio."""

from repro.energy import (
    TABLE1_NODES,
    paper_energy_model,
    r_default,
)


def test_table1_values_match_paper():
    by_label = {node.label: node for node in TABLE1_NODES}
    assert by_label["40nm HP"].sram_load_over_fma == 1.55
    assert by_label["10nm HP"].sram_load_over_fma == 5.75
    assert by_label["10nm LP"].sram_load_over_fma == 5.77
    assert by_label["40nm HP"].operating_voltage_v == 0.90
    assert by_label["10nm HP"].operating_voltage_v == 0.75
    assert by_label["10nm LP"].operating_voltage_v == 0.65


def test_trend_is_monotonic():
    """Communication gets relatively dearer with scaling (section 1)."""
    trend = [node.sram_load_over_fma for node in TABLE1_NODES]
    assert trend[0] < trend[1] <= trend[2] + 0.05


def test_offchip_ratio_exceeds_50x():
    assert all(node.offchip_load_over_fma >= 50 for node in TABLE1_NODES)


def test_r_default_close_to_paper():
    """R_default = 0.45 / 52.14 ~ 0.0086 (section 5.5)."""
    model = paper_energy_model()
    assert abs(r_default(model) - 0.45 / 52.14) < 0.0015


def test_paper_model_scaled_and_unscaled():
    scaled = paper_energy_model(scaled=True)
    unscaled = paper_energy_model(scaled=False)
    assert scaled.config.l1_geometry.total_lines < unscaled.config.l1_geometry.total_lines
    assert scaled.config.mem_params == unscaled.config.mem_params
