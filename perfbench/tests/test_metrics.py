import pytest

import metrics


def test_p90_is_emitted_at_100_samples():
    samples = [float(i) for i in range(1, 101)]
    q, value = metrics.tail_percentile(samples)
    assert q == 0.9
    assert value == 90.0
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_is_omitted_at_33_samples():
    assert metrics.tail_percentile([float(i) for i in range(33)]) is None


def test_p99_needs_a_thousand_samples():
    assert metrics.tail_percentile([float(i) for i in range(999)])[0] == 0.9
    assert metrics.tail_percentile([float(i) for i in range(1000)])[0] == 0.99


def test_end_to_end_reports_every_declared_metric_at_reference_speed():
    ref = metrics.REFERENCE_S
    slow = 2 ** (1 / metrics.SENSITIVITY) * ref  # a host twice as slow for units
    report = {
        "setup_s": 0.3,
        "setup_ref_cpu_s": [slow] * 6,
        "unit_cpu_s": [0.1, 0.2, 0.3, 0.4],
        # Unit i reads the host speed from samples i-1 .. i+2: fast,
        # fast, slow / fast, fast, slow, slow / fast, slow x3 / slow x3.
        "ref_cpu_s": [ref, ref, slow, slow, slow],
        "timed_cpu_s": 1.0,
        "peak_rss_mb": 50.0,
    }
    others = [{"setup_s": 0.2, "setup_ref_cpu_s": [ref] * 6},
              {"setup_s": 0.8, "setup_ref_cpu_s": [ref] * 6}]
    values = metrics.end_to_end(report, others)
    assert {name: unit for name, (_, unit) in values.items()} == metrics.END_TO_END_UNITS
    assert values["setup_s"][0] == pytest.approx(0.2)  # median of 0.15, 0.2, 0.8
    half = (2 * ref / (ref + slow)) ** metrics.SENSITIVITY  # median of a tie
    units = [0.1, 0.2 * half, 0.3 / 2, 0.4 / 2]
    assert values["unit_ms_p50"][0] == pytest.approx(1000 * (units[1] + units[2]) / 2)
    assert values["units_per_s"][0] == pytest.approx(4 / sum(units))
    assert values["peak_rss_mb"][0] == 50.0
