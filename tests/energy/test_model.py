"""Energy model pricing of classic and amnesic events."""

from repro.energy import EPITable, EnergyModel
from repro.isa import Category
from repro.machine import Level
from repro.machine.hierarchy import Access

from ..conftest import tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_compute_cost_is_epi_plus_cycle():
    model = make_model()
    cost = model.compute_cost(Category.INT_ALU)
    assert cost.energy_nj == model.epi.epi(Category.INT_ALU)
    assert cost.time_ns == model.config.cycle_ns


def test_rcmp_modeled_after_branch():
    """Paper section 4: RCMP ~ conditional branch."""
    model = make_model()
    assert model.rcmp_cost().energy_nj == model.epi.epi(Category.BRANCH)


def test_rec_modeled_after_l1d_store():
    model = make_model()
    assert model.rec_cost().energy_nj == model.config.l1_params.write_energy_nj
    assert model.rec_cost().time_ns == model.config.l1_params.latency_ns


def test_rtn_modeled_after_jump():
    model = make_model()
    assert model.rtn_cost().energy_nj == model.epi.epi(Category.JUMP)


def test_hist_modeled_after_l1d():
    model = make_model()
    assert model.hist_read_cost().energy_nj == model.config.l1_params.read_energy_nj


def test_slice_instruction_includes_sfile_traffic():
    model = make_model()
    base = model.compute_cost(Category.INT_ALU)
    slice_cost = model.slice_instruction_cost(Category.INT_ALU)
    assert slice_cost.energy_nj > base.energy_nj
    assert slice_cost.time_ns == base.time_ns


def test_probabilistic_load_cost_interpolates():
    model = make_model()
    pure_l1 = model.probabilistic_load_cost({Level.L1: 1.0})
    pure_mem = model.probabilistic_load_cost({Level.MEM: 1.0})
    mixed = model.probabilistic_load_cost({Level.L1: 0.5, Level.MEM: 0.5})
    assert pure_l1.energy_nj < mixed.energy_nj < pure_mem.energy_nj
    assert abs(mixed.energy_nj - (pure_l1.energy_nj + pure_mem.energy_nj) / 2) < 1e-9


def test_access_cost_passthrough():
    model = make_model()
    access = Access(level=Level.L2, energy_nj=8.6, latency_ns=24.77)
    cost = model.access_cost(access)
    assert cost.energy_nj == 8.6 and cost.time_ns == 24.77


def test_divide_latency_is_multicycle():
    """DIV/FDIV take their classic long latencies; ALU stays 1 cycle."""
    model = make_model()
    alu = model.compute_cost(Category.INT_ALU)
    div = model.compute_cost(Category.INT_DIV)
    fdiv = model.compute_cost(Category.FP_DIV)
    assert alu.time_ns == model.config.cycle_ns
    assert div.time_ns == 8 * model.config.cycle_ns
    assert fdiv.time_ns == 12 * model.config.cycle_ns


# ----------------------------------------------------------------------
# Content fingerprint (result-cache identity).
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_equal_models():
    """Two independently built but value-equal models share an identity."""
    assert make_model().fingerprint() == make_model().fingerprint()


def test_fingerprint_tracks_epi_values():
    base = make_model()
    scaled = EnergyModel(epi=base.epi.scaled_nonmem(2.0), config=base.config)
    assert scaled.fingerprint() != base.fingerprint()


def test_fingerprint_tracks_machine_config():
    from repro.energy.tech import paper_energy_model

    base = make_model()
    paper = EnergyModel(epi=base.epi, config=paper_energy_model().config)
    assert paper.fingerprint() != base.fingerprint()


def test_fingerprint_is_memoized_per_model_and_survives_pickling():
    """Hashed once per instance, kept by value: equal, scaled, round-tripped."""
    import dataclasses
    import pickle

    from repro.analysis.sweeps import scaled_memory_config

    base, twin = make_model(), make_model()
    assert base.fingerprint() is base.fingerprint()
    assert twin.fingerprint() == base.fingerprint()
    scaled = dataclasses.replace(
        base, config=scaled_memory_config(base.config, 2.0)
    )
    assert scaled.fingerprint() != base.fingerprint()
    clone = pickle.loads(pickle.dumps(base))
    assert clone.fingerprint() == base.fingerprint()
    assert clone.fingerprint() == clone._digest()
