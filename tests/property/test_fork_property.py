"""Forks over generated programs: every run of one binary stays exact.

Hypothesis draws a fuzz program and a sequence of 3-6 fast-batched runs
of its binary, each with its own policy, Hist and SFile capacity and
budget.  The first run marks the binary, a later one snapshots it at
its first ``RCMP``, and the rest may resume from that snapshot; each
run must equal a run of a deep copy of the binary (a new program, with
no fork) in fault, observable state and per-pc visit counts.  Generated
programs reach what the kernels do not: budget trips inside the prefix
and on either side of the fork index, snapshot-taking runs whose budget
ends before the first ``RCMP``, binaries that never reach one, and
prefixes of a dozen instructions.  The nightly profile draws five times
as many examples as tier-1 does.

``random_spec`` programs write at most two ``REC``s before their first
``RCMP``, so a second strategy draws loop bodies that spill 8-12
``roload`` producers before their first ``Reload`` and runs them with a
Hist too small for every checkpoint, where a restore's Hist replay
evicts.
"""

import copy
import random
from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler.amnesic_pass import compile_amnesic
from repro.core.backend import BatchedFastAmnesicCPU
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.sfile import DEFAULT_SFILE_CAPACITY
from repro.errors import ReproError
from repro.fuzz import default_fuzz_model, materialize, random_spec
from repro.fuzz.oracle import _observable
from repro.fuzz.spec import Gap, Produce, ProgramSpec, Reload, Store
from repro.machine import fastpath

#: One shared model: EnergyModel is immutable run-to-run state.
MODEL = default_fuzz_model()


@lru_cache(maxsize=64)
def compiled(seed, groups):
    """The probabilistic binary of one generated program (None: none)."""
    try:
        program = materialize(random_spec(seed, max_groups=groups))
        return compile_amnesic(program, MODEL, backend="fast-batched").binary
    except ReproError:
        return None


def long_prefix_spec(seed):
    """A loop body that spills 8-12 ``roload`` producers, then reloads them.

    Each producer's table load is a checkpointed leaf, so every spill
    whose reload becomes an ``RCMP`` writes a ``REC`` before the first
    one.
    """
    rng = random.Random(seed)
    spills = rng.randint(8, 12)
    statements = []
    for slot in range(spills):
        temp = ("t0", "t1", "t2", "t3")[slot % 4]
        chain = tuple(
            (rng.choice(("add", "xor", "mul")), rng.randint(1, 99))
            for _ in range(rng.randint(1, 3))
        )
        statements += (
            Produce(temp, "roload", chain, rng.choice((1, 2, 3))),
            Store(temp, offset=slot),
        )
    statements.append(Gap(count=rng.randint(4, 8), stride=rng.randint(1, 5)))
    statements += (Reload(offset=slot) for slot in range(spills))
    return ProgramSpec(
        name=f"long-prefix-{seed}",
        iterations=rng.randint(3, 6),
        slot_words=16,
        statements=tuple(statements),
    )


@lru_cache(maxsize=64)
def compiled_long_prefix(seed):
    program = materialize(long_prefix_spec(seed))
    return compile_amnesic(program, MODEL, backend="fast-batched").binary


def recs_before_first_rcmp(binary):
    """How many ``REC`` writes a restore of *binary* replays."""
    binary = copy.deepcopy(binary)
    for _ in range(2):  # the first run marks the binary, the second forks
        outcome(binary, "Compiler", 600, DEFAULT_SFILE_CAPACITY, 200_000)
    return len(fastpath._plan(binary.program).forks[MODEL.fingerprint()].recs)


def outcome(binary, policy, hist, sfile, budget):
    cpu = BatchedFastAmnesicCPU(
        binary, MODEL, make_policy(policy), verify=False, hist_capacity=hist,
        sfile_capacity=sfile, max_instructions=budget,
    )
    fault = None
    try:
        cpu.run()
    except ReproError as error:
        fault = (type(error).__name__, str(error), error.pc)
    return fault, _observable(cpu), cpu._batch_visit_counts


RUNS = st.lists(
    st.tuples(
        st.sampled_from(POLICY_NAMES),
        st.sampled_from((1, 2, 3, 600)),
        st.sampled_from((1, DEFAULT_SFILE_CAPACITY)),
        st.one_of(st.just(200_000), st.integers(min_value=1, max_value=120)),
    ),
    min_size=3,
    max_size=6,
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    groups=st.integers(min_value=1, max_value=6),
    runs=RUNS,
)
@settings(max_examples=settings.default.max_examples // 5)
def test_every_run_of_a_binary_matches_an_unforked_run(seed, groups, runs):
    template = compiled(seed, groups)
    assume(template is not None)
    # A copy of its own, so no earlier example's fork is in play.
    binary = copy.deepcopy(template)
    for run in runs:
        assert outcome(binary, *run) == outcome(copy.deepcopy(template), *run), run


def test_long_prefix_binaries_write_many_recs_before_their_first_rcmp():
    writes = [recs_before_first_rcmp(compiled_long_prefix(seed)) for seed in range(20)]
    assert sum(count >= 8 for count in writes) >= 18, writes


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    runs=st.lists(
        st.tuples(
            st.sampled_from(POLICY_NAMES),
            st.integers(min_value=1, max_value=7),
            st.sampled_from((1, DEFAULT_SFILE_CAPACITY)),
            st.one_of(st.just(200_000), st.integers(min_value=1, max_value=400)),
        ),
        min_size=3,
        max_size=6,
    ),
)
@settings(max_examples=settings.default.max_examples // 5)
def test_restores_whose_hist_replay_evicts_stay_exact(seed, runs):
    template = compiled_long_prefix(seed)
    binary = copy.deepcopy(template)
    for run in runs:
        assert outcome(binary, *run) == outcome(copy.deepcopy(template), *run), run
