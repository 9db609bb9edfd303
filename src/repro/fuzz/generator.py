"""Seeded random generation of :class:`~repro.fuzz.spec.ProgramSpec`.

Generation is structured around *spill groups* — produce a value, spill
it, optionally clobber the register or pollute the cache, then reload —
because that is the shape the amnesic compiler transforms: the reload is
a swap candidate whose producer template is the group's arithmetic
chain.  Random extras (aliasing stores, loop-carried folds) are layered
on top so groups interact.

Determinism contract: ``random_spec(seed)`` depends only on *seed* (one
``random.Random(seed)`` drives every draw, and nothing reads global
state), so a campaign seed reproduces the exact program sequence on any
platform — the property the CLI acceptance test pins down.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .spec import (
    Carry,
    Clobber,
    Gap,
    Produce,
    ProgramSpec,
    Reload,
    Statement,
    Store,
    Trap,
)

#: Temps the generator spills from (``v`` is reserved for reloads).
_SPILL_TEMPS = ("t0", "t1", "t2", "t3")

#: Chain opcodes with generation weights.  Shifts get small immediates
#: (below) so values stay informative rather than saturating.
_CHAIN_OPS = (
    "add", "add", "sub", "mul", "mul", "xor", "xor",
    "or", "and", "min", "max", "shl", "shr",
)

#: Multiplier used to derive per-program seeds from a campaign seed
#: (prime, so consecutive campaigns do not share program streams).
PROGRAM_SEED_STRIDE = 1_000_003


def program_seed(campaign_seed: int, index: int) -> int:
    """The seed of the *index*-th program of a campaign."""
    return campaign_seed * PROGRAM_SEED_STRIDE + index


def _draw_imm(rng: random.Random, op: str) -> int:
    if op in ("shl", "shr"):
        return rng.randint(1, 8)
    if op == "and":
        return rng.randint(1, (1 << 16) - 1)
    if op == "mul":
        return rng.randint(2, 1 << 10)
    return rng.randint(1, 1 << 16)


def _draw_chain(rng: random.Random, min_len: int, max_len: int) -> Tuple:
    length = rng.randint(min_len, max_len)
    chain = []
    for _ in range(length):
        op = rng.choice(_CHAIN_OPS)
        chain.append((op, _draw_imm(rng, op)))
    return tuple(chain)


def random_spec(
    seed: int,
    *,
    name: Optional[str] = None,
    max_groups: int = 3,
) -> ProgramSpec:
    """Draw one program spec deterministically from *seed*."""
    rng = random.Random(seed)
    iterations = rng.randint(3, 10)
    slot_words = rng.choice((8, 8, 16, 64))
    statements: List[Statement] = []
    produced: List[str] = []

    for _ in range(rng.randint(1, max_groups)):
        temp = rng.choice(_SPILL_TEMPS)
        # Sources: the loop index (recomputable leaf), the read-only
        # table (checkpoint-load leaf), or an earlier temp (deep tree).
        roll = rng.random()
        if roll < 0.40:
            source, min_len = "index", 1
        elif roll < 0.75 or not produced:
            source, min_len = "roload", 0
        else:
            source, min_len = rng.choice(produced), 0
        statements.append(
            Produce(
                temp=temp,
                source=source,
                chain=_draw_chain(rng, min_len, 4),
                ro_stride=rng.choice((0, 1, 1, 2, 3)),
            )
        )
        produced.append(temp)

        stride = rng.choice((0, 0, 0, 1, 1, 2, 3))
        offset = rng.randrange(slot_words)
        statements.append(Store(temp=temp, offset=offset, stride=stride))

        # Aliasing store: another temp overwrites the same slot before
        # the reload, so the reload's true producer is the *second*
        # store (store-to-load aliasing into a slice).
        if produced and rng.random() < 0.25:
            statements.append(
                Store(
                    temp=rng.choice(produced), offset=offset, stride=stride
                )
            )
        if rng.random() < 0.45:
            statements.append(
                Clobber(temp=temp, value=rng.randint(1, (1 << 16) - 1))
            )
        if rng.random() < 0.55:
            statements.append(
                Gap(count=rng.randint(1, 8), stride=rng.randint(1, 5))
            )
        statements.append(
            Reload(
                offset=offset,
                stride=stride,
                accumulate=rng.random() < 0.85,
            )
        )

    if produced and rng.random() < 0.35:
        statements.append(
            Carry(
                temp=rng.choice(_SPILL_TEMPS),
                source=rng.choice(produced),
                op=rng.choice(("add", "xor", "max")),
            )
        )

    # Occasionally schedule an arithmetic fault inside the loop body —
    # sometimes live (at < iterations: the classic run faults mid-region
    # and every backend must match it exactly), sometimes dormant (the
    # DIV still sits in the batcher's fused code and must never trap).
    if produced and rng.random() < 0.12:
        live = rng.random() < 0.5
        at = (
            rng.randrange(iterations)
            if live
            else iterations + rng.randint(0, 3)
        )
        statements.append(Trap(temp=rng.choice(produced), at=at))

    return ProgramSpec(
        name=name or f"fuzz-{seed}",
        iterations=iterations,
        slot_words=slot_words,
        statements=tuple(statements),
        emit_output=rng.random() < 0.9,
        seed=seed,
    )


def generate_specs(campaign_seed: int, count: int) -> List[ProgramSpec]:
    """The first *count* specs of the campaign seeded by *campaign_seed*."""
    return [
        random_spec(program_seed(campaign_seed, index))
        for index in range(count)
    ]
