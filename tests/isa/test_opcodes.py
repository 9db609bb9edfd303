"""Opcode table invariants."""

import pickle

import pytest

from repro.isa import ARITY, MAX_RENAME_REQUESTS, SLICEABLE_OPCODES, Category, Opcode
from repro.machine import Level


def test_every_opcode_has_a_category():
    for opcode in Opcode:
        assert isinstance(opcode.category, Category)


def test_every_opcode_has_an_arity():
    for opcode in Opcode:
        assert opcode in ARITY


def test_memory_categories():
    assert Opcode.LD.is_memory
    assert Opcode.ST.is_memory
    assert not Opcode.ADD.is_memory


def test_compute_categories_cover_alu_and_fpu():
    assert Opcode.ADD.is_compute
    assert Opcode.FMA.is_compute
    assert Opcode.MOV.is_compute
    assert not Opcode.BEQ.is_compute
    assert not Opcode.LD.is_compute


def test_amnesic_opcodes():
    for opcode in (Opcode.RCMP, Opcode.RTN, Opcode.REC):
        assert opcode.is_amnesic
        assert opcode.category is Category.AMNESIC


def test_sliceable_excludes_memory_and_control():
    """Paper section 3.4: the amnesic microarchitecture processes only
    register-to-register instructions."""
    for opcode in SLICEABLE_OPCODES:
        assert opcode.is_compute
    assert Opcode.LD not in SLICEABLE_OPCODES
    assert Opcode.BEQ not in SLICEABLE_OPCODES
    assert Opcode.RCMP not in SLICEABLE_OPCODES


def test_max_rename_requests_matches_widest_sliceable_instruction():
    """FMA has three sources plus one destination."""
    assert MAX_RENAME_REQUESTS == 4


def test_control_category_flags():
    assert Category.BRANCH.is_control
    assert Category.JUMP.is_control
    assert Category.HALT.is_control
    assert not Category.INT_ALU.is_control


@pytest.mark.parametrize("enum_cls", [Opcode, Category, Level])
def test_hot_enums_hash_by_identity(enum_cls):
    # Enum compares by identity, so identity hashing agrees with
    # equality; members survive pickling as the same object and find
    # their dict entries.
    assert enum_cls.__hash__ is object.__hash__
    table = {member: index for index, member in enumerate(enum_cls)}
    for index, member in enumerate(enum_cls):
        clone = pickle.loads(pickle.dumps(member))
        assert clone is member
        assert table[clone] == index
