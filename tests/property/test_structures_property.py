"""Model-based property tests for the amnesic storage structures."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistoryTable, Renamer, SFile
from repro.isa import SReg

hist_ops = st.lists(
    st.tuples(
        st.sampled_from(["record", "read", "has"]),
        st.integers(0, 3),   # slice id
        st.integers(0, 4),   # leaf id
    ),
    max_size=120,
)


@settings(max_examples=settings.default.max_examples * 4 // 5, deadline=None)
@given(hist_ops, st.integers(min_value=1, max_value=6))
def test_hist_matches_reference_lru_model(operations, capacity):
    hist = HistoryTable(capacity=capacity)
    reference: "OrderedDict" = OrderedDict()
    payload = 0
    for op, slice_id, leaf_id in operations:
        key = (slice_id, leaf_id)
        if op == "record":
            payload += 1
            hist.record(slice_id, leaf_id, (payload,))
            if key in reference:
                reference.move_to_end(key)
            elif len(reference) >= capacity:
                reference.popitem(last=False)
            reference[key] = (payload,)
        elif op == "has":
            assert hist.has(slice_id, leaf_id) == (key in reference)
        else:  # read
            if key in reference:
                assert hist.read(slice_id, leaf_id, 0) == reference[key][0]
                reference.move_to_end(key)
            else:
                try:
                    hist.read(slice_id, leaf_id, 0)
                except KeyError:
                    pass
                else:
                    raise AssertionError("read of absent key succeeded")
    assert hist.occupancy == len(reference)


sfile_ops = st.lists(
    st.tuples(st.sampled_from(["write", "read", "end"]), st.integers(0, 9),
              st.integers(-1000, 1000)),
    max_size=80,
)


@settings(max_examples=settings.default.max_examples * 4 // 5, deadline=None)
@given(sfile_ops)
def test_renamer_matches_reference_dict(operations):
    sfile = SFile(capacity=16)
    renamer = Renamer(sfile)
    renamer.begin_slice()
    reference = {}
    for op, index, value in operations:
        if op == "write":
            if index not in reference and len(reference) >= 16:
                continue  # would exhaust the scratch file
            renamer.write(SReg(index), value)
            reference[index] = value
        elif op == "read":
            if index in reference:
                assert renamer.read(SReg(index)) == reference[index]
        else:
            renamer.end_slice()
            renamer.begin_slice()
            reference.clear()
    assert renamer.live_mappings == len(reference)
