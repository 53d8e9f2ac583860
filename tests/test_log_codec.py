"""The REL1 codec against its per-event ``struct`` form in
``reference_codec``: the same bytes, a round trip to an equal log, and the
same ``ErlError`` message for every refused blob."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erl import GENERATE_CAP, INFECTION, RECOVERY, Bag, ErlError, EventLog

from conftest import event_log
from reference_codec import reference_from_binary, reference_to_binary

EVENT_SIZE = 13
TOP = GENERATE_CAP - 1
SPECIAL_TIMES = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]

ids = st.one_of(st.sampled_from([0, TOP]), st.integers(0, TOP))
times = st.one_of(st.sampled_from(SPECIAL_TIMES), st.floats())
bags = st.frozensets(ids, max_size=4).map(Bag)


def logs(min_events: int = 0):
    events = st.lists(st.tuples(times, st.sampled_from([INFECTION, RECOVERY]),
                                ids), min_size=min_events, max_size=12)
    return st.builds(event_log, bags, events, bags)


SPECIAL_LOG = event_log(
    Bag([0, TOP]),
    [(t, (INFECTION, RECOVERY)[i % 2], (0, TOP)[i // 2 % 2])
     for i, t in enumerate(SPECIAL_TIMES)],
    Bag([TOP]))


def columns(log: EventLog) -> tuple:
    """The log's fields, each time as its 8 bytes, so that NaN equals NaN
    and -0.0 differs from 0.0."""
    return (log.initial_infected, [struct.pack("<d", t) for t in log.times],
            log.kinds, log.nodes, log.final)


def message(decode, data: bytes) -> str | None:
    try:
        decode(data)
    except ErlError as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(logs())
@example(event_log(Bag(), (), Bag()))
@example(SPECIAL_LOG)
def test_bytes_and_round_trip_match_reference(log):
    blob = log.to_binary()
    assert blob == reference_to_binary(log)
    back = EventLog.from_binary(blob)
    assert columns(back) == columns(reference_from_binary(blob)) \
        == columns(log)
    # Python scalars, as the CSV writer's repr needs
    assert all(type(t) is float for t in back.times)
    assert all(type(k) is str for k in back.kinds)
    assert all(type(v) is int for v in back.nodes)
    assert back == log
    assert back.to_binary() == blob


def test_nan_time_log_equals_its_round_trip():
    log = event_log(Bag([0]), [(math.nan, RECOVERY, 0)], Bag())
    back = EventLog.from_binary(log.to_binary())
    assert back.times[0] is not log.times[0]
    assert back == log and hash(back) == hash(log)


def test_times_compare_by_value_or_bits():
    def one(*times):
        return event_log(Bag([0]), [(t, RECOVERY, 0) for t in times], Bag())

    other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    assert one(0.0) == one(-0.0)
    # two NaN objects: the tuples differ, and the times compare one by one
    assert one(float("nan"), 0.0) == one(float("nan"), -0.0)
    assert one(math.nan) != one(other_nan)
    assert one(math.nan) != one(math.inf)
    assert one(1.0) != one(math.nan)
    assert SPECIAL_LOG == EventLog.from_binary(SPECIAL_LOG.to_binary())


def corruptions(log: EventLog, kind_byte: int, big_id: int):
    """Named blobs that both decoders must refuse, one per way to break the
    log's blob."""
    blob = log.to_binary()
    head = len(blob) - EVENT_SIZE * len(log.times)
    yield "one byte short", blob[:-1]
    yield "one byte long", blob + b"\x00"
    for end in range(head):
        yield f"header cut at {end}", blob[:end]
    if log.initial_infected.nodes():
        data = bytearray(blob)
        data[8:12] = struct.pack("<I", big_id)
        yield "header id", bytes(data)
    last = len(log.times) - 1
    for where, i in (("first", 0), ("middle", last // 2), ("last", last)):
        at = head + EVENT_SIZE * i
        data = bytearray(blob)
        data[at + 8] = kind_byte
        yield f"kind of the {where} event", bytes(data)
        data = bytearray(blob)
        data[at + 9:at + 13] = struct.pack("<I", big_id)
        yield f"id of the {where} event", bytes(data)
        # a large id after a bad kind byte: the kind byte is named
        data[head + EVENT_SIZE * last + 8] = kind_byte
        yield f"id of the {where} event, bad last kind", bytes(data)
    if last:
        # two bad kind bytes, which differ: the first is named
        data = bytearray(blob)
        data[head + 8] = kind_byte
        data[head + EVENT_SIZE * last + 8] = 2 + (kind_byte - 1) % 254
        yield "kinds of the first and last events", bytes(data)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(logs(min_events=1), st.integers(2, 255),
       st.integers(GENERATE_CAP, 2**32 - 1))
@example(SPECIAL_LOG, 2, GENERATE_CAP)
def test_refusals_match_reference(log, kind_byte, big_id):
    for name, data in corruptions(log, kind_byte, big_id):
        want = message(reference_from_binary, data)
        assert want is not None, name
        assert message(EventLog.from_binary, data) == want, name


@pytest.mark.parametrize("node", [1 << 32, -1, 10**30])
def test_to_binary_refuses_id_rel1_cannot_hold(node):
    log = event_log(Bag([0]), [(1.0, INFECTION, 1), (2.0, RECOVERY, node)],
                    Bag([1]))
    with pytest.raises(ErlError, match=f"node id {node} in an event is "
                       "outside 0..4294967295"):
        log.to_binary()


@pytest.mark.parametrize("node", [np.int64(2**32 + 5), np.uint64(2**40),
                                  np.int64(-1)])
def test_to_binary_refuses_numpy_id_rel1_cannot_hold(node):
    # a uint32 cast would write these as 5, 0 and 4294967295
    log = event_log(Bag([0]), [(1.0, INFECTION, 1), (2.0, RECOVERY, node)],
                    Bag([1]))
    with pytest.raises(ErlError, match=f"node id {node} in an event is "
                       "outside 0..4294967295"):
        log.to_binary()


def test_to_binary_writes_largest_rel1_id():
    log = event_log(Bag(), [(1.0, INFECTION, (1 << 32) - 1)], Bag())
    assert log.to_binary()[-4:] == b"\xff\xff\xff\xff"
