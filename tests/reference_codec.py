"""The per-event ``struct`` form of the REL1 event-log codec, kept as an
oracle for ``EventLog.to_binary`` and ``EventLog.from_binary``, which write
and read the event body as one numpy record array.

REL1, all little-endian: the magic ``REL1``; the initial and then the final
bag, each a uint32 count followed by that many uint32 ids; a uint64 event
count; then 13 bytes per event: float64 time, a kind byte (0 infection,
1 recovery) and a uint32 node.
"""

from __future__ import annotations

import struct
from operator import itemgetter

from erl import GENERATE_CAP, INFECTION, RECOVERY, Bag, ErlError, EventLog

_EVENT = struct.Struct("<dBI")


def _node_id_error(top: int, where: str) -> ErlError:
    return ErlError(f"node id {top} in {where} is above the largest id "
                    f"{GENERATE_CAP - 1} a graph can have")


def reference_to_binary(log: EventLog) -> bytes:
    out = [b"REL1"]
    for bag in (log.initial_infected, log.final):
        nodes = bag.nodes()
        out.append(struct.pack("<I", len(nodes)))
        out.append(struct.pack(f"<{len(nodes)}I", *nodes))
    out.append(struct.pack("<Q", len(log.times)))
    for t, kind, node in zip(log.times, log.kinds, log.nodes):
        out.append(_EVENT.pack(t, 0 if kind == INFECTION else 1, node))
    return b"".join(out)


def reference_from_binary(data: bytes) -> EventLog:
    if data[:4] != b"REL1":
        raise ErlError("bad magic bytes in event log")
    off = 4
    bags = []
    try:
        for _ in range(2):
            (k,) = struct.unpack_from("<I", data, off)
            off += 4
            nodes = struct.unpack_from(f"<{k}I", data, off)
            if nodes and max(nodes) >= GENERATE_CAP:
                raise _node_id_error(max(nodes), "the log header")
            bags.append(Bag(nodes))
            off += 4 * k
        (count,) = struct.unpack_from("<Q", data, off)
        off += 8
    except struct.error:
        raise ErlError("event log ends inside its header")
    if len(data) - off != count * _EVENT.size:
        raise ErlError(f"event log declares {count} events but holds "
                       f"{len(data) - off} bytes of them")
    events = []
    for t, kind, node in _EVENT.iter_unpack(data[off:]):
        if kind > 1:
            raise ErlError(f"unknown event kind byte {kind}")
        events.append((t, INFECTION if kind == 0 else RECOVERY, node))
    top = max(map(itemgetter(2), events), default=0)
    if top >= GENERATE_CAP:
        raise _node_id_error(top, "an event")
    columns = tuple(zip(*events)) or ((), (), ())
    return EventLog(bags[0], *columns, bags[1])
