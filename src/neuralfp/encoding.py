"""Observation and endpoint-map encodings for the neural pipeline.

Nmap observations become flat vectors of 568 neurons: one 75-wide block per
TCP test T1..T7, a 27-wide block for TSeq and a 16-wide block for PU.
Categorical data uses 1 (present/true) and -1 (absent/false); an absent test
or field contributes 0 at every position it owns, so "no data" is neutral.
Window sizes and the other numeric fields enter as their integer values and
are rescaled later by the preprocessing stage.

DCE-RPC endpoint maps are encoded against a corpus-derived schema: one
neuron per distinct program UUID and one per distinct binding, 1 when
present and -1 when not.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

TCP_TESTS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7")
# the one spelling of a number in a probe field: no 0x, sign or underscore
BARE_HEX = re.compile(r"[0-9A-Fa-f]+")
OPTION_GROUPS = 10

# The probe vocabulary and its layout: each block is an ordered list of
# (field, kind, values), and each field's slots follow the previous field's.
# The parser knows every field but padding, and the sampler reads num bounds.
# The kind fixes the slots a field owns and how its value fills them:
#   num      one slot: the hex value; values bounds an open comparison's draw
#   yn       one slot: Y -> 1, N -> -1
#   resp     like yn, but 1 when a test that answered has no such field
#   marked   a presence slot, then one slot per known value
#   outcome  one slot per known value; any other value is an EncodeError
#   flags    the count of known letters, then one slot per flag
#   ops      OPTION_GROUPS groups of one slot per option kind, one group per letter
#   pad      a given number of slots that stay 0; not a field of the probe
#   unslotted  no slot: a known field the paper's layout leaves out
# Known values map to slot labels; letters that name one label share its
# slot. A present categorical field puts 1 on each hit and -1 on its other
# slots; a value it does not know hits nothing and is logged.
_TCP = (
    ("ACK", "marked", {v: f"SEQ {v}" for v in ("S", "S++", "O")}),
    ("DF", "yn", None),
    ("Resp", "resp", None),
    # the reserved bit was written B in first-gen databases
    ("Flags", "flags", {"B": "FLAG ECE", "E": "FLAG ECE", "U": "FLAG URG", "A": "FLAG ACK",
                        "P": "FLAG PSH", "R": "FLAG RST", "S": "FLAG SYN", "F": "FLAG FIN"}),
    ("Ops", "ops", {"L": "EOL", "M": "MAXSEG", "N": "NOP", "T": "TIMESTAMP", "W": "WINDOW",
                    "E": "ECHOED"}),
    ("W", "num", 0xFFFF),
)
_TSEQ = (
    ("Class", "marked", {v: f"SEQ {v.upper()}" for v in ("TD", "64K", "RI", "TR", "C", "i800")}),
    ("gcd", "num", 0xFFFFFF),
    ("IPID", "marked", {"I": "IPID SEQ INCR", "BI": "IPID SEQ BROKEN INCR", "RPI": "IPID SEQ RPI",
                        "RD": "IPID SEQ RD", "C": "IPID SEQ CONSTANT", "Z": "IPID SEQ ZERO"}),
    ("SI", "num", 0xFFFFFF),
    ("TS", "marked", {"0": "TS SEQ ZERO", "2HZ": "TS SEQ 2HZ", "100HZ": "TS SEQ 100HZ",
                      "1000HZ": "TS SEQ 1000HZ", "U": "TS SEQ UNSUPPORTED"}),
    ("VAL", "num", 0xFFFFFF),
    ("PAD", "pad", 4),
)
_PU = (
    ("Resp", "unslotted", None),  # silent encodes like unsent: see README
    ("DF", "yn", None),
    ("UCK", "outcome", {"0": "UCK ZERO", "F": "UCK FAIL", "E": "UCK EQ"}),
    ("RID", "outcome", {"E": "RID EQ", "F": "RID FAIL", "0": "RID ZERO"}),
    ("RIPCK", "outcome", {"E": "RIPCK EQ", "F": "RIPCK FAIL", "0": "RIPCK ZERO"}),
    ("ULEN", "num", 0xFFFF),
    ("DAT", "outcome", {"E": "DAT EQ", "F": "DAT FAIL"}),
    ("RIPTL", "num", 0xFFFF),
    ("TOS", "num", 0xFF),
    ("IPLEN", "num", 0xFFFF),
)


class EncodeError(ValueError):
    """Raised when an observation value cannot be encoded."""


@dataclass(frozen=True, slots=True)
class Field:
    test: str
    name: str
    kind: str
    start: int
    stop: int
    labels: tuple[str, ...]
    slot: dict[str, int]   # known value -> offset in the field (ops: in a group)
    absent: str | None     # the value a test that answered implies when the field is missing
    bound: int | None      # num: the largest value the sampler draws


def _declare() -> tuple[Field, ...]:
    """Every field of the layout in vector order, with its slots and labels."""
    fields, start = [], 0
    for test, block in [(t, _TCP) for t in TCP_TESTS] + [("TSeq", _TSEQ), ("PU", _PU)]:
        for name, kind, values in block:
            known = values if isinstance(values, dict) else {}
            distinct = list(dict.fromkeys(known.values()))
            if kind == "pad":
                labels = [f"{name} {i}" for i in range(values)]
            elif kind == "unslotted":
                labels = []
            elif kind == "ops":
                labels = [f"TCP OPT {g} {k}" for g in range(OPTION_GROUPS) for k in distinct]
            elif kind == "outcome":
                labels = distinct
            else:
                labels = [f"{name.upper()} {'YES' if kind == 'resp' else 'FIELD'}"] + distinct
            head = 1 if kind in ("marked", "flags") else 0
            slot = {v: head + distinct.index(label) for v, label in known.items()}
            fields.append(Field(test, name, kind, start, start + len(labels), tuple(labels), slot,
                                "Y" if kind == "resp" else None, values if kind == "num" else None))
            start += len(labels)
    return tuple(fields)


FIELDS = _declare()
_TABLE = tuple((f.start + i, f.test, label) for f in FIELDS for i, label in enumerate(f.labels))
TOTAL_NEURONS = len(_TABLE)
_MINUS = array("d", [-1.0])
_ZERO = array("d", bytes(8 * TOTAL_NEURONS))  # each encoding starts from a copy


def _encode_num(f: Field, value: str) -> float:
    if not BARE_HEX.fullmatch(value):
        raise EncodeError(f"{f.test}.{f.name} not bare hexadecimal: {value!r}")
    try:
        return float(int(value, 16))
    except OverflowError:
        raise EncodeError(f"{f.test}.{f.name} too large for a float: {len(value)} hex digits") from None


def _encode_yn(f: Field, value: str) -> array:
    if value not in ("Y", "N"):
        raise EncodeError(f"{f.test}.{f.name} must be Y or N, got {value!r}")
    return array("d", [1.0 if value == "Y" else -1.0])


def _encode_choice(f: Field, value: str) -> array:
    # marked: the presence slot, then the one-hot; outcome: the one-hot alone
    out = _MINUS * len(f.labels)
    if f.kind == "marked":
        out[0] = 1.0
    if value in f.slot:
        out[f.slot[value]] = 1.0
    elif f.kind == "outcome":
        raise EncodeError(f"{f.test}.{f.name} outcome must be one of {sorted(f.slot)}, got {value!r}")
    else:
        log.warning("unknown value %s.%s=%s encoded as no known value", f.test, f.name, value)
    return out


def _encode_flags(f: Field, value: str) -> array:
    out = _MINUS * len(f.labels)
    out[0] = 0.0
    for c in value:
        if c in f.slot:
            out[0] += 1.0
            out[f.slot[c]] = 1.0
    if not set(value) <= f.slot.keys() and (unknown := "".join(c for c in value if c not in f.slot)):
        log.warning("unknown letters %r in %s.Flags=%s dropped", unknown, f.test, value)
    return out


def _encode_ops(f: Field, value: str) -> array:
    out = _MINUS * len(f.labels)
    group = len(f.labels) // OPTION_GROUPS
    head = value[:OPTION_GROUPS]  # the letters that fill a group
    for g, c in enumerate(head):
        if c in f.slot:
            out[g * group + f.slot[c]] = 1.0
    if not set(head) <= f.slot.keys() and (unknown := "".join(c for c in head if c not in f.slot)):
        log.warning("unknown letters %r in %s.Ops=%s: their groups stay empty", unknown, f.test, value)
    if len(value) > OPTION_GROUPS:
        log.warning("%s.Ops=%s: groups past %d dropped", f.test, value, OPTION_GROUPS)
    return out


_ENCODE = {"num": _encode_num, "yn": _encode_yn, "resp": _encode_yn, "marked": _encode_choice,
           "outcome": _encode_choice, "flags": _encode_flags, "ops": _encode_ops}


def _known(f: Field) -> dict[str, array]:
    """f's values that encode with no check or warning, encoded: choices, Y and N, letters and ""."""
    values = {"yn": ("Y", "N"), "resp": ("Y", "N"), "flags": (*f.slot, ""), "ops": (*f.slot, "")}
    return {v: _ENCODE[f.kind](f, v) for v in values.get(f.kind, f.slot)}


# what encode_observation walks: each test and its fields that write, with their known values
_BLOCKS = tuple((test, tuple((f, _known(f)) for f in FIELDS if f.test == test and f.kind in _ENCODE))
                for test in dict.fromkeys(f.test for f in FIELDS))


def encode_observation(obs) -> np.ndarray:
    """Encode an Observation into the 568-neuron vector."""
    row = _ZERO[:]
    for test, steps in _BLOCKS:
        if values := obs.tests.get(test):
            for f, known in steps:
                value = values.get(f.name, f.absent)
                if f.kind == "num" and value is not None:
                    row[f.start] = _encode_num(f, value)
                elif value is not None:
                    row[f.start:f.stop] = known.get(value) or _ENCODE[f.kind](f, value)
    return np.frombuffer(row)


# test -> the names of its fields that own slots
_SLOTTED = {test: frozenset(f.name for f, _ in steps) for test, steps in _BLOCKS}


def has_encoded_field(obs) -> bool:
    """Whether obs carries a field that owns slots, i.e. any evidence at all."""
    # a plain loop: this runs on every classify, and any() over a generator costs more
    for test, values in obs.tests.items():
        if not _SLOTTED.get(test, frozenset()).isdisjoint(values):
            return True
    return False


def layout_table() -> list[tuple[int, str, str]]:
    """(index, test id, feature label) for all 568 positions."""
    return list(_TABLE)


def feature_label(index: int) -> str:
    """Human-readable name of one vector position, e.g. 'T1: W FIELD'."""
    _, test, label = _TABLE[index]
    return f"{test}: {label}"


# ---------------------------------------------------------------------------
# DCE-RPC endpoint maps


@dataclass(frozen=True)
class RpcProgram:
    """One registered RPC program and where it can be reached."""

    uuid: str
    annotation: str | None
    bindings: tuple[tuple[str, str | None], ...]


@dataclass(frozen=True)
class EndpointMap:
    """Programs exposed by one host, in dump order."""

    name: str | None
    programs: tuple[RpcProgram, ...]

    def binding_count(self) -> int:
        return sum(len(p.bindings) for p in self.programs)


@dataclass(frozen=True)
class EndpointSchema:
    """Neuron assignment for UUIDs and bindings, in first-seen order."""

    uuid_index: dict[str, int]
    binding_index: dict[tuple[str, str, str | None], int]

    @property
    def size(self) -> int:
        return len(self.uuid_index) + len(self.binding_index)


def build_endpoint_schema(maps: list[EndpointMap]) -> EndpointSchema:
    """Assign one neuron per distinct UUID and per distinct binding, numbered in first-seen order."""
    index: dict[str | tuple[str, str, str | None], int] = {}  # a UUID is a str, a binding a tuple
    for emap in maps:
        for prog in emap.programs:
            index.setdefault(prog.uuid, len(index))
            for proto, endpoint in prog.bindings:
                index.setdefault((prog.uuid, proto, endpoint), len(index))
    return EndpointSchema({k: i for k, i in index.items() if isinstance(k, str)},
                          {k: i for k, i in index.items() if isinstance(k, tuple)})


def encode_endpoint_map(schema: EndpointSchema, emap: EndpointMap) -> np.ndarray:
    """1 at present UUID/binding neurons, -1 elsewhere.

    A binding never seen by the schema contributes nothing beyond its UUID
    neuron; unknown UUIDs are ignored entirely.
    """
    vec = np.full(schema.size, -1.0)
    for prog in emap.programs:
        idx = schema.uuid_index.get(prog.uuid)
        if idx is None:
            continue
        vec[idx] = 1.0
        for proto, endpoint in prog.bindings:
            bidx = schema.binding_index.get((prog.uuid, proto, endpoint))
            if bidx is not None:
                vec[bidx] = 1.0
    return vec
