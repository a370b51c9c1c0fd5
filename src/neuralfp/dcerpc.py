"""Endpoint-mapper dump parsing and Windows version classification.

A host's RPC endpoint mapper lists the programs (UUIDs) registered on it
and how to reach them.  Which programs are present discriminates Windows
version, edition, and service pack, so a single perceptron over the
endpoint schema decodes all three at once; the edition and service-pack
decisions are read from disjoint neuron groups and never interact.
`WindowsLabelSpace.neurons` declares that output layout once, as the
(group, version, value) of each neuron, e.g. ("edition", "XP", "Home").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import (
    EndpointMap,
    EndpointSchema,
    RpcProgram,
    build_endpoint_schema,
    encode_endpoint_map,
)
from .neural import Mlp, TrainConfig, forward, init_mlp, train
from .signatures import ParseError, records


_UUID_RE = re.compile(
    r"^[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}$"
)


class DumpParseError(ParseError):
    """Raised on malformed endpoint dump text."""


def _uuid_line(line: str) -> str | None:
    """The text after a `uuid` directive, or None on any other line."""
    return line[4:].strip() if line == "uuid" or line.startswith("uuid ") else None


def parse_endpoint_dump(text: str, name: str | None = None) -> EndpointMap:
    """Parse the line-oriented dump format into an EndpointMap.

    Grammar: `uuid <UUID>` opens a program, indented `binding <protocol>
    [endpoint-name]` lines attach to it, `annotation <text>` lines are
    kept as documentation.  A program must collect at least one binding.
    """
    programs: list[RpcProgram] = []
    for start, uuid, body in records(text, _uuid_line):
        if uuid is not None and not _UUID_RE.match(uuid):
            raise DumpParseError(f"malformed UUID {uuid!r}", start)
        annotation: str | None = None
        bindings: list[tuple[str, str | None]] = []
        for n, line in body:
            word, _, rest = line.partition(" ")
            rest = rest.strip()
            if word in ("annotation", "binding") and uuid is None:
                raise DumpParseError(f"{word} before any uuid line", n)
            if word == "annotation":
                annotation = rest or None
            elif word == "binding":
                if not rest:
                    raise DumpParseError("binding needs a protocol", n)
                proto, _, endpoint = rest.partition(" ")
                bindings.append((proto, endpoint.strip() or None))
            else:
                raise DumpParseError(f"unrecognized directive {word!r}", n)
        if uuid is not None:
            if not bindings:
                raise DumpParseError(f"program {uuid.upper()} has no bindings", start)
            programs.append(RpcProgram(uuid.upper(), annotation, tuple(bindings)))
    return EndpointMap(name, tuple(programs))


def format_endpoint_dump(emap: EndpointMap) -> str:
    lines = []
    for prog in emap.programs:
        lines.append(f"uuid {prog.uuid}")
        if prog.annotation:
            lines.append(f"  annotation {prog.annotation}")
        for proto, endpoint in prog.bindings:
            lines.append(f"  binding {proto}" + (f" {endpoint}" if endpoint else ""))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Label space


@dataclass(frozen=True)
class WindowsLabelSpace:
    """Output layout: versions, then editions, then service packs.

    Editions and service packs are grouped under their version; the
    three decisions are decoded independently from disjoint neuron
    groups.
    """

    versions: tuple[str, ...]
    editions: dict[str, tuple[str, ...]]
    service_packs: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not all(self.editions.get(v) and self.service_packs.get(v) for v in self.versions):
            raise ValueError("expected editions and service packs for every version")

    @classmethod
    def default(cls) -> "WindowsLabelSpace":
        return cls(
            versions=("NT4", "2000", "2003", "XP"),
            editions={
                "NT4": ("Enterprise Server", "Server"),
                "2000": ("Server", "Professional", "Advanced Server"),
                "2003": ("Web Edition", "Enterprise Edition", "Standard Edition"),
                "XP": ("Professional", "Home"),
            },
            service_packs={
                "NT4": ("6", "6a"),
                "2000": ("4", "2", "3", "0", "1"),
                "2003": ("0",),
                "XP": ("2", "0", "1"),
            },
        )

    @cached_property
    def neurons(self) -> tuple[tuple[str, str | None, str], ...]:
        """(group, version, value) of each output neuron, in output order."""
        table = [("version", None, v) for v in self.versions]
        for group, values in (("edition", self.editions), ("sp", self.service_packs)):
            table += [(group, v, x) for v in self.versions for x in values[v]]
        return tuple(table)

    @cached_property
    def _groups(self) -> dict[tuple[str, str | None], range]:
        groups: dict[tuple[str, str | None], list[int]] = {}
        for i, (group, version, _) in enumerate(self.neurons):
            groups.setdefault((group, version), []).append(i)
        return {key: range(idx[0], idx[-1] + 1) for key, idx in groups.items()}

    def indices(self, group: str, version: str | None = None) -> range:
        """Output indices of the versions, or of one version's "edition" or "sp"."""
        return self._groups[(group, version)]

    @property
    def total(self) -> int:
        return len(self.neurons)

    @cached_property
    def neuron_labels(self) -> tuple[str, ...]:
        infix = {"version": "version ", "edition": " edition ", "sp": " sp"}
        return tuple(f"{v or ''}{infix[g]}{x}" for g, v, x in self.neurons)

    def target_vector(self, version: str, edition: str, sp: str) -> np.ndarray:
        y = np.full(self.total, -1.0)
        for n in (("version", None, version), ("edition", version, edition), ("sp", version, sp)):
            y[self.neurons.index(n)] = 1.0
        return y


@dataclass
class WindowsVerdict:
    version: str
    edition: str
    service_pack: str
    scores: dict[str, float]
    low_confidence: bool
    labels: "WindowsLabelSpace"


@dataclass
class WindowsRefiner:
    """A trained endpoint classifier bundled with its schema and labels."""

    net: Mlp
    schema: EndpointSchema
    labels: WindowsLabelSpace

    def __post_init__(self):
        if (self.net.sizes[0], self.net.sizes[-1]) != (self.schema.size, self.labels.total):
            raise ValueError("expected net widths = schema size and label space size")

    def classify(self, dump: EndpointMap) -> WindowsVerdict:
        """Decode (version, edition, service pack) from one endpoint dump."""
        vec = encode_endpoint_map(self.schema, dump)
        out = forward(self.net, vec)

        def pick(group: str, version: str | None = None) -> str:
            idx = self.labels.indices(group, version)
            return self.labels.neurons[idx[int(out[idx.start : idx.stop].argmax())]][2]

        version = pick("version")
        scores = dict(zip(self.labels.neuron_labels, out.tolist()))
        return WindowsVerdict(version, pick("edition", version), pick("sp", version),
                              scores, not (vec > 0.0).any(), self.labels)


def report_windows(verdict: WindowsVerdict) -> str:
    """Grouped two-column listing of the endpoint classifier's scores."""
    labels, v = verdict.labels, verdict.version
    out = list(verdict.scores.values())
    lines = ["DCE-RPC Windows analysis"]
    if verdict.low_confidence:
        lines.append("  (no known UUID present; low confidence)")
    for group, version, title in (("version", None, "version"), ("edition", v, f"{v} edition"),
                                  ("sp", v, f"{v} service pack")):
        lines.append(f"Windows {title} analysis")
        for i in sorted(labels.indices(group, version), key=lambda i: -out[i]):
            value = labels.neurons[i][2]
            lines.append(f"    {out[i]:.8f} {'sp' + value if group == 'sp' else value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthetic corpus and training


def _uuid(group: int, item: int) -> str:
    return f"{group:08X}-0000-0000-0000-{item:012X}"


def _template(labels: WindowsLabelSpace, version: str, edition: str, sp: str) -> EndpointMap:
    """Deterministic endpoint map for one (version, edition, sp) triple.

    Every Windows host shares a core set of programs; each version,
    edition, and service pack registers its own, so the three dimensions
    stay independently decodable.
    """
    vi = labels.neurons.index(("version", None, version))
    ei = labels.neurons.index(("edition", version, edition))
    si = labels.neurons.index(("sp", version, sp))
    # three core services every stack exposes, three per version, two per edition, one per service pack
    progs = [RpcProgram(_uuid(1, i), "core service",
                        (("ncalrpc", f"LRPC{i:05X}"), ("ncacn_ip_tcp", f"{1024 + i}"))) for i in range(3)]
    progs += [RpcProgram(_uuid(16 + vi, i), f"{version} service",
                         (("ncacn_np", rf"\PIPE\svc{vi}{i}"), ("ncadg_ip_udp", None))) for i in range(3)]
    progs += [RpcProgram(_uuid(64 + ei, i), f"{edition} service", (("ncalrpc", f"ED{ei:04X}{i}"),))
              for i in range(2)]
    progs.append(RpcProgram(_uuid(128 + si, 0), f"sp{sp} hotfix service",
                            (("ncacn_ip_tcp", f"{2048 + si}"), ("ncalrpc", f"SP{si:04X}"))))
    return EndpointMap(f"Windows {version} {edition} sp{sp}", tuple(progs))


def synthetic_windows_corpus(
    per_triple: int = 8, seed: int = 0, dropout: float = 0.1
) -> list[tuple[EndpointMap, tuple[str, str, str]]]:
    """Jittered exemplars for every (version, edition, sp) combination.

    Each binding survives with probability 1 - dropout; a program that
    loses every binding disappears from the dump, the way a disabled
    service would.
    """
    labels = WindowsLabelSpace.default()
    rng = np.random.default_rng(seed)
    corpus = []
    for version in labels.versions:
        for edition in labels.editions[version]:
            for sp in labels.service_packs[version]:
                template = _template(labels, version, edition, sp)
                n = sum(len(prog.bindings) for prog in template.programs)
                for _ in range(per_triple):
                    survives = iter((rng.random(n) >= dropout).tolist())  # the stream of n scalar draws
                    progs = []
                    for prog in template.programs:
                        kept = tuple(b for b in prog.bindings if next(survives))
                        if kept:
                            progs.append(RpcProgram(prog.uuid, prog.annotation, kept))
                    corpus.append((
                        EndpointMap(template.name, tuple(progs)),
                        (version, edition, sp),
                    ))
    return corpus


def train_windows_net(corpus: list[tuple[EndpointMap, tuple[str, str, str]]]) -> WindowsRefiner:
    """Fit the endpoint perceptron, 24 hidden units wide, on a dump corpus."""
    labels = WindowsLabelSpace.default()
    schema = build_endpoint_schema([m for m, _ in corpus])
    X = np.array([encode_endpoint_map(schema, m) for m, _ in corpus])
    Y = np.array([labels.target_vector(*triple) for _, triple in corpus])
    # not HierarchyConfig's: lam 0.01 or G patience (an argmax of all 25 outputs) cut triple accuracy to 0.95
    cfg = TrainConfig(generations=150, target_error=0.02, lam=0.005, momentum=0.8, seed=0)
    net = init_mlp([schema.size, 24, labels.total], seed=cfg.seed)
    train(net, X, Y, cfg)
    return WindowsRefiner(net, schema, labels)
