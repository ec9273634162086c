"""Generate ``route_digests.json``: the route-parity golden.

Each entry names a machine (a ``MACHINE_ZOO`` builder, its size argument
and an optional ``apply_machine_params`` override document) and a
sha256 over the channel route of every ordered pair of distinct
memories, in memory-declaration order.  A route is the sequence of
channel timeline keys (``chan:{a}<->{b}``, endpoints sorted) a copy
crosses, or ``null`` when the pair is disconnected.

The routes here are computed by networkx's weighted ``shortest_path``
over the channel graph (nodes in memory order, edges in channel order,
weight ``latency + 16 MiB / bandwidth``), which is how the simulator
routed copies before it gained its own route table.  The golden pins
that choice, including how equal-cost ties break, so that
``tests/test_routes.py`` can check ``Machine.route`` against it.  The
committed file was generated with networkx 3.6.1.

Run from the repository root (needs networkx, which the package itself
does not)::

    PYTHONPATH=src python tests/data/make_route_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import networkx as nx

from repro.fuzz.case import MACHINE_CHOICES
from repro.machine import MACHINE_ZOO
from repro.machine.overrides import apply_machine_params

OUT = Path(__file__).with_name("route_digests.json")
ROUTING_MESSAGE_BYTES = 16 * 1024 * 1024
EXTRA_SIZES = (("shepard", 16), ("lassen", 4), ("helix", 24))
PERTURB_BASES = (
    ("shepard", 2),
    ("shepard", 4),
    ("lassen", 2),
    ("helix", 3),
    ("helix", 6),
    ("mirrored", 2),
    ("lopsided", 2),
)
PERTURBATIONS = 20


def route_keys(machine):
    """``[[src, dst, keys-or-None], ...]`` for every ordered pair."""
    graph = nx.Graph()
    for mem in machine.memories:
        graph.add_node(mem.uid)
    for chan in machine.channels:
        weight = chan.latency + ROUTING_MESSAGE_BYTES / chan.bandwidth
        graph.add_edge(chan.mem_a, chan.mem_b, weight=weight)
    rows = []
    uids = [m.uid for m in machine.memories]
    for src in uids:
        for dst in uids:
            if src == dst:
                continue
            try:
                nodes = nx.shortest_path(graph, src, dst, weight="weight")
            except nx.NetworkXNoPath:
                rows.append([src, dst, None])
                continue
            keys = []
            for a, b in zip(nodes, nodes[1:]):
                lo, hi = sorted((a, b))
                keys.append(f"chan:{lo}<->{hi}")
            rows.append([src, dst, keys])
    return rows


def digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def perturbation(rng: random.Random, name: str, arg: int) -> dict:
    """A channel-bandwidth override that creates and flips cost ties."""
    machine = MACHINE_ZOO[name](arg)
    pool = sorted({c.bandwidth for c in machine.channels})
    pool += [bw * 2 for bw in pool] + [bw / 2 for bw in pool]
    chans = rng.sample(
        machine.channels, rng.randint(1, max(1, len(machine.channels) // 3))
    )
    return {
        "channel_bandwidth": {
            f"{c.mem_a}|{c.mem_b}": rng.choice(pool) for c in chans
        }
    }


def entries():
    sizes = [(name, arg) for name, args in MACHINE_CHOICES for arg in args]
    out = [{"machine": n, "arg": a} for n, a in sizes + list(EXTRA_SIZES)]
    rng = random.Random(20231112)
    perturbed = []
    while len(perturbed) < PERTURBATIONS:
        name, arg = PERTURB_BASES[rng.randrange(len(PERTURB_BASES))]
        entry = {
            "machine": name,
            "arg": arg,
            "machine_params": perturbation(rng, name, arg),
        }
        if entry not in perturbed:
            perturbed.append(entry)
    return out + perturbed


def main() -> int:
    docs = []
    for entry in entries():
        machine = MACHINE_ZOO[entry["machine"]](entry["arg"])
        machine = apply_machine_params(machine, entry.get("machine_params", {}))
        docs.append({**entry, "sha256": digest(route_keys(machine))})
    payload = {"networkx": nx.__version__, "machines": docs}
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(docs)} digests to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
