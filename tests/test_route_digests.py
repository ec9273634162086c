"""Route parity: ``Machine.route`` against the committed golden.

``tests/data/route_digests.json`` pins, per machine, a sha256 over the
channel route of every ordered memory pair, as chosen by the routing
that the simulator used before it gained its own route table (see
``tests/data/make_route_digests.py``).  Equal-cost ties are common on
the multi-node machines, so a match here means the tie-break rule is
reproduced exactly — which every golden report, trace and fingerprint
in the repository depends on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.machine import MACHINE_ZOO
from repro.machine.overrides import apply_machine_params

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "route_digests.json").read_text()
)


def route_digest(machine) -> str:
    rows = []
    uids = [m.uid for m in machine.memories]
    for src in uids:
        for dst in uids:
            if src == dst:
                continue
            route = machine.route(src, dst)
            keys = None if route is None else [chan.key for chan in route]
            rows.append([src, dst, keys])
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _label(entry) -> str:
    label = f"{entry['machine']}({entry['arg']})"
    if "machine_params" in entry:
        label += "+" + hashlib.sha256(
            json.dumps(entry["machine_params"], sort_keys=True).encode()
        ).hexdigest()[:8]
    return label


@pytest.mark.parametrize("entry", GOLDEN["machines"], ids=_label)
def test_routes_match_golden(entry):
    machine = MACHINE_ZOO[entry["machine"]](entry["arg"])
    machine = apply_machine_params(machine, entry.get("machine_params", {}))
    assert route_digest(machine) == entry["sha256"]
