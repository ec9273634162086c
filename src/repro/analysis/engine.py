"""The ``repro analyze`` entry point: run all static passes.

Combines the task-graph sanitizer, the canonicalization analysis, the
dead-coordinate feasibility scan, and (when a concrete mapping is
given) the validity checker and whole-mapping feasibility proof into
one :class:`~repro.analysis.diagnostics.DiagnosticReport`.  This is
what the CLI subcommand and the CI lint gate call; the search pipeline
instead wires the individual passes into the oracle and the search
space (see :class:`repro.core.driver.AutoMapDriver`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.canonical import Canonicalizer
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Span
from repro.analysis.memfeas import StaticMemoryFeasibility
from repro.analysis.sanitizer import sanitize_graph
from repro.analysis.validity import check_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine
    from repro.mapping.mapping import Mapping
    from repro.mapping.space import SearchSpace
    from repro.taskgraph.graph import TaskGraph

__all__ = ["analyze", "diagnose_routes"]


def analyze(
    graph: "TaskGraph",
    machine: "Machine",
    space: Optional["SearchSpace"] = None,
    mapping: Optional["Mapping"] = None,
    sanitize: bool = True,
    bounds: bool = False,
    equivalence: bool = False,
) -> DiagnosticReport:
    """Run every static pass over the graph/machine pair.

    ``space`` defaults to the full :class:`SearchSpace` of the pair and
    is scanned for dead/foldable coordinates; a concrete ``mapping`` is
    additionally validity-checked and, when valid, proven to fit (or
    not) in memory.  The sanitizer can be skipped for repeated calls on
    an already-sanitized graph.  With ``bounds`` the static cost-bound
    analyzer adds the AM4xx diagnostics, comparing the mapping (or the
    space's default mapping when none is given) against the default
    mapping's simulated makespan.  With ``equivalence`` the AM6xx
    workload-equivalence pass reports capacity slack above the footprint
    bound, unreachable resources, and verified self-relabelings.
    """
    report = DiagnosticReport()
    if sanitize:
        report.extend(sanitize_graph(graph))

    if space is None:
        from repro.mapping.space import SearchSpace

        space = SearchSpace(graph, machine)

    canonicalizer = Canonicalizer(graph, machine)
    report.extend(canonicalizer.diagnose_space(space))

    feasibility = StaticMemoryFeasibility(graph, machine)
    report.extend(feasibility.diagnose_space(space))

    valid_mapping = None
    if mapping is not None:
        validity = check_mapping(graph, machine, mapping)
        report.extend(validity)
        if not validity:
            report.extend(feasibility.diagnose_mapping(mapping))
            valid_mapping = mapping
    if bounds and (mapping is None or valid_mapping is not None):
        report.extend(
            _diagnose_bounds(
                graph, machine, space, valid_mapping, canonicalizer
            )
        )
    if equivalence:
        from repro.analysis.equivalence import diagnose_equivalence

        report.extend(diagnose_equivalence(graph, machine, space))
    return report


def _diagnose_bounds(
    graph: "TaskGraph",
    machine: "Machine",
    space: "SearchSpace",
    mapping: Optional["Mapping"],
    canonicalizer: Canonicalizer,
) -> DiagnosticReport:
    """AM4xx + AM5xx: bound/routing diagnostics for one (already valid)
    mapping.

    The reference makespan AM401 compares against is a noise-free,
    spill-enabled simulation of the space's default mapping — the
    "don't search at all" baseline; the bound is priced on the mapping
    the simulator would actually execute (spill demotions applied).
    The machine-level AM5xx findings ride along: unreachable memory
    pairs (AM503) from the machine's routes and interchangeable-kind folds
    (AM502) from the canonicalizer's verified symmetry group.
    The runtime import stays local: the analysis package must be
    importable from below the runtime layer.
    """
    from repro.analysis.bounds import StaticBoundAnalyzer
    from repro.runtime.simulator import SimConfig, Simulator

    report = DiagnosticReport()
    report.extend(diagnose_routes(machine))
    report.extend(canonicalizer.diagnose_symmetry())
    if not graph.launches:
        # Degenerate graph: nothing to simulate and no mapping to
        # bound (``Mapping({})`` is invalid by construction), so the
        # machine-level findings above are the whole report.
        return report
    simulator = Simulator(
        graph, machine, SimConfig(noise_sigma=0.0, spill=True)
    )
    default = space.default_mapping()
    incumbent = simulator.run(default).makespan
    target = default if mapping is None else mapping
    analyzer = StaticBoundAnalyzer(graph, machine)
    report.extend(
        analyzer.diagnose_mapping(
            simulator.spill_plan(target), incumbent=incumbent
        )
    )
    return report


def diagnose_routes(machine: "Machine") -> List[Diagnostic]:
    """``AM503`` for every unordered memory pair with no channel path."""
    mems = [m.uid for m in machine.memories]
    return [
        Diagnostic(
            rule_id="AM503",
            message=(
                f"no channel path between {src} and {dst}: any "
                f"mapping that needs a copy between them fails at "
                f"simulation time"
            ),
            span=Span(memory=src),
        )
        for i, src in enumerate(mems)
        for dst in mems[i + 1:]
        if machine.route(src, dst) is None
    ]
