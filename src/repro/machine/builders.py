"""Ready-made machine models.

``shepard(nodes)`` and ``lassen(nodes)`` reproduce the two clusters of the
paper's evaluation (§5, "Experimental Setup"):

* **Shepard** (Stanford HPC Center): per node, 2× Intel Xeon Platinum 8276
  (28 cores each), 196 GB RAM, one NVIDIA P100 with 16 GB frame buffer.
* **Lassen** (LLNL): per node, 2× IBM Power9 (22 cores each, 20 usable),
  256 GB RAM, four NVIDIA V100 GPUs with NVLink 2.0 and 16 GB frame
  buffer each.

As in the paper, 8 cores per node are reserved for the runtime and 60 GB
of host memory per node are pinned as Zero-Copy memory.

Bandwidth/latency parameters come from published device specs derated to
sustained application-visible figures (HBM2 ~0.7–0.8× peak, PCIe 3.0 x16
~12 GB/s effective, NVLink 2.0 ~60 GB/s effective, EDR InfiniBand ~10
GB/s, DDR4 per-socket stream ~100 GB/s).  Absolute accuracy is not needed
— the experiments reproduce performance *ratios* — but the ordering and
rough magnitudes of these links is what drives every mapping trade-off in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import AccessLink, Channel, Machine, Memory, Processor
from repro.util.units import GIB

__all__ = [
    "NodeSpec",
    "generic_cluster",
    "heterogeneous_cluster",
    "shepard",
    "lassen",
    "helix",
    "mirrored_node",
    "lopsided_node",
    "single_node",
    "MACHINE_ZOO",
]

#: Parallel efficiency of the per-socket OpenMP processor relative to the
#: sum of its cores' throughputs (memory-bandwidth sharing, sync costs).
OMP_EFFICIENCY = 0.8


@dataclass(frozen=True)
class NodeSpec:
    """Physical description of one machine node.

    All bandwidths are bytes/s, latencies seconds, capacities bytes.
    ``cores_per_socket`` already excludes runtime-reserved cores.
    """

    cpu_sockets: int
    cores_per_socket: int
    gpus: int
    sysmem_per_socket: int
    zero_copy_capacity: int
    framebuffer_capacity: int
    cpu_core_throughput: float
    gpu_throughput: float
    cpu_launch_overhead: float
    gpu_launch_overhead: float
    sysmem_bandwidth: float
    zero_copy_cpu_bandwidth: float
    zero_copy_gpu_bandwidth: float
    framebuffer_bandwidth: float
    host_device_bandwidth: float  # FB <-> host channels (PCIe or NVLink)
    cross_socket_bandwidth: float
    intra_node_latency: float
    network_bandwidth: float  # node <-> node
    network_latency: float


#: Shepard node (paper §5): 2×28-core Xeon 8276, 196 GB RAM, 1× P100.
#: 8 cores reserved for the runtime => 48 application cores (24/socket).
SHEPARD_NODE = NodeSpec(
    cpu_sockets=2,
    cores_per_socket=24,
    gpus=1,
    sysmem_per_socket=68 * GIB,  # (196 GB - 60 GB zero-copy) split per socket
    zero_copy_capacity=60 * GIB,
    framebuffer_capacity=16 * GIB,
    cpu_core_throughput=1.2e10,  # sustained per core on application code
    gpu_throughput=3.0e12,  # P100 sustained (4.7 TF peak FP64)
    cpu_launch_overhead=1.2e-4,  # Legion dispatch + dependence analysis
    gpu_launch_overhead=1.5e-4,  # dispatch + kernel launch + stream sync
    sysmem_bandwidth=1.0e11,
    zero_copy_cpu_bandwidth=8.0e10,
    zero_copy_gpu_bandwidth=1.2e10,  # PCIe 3.0 x16 effective
    framebuffer_bandwidth=5.5e11,  # P100 HBM2 sustained (732 GB/s peak)
    host_device_bandwidth=1.2e10,
    cross_socket_bandwidth=3.0e10,
    intra_node_latency=1.0e-5,
    network_bandwidth=1.0e10,  # EDR InfiniBand effective
    network_latency=2.5e-5,
)

#: Lassen node (paper §5): 2×22-core Power9 (20 usable), 256 GB RAM,
#: 4× V100 with NVLink 2.0.  8 cores reserved => 32 application cores.
LASSEN_NODE = NodeSpec(
    cpu_sockets=2,
    cores_per_socket=16,
    gpus=4,
    sysmem_per_socket=98 * GIB,
    zero_copy_capacity=60 * GIB,
    framebuffer_capacity=16 * GIB,
    cpu_core_throughput=1.0e10,
    gpu_throughput=6.0e12,  # V100 sustained (7.8 TF peak FP64)
    cpu_launch_overhead=1.2e-4,
    gpu_launch_overhead=1.5e-4,
    sysmem_bandwidth=1.2e11,
    zero_copy_cpu_bandwidth=9.0e10,
    zero_copy_gpu_bandwidth=6.0e10,  # NVLink 2.0 effective
    framebuffer_bandwidth=7.0e11,  # V100 HBM2 sustained (900 GB/s peak)
    host_device_bandwidth=6.0e10,
    cross_socket_bandwidth=3.5e10,
    intra_node_latency=1.0e-5,
    network_bandwidth=2.0e10,  # dual-rail EDR effective
    network_latency=2.0e-5,
)


def heterogeneous_cluster(name: str, specs: Sequence[NodeSpec]) -> Machine:
    """Build a cluster with one (possibly distinct) ``NodeSpec`` per node.

    The constructed graph has, per node: one CPU processor per socket
    (OpenMP-style aggregate), one GPU processor per device, one System
    memory per socket, one Zero-Copy memory, and one frame buffer per
    GPU; access links per the kind addressability rules; channels FB↔ZC,
    FB↔System, System↔System (cross socket), System↔ZC; and inter-node
    channels between Zero-Copy and between System memories of every node
    pair (all-to-all network, priced at the slower endpoint's network
    bandwidth and the higher endpoint latency).

    Mixed-accelerator machines (e.g. :func:`helix`) are expressed as
    per-node GPU throughput/capacity differences: the kind alphabet
    stays {CPU, GPU}, so the mapping search is unchanged while the
    placer and simulator see the real heterogeneity.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("cluster must have at least one node")
    processors: List[Processor] = []
    memories: List[Memory] = []
    access: List[AccessLink] = []
    channels: List[Channel] = []

    for n, spec in enumerate(specs):
        sys_uids = []
        for s in range(spec.cpu_sockets):
            mem_uid = f"n{n}.sys{s}"
            sys_uids.append(mem_uid)
            memories.append(
                Memory(
                    uid=mem_uid,
                    kind=MemKind.SYSTEM,
                    node=n,
                    socket=s,
                    capacity=spec.sysmem_per_socket,
                )
            )
        zc_uid = f"n{n}.zc"
        memories.append(
            Memory(
                uid=zc_uid,
                kind=MemKind.ZERO_COPY,
                node=n,
                capacity=spec.zero_copy_capacity,
            )
        )
        fb_uids = []
        for g in range(spec.gpus):
            fb_uid = f"n{n}.fb{g}"
            fb_uids.append(fb_uid)
            memories.append(
                Memory(
                    uid=fb_uid,
                    kind=MemKind.FRAMEBUFFER,
                    node=n,
                    device=g,
                    capacity=spec.framebuffer_capacity,
                )
            )

        # CPU processors: one OpenMP-style group per socket, aggregating
        # the socket's application cores.  The paper's Legion applications
        # use OpenMP CPU variants, so a "CPU placement" occupies a socket,
        # not a single core; modelling at socket granularity keeps the
        # event simulation small without changing any mapping trade-off.
        for s in range(spec.cpu_sockets):
            proc_uid = f"n{n}.cpu{s}"
            processors.append(
                Processor(
                    uid=proc_uid,
                    kind=ProcKind.CPU,
                    node=n,
                    socket=s,
                    throughput=(
                        spec.cpu_core_throughput
                        * spec.cores_per_socket
                        * OMP_EFFICIENCY
                    ),
                    launch_overhead=spec.cpu_launch_overhead,
                )
            )
            for s2, sys_uid in enumerate(sys_uids):
                bw = (
                    spec.sysmem_bandwidth
                    if s2 == s
                    else spec.cross_socket_bandwidth
                )
                access.append(
                    AccessLink(
                        proc=proc_uid,
                        mem=sys_uid,
                        bandwidth=bw,
                        latency=0.0,
                    )
                )
            access.append(
                AccessLink(
                    proc=proc_uid,
                    mem=zc_uid,
                    bandwidth=spec.zero_copy_cpu_bandwidth,
                    latency=0.0,
                )
            )

        # GPUs and their access links.
        for g in range(spec.gpus):
            proc_uid = f"n{n}.gpu{g}"
            processors.append(
                Processor(
                    uid=proc_uid,
                    kind=ProcKind.GPU,
                    node=n,
                    device=g,
                    throughput=spec.gpu_throughput,
                    launch_overhead=spec.gpu_launch_overhead,
                )
            )
            for g2, fb_uid in enumerate(fb_uids):
                if g2 == g:
                    access.append(
                        AccessLink(
                            proc=proc_uid,
                            mem=fb_uid,
                            bandwidth=spec.framebuffer_bandwidth,
                            latency=0.0,
                        )
                    )
            access.append(
                AccessLink(
                    proc=proc_uid,
                    mem=zc_uid,
                    bandwidth=spec.zero_copy_gpu_bandwidth,
                    latency=0.0,
                )
            )

        # Intra-node channels.
        for fb_uid in fb_uids:
            channels.append(
                Channel(
                    mem_a=fb_uid,
                    mem_b=zc_uid,
                    bandwidth=spec.host_device_bandwidth,
                    latency=spec.intra_node_latency,
                )
            )
            for sys_uid in sys_uids:
                channels.append(
                    Channel(
                        mem_a=fb_uid,
                        mem_b=sys_uid,
                        bandwidth=spec.host_device_bandwidth,
                        latency=spec.intra_node_latency,
                    )
                )
        for i, sys_a in enumerate(sys_uids):
            channels.append(
                Channel(
                    mem_a=sys_a,
                    mem_b=zc_uid,
                    bandwidth=spec.sysmem_bandwidth / 2,
                    latency=spec.intra_node_latency,
                )
            )
            for sys_b in sys_uids[i + 1 :]:
                channels.append(
                    Channel(
                        mem_a=sys_a,
                        mem_b=sys_b,
                        bandwidth=spec.cross_socket_bandwidth,
                        latency=spec.intra_node_latency,
                    )
                )
        # Peer-to-peer FB channels between GPUs on the same node.
        for i, fb_a in enumerate(fb_uids):
            for fb_b in fb_uids[i + 1 :]:
                channels.append(
                    Channel(
                        mem_a=fb_a,
                        mem_b=fb_b,
                        bandwidth=spec.host_device_bandwidth,
                        latency=spec.intra_node_latency,
                    )
                )

    # Inter-node network channels (all-to-all, between zero-copy pools and
    # between socket-0 system memories; copies between other memories are
    # routed through these by Machine.route).
    for a in range(len(specs)):
        for b in range(a + 1, len(specs)):
            bandwidth = min(
                specs[a].network_bandwidth, specs[b].network_bandwidth
            )
            latency = max(
                specs[a].network_latency, specs[b].network_latency
            )
            channels.append(
                Channel(
                    mem_a=f"n{a}.zc",
                    mem_b=f"n{b}.zc",
                    bandwidth=bandwidth,
                    latency=latency,
                )
            )
            channels.append(
                Channel(
                    mem_a=f"n{a}.sys0",
                    mem_b=f"n{b}.sys0",
                    bandwidth=bandwidth,
                    latency=latency,
                )
            )

    return Machine(
        name=f"{name}-{len(specs)}n",
        processors=processors,
        memories=memories,
        access_links=access,
        channels=channels,
    )


def generic_cluster(name: str, spec: NodeSpec, nodes: int) -> Machine:
    """Build a homogeneous cluster of ``nodes`` copies of ``spec``."""
    if nodes < 1:
        raise ValueError("cluster must have at least one node")
    return heterogeneous_cluster(name, [spec] * nodes)


def shepard(nodes: int = 1) -> Machine:
    """A ``nodes``-node model of the Shepard cluster (1× P100 per node)."""
    return generic_cluster("shepard", SHEPARD_NODE, nodes)


def lassen(nodes: int = 1) -> Machine:
    """A ``nodes``-node model of the Lassen cluster (4× V100 per node)."""
    return generic_cluster("lassen", LASSEN_NODE, nodes)


def single_node(
    cpus: int = 4,
    gpus: int = 1,
    framebuffer_capacity: int = 16 * GIB,
    sysmem_capacity: int = 64 * GIB,
    zero_copy_capacity: int = 16 * GIB,
) -> Machine:
    """A small single-node machine for examples and tests.

    One socket, ``cpus`` cores, ``gpus`` GPUs, Shepard-like link speeds.
    """
    spec = NodeSpec(
        cpu_sockets=1,
        cores_per_socket=cpus,
        gpus=gpus,
        sysmem_per_socket=sysmem_capacity,
        zero_copy_capacity=zero_copy_capacity,
        framebuffer_capacity=framebuffer_capacity,
        cpu_core_throughput=SHEPARD_NODE.cpu_core_throughput,
        gpu_throughput=SHEPARD_NODE.gpu_throughput,
        cpu_launch_overhead=SHEPARD_NODE.cpu_launch_overhead,
        gpu_launch_overhead=SHEPARD_NODE.gpu_launch_overhead,
        sysmem_bandwidth=SHEPARD_NODE.sysmem_bandwidth,
        zero_copy_cpu_bandwidth=SHEPARD_NODE.zero_copy_cpu_bandwidth,
        zero_copy_gpu_bandwidth=SHEPARD_NODE.zero_copy_gpu_bandwidth,
        framebuffer_bandwidth=SHEPARD_NODE.framebuffer_bandwidth,
        host_device_bandwidth=SHEPARD_NODE.host_device_bandwidth,
        cross_socket_bandwidth=SHEPARD_NODE.cross_socket_bandwidth,
        intra_node_latency=SHEPARD_NODE.intra_node_latency,
        network_bandwidth=SHEPARD_NODE.network_bandwidth,
        network_latency=SHEPARD_NODE.network_latency,
    )
    return generic_cluster("mini", spec, 1)


# ----------------------------------------------------------------------
# Machine zoo
# ----------------------------------------------------------------------

def _helix_node(
    gpu_throughput: float,
    framebuffer_capacity: int,
    framebuffer_bandwidth: float,
    host_device_bandwidth: float,
) -> NodeSpec:
    """One Helix-style cloud node: 1 socket, 8 application cores, one
    accelerator; only the GPU side differs between node types."""
    return NodeSpec(
        cpu_sockets=1,
        cores_per_socket=8,
        gpus=1,
        sysmem_per_socket=112 * GIB,
        zero_copy_capacity=16 * GIB,
        framebuffer_capacity=framebuffer_capacity,
        cpu_core_throughput=1.1e10,
        gpu_throughput=gpu_throughput,
        cpu_launch_overhead=1.2e-4,
        gpu_launch_overhead=1.5e-4,
        sysmem_bandwidth=9.0e10,
        zero_copy_cpu_bandwidth=7.0e10,
        zero_copy_gpu_bandwidth=host_device_bandwidth,
        framebuffer_bandwidth=framebuffer_bandwidth,
        host_device_bandwidth=host_device_bandwidth,
        cross_socket_bandwidth=3.0e10,
        intra_node_latency=1.0e-5,
        network_bandwidth=1.2e10,  # cloud 100 GbE effective
        network_latency=3.0e-5,
    )


#: Helix cluster node types (Helix, ASPLOS'25: a 24-node cloud cluster of
#: 4 machines with one A100 each, 8 with one L4, 12 with one T4).  GPU
#: throughputs are sustained relative weights (A100 >> L4 > T4); frame
#: buffers are the devices' real capacities; A100 nodes ride PCIe 4.0,
#: the inference cards PCIe 3.0.
HELIX_A100_NODE = _helix_node(
    gpu_throughput=2.2e13,
    framebuffer_capacity=40 * GIB,
    framebuffer_bandwidth=1.3e12,  # HBM2e, 1.9 TB/s peak derated
    host_device_bandwidth=2.4e10,  # PCIe 4.0 x16 effective
)
HELIX_L4_NODE = _helix_node(
    gpu_throughput=8.0e12,
    framebuffer_capacity=24 * GIB,
    framebuffer_bandwidth=2.4e11,  # GDDR6, 300 GB/s peak derated
    host_device_bandwidth=1.2e10,  # PCIe 3.0 x16 effective
)
HELIX_T4_NODE = _helix_node(
    gpu_throughput=4.5e12,
    framebuffer_capacity=16 * GIB,
    framebuffer_bandwidth=2.2e11,  # GDDR6, 320 GB/s peak derated
    host_device_bandwidth=1.2e10,
)

#: The repeating Helix node pattern: every window of six nodes holds one
#: A100, two L4 and three T4 machines, preserving the cluster's 4:8:12
#: composition at any prefix length that divides evenly.
_HELIX_PATTERN = (
    HELIX_A100_NODE,
    HELIX_L4_NODE,
    HELIX_L4_NODE,
    HELIX_T4_NODE,
    HELIX_T4_NODE,
    HELIX_T4_NODE,
)


def helix(nodes: int = 24) -> Machine:
    """A Helix-style mixed-accelerator cloud cluster (ASPLOS'25).

    The full machine is 24 nodes — 4×A100, 8×L4, 12×T4 — built as four
    repetitions of the six-node pattern ``A100,L4,L4,T4,T4,T4``.
    Smaller ``nodes`` counts take a prefix of the repeated pattern, so
    every size stays a representative mix (and ``nodes=1`` is a single
    A100 machine).
    """
    if nodes < 1:
        raise ValueError("cluster must have at least one node")
    specs = [
        _HELIX_PATTERN[n % len(_HELIX_PATTERN)] for n in range(nodes)
    ]
    return heterogeneous_cluster("helix", specs)


def mirrored_node(pairs: int = 2) -> Machine:
    """A single-node machine whose CPU/GPU sides are exact mirrors.

    ``pairs`` CPUs and ``pairs`` GPUs share throughput, overhead, link
    speeds, and channel parameters, and the three memory pools have
    equal capacity — making ``cpu<->gpu, system<->framebuffer`` a
    verified machine automorphism (zero-copy is the shared fixed
    point).  This is the zoo's symmetry-folding stress machine: every
    mapping orbit has size two, so the canonicalizer must fold.
    """
    return _mirror_machine("mirrored", pairs, gpu_throughput_skew=1.0)


def lopsided_node(pairs: int = 2) -> Machine:
    """The mirrored machine with one GPU 25% faster — deliberately
    *almost* symmetric.

    The skewed throughput breaks the index-wise pool comparison, so
    symmetry verification must reject the mirror relabeling and the
    canonicalizer must never orbit-fold here; a folding bug on this
    machine changes simulated makespans and fails the fuzz invariants.
    """
    return _mirror_machine("lopsided", pairs, gpu_throughput_skew=1.25)


def _mirror_machine(
    name: str, pairs: int, gpu_throughput_skew: float
) -> Machine:
    if pairs < 1:
        raise ValueError("mirrored machine needs at least one pair")
    throughput, overhead = 1.0e11, 1.0e-4
    fast, slow = 1.0e11, 5.0e10
    chan_bw, chan_lat = 2.0e10, 1.0e-5
    processors = []
    access = []
    for i in range(pairs):
        cpu_uid, gpu_uid = f"cpu{i}", f"gpu{i}"
        processors.append(
            Processor(
                uid=cpu_uid,
                kind=ProcKind.CPU,
                node=0,
                throughput=throughput,
                launch_overhead=overhead,
            )
        )
        skew = gpu_throughput_skew if i == pairs - 1 else 1.0
        processors.append(
            Processor(
                uid=gpu_uid,
                kind=ProcKind.GPU,
                node=0,
                throughput=throughput * skew,
                launch_overhead=overhead,
            )
        )
        access += [
            AccessLink(proc=cpu_uid, mem="sys", bandwidth=fast, latency=0.0),
            AccessLink(proc=cpu_uid, mem="zc", bandwidth=slow, latency=0.0),
            AccessLink(proc=gpu_uid, mem="fb", bandwidth=fast, latency=0.0),
            AccessLink(proc=gpu_uid, mem="zc", bandwidth=slow, latency=0.0),
        ]
    memories = [
        Memory(uid="sys", kind=MemKind.SYSTEM, node=0, capacity=32 * GIB),
        Memory(uid="zc", kind=MemKind.ZERO_COPY, node=0, capacity=32 * GIB),
        Memory(uid="fb", kind=MemKind.FRAMEBUFFER, node=0, capacity=32 * GIB),
    ]
    channels = [
        Channel(mem_a="sys", mem_b="zc", bandwidth=chan_bw, latency=chan_lat),
        Channel(mem_a="fb", mem_b="zc", bandwidth=chan_bw, latency=chan_lat),
        Channel(mem_a="sys", mem_b="fb", bandwidth=chan_bw, latency=chan_lat),
    ]
    return Machine(
        name=f"{name}-{pairs}p",
        processors=processors,
        memories=memories,
        access_links=access,
        channels=channels,
    )


#: The machine zoo: name -> factory taking one size argument (node
#: count for the clusters, per-side pair count for the mirrored
#: machines).  This is what the CLI's ``--machine`` choices and the
#: fuzz harness's machine sampling enumerate.
MACHINE_ZOO: Dict[str, Callable[[int], Machine]] = {
    "shepard": shepard,
    "lassen": lassen,
    "helix": helix,
    "mirrored": mirrored_node,
    "lopsided": lopsided_node,
}
