"""Multi-chip cluster subsystem: sharded scenarios over a modeled link.

The third shared-resource tier (array slots → ``dram`` → ``link``): a
frozen :class:`ClusterSpec` plus a sharding policy lower a
:class:`~repro.workloads.scenario.Scenario` to per-chip task graphs
whose cross-chip output exchanges become collective tasks arbitrating
one shared ``link`` resource — ordinary graph structure, so both
scheduling engines run cluster graphs bit-identically with zero engine
changes, and a 1-chip cluster degenerates byte-for-byte to the
unsharded scenario.
"""

from .build import (
    build_cluster_tasks,
    chip_instance_counts,
    cluster_link_cycles,
    cluster_sim,
    cluster_templates,
    collective_bytes,
    fold_cluster,
    instance_out_bytes,
    schedule_cluster_tasks,
    shard_config,
    template_dram_cycles,
)
from .spec import LINK_RESOURCE, SHARDINGS, TOPOLOGIES, ClusterSpec
from .sweep import ClusterPoint, ClusterResult, evaluate_cluster_point

__all__ = [
    "LINK_RESOURCE",
    "SHARDINGS",
    "TOPOLOGIES",
    "ClusterPoint",
    "ClusterResult",
    "ClusterSpec",
    "build_cluster_tasks",
    "chip_instance_counts",
    "cluster_link_cycles",
    "cluster_sim",
    "cluster_templates",
    "collective_bytes",
    "evaluate_cluster_point",
    "fold_cluster",
    "instance_out_bytes",
    "schedule_cluster_tasks",
    "shard_config",
    "template_dram_cycles",
]
