"""Multi-chip cluster subsystem: sharded scenarios over a modeled link.

The third shared-resource tier (array slots → ``dram`` → ``link``): a
frozen :class:`ClusterSpec` plus a sharding policy lower a
:class:`~repro.workloads.scenario.Scenario` to per-chip task graphs
whose cross-chip output exchanges become collective tasks arbitrating
one shared ``link`` resource — ordinary graph structure, so both
scheduling engines run cluster graphs bit-identically with zero engine
changes.  Each shard is lowered by the scenario path's own
per-instance lowering, so a 1-chip cluster degenerates byte-for-byte
to the unsharded scenario, its buffer spills, bounded prefetch and QoS
emission order included.

The names below load with their defining submodule on first use (see
:mod:`repro._lazy`); code inside the package imports that submodule.
"""

from .._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "build": (
            "build_cluster_tasks",
            "chip_instance_counts",
            "cluster_link_cycles",
            "cluster_templates",
            "collective_bytes",
            "fold_cluster",
            "instance_out_bytes",
            "schedule_cluster_tasks",
            "shard_config",
        ),
        "spec": ("LINK_RESOURCE", "SHARDINGS", "TOPOLOGIES", "ClusterSpec"),
        "sweep": ("ClusterPoint", "ClusterResult", "evaluate_cluster_point"),
    },
)
