"""Communication substrate: collective cost models. The functional,
in-process MPI-like communicator for SPMD NumPy execution lives in
:mod:`repro.comm.functional`."""

from .hierarchical import CommGroup, hierarchical_allreduce_time
from .pcc import PCCCost, baseline_alltoall, pcc_alltoall
from .primitives import (
    CollectiveCost,
    allgather_time,
    allreduce_time,
    alltoall_time,
    naive_alltoall_time,
    p2p_time,
    reduce_scatter_time,
)

__all__ = [
    "CollectiveCost",
    "CommGroup",
    "PCCCost",
    "allgather_time",
    "allreduce_time",
    "alltoall_time",
    "baseline_alltoall",
    "hierarchical_allreduce_time",
    "naive_alltoall_time",
    "p2p_time",
    "pcc_alltoall",
    "reduce_scatter_time",
]
