"""An in-process, NumPy-backed communicator with MPI semantics.

The functional layer runs tensor-, expert- and pipeline-parallel inference
*for real* — each rank is a thread executing the same SPMD program on its
own weight shard, synchronizing through the collectives below. The API
mirrors mpi4py's buffer interface (allreduce / allgather / alltoall /
broadcast / send / recv / split), so the algorithms in
:mod:`repro.parallel` read exactly like their distributed counterparts,
and unit tests can verify their numerics without a GPU or an MPI launch.

Determinism: reductions combine contributions in rank order, so results
are bit-stable across runs.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["Communicator", "World", "spmd"]


class _CollectiveSlot:
    """One rendezvous: a contributions table plus a double barrier."""

    def __init__(self, size: int) -> None:
        self.contrib: dict[int, Any] = {}
        self.result: Any = None
        self.enter = threading.Barrier(size)
        self.exit = threading.Barrier(size)


class World:
    """Shared state for ``size`` ranks: collective slots and p2p queues."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self._lock = threading.Lock()
        self._slots: dict[int, _CollectiveSlot] = {}
        self._counters: dict[int, int] = {}
        self._queues: dict[tuple[int, int, int], queue.Queue] = {}
        self._splits: dict[tuple[int, Any], "World"] = {}

    def _slot(self, call_index: int) -> _CollectiveSlot:
        with self._lock:
            if call_index not in self._slots:
                self._slots[call_index] = _CollectiveSlot(self.size)
            return self._slots[call_index]

    def _retire(self, call_index: int) -> None:
        with self._lock:
            self._slots.pop(call_index, None)

    def _queue(self, src: int, dst: int, tag: int) -> queue.Queue:
        with self._lock:
            key = (src, dst, tag)
            if key not in self._queues:
                self._queues[key] = queue.Queue()
            return self._queues[key]

    def communicator(self, rank: int) -> "Communicator":
        """The endpoint object handed to rank ``rank``'s program."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return Communicator(self, rank)


class Communicator:
    """Rank-local endpoint exposing MPI-style collectives on numpy arrays."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self._calls = 0

    # -- internal rendezvous helper -----------------------------------------

    def _rendezvous(self, combine: Callable[[dict[int, Any]], Any], payload: Any) -> Any:
        idx = self._calls
        self._calls += 1
        slot = self.world._slot(idx)
        slot.contrib[self.rank] = payload
        arrived = slot.enter.wait()
        if arrived == 0:  # exactly one rank computes the combined result
            slot.result = combine(slot.contrib)
        slot.exit.wait()
        result = slot.result
        if arrived == 0:
            self.world._retire(idx)
        return result

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all ranks."""
        self._rendezvous(lambda c: None, None)

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Element-wise reduction across ranks; every rank gets the result."""
        ops: dict[str, Callable] = {"sum": np.add, "max": np.maximum, "min": np.minimum}
        if op not in ops:
            raise ValueError(f"unsupported reduction {op!r}")
        fn = ops[op]

        def combine(contrib: dict[int, Any]) -> np.ndarray:
            out = np.array(contrib[0], copy=True)
            for r in range(1, self.size):
                fn(out, contrib[r], out=out)
            return out

        return self._rendezvous(combine, np.asarray(array)).copy()

    def allgather(self, array: np.ndarray, axis: int = 0) -> np.ndarray:
        """Concatenate each rank's array along ``axis``; all ranks get it."""

        def combine(contrib: dict[int, Any]) -> np.ndarray:
            return np.concatenate([contrib[r] for r in range(self.size)], axis=axis)

        return self._rendezvous(combine, np.asarray(array)).copy()

    def broadcast(self, array: np.ndarray | None) -> np.ndarray:
        """Every rank receives rank 0's array."""

        def combine(contrib: dict[int, Any]) -> Any:
            return contrib[0]

        out = self._rendezvous(combine, array)
        return np.array(out, copy=True)

    def alltoall(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Exchange ``blocks[j]`` with rank ``j``; return received blocks
        ordered by source rank (MPI_Alltoallv semantics on ragged blocks)."""
        if len(blocks) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} blocks, got {len(blocks)}"
            )

        def combine(contrib: dict[int, Any]) -> dict[int, list]:
            return {
                dst: [contrib[src][dst] for src in range(self.size)]
                for dst in range(self.size)
            }

        table = self._rendezvous(combine, list(blocks))
        return [np.array(b, copy=True) for b in table[self.rank]]

    def reduce_scatter(self, array: np.ndarray) -> np.ndarray:
        """Sum across ranks, then return this rank's 1/size slice of the
        first axis."""
        summed = self.allreduce(array, op="sum")
        parts = np.array_split(summed, self.size)
        return parts[self.rank].copy()

    # -- point to point --------------------------------------------------

    def send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Non-blocking-buffered send (copies the payload)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        self.world._queue(self.rank, dest, tag).put(np.array(array, copy=True))

    def recv(self, source: int, tag: int = 0, timeout: float = 30.0) -> np.ndarray:
        """Blocking receive from ``source`` with a safety timeout."""
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range")
        try:
            return self.world._queue(source, self.rank, tag).get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"rank {self.rank} timed out receiving from {source} (tag {tag})"
            ) from None

    # -- sub-communicators -------------------------------------------------

    def split(self, color: Any, key: int | None = None) -> "Communicator":
        """MPI_Comm_split: ranks with equal ``color`` form a sub-world,
        ordered by ``key`` (default: global rank)."""
        key = self.rank if key is None else key

        def combine(contrib: dict[int, Any]) -> dict[Any, list[int]]:
            groups: dict[Any, list[tuple[int, int]]] = {}
            for r in range(self.size):
                c, k = contrib[r]
                groups.setdefault(c, []).append((k, r))
            return {
                c: [r for _, r in sorted(members)] for c, members in groups.items()
            }

        groups = self._rendezvous(combine, (color, key))
        members = groups[color]
        with self.world._lock:
            skey = tuple(members)  # one sub-world per member set
            if skey not in self.world._splits:
                self.world._splits[skey] = World(len(members))
            sub = self.world._splits[skey]
        return sub.communicator(members.index(self.rank))


def spmd(size: int, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks; return results
    in rank order. Exceptions on any rank propagate to the caller."""
    world = World(size)
    results: list[Any] = [None] * size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(world.communicator(rank), *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append((rank, exc))
            # Unblock peers stuck in barriers so the join below returns.
            for slot in list(world._slots.values()):
                slot.enter.abort()
                slot.exit.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if errors:
        rank, exc = errors[0]
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    return results
