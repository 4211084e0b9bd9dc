"""The replica's KV ledger (``_KvTracker``) keeps decode growth lazily:
one walk per sync instead of one per stretch. These tests hold it
against an eager ledger that walks every live request on every
stretch, as the ledger did before growth became lazy."""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.engine.replica import _NO_SESSION, _KvTracker
from repro.model.paged_kv import blocks_needed


class _EagerLedger:
    """The eager arithmetic: every stretch rewrites each live length and
    counts its new blocks at once, checking the peak after every rise."""

    def __init__(self, *, block_size, num_layers, prefix_sharing=True):
        self.block_size = block_size
        self.num_layers = num_layers
        self.prefix_sharing = prefix_sharing
        self._parked = {}
        self.live = {}
        self.total_kv = 0
        self._used = 0
        self.peak_blocks = 0
        self.allocated = 0
        self.hits = 0
        self.hit_tokens = 0
        self.saved_blocks = 0

    def _blocks(self, positions):
        return self.num_layers * (-(-positions // self.block_size))

    def _admit(self, rid, prompt_len, session, shared_prefix_len):
        eff = 0
        if (self.prefix_sharing and shared_prefix_len
                and session in self._parked):
            ctx, parked_blocks = self._parked.pop(session)
            eff = min(shared_prefix_len, ctx)
            self._used -= parked_blocks - self._blocks(eff)
            self.hits += 1
            self.hit_tokens += eff
            self.saved_blocks += self._blocks(eff)
        fresh = blocks_needed(prompt_len, block_size=self.block_size,
                              num_layers=self.num_layers,
                              shared_prefix_len=eff)
        self._used += fresh
        self.allocated += fresh
        if self._used > self.peak_blocks:
            self.peak_blocks = self._used
        self.live[rid] = prompt_len + 1
        self.total_kv += prompt_len + 1
        return eff

    def grow_all(self, steps):
        bs = self.block_size
        grown = 0
        for rid, n in self.live.items():
            grown += (n + steps - 2) // bs - (n - 2) // bs
            self.live[rid] = n + steps
        self.total_kv += steps * len(self.live)
        delta = self.num_layers * grown
        self._used += delta
        self.allocated += delta
        if self._used > self.peak_blocks:
            self.peak_blocks = self._used

    def _retire(self, rid, session):
        n = self.live.pop(rid)
        self.total_kv -= n
        pos = n - 1
        blocks = self._blocks(pos)
        if self.prefix_sharing and session != _NO_SESSION:
            prev = self._parked.get(session)
            if prev is not None:
                self._used -= prev[1]
            self._parked[session] = (pos, blocks)
        else:
            self._used -= blocks

    def reset_live(self):
        for n in self.live.values():
            self._used -= self._blocks(n - 1)
        self.live.clear()
        self.total_kv = 0
        for _, blocks in self._parked.values():
            self._used -= blocks
        self._parked.clear()


_OPS = st.one_of(
    # admit: prompt length, session (-1 = none), shared prefix share
    st.tuples(st.just("admit"), st.integers(1, 16), st.integers(-1, 1),
              st.floats(0.0, 1.0)),
    st.tuples(st.just("grow"), st.integers(1, 24)),
    st.tuples(st.just("retire"), st.integers(0, 7)),
    st.tuples(st.just("reset")),
)


def _observed(kv):
    return (kv.peak_blocks, kv.allocated, kv.live, kv.total_kv, kv.hits,
            kv.hit_tokens, kv.saved_blocks)


# A fork frees the parked turn's suffix, so it syncs first: here the
# usage just before it, pending growth included, is the peak (16).
@example(ops=[("admit", 10, 0, 0.0), ("retire", 0), ("admit", 1, -1, 0.0),
              ("grow", 5), ("admit", 2, 0, 1.0)],
         block_size=1, num_layers=1, prefix_sharing=True)
@settings(max_examples=400, deadline=None)
@given(ops=st.lists(_OPS, max_size=40), block_size=st.integers(1, 8),
       num_layers=st.integers(1, 3), prefix_sharing=st.booleans())
def test_lazy_ledger_matches_eager_reference(ops, block_size, num_layers,
                                             prefix_sharing):
    """After every admission (with and without a prefix fork), stretch,
    retirement (plain, parked and superseding a parked turn) and reset,
    the lazy ledger reads exactly like the eager one. Its counters are
    read from a copy, so later admissions still meet pending growth
    and must take it back themselves."""
    opts = dict(block_size=block_size, num_layers=num_layers,
                prefix_sharing=prefix_sharing)
    lazy, eager = _KvTracker(**opts), _EagerLedger(**opts)
    sessions: dict[int, int] = {}  # live rid -> session
    next_rid = 0
    for op in ops:
        if op[0] == "admit":
            _, prompt, session, share = op
            session = _NO_SESSION if session < 0 else session
            prefix = 0 if session == _NO_SESSION else int(share * (prompt - 1))
            args = (next_rid, prompt, session, prefix)
            assert lazy._admit(*args) == eager._admit(*args)
            sessions[next_rid] = session
            next_rid += 1
        elif op[0] == "grow":
            lazy.grow_all(op[1])
            eager.grow_all(op[1])
        elif op[0] == "retire" and sessions:
            rid = list(sessions)[op[1] % len(sessions)]
            session = sessions.pop(rid)
            lazy._retire(rid, session)
            eager._retire(rid, session)
        elif op[0] == "reset":
            lazy.reset_live()
            eager.reset_live()
            sessions.clear()
        assert _observed(copy.deepcopy(lazy)) == _observed(eager)
    assert _observed(lazy) == _observed(eager)


def test_stretches_walk_no_request_until_a_sync():
    """Growth is O(1) per stretch: the ledger's per-request lengths are
    not rewritten, and the blocks are counted once, when read."""
    kv = _KvTracker(block_size=4, num_layers=2)
    for rid, prompt in enumerate((3, 9, 14)):
        kv._admit(rid, prompt, _NO_SESSION, 0)
    stored = dict(kv._live)
    for steps in (1, 5, 2, 7):
        kv.grow_all(steps)
    assert kv._live == stored
    assert kv.live == {0: 19, 1: 25, 2: 30}
    assert kv.total_kv == 19 + 25 + 30
    # Cached positions 18, 24 and 29 need 5, 6 and 8 blocks per layer.
    assert kv.allocated == kv.peak_blocks == 2 * (5 + 6 + 8)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), prompt_len=st.integers(1, 300),
       block_size=st.integers(1, 32), num_layers=st.integers(1, 4))
def test_admission_allocates_blocks_needed(data, prompt_len, block_size,
                                           num_layers):
    """An admission allocates exactly ``blocks_needed`` for its prompt
    past the prefix it forks (``eff < prompt_len``), which the ledger
    computes with its own ceiling arithmetic."""
    eff = data.draw(st.integers(0, prompt_len - 1), label="eff")
    kv = _KvTracker(block_size=block_size, num_layers=num_layers)
    session = _NO_SESSION
    if eff:  # park a turn caching exactly ``eff`` positions
        session = 5
        kv._admit(0, eff, session, 0)
        kv._retire(0, session)
    before = kv.allocated
    assert kv._admit(1, prompt_len, session, eff) == eff
    assert kv.allocated - before == blocks_needed(
        prompt_len, block_size=block_size, num_layers=num_layers,
        shared_prefix_len=eff)
