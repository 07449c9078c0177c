"""Deterministic random-stream derivation for the whole reproduction.

Every stochastic component (sensor noise, run-to-run counter variation,
latent workload factors, …) draws from a :class:`numpy.random.Generator`
derived from a root seed plus a structured key, e.g.::

    rng = derive_rng(seed, "sensor", socket_id, run_index)

Two properties matter:

* **bit-reproducibility** — the same root seed regenerates every table
  and figure exactly, across processes and platforms;
* **independence** — streams for different keys are statistically
  independent, so adding a new noise source never perturbs existing
  experiment outputs (numpy's ``SeedSequence.spawn``-style keying).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Tuple, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "derive_seed",
    "derive_rng",
    "SeedHasher",
    "DEFAULT_SEED",
    "seedseq_state_words",
    "rng_from_state_words",
]

#: Root seed used by all experiments unless explicitly overridden.
DEFAULT_SEED = 20170529  # IPDPSW 2017 workshop date

_Key = Union[str, int, float, bytes]


def _encode(part: _Key) -> bytes:
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, bool):
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode()
    if isinstance(part, float):
        return b"f" + repr(part).encode()
    if isinstance(part, str):
        return b"s" + part.encode()
    raise TypeError(f"unsupported key part type: {type(part).__name__}")


def derive_seed(root: int, *key: _Key) -> int:
    """Derive a 64-bit child seed from a root seed and a structured key.

    The key parts are length-prefixed and hashed with BLAKE2b so that
    ``("ab", "c")`` and ``("a", "bc")`` produce different seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for part in key:
        enc = _encode(part)
        h.update(len(enc).to_bytes(4, "little"))
        h.update(enc)
    return int.from_bytes(h.digest(), "little")


def derive_rng(root: int, *key: _Key) -> np.random.Generator:
    """A :class:`numpy.random.Generator` for the given key path."""
    return np.random.default_rng(derive_seed(root, *key))


class SeedHasher:
    """Incremental :func:`derive_seed` over a shared key prefix.

    Hot loops (the tracer derives one stream per plugin per phase) pay
    :func:`derive_seed` for the full key on every call even though most
    parts repeat.  A ``SeedHasher`` absorbs the repeated prefix into one
    BLAKE2b state; each :meth:`seed` call then only copies the state
    and hashes the varying suffix.  Because the parts are
    length-prefixed identically, ``SeedHasher(root, *a).seed(*b) ==
    derive_seed(root, *a, *b)`` holds exactly for every split of the
    key — pinned by ``tests/test_seeding.py``.
    """

    def __init__(self, root: int, *prefix: _Key) -> None:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(int(root)).encode())
        for part in prefix:
            enc = _encode(part)
            h.update(len(enc).to_bytes(4, "little"))
            h.update(enc)
        self._state = h

    def child(self, *suffix: _Key) -> "SeedHasher":
        """A new hasher whose prefix extends this one by ``suffix``.

        ``SeedHasher(root, *a).child(*b).seed(*c) ==
        derive_seed(root, *a, *b, *c)`` exactly: the child just absorbs
        more of the shared prefix into the copied BLAKE2b state, so hot
        loops can hash a constant head once and reuse it.
        """
        child = SeedHasher.__new__(SeedHasher)
        h = self._state.copy()
        for part in suffix:
            enc = _encode(part)
            h.update(len(enc).to_bytes(4, "little"))
            h.update(enc)
        child._state = h
        return child

    @staticmethod
    def encode(*parts: _Key) -> bytes:
        """The length-prefixed byte form of a key suffix.

        Feeding ``encode(*k)`` to the ``*_encoded`` methods is exactly
        equivalent to passing ``*k`` to :meth:`child`/:meth:`seed`/
        :meth:`rng` — the hash absorbs identical bytes either way.
        Callers that derive many streams against the same suffix (the
        tracer hits every phase name once per plugin per run) encode it
        once and skip the per-call re-encoding.
        """
        out = []
        for part in parts:
            enc = _encode(part)
            out.append(len(enc).to_bytes(4, "little"))
            out.append(enc)
        return b"".join(out)

    def child_encoded(self, blob: bytes) -> "SeedHasher":
        """:meth:`child` over a pre-:meth:`encode`-d suffix."""
        child = SeedHasher.__new__(SeedHasher)
        h = self._state.copy()
        h.update(blob)
        child._state = h
        return child

    def seed_encoded(self, blob: bytes) -> int:
        """:meth:`seed` over a pre-:meth:`encode`-d suffix."""
        h = self._state.copy()
        h.update(blob)
        return int.from_bytes(h.digest(), "little")

    def rng_encoded(self, blob: bytes) -> np.random.Generator:
        """:meth:`rng` over a pre-:meth:`encode`-d suffix."""
        h = self._state.copy()
        h.update(blob)
        return np.random.default_rng(int.from_bytes(h.digest(), "little"))

    def seed(self, *suffix: _Key) -> int:
        """Child seed for the prefix plus ``suffix``."""
        h = self._state.copy()
        for part in suffix:
            enc = _encode(part)
            h.update(len(enc).to_bytes(4, "little"))
            h.update(enc)
        return int.from_bytes(h.digest(), "little")

    def rng(self, *suffix: _Key) -> np.random.Generator:
        """Generator for the prefix plus ``suffix``."""
        return np.random.default_rng(self.seed(*suffix))


# ---------------------------------------------------------------------------
# batched generator construction
# ---------------------------------------------------------------------------
#
# ``np.random.default_rng(seed)`` spends nearly all of its time inside
# ``SeedSequence`` — the entropy-pool expansion that turns a 64-bit seed
# into the four uint64 words PCG64 is seeded from.  That expansion is a
# fixed schedule of elementwise uint32 operations, so a *batch* of seeds
# can run it as a handful of vectorized passes instead of one Python/
# Cython round-trip per seed.  ``seedseq_state_words`` reimplements
# ``SeedSequence(seed).generate_state(4, np.uint64)`` exactly (pinned
# against numpy itself in ``tests/test_seeding.py``, including the
# 0 / small-seed edge cases, where the zero high word makes the 1-word
# and 2-word entropy paths coincide); ``rng_from_state_words`` then
# feeds the precomputed words to numpy's own PCG64 seeding via an
# ``ISeedSequence`` shim, so the resulting generator's stream is
# byte-for-byte the ``default_rng(seed)`` stream.

_SS_XSHIFT = np.uint32(16)
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)


def _hash_const_schedule(init: int, mult: int, n: int):
    """(pre-xor, post-advance) constants of ``n`` sequential hashes.

    ``SeedSequence`` advances one shared hash constant across calls
    (``value ^= hc; hc *= MULT; value *= hc``); with the call order
    fixed, the whole evolution is a compile-time table.
    """
    out = []
    const = init
    for _ in range(n):
        pre = const
        const = (const * mult) & 0xFFFFFFFF
        out.append((np.uint32(pre), np.uint32(const)))
    return out


#: mix_entropy makes 16 hashes: 4 filling the pool, 12 mixing it.
_SS_HASH_A = _hash_const_schedule(0x43B0D7E5, 0x931E8875, 16)
#: generate_state(4, uint64) makes 8 hashes (one per uint32 word).
_SS_HASH_B = _hash_const_schedule(0x8B51F9DD, 0x58F38DED, 8)


def _schedule_columns(entries) -> Tuple[np.ndarray, np.ndarray]:
    """(pre-xor, post-advance) constants of several hash calls, as
    ``(k, 1)`` columns that broadcast across the seed lanes."""
    pre = np.array([entry[0] for entry in entries], dtype=np.uint32)[:, None]
    mult = np.array([entry[1] for entry in entries], dtype=np.uint32)[:, None]
    return pre, mult


#: Pool filling: hash calls 0-3, one per pool word.
_SS_FILL = _schedule_columns(_SS_HASH_A[:4])
#: Pool mixing, per source word: its destinations and the constants of
#: their three hash calls (calls 4 + 3*src ...).  The three updates of
#: one source read only the unchanged source word and their own
#: destination, so they run as one ``(3, n)`` block.
_SS_MIX_STEPS = [
    (
        src,
        [dst for dst in range(4) if dst != src],
        _schedule_columns(_SS_HASH_A[4 + 3 * src : 7 + 3 * src]),
    )
    for src in range(4)
]
#: generate_state: eight hash calls over pool words 0,1,2,3,0,1,2,3.
_SS_OUT = _schedule_columns(_SS_HASH_B)
_SS_OUT_SRC = [i % 4 for i in range(8)]


def _hashed_block(values: np.ndarray, schedule) -> np.ndarray:
    """``hashmix`` of each row of ``values`` with its row's constants
    (a new array; ``values`` is not modified)."""
    pre, mult = schedule
    v = values ^ pre
    np.multiply(v, mult, out=v)
    v ^= v >> _SS_XSHIFT
    return v


def seedseq_state_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for a batch.

    Takes 64-bit seeds, returns an ``(n, 4)`` uint64 array whose row i
    equals numpy's expansion of ``seeds[i]`` bit for bit.  All lanes run
    the two-entropy-word schedule; a seed below 2**32 has a zero high
    word, which hashes exactly as the one-word path's ``hashmix(0)``
    pool filler, so no separate small-seed branch exists.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    # Vectorized uint32 passes: pool words as rows, seeds as lanes.
    n = seeds.shape[0]
    entropy = np.zeros((4, n), dtype=np.uint32)
    entropy[0] = seeds & np.uint64(0xFFFFFFFF)
    entropy[1] = seeds >> np.uint64(32)
    pool = _hashed_block(entropy, _SS_FILL)
    for src, dsts, schedule in _SS_MIX_STEPS:
        # mix(x, y) = (x*L - y*R) ^ ((x*L - y*R) >> 16), y pre-hashed
        h = _hashed_block(pool[src], schedule)
        np.multiply(h, _SS_MIX_R, out=h)
        r = pool[dsts] * _SS_MIX_L
        np.subtract(r, h, out=r)
        r ^= r >> _SS_XSHIFT
        pool[dsts] = r
    out = _hashed_block(pool[_SS_OUT_SRC], _SS_OUT).astype(np.uint64)
    words = out[0::2] | (out[1::2] << np.uint64(32))
    return np.ascontiguousarray(words.T)


class _PrecomputedSeedSequence(ISeedSequence):
    """Feeds pre-expanded state words to a bit generator's seeding.

    Stands in for the ``SeedSequence`` a ``PCG64`` constructor expects,
    answering the single ``generate_state(4, np.uint64)`` request that
    seeding makes with the already-computed words.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(
                "precomputed seed words hold exactly the (4, uint64) "
                f"request of PCG64 seeding, not ({n_words}, {dtype})"
            )
        return self._words


def rng_from_state_words(words: np.ndarray) -> np.random.Generator:
    """The ``default_rng(seed)`` generator for a precomputed words row.

    ``rng_from_state_words(seedseq_state_words([s])[0])`` draws the
    exact stream of ``np.random.default_rng(s)``: PCG64 consumes the
    same four words either way.
    """
    return Generator(PCG64(_PrecomputedSeedSequence(words)))
