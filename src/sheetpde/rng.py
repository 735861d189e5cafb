"""Deterministic random streams for reproducible parallel Monte Carlo.

Streams use numpy's Philox counter-based bit generator. The stream for
path k of a run seeded with ``seed`` is derived as

    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(k,))))

so any path can be regenerated independently of every other, in any
order, on any worker. Path 0 is the stream used for single-sample calls.

``stream_for_path`` is that definition. Samplers do not call it: a
Philox stream is fixed by its 128-bit key (counter 0), and
``philox_keys`` derives the keys of many paths in one vectorised pass,
bit-identical to ``SeedSequence``, so one reused generator can be set to
each path's key in turn (``sheet.SheetSource``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_for_path", "philox_keys"]


def stream_for_path(seed: int, path_index: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hashmix with the INIT_A/MULT_A constant chain while
# mixing entropy in, and the INIT_B/MULT_B chain when generating state.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence reads from the int n."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _constants(init: int, mult: int):
    """The (xor, multiply) constants of successive hashmix calls. The chain
    advances on every call, whatever the value hashed, so it is the same
    for every path of a seed."""
    c = init
    while True:
        x, c = c, (c * mult) & _MASK32
        yield x, c


def _take(chain, n: int) -> np.ndarray:
    """The next n constants of ``chain``, as a (2, n) uint32 array."""
    return np.array([next(chain) for _ in range(n)], dtype=np.uint32).T


def _hashmix(value, xor, mul):
    v = ((value ^ xor) * mul) & _MASK32
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


def philox_keys(seed: int, path_indices) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of paths ``path_indices`` of ``seed``.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=(k,))
    .generate_state(2, np.uint64)`` for ``k = path_indices[i]``, so
    ``Philox(key=row)`` is ``stream_for_path(seed, k)``'s bit generator.
    The pool mixing of the seed words does not depend on the path and is
    done once, in Python ints, for any seed size; only the spawn-key words
    and the output hash run over the indices, as uint32 arrays. Indices
    of 2**32 or more carry a second spawn word. Indices lie in
    [0, 2**64).
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    idx = np.asarray(path_indices, dtype=np.uint64).reshape(-1)
    seed_words = _words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    chain = _constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, *next(chain)) for w in seed_words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(chain)))
    for w in seed_words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(w, *next(chain)))

    def mix_word(mixer: np.ndarray, word: np.ndarray) -> np.ndarray:
        # one spawn word into every pool word, each with its own constants
        return _mix(mixer, _hashmix(word[:, None], *_take(chain, _POOL_SIZE)))

    mixer = mix_word(np.array(pool, dtype=np.uint32),
                     (idx & _MASK32).astype(np.uint32))
    high = np.flatnonzero(idx > _MASK32)
    if high.size:
        mixer[high] = mix_word(mixer[high], (idx[high] >> 32).astype(np.uint32))
    # generate_state is the same hash, on the INIT_B chain
    state = _hashmix(mixer, *_take(_constants(_INIT_B, _MULT_B), _POOL_SIZE))
    state = state.astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << 32)
