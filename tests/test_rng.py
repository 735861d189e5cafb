"""The per-path stream contract: bulk Philox keys and the reused-generator
sheet source against the reference ``stream_for_path``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sheetpde as sp
import sheetpde.sheet as sheet_mod
from sheetpde.rng import philox_keys, stream_for_path
from sheetpde.sheet import SheetSource

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3, 2**200 - 1]
INDICES = [0, 1, 999, 2**32 - 1, 2**32, 2**40 + 7, 2**63]


def reference_cells(grid, seed, k):
    """The cell masses of path k, drawn from its own reference stream."""
    return stream_for_path(seed, k).standard_normal((grid.n_t, grid.n_sheet_x)) * grid.h


@pytest.fixture(scope="module")
def tiny_grid():
    # 2 x 4 cells per sheet: thousands of paths stay cheap
    return sp.make_grid(1.0, 1.0, 0.5)


class TestPhiloxKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_match_seed_sequence(self, seed):
        keys = philox_keys(seed, INDICES)
        assert keys.dtype == np.uint64 and keys.shape == (len(INDICES), 2)
        for k, key in zip(INDICES, keys):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(k,))
            assert np.array_equal(key, ss.generate_state(2, np.uint64)), (seed, k)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            philox_keys(-1, [0])


class TestSheetSource:
    def test_draws_match_the_reference_across_the_key_chunk(self, tiny_grid, monkeypatch):
        g = tiny_grid
        n = SheetSource.KEY_CHUNK + 5
        keyed = []

        def counting(seed, path_indices):
            keyed.append(len(path_indices))
            return philox_keys(seed, path_indices)

        monkeypatch.setattr(sheet_mod, "philox_keys", counting)
        source = SheetSource(g, 12, n)
        cells = np.empty((7, g.n_t, g.n_sheet_x))
        for start in range(0, n, 7):
            m = min(7, n - start)
            source.draw_cells(start, cells[:m])
            for b in range(m):
                assert np.array_equal(cells[b], reference_cells(g, 12, start + b))
        # keys are derived per chunk of paths, not per batch
        assert keyed == [SheetSource.KEY_CHUNK, 5]

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 5000), batch=st.integers(1, 40),
           seed=st.sampled_from([3, 2**32 + 1, 2**70]))
    def test_any_batch_split_matches_the_reference(self, tiny_grid, start, batch, seed):
        g = tiny_grid
        cells = np.empty((batch, g.n_t, g.n_sheet_x))
        values = np.empty((batch, g.n_t + 1, g.n_sheet_x + 1))
        sp.sample_sheet_batch(g, seed, start, cells, values)
        for b in range(batch):
            assert np.array_equal(cells[b], reference_cells(g, seed, start + b))
        assert np.array_equal(values[-1], sp.sample_sheet(g, seed, start + batch - 1).values)

    def test_no_state_leaks_between_paths(self, tiny_grid):
        source = SheetSource(tiny_grid, 5, 10)
        # an odd count leaves part of Philox's four-word buffer unread
        for k, size in [(3, 3), (4, 8), (9, 1), (3, 8), (0, 11)]:
            got = source.normals(k, np.empty(size))
            assert np.array_equal(got, stream_for_path(5, k).standard_normal(size)), k

    def test_partial_rows_and_head(self):
        g = sp.make_grid(2.0, 1.0, 1 / 16)
        source = SheetSource(g, 8, 4)
        cells = np.empty((3, 5, g.n_sheet_x))
        head = np.empty((3, g.n_t))
        source.draw_cells(1, cells, head)
        for b in range(3):
            normals = stream_for_path(8, 1 + b).standard_normal((5, g.n_sheet_x))
            assert np.array_equal(cells[b], normals * g.h)
            assert np.array_equal(head[b], normals[0, :g.n_t])

    def test_paths_outside_the_source_are_rejected(self, tiny_grid):
        source = SheetSource(tiny_grid, 5, 3)
        with pytest.raises(IndexError):
            source.normals(3, np.empty(4))
        with pytest.raises(IndexError):
            source.normals(-1, np.empty(4))
