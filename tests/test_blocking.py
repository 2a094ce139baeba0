"""The blocked cell kernels give the same bits for every block size.

fields runs its corner gathers, their GEMMs and the adjoint scatter over
blocks of whole x1 cell slabs, smallmat runs the polar loop over blocks of
matrices, both of at most smallmat.BATCH_BLOCK, and electro3d forms its
stencil table electro3d.STENCIL_ROWS rows at a time. None of it may move an
output bit.
"""

import itertools
import json
import os

import numpy as np
from memtrace import traced_peak
from test_harness import _lifted_coupled_start

from thinvolt import electro3d, fields, smallmat
from thinvolt.fields import Grid2, Grid3
from thinvolt.harness import cli_main, solve3d_alternating
from thinvolt.material import _times_k

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bending.json")


def _sweep_csv(tmp_path, name):
    # the bending sweep on 12x11x6 nodes: 550 cells in 11 x1 slabs of 50,
    # a cell count that is not a multiple of 8
    cfg = json.load(open(CONFIG))
    cfg["grid"].update(n1=12, n2=11, n3=6)
    path = tmp_path / "bending.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / name)]) in (0, 1)
    return (tmp_path / name / "sweep.csv").read_bytes()


def test_sweep_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    one_block = _sweep_csv(tmp_path, "one-block")
    # 150: 3D blocks of 3, 3, 3 and 2 slabs, polar blocks of 150, 150, 150
    # and 100 matrices; 40: one 3D slab per block, 2D blocks of 4, 4 and 3
    # slabs of 10 cells, polar blocks of 40 down to a last one of 30
    for block in (150, 40):
        monkeypatch.setattr(smallmat, "BATCH_BLOCK", block)
        assert _sweep_csv(tmp_path, f"blocks-{block}") == one_block, block


def test_solve3d_history_does_not_depend_on_the_block_size(monkeypatch):
    # 9x9x5: 8 x1 slabs of 32 cells; 96 makes blocks of 3, 3 and 2 slabs
    grid, eps, mat, y_init = _lifted_coupled_start()
    histories = []
    for block in (smallmat.BATCH_BLOCK, 96):
        monkeypatch.setattr(smallmat, "BATCH_BLOCK", block)
        assert [s.stop - s.start for s in fields._slab_blocks(grid)] == ([8] if block > 256 else [3, 3, 2])
        y, phi, history, _ = solve3d_alternating(grid, eps, mat, y_init, poisson_tol=1e-10, max_iters=3)
        histories.append((history.tobytes(), y.tobytes(), phi.tobytes()))
    assert history.shape[0] == 3 and histories[1] == histories[0]


def test_blocks_take_whole_slabs_and_never_a_single_gemm_row(monkeypatch):
    # a one-row GEMM goes to GEMV, which rounds differently from the same row
    # of a larger product: every slab block has at least two cells, every
    # stencil GEMM at least two table rows
    for block in (1, 7, 100, 2048):
        monkeypatch.setattr(smallmat, "BATCH_BLOCK", block)
        for grid in (Grid3(3, 3, 3), Grid3(12, 11, 6), Grid3(25, 25, 13), Grid2(3, 3), Grid2(12, 11)):
            blocks = fields._slab_blocks(grid)
            slab = int(np.prod(grid.cshape[1:]))
            assert [s.start for s in blocks] == [0] + [s.stop for s in blocks[:-1]] and blocks[-1].stop == grid.cshape[0]
            assert all(2 <= (s.stop - s.start) * slab <= max(block, slab) for s in blocks)
    for dim in (2, 3):
        rows = (4**dim + 2**dim) // 2  # the table rows the stencil needs: offsets non-negative in lexicographic order
        assert all(min(electro3d.STENCIL_ROWS, rows - start) >= 2 for start in range(0, rows, electro3d.STENCIL_ROWS))


def _one_gemm_stencil(coef, grid, eps):
    # the stencil with all its table rows from one GEMM, the reference the chunked form must equal to the bit
    dim = len(grid.shape)
    corners = list(itertools.product((0, 1), repeat=dim))
    pairs = [(ca, tuple(q - p for p, q in zip(ca, cb)), a * len(corners) + b) for a, ca in enumerate(corners) for b, cb in enumerate(corners)]
    pairs = [pair for pair in pairs if pair[1] >= (0,) * dim]
    rows = fields.stiffness_table(grid, eps)[:, [col for _, _, col in pairs]].T @ np.reshape(coef, (-1, dim * dim)).T
    stencil = {}
    for (ca, o, _), row in zip(pairs, rows):
        cells = tuple(slice(p, n - 1 + p) for p, n in zip(ca, grid.shape))
        stencil.setdefault(o, np.zeros(grid.shape))[cells] += row.reshape(grid.cshape)
    return stencil


def test_gemm_slices_round_as_the_whole_product(monkeypatch):
    # pins the BLAS behaviour the blocking relies on (observed with numpy
    # 2.4.6's bundled OpenBLAS): a GEMM's rows do not depend on how many
    # other rows it has, as long as it has two, for the gradients' row blocks
    # and the k products of material._times_k (one matrix against its batch);
    # the stencil's 12-row slices round as the one 36-row product also at
    # cell counts that are not a multiple of 8 (550 and 660 here), where
    # 6-row slices do not. Grids stay under 800 cells: there OpenBLAS runs
    # these GEMMs on one thread whatever its thread count, and the property
    # is one of its single-thread kernels
    rng = np.random.default_rng(31)
    for grid in (Grid3(3, 3, 3), Grid3(9, 5, 4), Grid3(12, 11, 6), Grid3(13, 12, 6), Grid2(12, 11)):
        coef = rng.standard_normal(grid.cshape + (len(grid.shape),) * 2)
        coef = coef + np.swapaxes(coef, -1, -2)
        want = _one_gemm_stencil(coef, grid, 0.25)
        got = electro3d._stencil(coef, grid, 0.25)
        assert got.keys() == want.keys() and all(np.array_equal(got[o], want[o]) for o in want), grid
    A = rng.standard_normal((40, 3, 3))
    k = rng.standard_normal((3, 3))
    whole = _times_k(A, k)
    assert all(np.array_equal(_times_k(A[i : i + 1], k), whole[i : i + 1]) for i in range(len(A)))
    grid = Grid3(12, 11, 6)
    y, P, phi = rng.standard_normal(grid.shape + (3,)), rng.standard_normal(grid.cshape + (3, 3)), rng.standard_normal(grid.shape)
    kernels = [
        lambda: fields.scaled_gradient(y, grid, 0.25, point=(0.5, 0.5, 0.2)),
        lambda: fields.scaled_gradient(phi, grid, 0.25),
        lambda: fields.gradient_scatter(P, grid, 0.25),
        lambda: fields.gradient_second_moments(phi, grid, 0.25),
    ]
    want = [f() for f in kernels]
    for block in (1, 100, 150):
        monkeypatch.setattr(smallmat, "BATCH_BLOCK", block)
        assert all(np.array_equal(f(), w) for f, w in zip(kernels, want)), block
    # the forced blocks are in effect: a gradient's gather scratch shrinks with them
    monkeypatch.setattr(smallmat, "BATCH_BLOCK", 2048)
    _, one_block = traced_peak(fields.scaled_gradient, y, grid, 0.25)
    monkeypatch.setattr(smallmat, "BATCH_BLOCK", 1)
    _, slab_blocks = traced_peak(fields.scaled_gradient, y, grid, 0.25)
    assert slab_blocks < 0.5 * one_block
