"""The sweep row's and the hyperstress gradients' cell kernels hold a few cell tensors of scratch, whatever the grid."""

import os

import numpy as np
from memtrace import traced_peak

from thinvolt import elastic3d, electro3d, fields, recovery
from thinvolt.harness import RunConfig
from thinvolt.recovery import lift_deformation, optimal_corrector
from thinvolt.relaxation import RelaxedQ2

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "bending.json")
COUPLED = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "coupled.json")


def test_sweep_row_kernels_hold_a_few_cell_tensors():
    # the bending sweep's last row on the bench's 25x25x13 grid: 6912 cells,
    # in blocks of 7, 7, 7 and 3 x1 slabs of 288. In units of T, one
    # (cells, 3, 3) float64 tensor, the peaks count each call's scratch and
    # what it returns (assemble_poisson3's system holds its coefficient and
    # stencil, about 3.1 T); unblocked, they were 5.8, 7.2 and 6.4 T
    cfg = RunConfig.from_file(CONFIG)
    cfg.n1, cfg.n2, cfg.n3 = 25, 25, 13
    grid, mat, eps = cfg.grid3(), cfg.material, cfg.eps_list[-1]
    assert len(fields._slab_blocks(grid)) == 4
    inputs = cfg.recovery_inputs(cfg.grid2())
    d = optimal_corrector(inputs, grid, RelaxedQ2.of(mat))
    y = lift_deformation(inputs.isometry, eps, grid, inputs.g_matrix, d)
    T = np.prod(grid.cshape) * 9 * 8
    system, assemble = traced_peak(electro3d.assemble_poisson3, y, grid, eps, mat)
    phi = system.solve(tol=cfg.poisson_tol)
    del system
    _, parts = traced_peak(elastic3d.M_eps_parts, y, grid, eps, mat)
    _, report = traced_peak(elastic3d.apriori_report, y, phi, grid, eps, mat)
    assert parts <= 4.0 * T and assemble <= 5.0 * T and report <= 4.0 * T, (parts / T, assemble / T, report / T)


def _warm_peak(fn, *args):
    """traced_peak of a second call, so that the grid's cached operators are not counted."""
    fn(*args)
    return traced_peak(fn, *args)


def test_hyperstress_gradients_hold_the_six_hessian_pairs():
    # 17x17x9 (2048 cells), T = 144 KiB. grad_M_eps at the lifted
    # configs/coupled.json start, the mollifier on criterion 10's field:
    # 6.9, 4.9 and 4.8 T, against 9.6, 5.6 and 5.4 T when they formed and
    # scattered the 27-entry Hessian (3 T) and its weighted copy
    cfg = RunConfig.from_file(COUPLED)
    grid, mat, eps = cfg.grid3(), cfg.material, cfg.eps_list[0]
    assert grid.shape == (17, 17, 9)
    inputs = cfg.recovery_inputs(cfg.grid2())
    y = lift_deformation(inputs.isometry, eps, grid, inputs.g_matrix, optimal_corrector(inputs, grid, RelaxedQ2.of(mat)))
    T = np.prod(grid.cshape) * 9 * 8
    _, gradient = _warm_peak(elastic3d.grad_M_eps, y, grid, eps, mat)
    d = np.zeros(grid.shape + (3,))
    d[..., 2] = 0.1 * np.sin(np.pi * grid.x1)[:, None, None]
    (_, state), evaluation = _warm_peak(recovery._mollifier_evaluation, d, d, grid, 0.25, 2.0, 4.0)
    _, mollifier_gradient = _warm_peak(recovery._mollifier_gradient, state, d, grid, 0.25, 2.0, 4.0)
    peaks = (gradient / T, evaluation / T, mollifier_gradient / T)
    assert gradient <= 7.5 * T and evaluation <= 5.2 * T and mollifier_gradient <= 5.0 * T, peaks
