"""Structured periodic grid executor for kernel programs.

One cell-centered grid with ghost layers, periodic halo exchange, the
time loop (stepped by :func:`simflow.kernel.rk3_step`) and legacy-VTK
output.  A fixed seed reproduces every output byte: field updates are
elementwise numpy operations, stencil accumulation order is fixed, and
initial-data randomness is keyed on the row-major cell index.

Initial conditions run as the ABM ones do, through
:func:`simflow.lockstep.run` with one lane per interior cell
(:class:`CellLanes`): compiled, or cell by cell through the interpreter
(:class:`CellContext`) when the compiler refuses the algorithm or a cell
faults.  Both give the same bits and the interpreter's errors.  Kernel
right-hand sides are evaluated with :func:`simflow.expr.evaluate_array`.

Summation order.  Each field's RHS is one array into which its terms are
added in turn, then its dissipation along each axis.  A stencil adds its
taps into that array: the centre tap, then for ``k = 1, 2, ...`` the
pair ``a[+k] +- a[-k]`` times the weight pre-scaled by ``dx**-order``
(computed as ``w_k / dx**order``).  The order is deterministic, but it is
not the one older versions used (every tap scaled by its raw weight,
summed, then divided by ``dx**order``), so outputs are not bitwise equal
to theirs: on the shipped wave input the final fields moved by less than
1e-12 relative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algorithm as alg
from . import expr, lockstep
from .kernel import Combine, Pointwise, StencilApply, rk3_step
from .stencils import StencilError, ko_dissipation

_PHASE_INIT = 1

log = logging.getLogger("simflow")


class GridRuntimeError(Exception):
    pass


def _fmt(v):
    return format(float(v), ".17g")


@dataclass
class Grid:
    """Interior cells plus ghost layers of width halo."""

    axes: list
    counts: tuple            # interior cells per axis
    bounds: dict             # axis -> (lo, hi) of the domain
    halo: int
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dx = tuple((self.bounds[a][1] - self.bounds[a][0]) / n
                        for a, n in zip(self.axes, self.counts))

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(n + 2 * self.halo for n in self.counts)

    def allocate(self, fields):
        for f in fields:
            self.data[f] = np.zeros(self.shape)

    def interior(self, arr=None):
        sl = tuple(slice(self.halo, self.halo + n) for n in self.counts)
        if arr is not None:
            return arr[sl]
        return sl

    def coords_1d(self, d):
        """Cell-center coordinates along axis d for the padded extent."""
        a = self.axes[d]
        lo = self.bounds[a][0]
        idx = np.arange(self.counts[d] + 2 * self.halo, dtype=np.float64)
        return lo + (idx - self.halo + 0.5) * self.dx[d]

    def coord_arrays(self):
        """Broadcastable padded coordinate arrays, one per axis."""
        out = {}
        for d, a in enumerate(self.axes):
            shape = [1] * self.ndim
            shape[d] = -1
            out[a] = self.coords_1d(d).reshape(shape)
        return out


def make_grid(axes, counts, bounds, halo):
    counts = tuple(int(n) for n in counts)
    for a, n in zip(axes, counts):
        if halo > n:
            raise GridRuntimeError(f"halo {halo} wider than interior ({n} cells) on axis {a}")
    return Grid(list(axes), counts, dict(bounds), halo)


def exchange_halos(grid):
    """Fill ghost layers with periodic images, axis by axis.

    Axis passes run in declaration order and copy full-extent slabs, so
    corner ghosts end up doubly wrapped.
    """
    h = grid.halo
    if h == 0:
        return
    for d in range(grid.ndim):
        n = grid.counts[d]
        for arr in grid.data.values():
            left = _axis_slice(grid.ndim, d, slice(0, h))
            right = _axis_slice(grid.ndim, d, slice(n + h, n + 2 * h))
            arr[left] = arr[_axis_slice(grid.ndim, d, slice(n, n + h))]
            arr[right] = arr[_axis_slice(grid.ndim, d, slice(h, 2 * h))]


def _axis_slice(ndim, d, sl):
    return tuple(sl if k == d else slice(None) for k in range(ndim))


# ---------------------------------------------------------------------------
# Initial conditions

class CellLanes(lockstep.Entities):
    """The interior cells of a grid, one lane per cell in row-major order.

    ``arrays`` holds flat per-cell copies of the fields, of the spatial
    coordinates and of the time coordinate (0.0).  Coordinates are
    read-only, and no symbol may be indexed by a cell.
    """

    property_kinds = ("field", "coordinate")
    indexed = False

    def __init__(self, grid, params, time_coord, seed):
        interior = [grid.coords_1d(d)[grid.halo:grid.halo + n]
                    for d, n in enumerate(grid.counts)]
        coords = np.meshgrid(*interior, indexing="ij")
        n = coords[0].size
        arrays = {f: grid.interior(values).flatten() for f, values in grid.data.items()}
        arrays.update((a, c.ravel()) for a, c in zip(grid.axes, coords))
        arrays[time_coord] = np.zeros(n)
        super().__init__(n, arrays, params, "init", 0, (seed, _PHASE_INIT))
        self.readonly = (*grid.axes, time_coord)

    def context(self, i, snapshot, stream):
        return CellContext(self, i, stream)


class CellContext(alg.Context):
    """One interior cell running the initial condition: reads and writes
    entry ``cell`` of the :class:`CellLanes` arrays."""

    family = "pde"
    phase = "init"

    def __init__(self, cells, cell, stream):
        self.cells = cells
        self.cell = cell  # row-major interior index
        self.stream = stream

    def resolve(self, name, kind, arg):
        if arg is not None:
            raise expr.EvaluationError(
                f"indexed symbol '{name}' is not valid in a grid initial condition")
        if kind == "parameter":
            return self.cells.params[name]
        if kind in CellLanes.property_kinds and name in self.cells.arrays:
            return float(self.cells.arrays[name][self.cell])
        if kind == "builtin":
            if name == "$rnd_uniform":
                return self.stream.uniform()
            if name == "$rnd_int_1":
                return float(self.stream.int_below(2))
            if name == "$in":
                return 0.0
        raise expr.EvaluationError(f"'{name}' is not available in a grid initial condition")

    def write(self, name, index, value):
        if index is not None:
            raise alg.AlgorithmError("indexed writes are not valid on a grid")
        if name not in self.cells.arrays or name in self.cells.readonly:
            raise alg.AlgorithmError(f"write to undeclared field '{name}'")
        self.cells.arrays[name][self.cell] = value


def apply_initial_conditions(grid, problem, param_values, seed=0):
    """Run the problem's initial-condition algorithm at every interior cell.

    The algorithm runs through :func:`simflow.lockstep.run` over
    :class:`CellLanes`, with draws keyed on (seed, phase, row-major cell
    index).  The interior is filled from the cells' arrays, also after a
    fault (with the writes made before it), and the halos are exchanged
    once afterwards.
    """
    ic = problem.region.initial_condition
    lockstep.log_status("initial condition", ic)
    cells = CellLanes(grid, param_values, problem.time_coord, seed)
    try:
        lockstep.run(ic, np.arange(cells.n), cells)
    finally:
        for f, values in grid.data.items():
            grid.interior(values)[...] = cells.arrays[f].reshape(grid.counts)
    exchange_halos(grid)


# ---------------------------------------------------------------------------
# Kernel evaluation

def apply_stencil(arr, stencil, axis_idx, dx, out=None):
    """Add a one-axis stencil of ``arr`` into ``out`` where the input has
    enough margin.

    ``out`` (a new zeroed array when omitted; otherwise C-contiguous
    float64) is returned, its first and last ``stencil.radius`` cells
    along the axis untouched.  The stencil must be centered (offsets
    ``-r..r``), with weights antisymmetric for odd derivative orders and
    symmetric for even ones, as centered derivatives and Kreiss-Oliger
    dissipation are; any other raises StencilError.  The centre tap is
    added, then ``w_k / dx**order * (a[+k] +- a[-k])`` for each ``k`` in
    turn.
    """
    r = stencil.radius
    w = stencil.weights
    sign = -1.0 if stencil.order % 2 else 1.0
    if (stencil.offsets != tuple(range(-r, r + 1))
            or any(w[r - k] != sign * w[r + k] for k in range(r + 1))):
        raise StencilError(f"order-{stencil.order} stencil with offsets "
                           f"{stencil.offsets} and weights {w} is not centered")
    if out is None:
        out = np.zeros(arr.shape)
    elif out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    size = arr.shape[axis_idx]
    # A shift by k cells along the axis is a shift by k * stride in the
    # flat arrays, so every operation below runs on contiguous memory.
    # The flat range also covers the margins of later axes, where the
    # taps wrap into neighbouring rows; those cells are put back after.
    stride = arr.strides[axis_idx] // arr.itemsize
    flat = arr.reshape(-1)
    lo, hi = r * stride, arr.size - r * stride

    def tap(off):
        return flat[lo + off * stride:hi + off * stride]

    margins = [_axis_slice(arr.ndim, axis_idx, slice(0, r)),
               _axis_slice(arr.ndim, axis_idx, slice(size - r, size))]
    saved = [out[m].copy() for m in margins]
    acc = out.reshape(-1)[lo:hi]
    tmp = np.empty(acc.shape)
    scale = dx ** stencil.order
    pairing = np.subtract if sign < 0 else np.add
    for k, wk in enumerate(w[r:]):
        if wk == 0.0:
            continue
        if k == 0:
            np.multiply(tap(0), wk / scale, out=tmp)
        else:
            pairing(tap(k), tap(-k), out=tmp)
            tmp *= wk / scale
        acc += tmp
    for m, values in zip(margins, saved):
        out[m] = values
    return out


def _eval_node(node, grid, bindings, acc=None):
    """Value of a kernel node on the padded grid.

    With ``acc`` the value is added into it and ``acc`` is returned: sums
    add each term in turn and stencils accumulate in place.  Without it
    the result may be a read-only view of a field.
    """
    if isinstance(node, Combine) and node.op == "+":
        if acc is None:
            acc = np.zeros(grid.shape)
        for child in node.children:
            _eval_node(child, grid, bindings, acc)
        return acc
    if isinstance(node, StencilApply):
        inner = _eval_node(node.inner, grid, bindings)
        d = grid.axes.index(node.stencil.axis)
        return apply_stencil(inner, node.stencil, d, grid.dx[d], out=acc)
    if isinstance(node, Pointwise):
        value = expr.evaluate_array(node.exprn, bindings)
        value = np.broadcast_to(np.asarray(value, dtype=np.float64), grid.shape)
    elif isinstance(node, Combine):
        parts = [_eval_node(c, grid, bindings) for c in node.children]
        value = parts[0]
        for p in parts[1:]:
            value = value * p
    else:
        raise TypeError(f"not a kernel node: {node!r}")
    if acc is None:
        return value
    acc += value
    return acc


def _dissipation_stencils(kernel, grid):
    return [ko_dissipation(kernel.dissipation_order, kernel.sigma, grid.dx[d], axis)
            for d, axis in enumerate(grid.axes)]


def evaluate_rhs(kernel, grid, bindings, diss):
    """RHS arrays for all fields (valid on the interior given a full halo).

    ``bindings`` holds the parameters, the padded coordinate arrays and
    the time coordinate; the fields are bound here from ``grid.data``.
    ``diss`` is the per-axis dissipation stencils, or None.  Each field
    gets one new array, into which its RHS terms and then its
    dissipation are added.
    """
    bindings.update(grid.data)
    out = {}
    for f in kernel.fields:
        val = _eval_node(kernel.rhs[f], grid, bindings, np.zeros(grid.shape))
        if diss is not None:
            for d in range(grid.ndim):
                apply_stencil(grid.data[f], diss[d], d, grid.dx[d], out=val)
        out[f] = val
    return out


# ---------------------------------------------------------------------------
# VTK output

def write_vtk(grid_like, path, title="simflow"):
    """Legacy ASCII STRUCTURED_POINTS file, one scalar block per field.

    ``grid_like`` needs axes / global bounds / interior arrays; values are
    cell data written x-fastest with 17 significant digits.
    """
    axes, bounds, counts, fields = grid_like
    ndim = len(axes)
    dims = [counts[d] + 1 if d < ndim else 1 for d in range(3)]
    origin = [bounds[axes[d]][0] if d < ndim else 0.0 for d in range(3)]
    spacing = [(bounds[axes[d]][1] - bounds[axes[d]][0]) / counts[d] if d < ndim else 1.0
               for d in range(3)]
    ncells = 1
    for n in counts:
        ncells *= n
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {dims[0]} {dims[1]} {dims[2]}",
        f"ORIGIN {_fmt(origin[0])} {_fmt(origin[1])} {_fmt(origin[2])}",
        f"SPACING {_fmt(spacing[0])} {_fmt(spacing[1])} {_fmt(spacing[2])}",
        f"CELL_DATA {ncells}",
    ]
    parts = ["\n".join(lines) + "\n"]
    for name in fields:
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        flat = fields[name].ravel(order="F")  # first axis (x) varies fastest
        # "%.17g" gives the same digits as format(v, ".17g"), in one call
        parts.append(("%.17g\n" * flat.size) % tuple(flat.tolist()))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(parts), encoding="utf-8")


def read_vtk_cell_data(path):
    """Minimal reader for files produced by :func:`write_vtk` (test oracle)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    dims = None
    fields = {}
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if parts[:1] == ["DIMENSIONS"]:
            dims = [int(x) for x in parts[1:]]
        elif parts[:1] == ["SCALARS"]:
            name = parts[1]
            counts = [max(d - 1, 1) for d in dims]
            n = counts[0] * counts[1] * counts[2]
            values = np.array([float(x) for x in lines[i + 2:i + 2 + n]])
            shape = [c for c, d in zip(counts, dims) if d > 1]
            fields[name] = values.reshape(shape, order="F")
            i += 1 + n
        i += 1
    return fields


# ---------------------------------------------------------------------------
# Time loop

@dataclass
class RunReport:
    steps: int
    final_time: float
    field_ranges: dict   # field -> [min, max]
    outputs: list

    def to_json(self):
        return {"steps": self.steps, "final_time": self.final_time,
                "field_ranges": {k: list(v) for k, v in self.field_ranges.items()},
                "outputs": list(self.outputs)}


def _check_finite(grid, fields, step):
    for f in fields:
        if not np.all(np.isfinite(grid.interior(grid.data[f]))):
            raise GridRuntimeError(f"non-finite values in field '{f}' at step {step}")


def run(problem, kernel, config):
    """Execute the time loop; returns a RunReport."""
    axes = list(problem.spatial_coords)
    bounds = problem.region.domain
    grid = make_grid(axes, config.cells(len(axes)), bounds, kernel.halo)

    params = problem.parameter_values(config.scalar_overrides)
    dt = config.dt
    if dt is None:
        raise GridRuntimeError("no dt configured (set 'dt' in the parameter file)")
    dt = float(dt)
    if dt <= 0:
        raise GridRuntimeError("dt must be positive")

    grid.allocate(kernel.fields)
    min_dx = min(grid.dx)
    if dt > 0.5 * min_dx:
        log.warning("dt=%s exceeds the CFL guidance 0.5*dx=%s", dt, 0.5 * min_dx)

    apply_initial_conditions(grid, problem, params, config.seed)
    _check_finite(grid, kernel.fields, 0)

    time_coord = problem.time_coord
    diss = _dissipation_stencils(kernel, grid) if kernel.has_dissipation else None
    bindings = dict(params)
    bindings.update(grid.coord_arrays())

    def rhs(state, stage_t):
        grid.data = state
        exchange_halos(grid)
        bindings[time_coord] = stage_t
        return evaluate_rhs(kernel, grid, bindings, diss)

    outputs = []
    out_dir = config.output_dir
    final_env = expr.EvalEnvironment(bindings=params)

    def finalized(t):
        final_env.bindings[time_coord] = t
        return expr.evaluate(problem.finalization, final_env) != 0.0

    def interiors():
        return {f: grid.interior(grid.data[f]).copy() for f in kernel.fields}

    def dump(step):
        fields = interiors()
        for f in kernel.fields:
            path = out_dir / f"{f}_{step}.vtk"
            write_vtk((axes, bounds, grid.counts, {f: fields[f]}), path,
                      title=f"{f} step {step}")
            outputs.append(str(path))
        return fields

    step = 0
    last_dump = -1
    # t is recomputed as step*dt (not accumulated) so that e.g.
    # 200 * 0.005 reaches t_end = 1.0 exactly.
    while True:
        t = step * dt
        if finalized(t):
            break
        if step % config.output_interval == 0:
            dump(step)
            last_dump = step
        if step >= config.max_steps:
            raise GridRuntimeError(f"finalization never satisfied within {config.max_steps} steps")
        grid.data = rk3_step(grid.data, rhs, t, dt)
        step += 1
        _check_finite(grid, kernel.fields, step)

    fields = dump(step) if last_dump != step else interiors()
    ranges = {f: (float(fields[f].min()), float(fields[f].max())) for f in kernel.fields}
    report = RunReport(step, step * dt, ranges, outputs)
    report.final_fields = fields
    return report
