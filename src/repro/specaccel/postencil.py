"""503.postencil: 7-point 3-D stencil, with the SPEC ACCEL 1.2 bug.

The benchmark iterates a 7-point Jacobi stencil, double-buffered between
``A0`` and ``Anext``.  The data region maps the result buffer ``A0`` with
``tofrom`` and the scratch ``Anext`` with ``to`` — correct for an even
iteration count.  Version 1.2's bug (Fig. 6 of the paper): after every
kernel launch the *host* swaps the two pointers, so after an **odd** number
of iterations the final result physically lives in the scratch buffer's
corresponding variable, which is never copied back.  The host's output loop
then reads stale memory — the "data mapping issue (stale access)" ARBALEST
reports at the output line (Fig. 7).

``run_postencil`` reproduces both behaviours: ``buggy=True`` performs the
host-side pointer swap exactly like v1.2; ``buggy=False`` adds the
``target update from`` that the SPEC fix effectively introduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..openmp.arrays import HostArray, KernelContext
from ..openmp.runtime import TargetRuntime
from ..openmp import to, tofrom


@dataclass(frozen=True)
class StencilShape:
    nx: int
    ny: int
    nz: int
    iters: int

    @property
    def n(self) -> int:
        return self.nx * self.ny * self.nz


#: Workload presets: 'test' for unit tests, 'ref' for the overhead figures.
#: 'large' runs the element-wise kernel twins (one logical device thread
#: per point, scalar loads/stores) — the batch path's target profile.
SHAPES = {
    "test": StencilShape(8, 8, 8, 3),
    "train": StencilShape(12, 12, 12, 5),
    "ref": StencilShape(16, 16, 16, 7),
    # Odd iteration count: the v1.2 pointer-swap bug only manifests after
    # an odd number of swaps (see run_postencil), and the large preset must
    # keep exposing it.
    "large": StencilShape(22, 22, 22, 5),
}

C0 = 0.5
C1 = 1.0 / 12.0


def _stencil_step(src: np.ndarray, shape: StencilShape) -> np.ndarray:
    """One Jacobi step on the flattened field; boundaries carried over."""
    a = src.reshape(shape.nx, shape.ny, shape.nz)
    out = a.copy()
    out[1:-1, 1:-1, 1:-1] = (
        C1
        * (
            a[:-2, 1:-1, 1:-1]
            + a[2:, 1:-1, 1:-1]
            + a[1:-1, :-2, 1:-1]
            + a[1:-1, 2:, 1:-1]
            + a[1:-1, 1:-1, :-2]
            + a[1:-1, 1:-1, 2:]
        )
        - C0 * a[1:-1, 1:-1, 1:-1]
    )
    return out.ravel()


def make_stencil_kernel(src_name: str, dst_name: str, shape: StencilShape):
    """The compute kernel for one iteration: dst = stencil(src)."""

    def cpu_stencil(ctx: KernelContext) -> None:
        src = ctx[src_name]
        dst = ctx[dst_name]
        field = np.asarray(src[0 : shape.n])
        dst[0 : shape.n] = _stencil_step(field, shape)

    cpu_stencil.__name__ = f"cpu_stencil_{src_name}_to_{dst_name}"
    return cpu_stencil


def make_stencil_point_kernel(src_name: str, dst_name: str, shape: StencilShape):
    """Element-wise twin of :func:`make_stencil_kernel` ('large' preset).

    One logical device thread per interior point, seven scalar loads and
    one scalar store each — the access profile compiled stencil kernels
    actually have, and the one the bus batches.  Boundary
    cells are identical in both buffers (Jacobi carries them unchanged),
    so updating the interior alone matches the bulk kernel's result.
    """
    syz = shape.ny * shape.nz
    nz = shape.nz
    interior = [
        (ix * shape.ny + iy) * nz + iz
        for ix in range(1, shape.nx - 1)
        for iy in range(1, shape.ny - 1)
        for iz in range(1, shape.nz - 1)
    ]

    def cpu_stencil_points(ctx: KernelContext) -> None:
        src = ctx[src_name]
        dst = ctx[dst_name]

        def body(k: int) -> None:
            i = interior[k]
            dst[i] = (
                C1
                * (
                    src[i - syz]
                    + src[i + syz]
                    + src[i - nz]
                    + src[i + nz]
                    + src[i - 1]
                    + src[i + 1]
                )
                - C0 * src[i]
            )

        ctx.parallel_for(len(interior), body)

    cpu_stencil_points.__name__ = f"cpu_stencil_points_{src_name}_to_{dst_name}"
    return cpu_stencil_points


def initial_field(shape: StencilShape) -> np.ndarray:
    """The heat-source initial condition (deterministic)."""
    field = np.zeros(shape.n)
    field[:: shape.nz] = 1.0  # a hot plane
    # Point source at the grid centre (an interior cell, so it diffuses).
    centre = (
        (shape.nx // 2) * shape.ny * shape.nz
        + (shape.ny // 2) * shape.nz
        + shape.nz // 2
    )
    field[centre] = 100.0
    return field


def run_postencil(
    rt: TargetRuntime,
    preset: str = "test",
    *,
    buggy: bool = False,
) -> HostArray:
    """Run 503.postencil; returns the array the host believes holds the result.

    With ``buggy=True`` and an odd iteration count the returned array's
    host storage is stale — reading it is the Fig-7 anomaly.
    """
    shape = SHAPES[preset]
    with rt.at("main.c", 127, 16, function="main"):
        a0 = rt.array("A0", shape.n)
        anext = rt.array("Anext", shape.n)
        a0[0 : shape.n] = initial_field(shape)
        anext[0 : shape.n] = initial_field(shape)

    kernel_factory = (
        make_stencil_point_kernel if preset == "large" else make_stencil_kernel
    )
    src, dst = a0, anext
    with rt.target_data([tofrom(a0), to(anext)]):
        for _t in range(shape.iters):
            with rt.at("main.c", 137, 7, function="main"):
                rt.target(
                    kernel_factory(src.name, dst.name, shape),
                    name="cpu_stencil",
                )
            # v1.2: the HOST swaps its pointers; the device data
            # environment knows nothing about it (Fig. 6, line ~139).
            src, dst = dst, src
        if not buggy:
            # The fix: explicitly retrieve the buffer that actually holds
            # the final result before leaving the region.
            rt.target_update(from_=[src])
    # After the loop the host's "A0" pointer is `src`.
    return src


def output_checksum(rt: TargetRuntime, result: HostArray) -> float:
    """The output loop of main.c (line 145 in Fig. 7): reads the result."""
    total = 0.0
    with rt.at("main.c", 145, 5, function="main"):
        values = result[0 : result.length]
    total = float(np.sum(values))
    return total
