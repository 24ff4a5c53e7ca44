"""On-demand cc build and ctypes loader for the contention-solver kernel.

Compiles ``_csolver.c`` with the host C compiler into a shared object
cached next to the source, and exposes it through ctypes.  This kernel
is the production contention solver
(:func:`repro.sim.contention.solve_steady_state_batch`); on a host where
it cannot be built or loaded, :func:`repro.sim.engine.simulate_batch`
answers with the scalar numpy oracle instead.

The build is hermetic and failure-tolerant:

* the ``.so`` is keyed by the SHA-256 of the C source, so editing the
  kernel invalidates the cache automatically;
* artifacts land in ``src/repro/sim/_build/`` (gitignored), overridable
  via ``REPRO_CEXT_BUILD_DIR``, with a tempdir fallback when the tree is
  read-only;
* compilation happens at most once per process and never raises out of
  :func:`load_solver` — any failure (no compiler, sandboxed exec,
  unwritable disk) returns ``None`` and the simulator falls back to the
  scalar oracle.

Optimisation flags deliberately exclude ``-ffast-math``: the kernel's
contract is bit identity with the scalar oracle, which fast-math's
reassociation would break.

The kernel takes three flat buffers through raw ``c_void_p`` pointers:
one int64 input buffer, one float64 input buffer and one float64 output
buffer, laid out as :func:`buffer_lengths` and ``_csolver.c`` describe;
:func:`input_views` and :func:`output_views` name their regions, so no
other module depends on the layout.
ctypes checks nothing about a raw pointer, so
:func:`repro.sim.contention._pack` makes the buffers with
:func:`empty_buffers` and passes them through :func:`check_buffers` —
one dtype, contiguity and length check that raises before the kernel
can read or write past them.  (On a 2-core x86_64 VM, per-argument
``ndpointer`` checks cost about 49 µs a call, against about 4.5 µs for
a batch-1 kernel run.)
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["buffer_lengths", "check_buffers", "empty_buffers",
           "input_views", "load_solver", "output_views", "solve_packed_c"]

_SRC = Path(__file__).with_name("_csolver.c")
# -ffp-contract=off: compilers default to contracting a*b+c into FMA at
# -O2 on targets that have it, which changes rounding; the kernel's
# contract is bit identity with the scalar oracle.
_CFLAGS = ["-O2", "-shared", "-fPIC", "-fno-fast-math",
           "-ffp-contract=off"]

_lib: ctypes.CDLL | None = None
_probed = False

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


def _build_dir() -> Path:
    override = os.environ.get("REPRO_CEXT_BUILD_DIR")
    if override:
        return Path(override)
    return _SRC.parent / "_build"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(so_path: Path) -> bool:
    """Compile the C source to ``so_path`` atomically; False on failure."""
    cc = _compiler()
    if cc is None:
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=so_path.parent)
        os.close(fd)
    except OSError:
        return False
    try:
        result = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SRC), "-lm"],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            return False
        os.replace(tmp, so_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load_solver() -> ctypes.CDLL | None:
    """Return the loaded kernel library, building it if needed.

    Memoized per process; returns ``None`` (once and forever, for this
    process) if the source is missing, no compiler is available, or the
    build/load fails for any reason.
    """
    global _lib, _probed
    if _probed:
        return _lib
    _probed = True
    if not _SRC.is_file():
        return None
    digest = hashlib.sha256(
        _SRC.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    candidates = [_build_dir() / f"_csolver-{digest}.so"]
    if "REPRO_CEXT_BUILD_DIR" not in os.environ:
        candidates.append(
            Path(tempfile.gettempdir()) / f"repro-csolver-{digest}.so")
    for so_path in candidates:
        if not so_path.is_file() and not _compile(so_path):
            continue
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            continue
        lib.solve_packed.restype = ctypes.c_int
        lib.solve_packed.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p,     # ints, reals
            ctypes.c_void_p, ctypes.c_int64,      # out, n_batch
            ctypes.c_int64, ctypes.c_int64,       # num_dnns, num_comp
            ctypes.c_int64, ctypes.c_double,      # max_iter, damping
            ctypes.c_double, ctypes.c_int64,      # tol, cycle_window
            ctypes.c_double, ctypes.c_int64,      # cycle_tol, cycle_burn_in
        ]
        _lib = lib
        return _lib
    return None


def buffer_lengths(n_batch: int, n_stages: int, num_dnns: int,
                   num_comp: int) -> tuple[int, int, int]:
    """Lengths of the ``(ints, reals, out)`` buffers of one kernel call.

    For ``n_batch`` elements with ``n_stages`` stages in all:

    * ``ints`` (int64): ``offsets[n_batch + 1] | comp_of | dnn_of``;
    * ``reals`` (float64): ``inflated | kernel_time | hol_k | weights``;
    * ``out`` (float64): ``rates[n_batch, num_dnns] |
      util[n_batch, num_comp] | iterations[n_batch] | converged[n_batch]
      | alloc | eff``, per-stage arrays ``n_stages`` long.
    """
    return (n_batch + 1 + 2 * n_stages, 4 * n_stages,
            n_batch * (num_dnns + num_comp + 2) + 2 * n_stages)


def input_views(ints: np.ndarray, reals: np.ndarray, n_batch: int,
                n_stages: int) -> tuple[np.ndarray, ...]:
    """``(offsets, comp_of, dnn_of, inflated, kernel_time, hol_k,
    weights)``: views of the input buffers' regions, to fill."""
    n = n_stages
    return (ints[:n_batch + 1], ints[n_batch + 1:n_batch + 1 + n],
            ints[n_batch + 1 + n:], reals[:n], reals[n:2 * n],
            reals[2 * n:3 * n], reals[3 * n:])


def output_views(out: np.ndarray, n_batch: int, n_stages: int,
                 num_dnns: int, num_comp: int) -> tuple[np.ndarray, ...]:
    """``(rates, util, iterations, converged, alloc, eff)``: views of the
    output buffer's regions; ``rates`` and ``util`` have one row per
    element, ``alloc`` and ``eff`` one entry per stage."""
    rates_end = n_batch * num_dnns
    util_end = rates_end + n_batch * num_comp
    flags_end = util_end + 2 * n_batch
    return (out[:rates_end].reshape(n_batch, num_dnns),
            out[rates_end:util_end].reshape(n_batch, num_comp),
            out[util_end:util_end + n_batch],
            out[util_end + n_batch:flags_end],
            out[flags_end:flags_end + n_stages], out[flags_end + n_stages:])


def empty_buffers(n_batch: int, n_stages: int, num_dnns: int,
                  num_comp: int) -> tuple[np.ndarray, ...]:
    """Fresh, unfilled ``(ints, reals, out)`` buffers for one call."""
    n_ints, n_reals, n_out = buffer_lengths(n_batch, n_stages, num_dnns,
                                            num_comp)
    return (np.empty(n_ints, dtype=_I64), np.empty(n_reals, dtype=_F64),
            np.empty(n_out, dtype=_F64))


def check_buffers(ints: np.ndarray, reals: np.ndarray, out: np.ndarray,
                  n_batch: int, n_stages: int, num_dnns: int,
                  num_comp: int) -> None:
    """Raise ``ValueError`` unless the three buffers are C-contiguous
    vectors of the kernel's dtypes and exactly :func:`buffer_lengths`
    long — the kernel trusts its raw pointers completely."""
    lengths = buffer_lengths(n_batch, n_stages, num_dnns, num_comp)
    for name, buf, dtype, length in zip(("ints", "reals", "out"),
                                        (ints, reals, out),
                                        (_I64, _F64, _F64), lengths):
        if (buf.dtype != dtype or buf.shape != (length,)
                or not buf.flags.c_contiguous):
            raise ValueError(
                f"solver buffer {name!r} must be a C-contiguous {dtype} "
                f"vector of length {length}; got {buf.dtype} of shape "
                f"{buf.shape}, contiguous={buf.flags.c_contiguous}")


def solve_packed_c(ints: np.ndarray, reals: np.ndarray, out: np.ndarray,
                   n_batch: int, num_dnns: int, num_comp: int,
                   max_iter: int, damping: float, tol: float,
                   cycle_window: int, cycle_tol: float,
                   cycle_burn_in: int) -> None:
    """Solve a packed batch in place into ``out``.

    The buffers must have passed :func:`check_buffers`; they go to the
    kernel as raw pointers.  Raises ``RuntimeError`` if the library is
    unavailable or the kernel reports an allocation failure.
    """
    lib = load_solver()
    if lib is None:
        raise RuntimeError("C solver library unavailable")
    status = lib.solve_packed(
        ints.ctypes.data, reals.ctypes.data, out.ctypes.data, n_batch,
        num_dnns, num_comp, max_iter, damping, tol, cycle_window,
        cycle_tol, cycle_burn_in)
    if status != 0:
        raise RuntimeError("C solver scratch allocation failed")
