"""The OpenBLAS that numpy loaded, called directly through ctypes: its
thread-count control, and the sum of shifted GEMMs that conv2d's forward
pass is made of.

The library is found once, in /proc/self/maps (Linux). Where it is not
found, ``threads()`` is None and ``tap_gemm`` computes with numpy instead.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["tap_gemm", "threads"]

# the symbol names of numpy 2 wheels, numpy 1 wheels and a system OpenBLAS:
# (thread-control prefix, cblas prefix, suffix, BLAS integer type)
_NAMES = (("scipy_openblas_", "scipy_cblas_", "64_", ctypes.c_int64),
          ("openblas_", "cblas_", "64_", ctypes.c_int64),
          ("openblas_", "cblas_", "", ctypes.c_int))
_ROW_MAJOR, _NO_TRANS = 101, 111


@dataclass(frozen=True)
class _Library:
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    gemm: dict  # {numpy dtype: (cblas ?gemm, its scalar type)}


def _bind(dll, prefix, cblas, suffix, integer):
    get = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
    put = getattr(dll, f"{prefix}set_num_threads{suffix}", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    gemm = {}
    for dtype, letter, real in ((np.float32, "s", ctypes.c_float),
                                (np.float64, "d", ctypes.c_double)):
        fn = getattr(dll, f"{cblas}{letter}gemm{suffix}", None)
        if fn is not None:
            # order, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
            fn.argtypes = ([ctypes.c_int] * 3 + [integer] * 3
                           + [real, ctypes.c_void_p, integer, ctypes.c_void_p,
                              integer, real, ctypes.c_void_p, integer])
            fn.restype = None
            gemm[np.dtype(dtype)] = (fn, real)
    return _Library(get, put, gemm)


@functools.cache
def _library() -> _Library | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for names in _NAMES:
            found = _bind(dll, *names)
            if found is not None:
                return found
    return None


def threads():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or None."""
    lib = _library()
    return None if lib is None else (lib.get_threads, lib.set_threads)


def tap_gemm(a: np.ndarray, b: np.ndarray, taps, out: np.ndarray):
    """``out = sum of a[t] @ b[i][:, o:o + cols]`` over ``(i, o) = taps[t]``,
    for a (rows, cols) ``out``: the tap loop of conv2d's forward pass.

    ``a`` is a C-contiguous (taps, rows, k) stack, ``b`` a C-contiguous
    (blocks, k, m) stack, and ``out`` row-major with unit column stride.
    The operands are checked, and their pointers taken, once per call; each
    tap is then one ?gemm at an offset from those pointers, the first with
    beta 0 and the others with beta 1, so the taps add up inside BLAS with
    no temporary, and the GIL is released while each runs. Each tap is
    ``np.matmul`` plus ``+=`` instead where there is no cblas ?gemm, where
    the operands fail the check, and where ``out`` has a single row or
    column: numpy computes that product with ?gemv, whose sums round
    differently from ?gemm's, so its bits stay numpy's. Shape errors come
    from numpy.
    """
    rows, cols = out.shape
    lib = _library()
    entry = None if lib is None else lib.gemm.get(out.dtype)
    size = out.itemsize
    if (entry is not None and a.dtype == b.dtype == out.dtype
            and a.ndim == b.ndim == 3 and a.shape[:2] == (len(taps), rows)
            and a.shape[2] == b.shape[1] > 0 and rows > 1 and cols > 1
            and a.flags.c_contiguous and b.flags.c_contiguous
            and out.strides[1] == size and out.strides[0] >= cols * size
            and out.strides[0] % size == 0 and out.flags.writeable
            and all(0 <= i < b.shape[0] and 0 <= o <= b.shape[2] - cols for i, o in taps)
            and not np.may_share_memory(out, a) and not np.may_share_memory(out, b)):
        fn, real = entry
        k, m = b.shape[1:]
        pa, pb, pc, ldc = a.ctypes.data, b.ctypes.data, out.ctypes.data, out.strides[0] // size
        sa, sb = rows * k * size, k * m * size
        one, zero = real(1.0), real(0.0)
        for t, (i, o) in enumerate(taps):
            fn(_ROW_MAJOR, _NO_TRANS, _NO_TRANS, rows, cols, k, one, pa + t * sa, k,
               pb + i * sb + o * size, m, one if t else zero, pc, ldc)
        return out
    for t, (i, o) in enumerate(taps):
        if t:
            out += np.matmul(a[t], b[i][:, o:o + cols])
        else:
            np.matmul(a[t], b[i][:, o:o + cols], out=out)
    return out
