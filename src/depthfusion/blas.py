"""The OpenBLAS that numpy loaded, called directly through ctypes: its
thread-count control, and a GEMM that can add its product into its output.

The library is found once, in /proc/self/maps (Linux). Where it is not
found, ``threads()`` is None and ``gemm`` computes with numpy instead.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["gemm", "threads"]

# the symbol names of numpy 2 wheels, numpy 1 wheels and a system OpenBLAS:
# (thread-control prefix, cblas prefix, suffix, BLAS integer type)
_NAMES = (("scipy_openblas_", "scipy_cblas_", "64_", ctypes.c_int64),
          ("openblas_", "cblas_", "64_", ctypes.c_int64),
          ("openblas_", "cblas_", "", ctypes.c_int))
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


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


def _layout(a: np.ndarray):
    """(transpose flag, leading dimension) under which row-major BLAS reads
    the 2-D view ``a`` in place, or None when it cannot."""
    rows, cols = a.shape
    size = a.itemsize
    rs, cs = a.strides
    if rs % size or cs % size:
        return None
    rs, cs = rs // size, cs // size
    if (cs == 1 or cols == 1) and (rows == 1 or rs >= cols):
        return _NO_TRANS, rs if rows > 1 else cols
    if (rs == 1 or rows == 1) and (cols == 1 or cs >= rows):
        return _TRANS, cs if cols > 1 else rows
    return None


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray, accumulate: bool = False):
    """``out = a @ b``, or ``out += a @ b`` when ``accumulate``, for 2-D arrays.

    Calls the loaded OpenBLAS's ?gemm with beta 0 or 1, so an accumulated
    product is added inside BLAS, with no temporary, and the GIL is
    released while it runs. Falls back to ``np.matmul`` (plus ``+=``) when
    there is no cblas ?gemm, when the dtypes differ or are not float32 or
    float64, when BLAS cannot read a view in place (no unit stride along
    either axis, or ``out`` is not row-major), and when ``out`` overlaps an
    operand. A product with a single row or column falls back too: numpy
    computes it with ?gemv, whose sums round differently from ?gemm's, so
    the fallback keeps its bits those of ``np.matmul``. Shape errors come
    from numpy.
    """
    lib = _library()
    entry = None if lib is None else lib.gemm.get(out.dtype)
    if (entry is not None and a.dtype == b.dtype == out.dtype
            and a.ndim == b.ndim == out.ndim == 2 and a.shape[1] == b.shape[0]
            and out.shape == (a.shape[0], b.shape[1])
            and min(out.shape) > 1 and a.shape[1] > 0 and out.flags.writeable
            and not np.may_share_memory(out, a) and not np.may_share_memory(out, b)):
        la, lb, lc = _layout(a), _layout(b), _layout(out)
        if la is not None and lb is not None and lc is not None and lc[0] == _NO_TRANS:
            fn, real = entry
            fn(_ROW_MAJOR, la[0], lb[0], out.shape[0], out.shape[1], a.shape[1],
               real(1.0), a.ctypes.data, la[1], b.ctypes.data, lb[1],
               real(1.0 if accumulate else 0.0), out.ctypes.data, lc[1])
            return out
    if accumulate:
        out += np.matmul(a, b)
    else:
        np.matmul(a, b, out=out)
    return out
