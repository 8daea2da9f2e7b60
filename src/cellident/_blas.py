"""A one-thread BLAS scope for small dense linear algebra.

The GP surrogate works on matrices of at most a few hundred rows.  At those
sizes a second OpenBLAS thread costs more than it saves, and its worker
keeps spinning after each threaded call.  OpenBLAS (0.3.27 and later)
exports ``openblas_set_num_threads_local``, which sets the thread count for
the calling thread only and returns the previous value; ``one_blas_thread``
applies it to every OpenBLAS loaded in the process (numpy and scipy each
bundle their own).  numpy's copy is mapped when numpy is imported; scipy's
comes with scipy's LAPACK extension, which loads at the first GP fit or the
first scope, whichever comes first, so a run that fits no surrogate maps
neither.  Where no loaded library exports the setter (another OS, MKL, an
older OpenBLAS) the scope does nothing.

Only the GP calls BLAS: losses, profiles and the baselines use plain numpy
sums, which neither thread nor depend on the kernel set OpenBLAS picks.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

from ._scipy_c import routine


@functools.cache
def _thread_local_setters() -> tuple:
    """The per-thread setter of every loaded OpenBLAS, found on first use.

    numpy maps its copy when it is imported, and scipy's copy is mapped
    with scipy's LAPACK extension, which ``gp`` loads at its first fit.
    The first use loads that extension itself before it scans, so the
    cached tuple covers both copies whether or not a fit has run yet.
    """
    routine("linalg", "_flapack", "dpotrf", "lapack.dpotrf")
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(None, 5)   # the sixth is the mapped file
                path = fields[5].strip() if len(fields) == 6 else ""
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return ()
    setters = []
    for path in sorted(paths):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread; the previous per-thread count is
    restored on exit.  Other threads keep their own setting."""
    setters = _thread_local_setters()
    previous = [set_local(1) for set_local in setters]
    try:
        yield
    finally:
        for set_local, value in zip(setters, previous):
            set_local(value)
