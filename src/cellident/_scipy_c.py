"""scipy C routines, taken without importing their subpackages.

``import scipy.signal`` costs about a second (it pulls in ``scipy.stats``
and the array-API shims), ``import scipy.linalg`` about 0.25 s (the shims
again, through ``numpy.f2py``) and ``import scipy.special`` about 0.2 s,
yet the package needs only a few routines of them: the IIR filter loop
behind ``scipy.signal.lfilter``, the ``ndtr`` ufunc and three LAPACK
routines.  ``routine`` loads the extension module that holds such a
function straight from its file, so the subpackage's ``__init__`` never
runs.  Nor does scipy's own (about 9 ms, through ``scipy._lib``): the
package directory comes from importlib's finder, and scipy is not
imported; without scipy, importing this module raises
ModuleNotFoundError.  The extension module leaves ``sys.modules`` again
once it is loaded, so a later import of the subpackage imports it the
usual way; CPython then reuses the module it has cached, and both give the
same function object.

Each extension loads when its first user needs it: ``_sigtools`` when
``ecm`` is imported, ``_flapack`` (and the OpenBLAS scipy bundles with it)
at the first ``gp.fit`` or ``one_blas_thread`` scope, and
``_special_ufuncs`` at the first expected-improvement score.  So
``simulate``, ``gen-data`` and the GD, PSO and random-search runs never map
the last two.

The names are private to scipy.  Where the file or the attribute is missing
(or the file does not load), ``routine`` returns the public function, which
gives the same bits:

- ``lfilter(b, a, x, axis)`` with ``len(a) > 1`` and no ``zi`` returns
  ``_sigtools._linear_filter(b, a, x, axis)`` unchanged (scipy 1.17.1);
- ``scipy.special.ndtr`` is the ``_special_ufuncs.ndtr`` ufunc itself;
- ``scipy.linalg.lapack`` re-exports ``_flapack``'s ``dpotrf``, ``dtrtrs``
  and ``dtrtri`` themselves.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_SPEC = importlib.util.find_spec("scipy")   # finds scipy, runs none of it
if _SPEC is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_SCIPY_DIR = Path(_SPEC.submodule_search_locations[0])


def routine(subpackage: str, extension: str, name: str, public: str):
    """``scipy.<subpackage>.<extension>.<name>`` from the extension's file,
    or ``scipy.<subpackage>.<public>`` when that cannot be had; ``public``
    may be dotted, as in ``lapack.dpotrf``."""
    module_name = f"scipy.{subpackage}.{extension}"
    stem = _SCIPY_DIR / subpackage / extension
    # once scipy has imported it, loading it again would remove its entry
    module = sys.modules.get(module_name) or _load(module_name, stem)
    found = getattr(module, name, None)
    if found is not None:
        return found
    owner, _, attr = f"scipy.{subpackage}.{public}".rpartition(".")
    return getattr(importlib.import_module(owner), attr)


def _load(module_name: str, stem: Path):
    """The extension module ``module_name`` loaded from the file ``stem``
    plus an extension suffix, taken out of ``sys.modules`` again; None if
    no such file loads."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location(module_name, path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            return None
        finally:
            # CPython registers a single-phase extension as it creates it
            sys.modules.pop(module_name, None)
        return module
    return None
