"""The scalar engine's C kernel: built on first use, loaded with ctypes.

:func:`kernel` compiles ``_engine.c`` with the system C compiler the
first time an engine asks for it — never at import — and caches the
shared object next to this package's bytecode (the directory
:func:`importlib.util.cache_from_source` picks, so ``sys.pycache_prefix``
is honoured).  The file name carries the sha256 of the source, the
compiler flags and the interpreter's ``EXT_SUFFIX``, so an edited source
or another interpreter builds its own copy.  Each build writes a private
temporary file and :func:`os.replace`\\ s it into place, so processes
that build at once (spawned sweep workers) never load a torn file.

Where the build or the load fails, :func:`kernel` returns ``None`` and
the engines run the Python loop instead: one ``engine.kernel`` obs
event and one :class:`RuntimeWarning` name the reason, once per
process.  A C compiler makes the engines faster; correct results never
need one.

The library exports two entries (:class:`Kernel`): ``run_indexed``
runs one simulation and ``run_ladder`` a whole size ladder over one
set of columns.  The kernel trusts its columns, so :func:`columns_ok`
checks them first; columns that fail it run on the Python loop, which
raises the error the bad index deserves.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from typing import NamedTuple

import numpy as np

from .. import obs

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_engine.c")
#: ``-ffp-contract=off`` keeps every multiply and add a separate IEEE
#: operation; fast-math would reorder them.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", "-std=c99")

_UNSET = object()
_kernel = _UNSET
_LOCK = threading.Lock()

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: ``run_indexed``'s C signature, argument by argument.
_ARGTYPES = (
    _I64, _I64,              # n, num_links
    _PTR, _PTR, _PTR,        # bandwidth, latency, capacity
    _PTR, _PTR, _PTR,        # wire, route_off, route_val
    _PTR, _PTR, _PTR,        # dependents off/val, receive overhead
    _PTR, _PTR,              # remaining (in/out), ready (in/out)
    _PTR, _PTR, _PTR, _PTR,  # inject, deliver, ideal, busy (out)
    _PTR,                    # [finish, total_wire] (out)
)
#: ``run_ladder``'s C signature, argument by argument.
_LADDER_ARGTYPES = (
    _I64, _I64, _I64,        # n, num_links, num_sizes
    _PTR, _PTR, _PTR,        # bandwidth, latency, capacity
    _PTR, _PTR,              # route_off, route_val
    _PTR, _PTR,              # the schedule's dependency off/val
    _PTR, _I64, _PTR, _I64,  # wire[size][class], classes, class ids, stride
    _PTR, _I64, _PTR,        # gates[size][step] or NULL, steps, step bounds
    _PTR,                    # receive overhead (one value)
    _PTR,                    # [size][finish, total_wire, max queue delay]
    _PTR, _PTR, _PTR, _PTR,  # ready, inject, deliver, ideal [size][msg]
    _PTR,                    # busy [size][link]; the five NULL when lean
    _PTR,                    # [stuck count, first five stuck ids] (out)
)


class Kernel(NamedTuple):
    """The two loaded C entries of ``_engine.c``."""

    run_indexed: object
    run_ladder: object


class KernelUnavailable(Exception):
    """No compiler, or the compiler failed; the message says why."""


def _library_path() -> str:
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest.update(" ".join(_FLAGS).encode())
    digest.update(suffix.encode())
    cache_dir = os.path.dirname(importlib.util.cache_from_source(__file__))
    return os.path.join(
        cache_dir, "_engine-%s%s" % (digest.hexdigest()[:16], suffix)
    )


def _compiler() -> str:
    configured = (sysconfig.get_config_var("CC") or "").split()
    for candidate in configured[:1] + ["cc", "gcc", "clang"]:
        found = shutil.which(candidate)
        if found:
            return found
    raise KernelUnavailable("no C compiler found")


def _build(path: str) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [_compiler(), *_FLAGS, "-o", tmp, _SOURCE],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            first_error = next(
                (line for line in lines if "error" in line),
                lines[0] if lines else "no output",
            )
            raise KernelUnavailable(
                "compiler exited %d: %s" % (proc.returncode, first_error)
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """Build (when no cached build exists) and load the kernel."""
    path = _library_path()
    if not os.path.exists(path):
        _build(path)
    library = ctypes.CDLL(path)
    for name, argtypes in (("run_indexed", _ARGTYPES),
                           ("run_ladder", _LADDER_ARGTYPES)):
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = _I64
    return Kernel(library.run_indexed, library.run_ladder)


def kernel():
    """The loaded :class:`Kernel`, or ``None``.

    Built and loaded on the first call; ``None`` when that failed, after
    one ``engine.kernel`` event and one :class:`RuntimeWarning` naming
    the reason.  Later calls return the first call's answer.
    """
    global _kernel
    if _kernel is _UNSET:
        with _LOCK:  # serve threads may ask at once; build and warn once
            if _kernel is _UNSET:
                try:
                    _kernel = _load()
                except Exception as error:  # any failed build or load
                    _kernel = None
                    reason = str(error) or type(error).__name__
                    obs.event(
                        "engine.kernel", status="unavailable", reason=reason
                    )
                    warnings.warn(
                        "C engine kernel unavailable (%s); running the "
                        "Python loop" % reason,
                        RuntimeWarning,
                        stacklevel=2,
                    )
    return _kernel


def columns_ok(capacity: np.ndarray, route_off: np.ndarray,
               route_val: np.ndarray, dd_off: np.ndarray,
               dd_val: np.ndarray) -> bool:
    """May the kernel index these int64 columns without a bounds check?

    Every link needs at least one channel (``capacity``, the link
    table's column).  Both offset columns must start at ``>= 0``, never
    decrease and end at their value column's length; every route id
    must name a link (``0 <= id < len(capacity)``) and every message id
    of ``(dd_off, dd_val)`` a message (``0 <= id < n``, ``n =
    len(route_off) - 1``).  That CSR is the dependents graph
    ``run_indexed`` reads or the schedule's own dependency CSR that
    ``run_ladder`` reads; both hold message ids.
    """
    n = len(route_off) - 1
    if n < 0 or len(dd_off) != n + 1:
        return False
    if len(capacity) and capacity.min() < 1:
        return False
    for off, val, bound in (
        (route_off, route_val, len(capacity)),
        (dd_off, dd_val, n),
    ):
        if off[0] < 0 or off[-1] != len(val) or (np.diff(off) < 0).any():
            return False
        if len(val) and not (0 <= val.min() and val.max() < bound):
            return False
    return True
