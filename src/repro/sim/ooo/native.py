"""Build and load the C cycle loop (``_cycle.c``) on first use.

The first :func:`cycle_loop` call in a process, not the import, compiles
``_cycle.c`` with the interpreter's own C compiler and headers into
``__pycache__/_cycle.<key><EXT_SUFFIX>`` beside the source, where
``<key>`` hashes the source and ``EXT_SUFFIX``.  The build goes to a
temporary name and is published with :func:`os.replace`, so processes
building at once each leave an intact file; later processes only load
it.  With no compiler, a failed build or an unwritable directory, the
core warns once on stderr and runs the Python loop.  ``REPRO_NATIVE=0``
forces the Python loop; both loops return identical statistics, so the
choice is in no cache key.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import ModuleType
from typing import List, Optional

SOURCE = Path(__file__).with_name("_cycle.c")

_lock = threading.Lock()
_loaded: dict = {}


def built_path(source: Path = SOURCE) -> Path:
    """Where the extension compiled from ``source`` is cached."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(source.read_bytes() + suffix.encode()).hexdigest()[:16]
    return source.parent / "__pycache__" / f"_cycle.{key}{suffix}"


def compiler_command() -> List[str]:
    """``$CC``, else the compiler the interpreter was built with."""
    import shlex  # only a build needs these two
    import sysconfig

    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def build(source: Path) -> ModuleType:
    """Compile ``source`` unless its build is cached, then import it."""
    path = built_path(source)
    if not path.exists():
        import sysconfig

        path.parent.mkdir(exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
        os.close(fd)
        link = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
        try:
            subprocess.run(
                [*compiler_command(), "-O2", "-fPIC", "-shared", *link,
                 "-I", sysconfig.get_paths()["include"], str(source), "-o", temp],
                check=True, capture_output=True,
            )
            os.replace(temp, path)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    spec = importlib.util.spec_from_file_location("repro.sim.ooo._cycle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cycle_loop() -> Optional[ModuleType]:
    """The C loop's module, or None when the Python loop must run."""
    if os.environ.get("REPRO_NATIVE") == "0":
        return None
    with _lock:
        if "module" not in _loaded:
            try:
                _loaded["module"] = build(SOURCE)
            except (OSError, ImportError, subprocess.CalledProcessError) as error:
                _loaded["module"] = None
                reason = str(error) or type(error).__name__
                if isinstance(error, subprocess.CalledProcessError):
                    reason = error.stderr.decode(errors="replace").strip() or reason
                print(f"repro: native cycle loop unavailable "
                      f"({reason.splitlines()[0]}); running the Python loop",
                      file=sys.stderr)
        return _loaded["module"]
