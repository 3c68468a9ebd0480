"""Compiled kernels: build a package C source once, cache it, load it.

The package ships two hot loops as C sources next to their Python twins —
fragment conversion (``bittorrent/_conversion.c``) and the max-min solve
(``network/_maxmin.c``).  Each is compiled with the system compiler at
first import, cached under a content hash and loaded with :mod:`ctypes`.
When any of that fails (no compiler, no numpy static library, no writable
cache) :func:`load_kernel` warns once and hands back the Python twin, which
produces identical records: the platform picks the kernel, never a knob.

Floating point is compiled strictly: ``-ffp-contract=off`` keeps GCC from
fusing ``a - b * c`` into one FMA (GNU C contracts by default), which would
round differently from NumPy's separate multiply and subtract and break
the bit-identical replay contract on FMA targets.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple, TypeVar

import numpy as np

#: Compiler flags of every kernel; they are part of the cache key.
FLAGS: Tuple[str, ...] = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

K = TypeVar("K")


def cache_dirs(source: Path) -> Tuple[Path, ...]:
    """Where ``source``'s library may be cached, in order of preference.

    The directory next to the source comes first; a read-only install falls
    through to the user cache, ``$XDG_CACHE_HOME/repro`` (default
    ``~/.cache/repro``).  Without an absolute user cache path (no home
    directory) only the first remains.
    """
    user_cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(user_cache):
        user_cache = os.path.expanduser("~/.cache")
    package_cache = source.with_name("_kernel_cache")
    if not os.path.isabs(user_cache):
        return (package_cache,)
    return (package_cache, Path(user_cache) / "repro")


def build(
    source: Path,
    link: Sequence[str] = (),
    compiler: str = "gcc",
    cache_dir: Optional[Path] = None,
) -> Path:
    """Compile ``source`` into a shared library unless already cached.

    ``link`` holds the library arguments that follow the source on the
    command line.  The cache key hashes the source, the flags, the link
    arguments, the numpy version (kernels include numpy's headers) and the
    platform.  The first of :func:`cache_dirs` (or ``cache_dir`` alone)
    that holds the library or accepts a new file is used.  The library is
    written to a temporary name and renamed into place, so concurrent
    builders (the process executor's workers) never load a half-written
    file.
    """
    tag = "|".join(
        (np.__version__, sys.platform, platform.machine(),
         sys.implementation.cache_tag, *FLAGS, *link)
    )
    digest = hashlib.sha256(source.read_bytes() + tag.encode()).hexdigest()[:16]
    name = f"{source.stem.lstrip('_')}-{digest}.so"
    directories = cache_dirs(source) if cache_dir is None else (cache_dir,)
    for directory in directories:
        target = directory / name
        if target.exists():
            return target
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if not os.access(directory, os.W_OK):
            continue
        partial = directory / f".{name}.{os.getpid()}"
        command = [
            compiler, *FLAGS,
            "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
            str(source), *link, "-o", str(partial),
        ]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            os.replace(partial, target)
        except subprocess.CalledProcessError as error:
            raise OSError(f"{compiler} failed: {error.stderr.strip()}") from error
        finally:
            partial.unlink(missing_ok=True)
        return target
    raise OSError(
        "no writable kernel cache among " + ", ".join(map(str, directories))
    )


def load_kernel(
    source: Path,
    load: Callable[[Path], K],
    fallback: K,
    link: Sequence[str] = (),
    compiler: str = "gcc",
    cache_dir: Optional[Path] = None,
) -> K:
    """``load`` of the built ``source``, or ``fallback`` with one warning."""
    try:
        return load(build(source, link, compiler, cache_dir))
    except (OSError, AttributeError) as error:
        warnings.warn(
            f"compiled kernel {source.name} unavailable ({error}); "
            "using the Python fallback",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
