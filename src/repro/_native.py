"""Build and load the native kernel loops of ``_native.c``.

The level compiler of :class:`~repro.verification.kernel.CompiledStateGraph`
(``nk_level``), the frontier expansion of
:class:`~repro.scheduler.packed.PackedSlotSystem` and the hash and probe
loops of :class:`~repro.verification.kernel.PackedStateTable` are one C
source, compiled with the system C compiler ``cc`` when a kernel first
needs it (never at import) and loaded through :mod:`ctypes`.  The library
is cached as ``__pycache__/_native-<sha256>.so`` next to the source (the
digest covers the source, the flags and the platform), or in the per-user
directory ``repro-native-<uid>`` of the system temp dir when
``__pycache__`` is not writable.  A cached library is loaded only when this
user or root owns it and no one else may write it, so no other local user
can plant one.  The compiler writes a temporary file that is renamed into
place, so processes racing on the first build never load a partial one; a
successful build then removes this user's older builds from the directory.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from typing import Optional

from .exceptions import ReproError

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
FLAGS = ("-O2", "-shared", "-fPIC")
# Result type, then argument types: p pointer, i int64, u uint64, - void.
_SIGNATURES = {
    "nk_block_rows": "i pipppppip",
    "nk_expand": "- pipppppp",
    "nk_hash": "- piip",
    "nk_probe": "i pupppiiipppp",
    "nk_commit": "i pppippiiipi",
    "nk_rehash": "- pupi",
    "nk_level": "i pipppppupiiippppp",
}
_TYPES = {"p": ctypes.c_void_p, "i": ctypes.c_int64, "u": ctypes.c_uint64, "-": None}
_BUILD_NAME = re.compile(r"_native-[0-9a-f]{16}\.so")
_library: Optional[ctypes.CDLL] = None


class NativeBuildError(ReproError):
    """The native kernel loops could not be compiled."""


def library_name(source: bytes) -> str:
    """Cache file name of the library built from ``source`` with ``FLAGS``
    for this machine, so hosts sharing a checkout never load each other's."""
    key = " ".join((*FLAGS, sys.platform, platform.machine())).encode()
    return f"_native-{hashlib.sha256(source + key).hexdigest()[:16]}.so"


def _trusted(path: str) -> bool:
    """Whether ``path`` is a file of this user (or root) that no one else
    may write: only then is loading it no more than running our own code."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISREG(info.st_mode)
        and info.st_uid in (os.getuid(), 0)
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _prune(directory: str, keep: str) -> None:
    """Remove this user's other builds from ``directory``: every edit of the
    source leaves the previous library behind under another digest."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        try:
            if (
                name != keep
                and _BUILD_NAME.fullmatch(name)
                and os.lstat(path).st_uid == os.getuid()
            ):
                os.unlink(path)
        except OSError:
            pass  # raced with another process's prune, or not ours to remove


def _private_temp_dir() -> str:
    """This user's fallback cache directory in the system temp dir."""
    directory = os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        info = os.lstat(directory)
    except OSError as error:
        raise NativeBuildError(f"no cache directory for the native library: {error}")
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o077:
        raise NativeBuildError(f"{directory} is not a directory private to this user")
    return directory


def _build_in(directory: str, name: str, source_path: str) -> Optional[str]:
    """Path of the library in ``directory``, compiled unless a trusted copy
    is there; ``None`` when ``directory`` cannot be written."""
    path = os.path.join(directory, name)
    if _trusted(path):
        return path
    compiler = shutil.which("cc")
    if compiler is None:
        raise NativeBuildError(
            "the kernel loops in repro/_native.c need a C compiler, and `cc` "
            "is not on PATH; install one (gcc or clang) that provides `cc`"
        )
    try:
        os.makedirs(directory, exist_ok=True)
        handle, temporary = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=directory)
    except OSError:
        return None
    os.close(handle)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", temporary, source_path], capture_output=True, text=True
        )
        if done.returncode:
            raise NativeBuildError(f"`cc` failed on {source_path}:\n{done.stderr}")
        os.chmod(temporary, 0o755)  # mkstemp made it private to this user
        os.replace(temporary, path)
        _prune(directory, name)
        return path
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def build(source_path: str = SOURCE, cache_dir: Optional[str] = None) -> str:
    """Path of the library, compiled unless ``cache_dir`` (default: the
    ``__pycache__`` next to the source) holds it.  Only when ``cache_dir``
    cannot be written is the per-user temp directory used instead."""
    with open(source_path, "rb") as handle:
        name = library_name(handle.read())
    directory = cache_dir or os.path.join(os.path.dirname(source_path), "__pycache__")
    path = _build_in(directory, name, source_path)
    if path is None:
        path = _build_in(_private_temp_dir(), name, source_path)
    if path is None:
        raise NativeBuildError(f"no writable directory for the native library: {directory}")
    return path


def load(path: Optional[str] = None) -> ctypes.CDLL:
    """The native library, built and loaded on the first call; ``path``
    loads that build instead (an instrumented one, say) for the rest of
    the process."""
    global _library
    if _library is None or path is not None:
        library = ctypes.CDLL(path or build())
        for name, signature in _SIGNATURES.items():
            function = getattr(library, name)
            function.restype = _TYPES[signature[0]]
            function.argtypes = [_TYPES[code] for code in signature[2:]]
        _library = library
    return _library
