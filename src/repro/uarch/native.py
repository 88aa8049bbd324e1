"""Build and load the compiled cache replay walk (``replay.c``).

The library is compiled on first use -- never at import -- with the
system C compiler (:data:`COMPILE`) into this user's cache directory
(:func:`cache_dir`), named by a hash of the source and the compile
command, so every process and every later run of the user share one
build.  A build writes to a private temporary name and moves it into
place with ``os.replace``, so a concurrent process only ever sees a
complete file.  The file ends with the SHA-256 of the bytes before it
(trailing bytes are ignored by the dynamic loader), so a truncated or
corrupted cached library is rebuilt instead of loaded.

That digest proves the file is whole, not who wrote it.  So nothing is
loaded from a directory or file that another user owns or can write to:
then the library is built into a fresh private temporary directory for
this process instead.

When no compiler is found, or the build or the load fails,
:func:`replay_library` warns once and returns ``None``; the kernel then
replays through the reference :class:`~repro.uarch.cache.CacheHierarchy`.
Whether the library builds is the only thing that selects the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

#: The walk's C source, shipped as package data.
SOURCE = Path(__file__).with_name("replay.c")

#: Compiler invocation; ``-o <library> <source>`` is appended.
COMPILE = ("cc", "-O2", "-shared", "-fPIC")

_DIGEST_BYTES = hashlib.sha256().digest_size

_UNLOADED = object()
_library: object = _UNLOADED


def cache_dir() -> Path:
    """Where this user's built libraries live (shared by their
    processes)."""
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def library_path(directory: Path) -> Path:
    """The cached library for the current source and compile command."""
    key = hashlib.sha256(SOURCE.read_bytes() + repr(COMPILE).encode())
    return directory / f"replay-{key.hexdigest()[:16]}.so"


def _private(path: Path, kind) -> bool:
    """Whether ``path`` itself (a symlink is not followed) is of ``kind``
    (``stat.S_ISDIR`` / ``stat.S_ISREG``), belongs to this user and is
    writable by no one else."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (kind(info.st_mode) and info.st_uid == os.getuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _intact(path: Path) -> bool:
    """Whether ``path`` is a complete build: its body hashes to its
    trailing digest."""
    try:
        blob = path.read_bytes()
    except OSError:
        return False
    body, digest = blob[:-_DIGEST_BYTES], blob[-_DIGEST_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == digest


def _build(path: Path) -> None:
    """Compile to a private temporary file, append the digest, and move
    it into place atomically."""
    fd, scratch = tempfile.mkstemp(prefix=".replay-", suffix=".so",
                                   dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*COMPILE, "-o", scratch, str(SOURCE)], check=True,
                       capture_output=True, timeout=120)
        body = Path(scratch).read_bytes()
        with open(scratch, "wb") as handle:
            handle.write(body + hashlib.sha256(body).digest())
        os.replace(scratch, path)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def load() -> ctypes.CDLL:
    """Load the replay library from :func:`cache_dir`, building it first
    when missing, damaged or not private to this user; when the directory
    itself is not (another user made it, or anyone can write to it),
    build into a private temporary directory instead.  Raises
    ``OSError`` / ``subprocess.SubprocessError`` on failure."""
    directory = cache_dir()
    try:
        directory.mkdir(mode=0o700)
    except OSError:
        pass  # already there (whoever made it), or not creatable
    if not _private(directory, stat.S_ISDIR):
        with tempfile.TemporaryDirectory(prefix="repro-native-") as private:
            path = library_path(Path(private))
            _build(path)
            # The loaded mapping outlives the file.
            return _bind(ctypes.CDLL(str(path)))
    path = library_path(directory)
    if not (_private(path, stat.S_ISREG) and _intact(path)):
        _build(path)
    return _bind(ctypes.CDLL(str(path)))


def _bind(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the ``replay`` entry point's signature."""
    i8, i32, i64 = (
        np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
        for dtype in (np.int8, np.int32, np.int64)
    )
    library.replay.restype = None
    library.replay.argtypes = [
        i64, i32, i64,                      # warm tags, counts, geometry
        i8, i64, i64,                       # op codes, PCs, mem addresses
        ctypes.c_int64, ctypes.c_int64,     # ops, warmup ops
        ctypes.c_int64, ctypes.c_int64,     # block uops, prefetch degree
        ctypes.c_int8, ctypes.c_int8,       # load and store op codes
        i8, i8,                             # fetch and memory level codes
    ]
    return library


def replay_library() -> Optional[ctypes.CDLL]:
    """The process's replay library, loaded on first call; ``None``
    (after one warning) when it cannot be built or loaded."""
    global _library
    if _library is _UNLOADED:
        try:
            _library = load()
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            warnings.warn(
                f"native cache replay unavailable ({exc}); replaying "
                "through the reference cache hierarchy",
                RuntimeWarning,
                stacklevel=2,
            )
            _library = None
    return _library  # type: ignore[return-value]


__all__ = ["COMPILE", "SOURCE", "cache_dir", "library_path", "load",
           "replay_library"]
