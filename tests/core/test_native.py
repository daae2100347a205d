"""The native kernel loader (:mod:`repro._native`): the C source compiles
once per content into a cached library, falls back to a per-user temp dir
only when the cache directory cannot be written, loads no library another
user could have planted, survives racing first builds, prunes this user's
older builds and names ``cc`` when no compiler is available.  Nothing is
built at import, and the ctypes signatures match the C definitions."""

from __future__ import annotations

import ctypes
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro import _native


@pytest.fixture
def source(tmp_path, monkeypatch):
    """A private copy of the C source, with a private temp dir."""
    private_tmp = tmp_path / "tmp"
    private_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private_tmp))
    path = tmp_path / "src" / "_native.c"
    path.parent.mkdir()
    shutil.copyfile(_native.SOURCE, path)
    return path


def _rehash_works(library_path: str) -> bool:
    """Load a built library and run one of its loops on a tiny input."""
    library = ctypes.CDLL(library_path)
    slots = np.full(8, -1, dtype=np.int32)
    hashes = np.array([3, 3], dtype=np.uint64)
    library.nk_rehash(
        ctypes.c_void_p(slots.ctypes.data), ctypes.c_uint64(7),
        ctypes.c_void_p(hashes.ctypes.data), ctypes.c_int64(2),
    )
    return slots.tolist() == [-1, -1, -1, 0, 1, -1, -1, -1]


def test_build_caches_by_content_and_a_hit_runs_no_compiler(source, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    path = _native.build(str(source), str(cache))
    assert os.path.dirname(path) == str(cache)
    assert os.path.basename(path) == _native.library_name(source.read_bytes())
    assert os.stat(path).st_mode & 0o444 == 0o444  # loadable by every user
    assert _rehash_works(path)

    def no_compiler(*args, **kwargs):
        raise AssertionError("a cache hit must not run the compiler")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert _native.build(str(source), str(cache)) == path


def test_changed_source_gets_a_new_cache_name(source, tmp_path):
    cache = tmp_path / "cache"
    first = _native.build(str(source), str(cache))
    source.write_text(source.read_text() + "\n/* edited */\n")
    second = _native.build(str(source), str(cache))
    assert second != first
    assert os.path.exists(second) and not os.path.exists(first)  # pruned


def _private_temp_dir() -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-native-{os.getuid()}")


def test_unwritable_cache_dir_falls_back_to_a_private_temp_dir(source, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache directory would go")
    path = _native.build(str(source), str(blocker / "__pycache__"))
    assert os.path.dirname(path) == _private_temp_dir()
    assert os.stat(_private_temp_dir()).st_mode & 0o777 == 0o700
    assert _rehash_works(path)


def test_a_library_planted_in_the_temp_dir_is_ignored(source, tmp_path):
    name = _native.library_name(source.read_bytes())
    os.makedirs(_private_temp_dir(), mode=0o700)
    for directory in (tempfile.gettempdir(), _private_temp_dir()):
        with open(os.path.join(directory, name), "w") as handle:
            handle.write("not a library")
    path = _native.build(str(source), str(tmp_path / "cache"))
    assert os.path.dirname(path) == str(tmp_path / "cache")
    assert _rehash_works(path)


def test_a_cached_library_others_may_write_is_rebuilt(source, tmp_path):
    cache = tmp_path / "cache"
    path = _native.build(str(source), str(cache))
    with open(path, "w") as handle:
        handle.write("not a library")
    os.chmod(path, 0o666)
    assert _native.build(str(source), str(cache)) == path
    assert os.stat(path).st_mode & 0o777 == 0o755
    assert _rehash_works(path)


@pytest.mark.skipif(os.getuid() != 0, reason="giving a file away needs root")
def test_a_cached_library_of_another_user_is_rebuilt(source, tmp_path):
    cache = tmp_path / "cache"
    path = _native.build(str(source), str(cache))
    os.chown(path, 4242, -1)
    assert _native.build(str(source), str(cache)) == path
    assert os.stat(path).st_uid == 0
    assert _rehash_works(path)


def test_a_shared_temp_fallback_dir_is_refused(source, tmp_path):
    os.makedirs(_private_temp_dir())
    os.chmod(_private_temp_dir(), 0o777)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache directory would go")
    with pytest.raises(_native.NativeBuildError, match="private"):
        _native.build(str(source), str(blocker / "__pycache__"))


def test_the_cache_name_depends_on_the_machine(monkeypatch):
    here = _native.library_name(b"int x;")
    monkeypatch.setattr(_native.platform, "machine", lambda: "some-other-arch")
    assert _native.library_name(b"int x;") != here


def test_racing_first_builds_both_load_a_complete_library(source, tmp_path):
    cache = tmp_path / "cache"
    code = (
        "import sys; sys.path.insert(0, {tests!r}); import test_native as t; "
        "from repro import _native; "
        "sys.exit(0 if t._rehash_works(_native.build({src!r}, {cache!r})) else 1)"
    ).format(tests=os.path.dirname(__file__), src=str(source), cache=str(cache))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    racers = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
    assert [racer.wait(timeout=120) for racer in racers] == [0, 0]
    assert [name for name in os.listdir(cache) if name.endswith(".tmp")] == []


def test_missing_compiler_error_names_cc(source, tmp_path, monkeypatch):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.raises(_native.NativeBuildError, match="`cc`"):
        _native.build(str(source), str(tmp_path / "cache"))


def test_importing_the_library_builds_nothing():
    code = (
        "import repro, repro.verification, repro.scheduler.packed, repro.service; "
        "from repro import _native; assert _native._library is None"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_a_build_prunes_this_users_older_builds(source, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    older = cache / "_native-0123456789abcdef.so"
    older.write_text("an older build")
    unrelated = cache / "_native-notes.so"
    unrelated.write_text("not a build of ours")
    path = _native.build(str(source), str(cache))
    assert sorted(os.listdir(cache)) == sorted([os.path.basename(path), unrelated.name])


@pytest.mark.skipif(os.getuid() != 0, reason="giving a file away needs root")
def test_a_build_keeps_another_users_builds(source, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    theirs = cache / "_native-0123456789abcdef.so"
    theirs.write_text("another user's build")
    os.chown(theirs, 4242, -1)
    _native.build(str(source), str(cache))
    assert theirs.exists()


_C_TYPES = {"int64_t": "i", "uint64_t": "u", "void": "-"}


def _c_signatures(text: str) -> dict:
    """Result and argument classes of every non-static ``nk_*`` definition
    in the C source, in the notation of ``_native._SIGNATURES``."""
    found = {}
    pattern = r"^(int64_t|void)\s+(nk_\w+)\(([^)]*)\)\s*\{"
    for result, name, params in re.findall(pattern, text, flags=re.MULTILINE):
        codes = []
        for param in params.split(","):
            param = " ".join(param.split())
            if "*" in param:
                codes.append("p")
            else:
                codes.append(_C_TYPES[param.replace("const ", "").split()[0]])
        found[name] = f"{_C_TYPES[result]} {''.join(codes)}"
    return found


def test_the_ctypes_signatures_match_the_c_definitions():
    with open(_native.SOURCE) as handle:
        defined = _c_signatures(handle.read())
    assert defined == _native._SIGNATURES


def test_the_signature_parser_sees_a_changed_argument():
    text = "int64_t nk_x(const uint64_t *a, int64_t b,\n             uint64_t c)\n{\n"
    assert _c_signatures(text) == {"nk_x": "i piu"}
    assert _c_signatures("static int64_t nk_y(int64_t a)\n{\n") == {}
