#!/usr/bin/env python
"""Run the native kernel loops' tests under AddressSanitizer and UBSan.

Usage (from the repository root)::

    python scripts/sanitize_native.py [extra pytest arguments]

Builds ``src/repro/_native.c`` with ``-O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=undefined`` into a temporary directory, then runs the
test files that drive every native loop in a fresh interpreter that has
gcc's ``libasan.so`` and ``libubsan.so`` preloaded (``ASAN_OPTIONS=
detect_leaks=0``: the interpreter itself leaks by design) and that loads
the instrumented library instead of the cached build.  An out-of-bounds
access or undefined behaviour in a loop aborts the run; the exit status is
pytest's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "repro", "_native.c")
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
         "-shared", "-fPIC")
TESTS = (
    "tests/scheduler/test_native_expand.py",
    "tests/verification/test_kernel.py",
    "tests/verification/test_graph_golden.py",
    "tests/verification/test_fused_level.py",
)


def runtime(name: str) -> str:
    """Path of one of the compiler's sanitizer runtimes."""
    path = subprocess.run(
        ["cc", f"-print-file-name={name}"], check=True, capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(path):
        sys.exit(f"`cc` has no {name}; the sanitizer run needs gcc's runtimes")
    return path


def run_tests(library: str, pytest_args) -> int:
    """In the preloaded child: install the instrumented library, run pytest."""
    import pytest

    from repro import _native

    _native.load(library)
    return pytest.main([*TESTS, *pytest_args])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return run_tests(sys.argv[2], sys.argv[3:])
    with tempfile.TemporaryDirectory(prefix="native-sanitize-") as directory:
        library = os.path.join(directory, "_native-sanitized.so")
        subprocess.run(["cc", *FLAGS, "-o", library, SOURCE], check=True)
        env = dict(
            os.environ,
            LD_PRELOAD=f"{runtime('libasan.so')} {runtime('libubsan.so')}",
            ASAN_OPTIONS="detect_leaks=0",
            PYTHONPATH=os.pathsep.join(
                filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))
            ),
        )
        # --capture=sys leaves file descriptor 2 alone, so a sanitizer
        # report reaches the terminal before the abort.
        command = [sys.executable, os.path.abspath(__file__), "--child", library,
                   "-q", "-p", "no:cacheprovider", "--capture=sys", *sys.argv[1:]]
        return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
