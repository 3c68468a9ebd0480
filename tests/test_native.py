"""The shared native-build path of the compiled kernels (:mod:`repro.native`)."""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import LOADED_KERNEL, LOADED_SOLVE_KERNEL

import repro
from repro import native
from repro.network import solver

PACKAGE = Path(repro.__file__).parent

needs_compiler = pytest.mark.skipif(
    LOADED_KERNEL.name != "c" or LOADED_SOLVE_KERNEL.name != "c",
    reason="compiled kernels unavailable on this platform",
)


@needs_compiler
def test_flags_are_part_of_the_cache_key(tmp_path, monkeypatch):
    built = native.build(solver.SOURCE, cache_dir=tmp_path)
    assert "-ffp-contract=off" in native.FLAGS
    monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-DUNUSED"))
    rebuilt = native.build(solver.SOURCE, cache_dir=tmp_path)
    assert rebuilt != built
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([built.name, rebuilt.name])


@needs_compiler
def test_read_only_install_builds_into_the_user_cache(tmp_path):
    """Both kernels load compiled when the package cannot hold its cache."""
    source = tmp_path / "src" / "repro"
    shutil.copytree(
        PACKAGE, source, ignore=shutil.ignore_patterns("_kernel_cache", "__pycache__")
    )
    read_only = []
    for package in (source / "bittorrent", source / "network"):
        # Root ignores permission bits, so the cache path is also taken by
        # a read-only file: creating the cache directory fails for anyone.
        blocker = package / "_kernel_cache"
        blocker.write_text("")
        blocker.chmod(stat.S_IRUSR)
        package.chmod(stat.S_IRUSR | stat.S_IXUSR)
        read_only.append(package)
    user_cache = tmp_path / "xdg"
    env = dict(os.environ, PYTHONPATH=str(source.parent), XDG_CACHE_HOME=str(user_cache))
    try:
        loaded = subprocess.run(
            [
                sys.executable, "-B", "-W", "error::RuntimeWarning", "-c",
                "from repro.bittorrent import conversion; "
                "from repro.network import solver; "
                "print(conversion.KERNEL.name, solver.KERNEL.name)",
            ],
            env=env, capture_output=True, text=True, check=True,
        )
    finally:
        for package in read_only:
            package.chmod(stat.S_IRWXU)
    assert loaded.stdout.split() == ["c", "c"]
    built = sorted(p.name.split("-")[0] for p in (user_cache / "repro").glob("*.so"))
    assert built == ["conversion", "maxmin"]
