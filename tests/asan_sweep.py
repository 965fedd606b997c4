"""A pytest plugin that runs the compiled Gibbs sweep built with
AddressSanitizer, so that a read or write outside the work buffer or a
count array ends the run with a heap-buffer-overflow report.

gibbs_sweep sizes the work buffer and _sweep.c indexes it, each from the
same layout; this build checks that they agree. The ASan runtime must be
loaded before the interpreter:

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src:tests python -m pytest --capture=sys -p asan_sweep tests/test_model.py

The plugin builds _sweep.c with model._CC_FLAGS plus the sanitizer flags
into a temporary directory, through model._load_sweep_kernel, and sets it
as model._sweep_kernel for the whole run. --capture=sys leaves file
descriptor 2 to the report, which ends the process: pytest's default
capture would swallow it.
"""

import shutil
import tempfile

import pytest

from segsum import model

ASAN_FLAGS = ("-fsanitize=address", "-fno-omit-frame-pointer")


def pytest_configure(config):
    flags, cache = model._CC_FLAGS, model._SWEEP_CACHE
    config._asan_sweep_cache = model._SWEEP_CACHE = tempfile.mkdtemp(prefix="asan-sweep-")
    model._CC_FLAGS = flags + ASAN_FLAGS
    try:
        kernel, cause = model._load_sweep_kernel()
    finally:
        model._CC_FLAGS, model._SWEEP_CACHE = flags, cache
    if kernel is None:
        raise pytest.UsageError(f"the AddressSanitizer build of the Gibbs sweep did not build "
                                f"or load (is libasan.so in LD_PRELOAD?): {cause}")
    model._sweep_kernel = kernel


def pytest_report_header(config):
    return f"compiled Gibbs sweep: AddressSanitizer build in {config._asan_sweep_cache}"


def pytest_unconfigure(config):
    shutil.rmtree(config._asan_sweep_cache, ignore_errors=True)
