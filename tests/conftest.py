"""Shared pytest configuration.

Tests marked with @pytest.mark.criterion(ident, title) get one summary
line each on the terminal, so a full run ends with a visible PASS/FAIL
verdict per gating property.
"""

import pytest

from tracksim import gp


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(ident, title): gating property reported as one PASS/FAIL line",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        ident = marker.args[0]
        title = marker.args[1] if len(marker.args) > 1 else ""
        report.user_properties.append(("criterion", (ident, title)))


def pytest_runtest_logreport(report):
    tagged = dict(report.user_properties).get("criterion")
    if tagged is None:
        return
    ident, title = tagged
    # the call phase carries the verdict; a broken setup also counts as FAIL
    if report.when == "call" or (report.when == "setup" and not report.passed):
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {ident} {verdict}: {title}", flush=True)


def blas_thread_counts():
    return [count.value for count, _ in gp._bundled_openblas()]


def wheel_openblas_count():
    """How many OpenBLAS libraries the numpy and scipy wheels bundle here:
    the lookup finds each once loaded, and scipy.linalg loads scipy's."""
    import scipy.linalg  # noqa: F401

    return len(gp._bundled_openblas())


@pytest.fixture
def two_blas_threads():
    """Set every bundled OpenBLAS to two threads for the test, then back.
    The raise goes through each library's own set_num_threads: that call
    grows the thread pool to the count, where a count written in place
    above the pool's size would leave a threaded call waiting on a thread
    never started. The restore writes each count in place, as
    gp._single_blas_thread does: the count it puts back never exceeds the
    pool, and the setter would restart a pool that a pooled fit inside the
    test stopped, leaving its fresh threads spinning beside later tests."""
    libs = gp._bundled_openblas()
    if not libs:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    before = blas_thread_counts()
    for _, put in libs:
        put(2)
    try:
        yield blas_thread_counts()
    finally:
        for (count, _), value in zip(libs, before):
            count.value = value
