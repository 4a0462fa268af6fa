# Root conftest: puts the repository root on sys.path so the test suite
# can import the in-repo tooling package (`tools.analysis`) regardless
# of how pytest was invoked (`pytest` vs `python -m pytest`).


def pytest_configure(config):
    """Register the suite's custom markers (unknown marks warn)."""
    config.addinivalue_line(
        "markers", "slow: trains or certifies a full-size zoo network"
    )
