import pytest

from nydmap import kernel, spectral

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_log():
    """Collector for one-line acceptance verdicts, echoed after the run."""
    return _ACCEPTANCE_LINES.append


@pytest.fixture
def kernel_entries(monkeypatch):
    """Entries of every kernel block evaluated from here on, in call order."""
    entries = []
    kernel_block = kernel.gaussian_kernel_block

    def counting_block(Xa, Xb, sigma, **kwargs):
        entries.append(len(Xa) * len(Xb))
        return kernel_block(Xa, Xb, sigma, **kwargs)

    monkeypatch.setattr(kernel, "gaussian_kernel_block", counting_block)
    monkeypatch.setattr(spectral, "gaussian_kernel_block", counting_block)
    return entries


@pytest.fixture
def block_rows(monkeypatch):
    """``block_rows(rows, width)`` makes blocks against ``width`` points hold
    ``rows`` rows, by setting kernel.BLOCK_ENTRIES to rows * width for the
    rest of the test."""

    def set_rows(rows, width):
        monkeypatch.setattr(kernel, "BLOCK_ENTRIES", rows * width)

    return set_rows


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
