import pytest

from gearlab import spectral


@pytest.fixture(autouse=True)
def cold_spectral_memo():
    """Every test starts with an empty scan memo, so its scans run cold."""
    spectral._memo_entry.cache_clear()
