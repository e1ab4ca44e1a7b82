import pytest

from mumbounds import mums


@pytest.fixture(autouse=True)
def _cold_family_memo():
    """Start and end every test with an empty Gell-Mann family memo, so that
    build counts and patched builders do not depend on test order."""
    mums._standard_blocks.cache_clear()
    yield
    mums._standard_blocks.cache_clear()


@pytest.fixture(scope="session")
def family():
    """The Gell-Mann MUM family at (d, t), from the library's memo."""
    return mums.standard_family


@pytest.fixture(scope="session")
def t_range_of():
    """The admissible t interval of the Gell-Mann basis at d, from the library's memo."""
    return mums.standard_t_range
