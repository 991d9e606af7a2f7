"""Session set-up shared by the test modules."""

import pytest
from hypothesis import find, settings
from hypothesis import strategies as st


@pytest.fixture(scope="session", autouse=True)
def unicode_charmap():
    """Build hypothesis's Unicode charmap once, before any test draws text.

    Without `.hypothesis/unicode_data` the first `st.text` draw of a session
    builds the charmap, about 2.5 s, and that draw's test then fails the
    too-slow health check.  Drawing one string here moves that cost out of
    every test; the health check and the strategies stay as they are.
    """
    find(st.text(min_size=1), lambda s: True, settings=settings(database=None))
