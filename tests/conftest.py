"""Shared test settings.

Property tests run under one ``hypothesis`` profile: ``derandomize`` draws the
same examples on every run, and no example database is kept.  Hypothesis
still caches source constants and unicode tables; they go to a fixed
directory under the system temp dir (unless HYPOTHESIS_STORAGE_DIRECTORY
names another), so a test run writes no ``.hypothesis/`` into the checkout.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "divopt-hypothesis")
)
settings.register_profile("divopt", derandomize=True, database=None)
settings.load_profile("divopt")
