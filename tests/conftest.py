"""Hypothesis settings for the whole suite: derandomized and without an
example database, so every run draws the same examples; no deadline, and a
bounded number of examples. Hypothesis also caches what it learns from the
source under its storage directory, .hypothesis/ in the working directory by
default; the suite moves that to a temporary directory removed at exit, so a
test run writes nothing into the checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("stylemetric", derandomize=True, database=None,
                          deadline=None, max_examples=100)
settings.load_profile("stylemetric")


def pytest_configure(config):
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
