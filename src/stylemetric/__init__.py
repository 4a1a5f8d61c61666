"""Learned visual-style distances over item feature vectors.

The package trains low-rank Mahalanobis metrics (optionally personalized with
per-user weights) on relationship graphs between items, evaluates them as link
predictors, and builds style-space tooling on the learned embedding:
clustering, graph navigation, recommendation, and outfit scoring.

The names below are shared by the library and the command line. They live
here, with no numpy import, so that the CLI can build its parser and catch
these errors without loading any module a command does not run.
"""

__version__ = "0.1.0"

FEATURE_NORMS = ("none", "l2_unit")  # catalog.normalize_rows kinds
MODES = ("axis_aligned", "cross_feature", "two_population_users")  # synthetic.generate


class DataError(Exception):
    """A file or in-memory structure violates the catalog contracts."""


class TrainingError(Exception):
    """Optimization failed in a way retrying with the same inputs will not fix."""
