"""Shared fixtures: the worked example is expensive to build, so load it once.

Setting HYPOTHESIS_PROFILE=ci loads the `ci` hypothesis profile, which
draws 500 examples where a test sets no budget of its own; without it,
hypothesis keeps its default budget.  Tests with an explicit
`@settings(max_examples=...)` keep theirs under both.
"""

import os

import pytest
from hypothesis import settings

from contactconics import load_worked_example

settings.register_profile("ci", max_examples=500)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def example():
    return load_worked_example()


@pytest.fixture(scope="session")
def model(example):
    return example.model
