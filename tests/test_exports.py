"""The package's export list names exactly its public attributes."""

import types

import contactconics


def test_all_names_exactly_the_public_non_module_attributes():
    # A name left in __all__ after its object is deleted breaks only
    # `from contactconics import *`; a public name left out is not exported.
    public = {
        name
        for name, value in vars(contactconics).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(contactconics.__all__) == len(set(contactconics.__all__))
    assert set(contactconics.__all__) == public
