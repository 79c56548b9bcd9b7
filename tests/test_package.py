"""The package's public names."""

import inspect

import redcycle


def test_all_lists_exactly_the_public_names_the_package_binds():
    # A name left in __all__ after its function is gone breaks only a star
    # import; a name bound but not listed is missing from it.
    for name in redcycle.__all__:
        getattr(redcycle, name)
    bound = {
        name for name, value in vars(redcycle).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(redcycle.__all__) == sorted(bound)
