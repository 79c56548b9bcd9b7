"""The package's public names and its README example."""

import inspect
import re
from pathlib import Path

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


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    example = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    assert "build_cycle_general(" in example and "verify_cycle(" in example
    exec(compile(example, "README.md", "exec"), {})
