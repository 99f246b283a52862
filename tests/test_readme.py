import doctest
from pathlib import Path


def test_readme_examples():
    # the "Library in one minute" session in README.md, run as a doctest
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
