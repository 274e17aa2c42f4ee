import re
from pathlib import Path

import rabideco

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    for name in rabideco.__all__:
        assert getattr(rabideco, name) is not None


def test_version():
    assert rabideco.__version__


def test_readme_lists_the_public_names():
    # one "- `name`: ..." line per name in the README's Library API section
    section = README.read_text(encoding="utf-8").split("## Library API\n", 1)[1].split("\n## ")[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(rabideco.__all__)
