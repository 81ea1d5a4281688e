"""The package's public surface and the README's library example."""

from __future__ import annotations

import re
import sys
from pathlib import Path
from types import ModuleType

import nstree

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_exactly_the_public_names():
    ns: dict[str, object] = {}
    exec("from nstree import *", ns)
    del ns["__builtins__"]
    assert len(nstree.__all__) == len(set(nstree.__all__))
    assert ns.keys() == set(nstree.__all__)
    layers = [m for m in vars(nstree).values() if isinstance(m, ModuleType)]
    for name, obj in ns.items():
        assert not name.startswith("_")
        assert not isinstance(obj, ModuleType), name
        if hasattr(obj, "__module__"):
            # a class or function: its home is the layer that defines it
            assert obj.__module__.startswith("nstree.")
            assert obj.__name__ == name
            assert getattr(sys.modules[obj.__module__], name) is obj
        else:
            # a constant: some layer binds it under the same name
            assert any(vars(m).get(name) is obj for m in layers), name


def test_readme_library_example_runs_and_says_what_it_returns():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    ns: dict[str, object] = {}
    exec(block, ns)
    stated = {
        "trace.status": "spanning",
        "trace.tree.parent_map": {2: 1, 3: 2, 4: 3},
        "kappa(g, 1, 3)": 2,
    }
    for expr, value in stated.items():
        # the line that shows expr states value first in its comment
        (line,) = [x for x in block.splitlines() if x.split("#")[0].strip() == expr]
        assert line.split("#", 1)[1].strip().startswith(repr(value).replace("'", '"'))
        assert eval(expr, ns) == value
