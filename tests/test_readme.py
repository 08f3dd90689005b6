"""README's Python examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order(capsys):
    # one namespace: a later block reads names an earlier one defines
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out.startswith("verification: PASS\n")
    assert np.allclose(namespace["outcomes"].probabilities, [1 / 2, 1 / 6, 1 / 6, 1 / 6])
