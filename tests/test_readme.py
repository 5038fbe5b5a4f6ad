"""The README's python blocks run, in order, as one session."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert {"forecasts", "ce_series", "shp_series", "tracked", "hedged", "f99", "comparator", "wps"} <= namespace.keys()
