"""README.md's quick library session runs against the library as documented."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_quick_library_session_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) == 1
    printed = []
    exec(compile(blocks[0], str(README), "exec"), {"print": lambda *values: printed.extend(values)})
    # the jet's value and two of its derivatives
    assert len(printed) == 3 and all(math.isfinite(value) for value in printed)
