"""The README's Python examples run as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    """Every ```python block of README.md runs, in order, in one
    namespace; errors point at the README line."""
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text,
                              flags=re.S | re.M))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        # pad so that line numbers in a traceback are README lines
        line = text.count("\n", 0, block.start(1))
        code = "\n" * line + block.group(1)
        exec(compile(code, str(README), "exec"), namespace)
