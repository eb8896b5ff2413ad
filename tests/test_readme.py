import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["E"] > ns["cp"].M
    assert ns["report"].E == ns["E"]
