import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the capacity example writes cloud.csv
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert (tmp_path / "cloud.csv").is_file()
