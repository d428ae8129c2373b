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


def test_layout_table_names_exactly_the_package_modules():
    layout = README.read_text().split("\n## Layout\n", 1)[1].split("\n#", 1)[0]
    named = re.findall(r"^\| `(powerfeas[.\w]*)` ", layout, flags=re.MULTILINE)
    package = README.parent / "src" / "powerfeas"
    modules = {"powerfeas" if path.stem == "__init__" else f"powerfeas.{path.stem}"
               for path in package.glob("*.py")}
    assert sorted(named) == sorted(modules)
