"""The README's Library example runs as written."""

import re
import shutil
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_on_a_corpus_document(tmp_path, corpus_dir, monkeypatch, capsys):
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL)
    shutil.copy(corpus_dir / "decree-25.txt", tmp_path / "document.txt")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "مرسوم\n"
    assert namespace["xml_bytes"] == (corpus_dir / "golden" / "decree-25.xml").read_bytes()
