"""``tests/differential.py --against``: a change to one message moves
exactly the inputs that reach it, and only their stderr."""

import shutil
from pathlib import Path

import legalc
from differential import CLI_MODES, load_tree, report_moved, tree_modes

SRC = Path(legalc.__file__).resolve().parent


def test_against_names_the_inputs_a_changed_message_reaches(tmp_path, corpus_dir, capsys):
    changed = tmp_path / "legalc"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    parser = changed / "parser.py"
    source = parser.read_text(encoding="utf-8")
    assert source.count('"expected the date after في"') == 1
    parser.write_text(source.replace('"expected the date after في"', '"expected a date after في"'),
                      encoding="utf-8")
    good = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8")
    reaches = good.replace("بعيدا في ١٣ آذار ٢٠١٨", "بعيدا في")
    docs = [good.encode("utf-8"), reaches.encode("utf-8")]
    labels = ["good", "reaches"]
    modes = tree_modes(legalc, docs)
    modes_changed = tree_modes(load_tree(changed, "legalc_changed"), docs)
    for name in (*CLI_MODES, "grammar-tokens"):
        assert report_moved(name, labels, modes, modes) == 0
    capsys.readouterr()
    for name in CLI_MODES:
        assert report_moved(name, labels, modes_changed, modes) == 1, name
    assert report_moved("grammar-tokens", labels, modes_changed, modes) == 0
    out = capsys.readouterr().out
    assert out.count("  input 1 (reaches): stderr moved\n") == len(CLI_MODES)
    assert out.count("      A: error: expected a date after في at <stdin>:17:1\n") == len(CLI_MODES)
    assert out.count("      B: error: expected the date after في at <stdin>:17:1\n") == len(CLI_MODES)
    assert "inputs differ (stderr 1)\n" in out
