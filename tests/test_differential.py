"""``tests/differential.py --against``: a change to one message moves
exactly the inputs that reach it, and only their stderr; a change that
rejects an input is counted by the direction its exit code moved.  And the
descent verdicts it compares are each tree's own."""

import shutil
from pathlib import Path

import legalc
from descent import rejects_all_extensions
from differential import CLI_MODES, load_tree, report_moved, tree_modes
from legalc.tokens import TokenKind

SRC = Path(legalc.__file__).resolve().parent


def copied_package(tmp_path) -> Path:
    copy = tmp_path / "legalc"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def changed_tree(tmp_path, module: str, old: str, new: str):
    """A copy of this checkout's package with the one ``old`` in ``module``
    replaced by ``new``, loaded as a second tree under a name of its own."""
    changed = copied_package(tmp_path)
    path = changed / module
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    path.write_text(source.replace(old, new), encoding="utf-8")
    return load_tree(changed, f"legalc_{tmp_path.name}")


def moved_report(changed, docs: list[str], labels: list[str], capsys) -> str:
    """What ``report_moved`` prints for each CLI mode, with the changed tree
    as A; each mode must move exactly one input."""
    data = [doc.encode("utf-8") for doc in docs]
    modes = tree_modes(legalc, data)
    modes_changed = tree_modes(changed, data)
    for name in CLI_MODES:
        assert report_moved(name, labels, modes, modes) == 0
    capsys.readouterr()
    for name in CLI_MODES:
        assert report_moved(name, labels, modes_changed, modes) == 1, name
    return capsys.readouterr().out


def test_against_names_the_inputs_a_changed_message_reaches(tmp_path, corpus_dir, capsys):
    message = '"unexpected trailing input after the signature block"'
    changed = changed_tree(tmp_path, "parser.py", message,
                           '"unexpected input after the signature block"')
    good = (corpus_dir / "decree-25.txt").read_text(encoding="utf-8")
    reaches = good.replace("الامضاء: سعد الدين الحريري", "الامضاء: سعد الدين الحريري.")
    out = moved_report(changed, [good, reaches], ["good", "reaches"], capsys)
    assert out.count("  input 1 (reaches): stderr moved\n") == len(CLI_MODES)
    assert out.count("      A: error: unexpected input after the signature block at <stdin>:20:4\n"
                     ) == len(CLI_MODES)
    assert out.count("      B: error: unexpected trailing input after the signature block at "
                     "<stdin>:20:4\n") == len(CLI_MODES)
    assert "inputs differ (stderr 1)\n" in out


def test_against_counts_exit_code_moves_by_direction(tmp_path, corpus_dir, capsys):
    # Without the قرار spelling the changed tree (A) rejects the decision,
    # which this checkout (B) accepts.
    changed = changed_tree(tmp_path, "scanner.py", '    ("قرار", TokenKind.TYPE),\n', "")
    docs = [(corpus_dir / name).read_text(encoding="utf-8")
            for name in ("decree-25.txt", "decision-104.txt")]
    out = moved_report(changed, docs, ["decree", "decision"], capsys)
    assert out.count("  input 1 (decision): exit code, stdout, stderr moved\n") == len(CLI_MODES)
    for name in CLI_MODES:
        assert (f"{name:15} 1 of 2 inputs differ (exit code 1: 1→0 1, stdout 1, stderr 1)\n"
                in out), out


def test_rejects_all_extensions_asks_the_tree_it_is_given(tmp_path):
    # An unchanged copy loaded under another name has TokenKind members of
    # its own, so its verdicts are this checkout's only when the EOF after
    # the prefix is one of them too.
    copy = load_tree(copied_package(tmp_path), f"legalc_{tmp_path.name}")
    K = TokenKind
    determined = [[K.RAQM], [K.TYPE, K.TYPE], [K.TYPE, K.RAQM, K.NUM, K.INNA]]
    open_ended = [[], [K.TYPE], [K.TYPE, K.RAQM, K.NUM, K.STRING, K.INNA]]
    for kinds in determined + open_ended:
        want = kinds in determined
        assert rejects_all_extensions(kinds) is want, kinds
        tree_kinds = [copy.tokens.TokenKind[k.name] for k in kinds]
        assert rejects_all_extensions(tree_kinds, copy.parser) is want, kinds
