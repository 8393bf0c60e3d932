"""The package's public surface is the one README's Library section documents."""

import re
from pathlib import Path

import swimsim

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
LIBRARY = README.split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) < 1.0
    assert (tmp_path / "contacts.csv").exists()
    assert (tmp_path / "metrics.json").exists()


def test_every_exported_name_resolves():
    for name in swimsim.__all__:
        assert getattr(swimsim, name, None) is not None, name


def test_every_exported_name_is_documented():
    documented = set(re.findall(r"`(\w+)`", LIBRARY))
    assert set(swimsim.__all__) <= documented, set(swimsim.__all__) - documented
