"""The README's examples run as written: every ``ptsep`` line of its shell
blocks goes through ``cli.main``, in order, in one fresh directory, and
exits with the code its trailing ``# exit N`` comment states."""
import pathlib
import re
import shlex

from ptsep.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
STATED = re.compile(r"#\s*exit\s+(\d+)")


def readme_commands(text: str):
    """(argv, stated exit code) of each ``ptsep`` line in the ``sh`` blocks;
    a line without a stated code gets None."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            if not line.startswith("ptsep "):
                continue
            stated = STATED.search(line)
            out.append((shlex.split(line.partition("#")[0])[1:],
                        int(stated.group(1)) if stated else None))
    return out


def test_readme_examples_exit_as_stated(tmp_path, monkeypatch, capsys):
    commands = readme_commands(README.read_text(encoding="utf-8"))
    verbs = {argv[0] for argv, _ in commands}
    assert verbs >= {"generate", "analyze", "pt-check", "verify-tower", "prefix-analyze",
                     "reduce", "bench", "oracle"}
    assert {code for _, code in commands} == {0, 1, 2}
    monkeypatch.chdir(tmp_path)
    for argv, stated in commands:
        assert stated is not None, f"no stated exit code: ptsep {shlex.join(argv)}"
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown verb or option
            code = exc.code
        capsys.readouterr()
        assert code == stated, f"ptsep {shlex.join(argv)} exited {code}, stated {stated}"
