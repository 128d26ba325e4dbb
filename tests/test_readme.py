"""README's Library example and CLI commands must run against the package
as it is, so that a renamed or removed API, flag or subcommand cannot
leave them stale."""
import contextlib
import io
import os
import re
import shlex

from pcfzeros import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_readme_library_block_runs():
    text = open(README, encoding="utf-8").read()
    library = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().startswith("(-1.3827361451255")


def test_readme_cli_block_runs(tmp_path, capsys):
    # each command of the CLI block, its continuation lines joined and its
    # comment dropped, exits 0; phase-grid's --out goes under tmp_path
    text = open(README, encoding="utf-8").read()
    cli_section = text.split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", cli_section, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 5
    for line in commands:
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[0] == "pcfzeros"
        argv = argv[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, line
        capsys.readouterr()
