"""README's Library example must run against the package as it is, so
that a renamed or removed API cannot leave it stale."""
import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def test_readme_library_block_runs():
    text = open(README, encoding="utf-8").read()
    library = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().startswith("(-1.3827361451255")
