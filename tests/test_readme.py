"""README's Library example runs as printed, so it cannot go stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", library, re.S).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("['s_role(A)', 'm_role(A)', 'q_role(A)', 's_role(A)'")
