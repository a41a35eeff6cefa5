"""Run the examples of README.md, read from the file itself.

    python scripts/readme_examples.py

Run from a checkout; the program is imported from its ``src`` directory and
no install is needed. The commands of the fenced block under "## CLI" run
one after another in a temporary directory, as ``python -m stratalloc.cli``
in place of the ``stratalloc`` console script: each must exit 0, and
``verify`` must print ``certificate: valid``. Each ``python`` block under
"## Library use" runs in the same directory, and every ``print(...)`` line
in it must carry a comment that shows what it prints. Exits 1 when any
example fails.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def section(readme: str, heading: str) -> str:
    """The text under a level-2 heading, up to the next one."""
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def run(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def cli_failures(commands: str, cwd: str) -> list[str]:
    failures = []
    for line in commands.splitlines():
        argv = shlex.split(line)
        if argv[0] != "stratalloc":
            failures.append(f"{line}: not a stratalloc command")
            continue
        proc = run([sys.executable, "-m", "stratalloc.cli", *argv[1:]], cwd)
        if proc.returncode != 0:
            failures.append(f"{line}: exit {proc.returncode}\n{proc.stderr}")
        elif argv[1] == "verify" and "certificate: valid" not in proc.stdout:
            failures.append(f"{line}: no 'certificate: valid' in\n{proc.stdout}")
        print(f"ran: {line}")
    return failures


def snippet_failures(code: str, cwd: str) -> list[str]:
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [line.partition("#")[2].strip() for line in prints]
    if not all(expected):
        return [f"a print line without the comment showing its output:\n{code}"]
    proc = run([sys.executable, "-c", code], cwd)
    if proc.returncode != 0:
        return [f"snippet exits {proc.returncode}:\n{proc.stderr}"]
    printed = proc.stdout.splitlines()
    print(f"ran a snippet of {len(code.splitlines())} lines")
    if printed != expected:
        return [f"snippet prints {printed}, its comments show {expected}"]
    return []


def main() -> int:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = re.findall(r"```\n(.*?)```", section(readme, "CLI"), re.S)[0]
    snippets = re.findall(r"```python\n(.*?)```", section(readme, "Library use"), re.S)
    with tempfile.TemporaryDirectory() as work:
        failures = cli_failures(commands, work)
        for code in snippets:
            failures += snippet_failures(code, work)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
