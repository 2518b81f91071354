"""Run the CI workflow's steps on this checkout, without a GitHub runner.

Every ``run:`` body of ``.github/workflows/tests.yml`` except Install
runs under ``bash -eo pipefail`` from the repository root, as the
runner would run it, with three differences:

- ``coherence-speed`` is a shim for ``python -m coherence_speed.cli``,
  and ``src`` is on ``PYTHONPATH``, so nothing needs installing;
- every ``/tmp`` path in a body, and ``TMPDIR``, points into one
  temporary directory, removed afterwards;
- each step's exit code and wall time are printed, one line a step,
  and the last 20 lines of its output when it fails.

Usage::

    python tools/ci_local.py

The exit code is 0 when every step exited 0, else 1.  A job that
installs other package versions (the numpy-floor job) runs here
against the packages already installed, since its Install is skipped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = {"Install"}


def steps(text: str) -> list[tuple[str, str]]:
    """The (name, run body) of each step of the workflow that has a run: key, in order.

    Only the layout the workflow uses is read: a step starts at "- ",
    and "run: |" opens a block of the lines indented deeper than the key.
    """
    out, name, lines = [], None, text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        i += 1
        if stripped.startswith("- "):
            name = None
            stripped = stripped[2:]
        if stripped.startswith("name: "):
            name = stripped[len("name: "):]
        elif stripped.startswith("run: "):
            body = stripped[len("run: "):]
            if body == "|":
                key_indent = len(line) - len(line.lstrip())
                block = []
                while i < len(lines) and (not lines[i].strip()
                                          or len(lines[i]) - len(lines[i].lstrip()) > key_indent):
                    block.append(lines[i])
                    i += 1
                body = textwrap.dedent("\n".join(block)).strip("\n") + "\n"
            out.append((name or body.splitlines()[0], body))
    return out


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="ci-local-"))
    shim = workdir / "bin" / "coherence-speed"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m coherence_speed.cli "$@"\n')
    shim.chmod(0o755)
    tmp = workdir / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp),
               PATH=f"{shim.parent}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    failed = ran = 0
    try:
        for name, body in steps(WORKFLOW.read_text()):
            if name in SKIPPED:
                continue
            start = time.perf_counter()
            proc = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                                   body.replace("/tmp", str(tmp))],
                                  cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            ran += 1
            failed += proc.returncode != 0
            print(f"exit {proc.returncode}  {time.perf_counter() - start:6.1f} s  {name}", flush=True)
            if proc.returncode:
                print(textwrap.indent("\n".join(proc.stdout.splitlines()[-20:]), "    "))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{ran - failed} of {ran} steps exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
