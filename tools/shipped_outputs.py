"""Write every shipped output of loopfield into OUTDIR, in one process.

    python tools/shipped_outputs.py OUTDIR

Calls `loopfield.cli.run` from this checkout's `src/` on:

* `run --scene` for each `scenes/*.json`, inside `OUTDIR/run_<stem>/`,
  where the entries' relative `out` paths land;
* the subcommands that run without `--scene` (`ampere`, `linelimit`,
  `similitude`, `maxwell`, `curl`) and README's `link`, `lk` and `field`
  examples, each with `--out OUTDIR/<name>.csv`, so that the JSON record
  is written as well;
* `selftest`.

Each command's exit code, stdout and stderr go to `<name>.log` in the
directory it ran in.  To check that a change keeps every output, run this on both checkouts
and compare with `diff -r OLD NEW`.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCENES = REPO / "scenes"

# name -> subcommand and arguments; each also gets --out <name>.csv
COMMANDS = {
    "ampere": ["ampere"],
    "linelimit": ["linelimit"],
    "similitude": ["similitude"],
    "maxwell": ["maxwell"],
    "curl": ["curl"],
    "readme_link": ["link", "--scene", str(SCENES / "hopf.json")],
    "readme_lk": ["lk", "--scene", str(SCENES / "double_wind.json")],
    "readme_field": [
        "field", "--scene", str(SCENES / "hopf.json"), "--curve", "ring",
        "--points", "0,0,0;0,0,1.5",
    ],
}


def _run(cli, name: str, argv: list[str], workdir: Path) -> None:
    """Run one command in workdir and log its exit code and streams."""
    workdir.mkdir(parents=True, exist_ok=True)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        os.chdir(here)
    log = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    (workdir / f"{name}.log").write_text(log)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(REPO / "src"))
    from loopfield import cli

    for scene in sorted(SCENES.glob("*.json")):
        _run(cli, "run", ["run", "--scene", str(scene)], outdir / f"run_{scene.stem}")
    for name, args in COMMANDS.items():
        _run(cli, name, [args[0], "--out", f"{name}.csv", *args[1:]], outdir)
    _run(cli, "selftest", ["selftest"], outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
