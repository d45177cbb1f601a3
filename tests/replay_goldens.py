"""Replay every case of tests/data/cli_goldens.json and compare stdout bytes, stderr and exit code.

    python tests/replay_goldens.py       # through the installed guessctl
    python tests/replay_goldens.py -O    # through python -O -m guesswork.cli

The second form checks that no output depends on the assert-only checks.
Standard library only, so it runs on a numpy-only install. Each case gets
TIMEOUT_S seconds; one that runs longer counts as differing. Prints one
line per golden that differs and a count, and exits 1 if any differs.
"""

import json
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
TIMEOUT_S = 30


def main(args: list[str]) -> int:
    if args not in ([], ["-O"]):
        print("usage: replay_goldens.py [-O]", file=sys.stderr)
        return 2
    prefix = [sys.executable, "-O", "-m", "guesswork.cli"] if args else ["guessctl"]
    under = " under python -O" if args else ""
    failed = []
    for case in json.loads((DATA / "cli_goldens.json").read_text()):
        try:
            proc = subprocess.run([*prefix, *case["argv"]], capture_output=True, timeout=TIMEOUT_S)
            got = (proc.stdout, proc.stderr.decode(), proc.returncode)
            why = "mismatch"
        except subprocess.TimeoutExpired:
            got, why = None, f"timeout after {TIMEOUT_S} s"
        if got != ((DATA / case["stdout"]).read_bytes(), case["stderr"], case["exit"]):
            failed.append(case["stdout"])
            print(f"golden {why}{under}: {case['stdout']}: guessctl {' '.join(case['argv'])}")
    print(f"{len(failed)} of the golden cases differ{under}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
