"""Print a sha256 of guessctl's output per argv, and one total, for goldens and seeded workloads.

    PYTHONPATH=src python tests/output_digest.py
    PYTHONPATH=src python tests/output_digest.py --workload rate_curves --seeds 1,2 --cycles 40

Every argv of tests/data/cli_goldens.json runs first. With --workload, so
do cycles 0 .. CYCLES-1 of that workload of bench/workloads.py for each
seed, every argv twice: as drawn and with `--format json` appended. Each
runs in this process through guesswork.cli.main, as the benchmark calls
it. One line per argv: the sha256 of its exit code, stdout and stderr (or
of the exception that escaped main), then the argv. The last line is the
total, the sha256 of every line above it. Two trees give the same total
exactly when every argv prints the same bytes: run the script once with
PYTHONPATH at each tree's src/ and compare the totals. The package file it
imported is printed on stderr. bench/ is imported, never written.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def goldens() -> list[list[str]]:
    cases = json.loads((ROOT / "tests" / "data" / "cli_goldens.json").read_text())
    return [case["argv"] for case in cases]


def workload_argvs(name: str, seeds: list[int], cycles: int) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    workload = workloads.WORKLOADS[name]()
    argvs = []
    for seed in seeds:
        draws = workloads.Draws(name, seed)
        for c in range(cycles):
            for req in workload.cycle(draws, c):
                if req.argv is None:
                    raise SystemExit(f"output_digest: {name} requests are library calls")
                argvs += [req.argv, [*req.argv, "--format", "json"]]
    return argvs


def digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = f"exit {main(argv)}"
        except SystemExit as exc:  # argparse refusals
            result = f"exit {exc.code}"
        except Exception as exc:  # a traceback escaping guessctl
            result = f"raised {type(exc).__name__}: {exc}"
    text = "\0".join((result, out.getvalue(), err.getvalue()))
    return hashlib.sha256(text.encode()).hexdigest()


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="a workload of bench/workloads.py whose requests are guessctl argvs")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--cycles", type=int, default=10, help="cycles per seed, from cycle 0")
    opts = parser.parse_args(args)

    from guesswork import cli

    print(f"output_digest: guesswork from {Path(cli.__file__).parent}", file=sys.stderr)
    argvs = goldens()
    if opts.workload:
        seeds = [int(s) for s in opts.seeds.split(",")]
        argvs += workload_argvs(opts.workload, seeds, opts.cycles)
    total = hashlib.sha256()
    for argv in argvs:
        line = f"{digest(cli.main, argv)} {' '.join(argv)}"
        print(line)
        total.update((line + "\n").encode())
    print(f"total {total.hexdigest()} over {len(argvs)} argvs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
