"""Peak-RSS gate: run one command in a child and bound its peak RSS.

    python .github/peak_rss.py LIMIT_MB -- CMD [ARG...]

Prints the child's peak resident set size (RUSAGE_CHILDREN, in MB) and its
wall time, and exits 1 when the peak is at or over LIMIT_MB.  A child that
fails fails the gate with its own exit status.  The child inherits this
process's environment, so set thread counts and the like on the command
line that runs this script.
"""

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    limit_mb = float(argv[0])
    start = time.perf_counter()
    status = subprocess.run(argv[2:]).returncode
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"child peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB), wall {wall:.2f} s")
    if status != 0:
        print(f"child exited with status {status}", file=sys.stderr)
        return status if status > 0 else 1
    return 0 if peak_mb < limit_mb else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
