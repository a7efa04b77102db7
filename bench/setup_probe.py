"""Set-up probe: a fresh interpreter imports hillbands and serves one request.

    python3 bench/setup_probe.py <src dir> '<argv as JSON list>'

Prints one JSON line: the CLOCK_MONOTONIC reading when the request has
been answered (the parent subtracts its own reading at spawn), the
import time, and the exit code of the request.
"""

import contextlib
import io
import json
import sys
import time


def main():
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    from hillbands import cli
    imported = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    json.loads(out.getvalue())
    print(json.dumps({"done": done, "import_s": imported - start, "code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
