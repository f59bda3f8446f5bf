"""Program under test of the ``cold_oneshot`` workload.

A child process that answers one line of stdin (a JSON argv for
``repro.cli.main``) with one line of stdout (the exit code and the
``digest <name> <sha256>`` lines the command printed).  Every op builds,
schedules, compiles and executes from nothing, because each ``repro
run`` builds a fresh pipeline object and the program's caches are keyed
weakly by it.  Prints ``ready`` once ``repro`` is imported, which is the
end of this workload's set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

_DIGEST = re.compile(r"^digest (\S+) ([0-9a-f]{64})$", re.MULTILINE)


def main() -> int:
    from repro.cli import main as cli_main

    print("ready", flush=True)
    for line in sys.stdin:
        captured = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(captured):
                rc = cli_main(json.loads(line))
        except Exception as exc:  # the bench counts it as a failed op
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        print(json.dumps({
            "rc": rc,
            "error": error,
            "digests": dict(_DIGEST.findall(captured.getvalue())),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
