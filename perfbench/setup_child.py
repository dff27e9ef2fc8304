"""Set-up of one benchmark run, in its own process.

Synthesizes the workload's corpus (and, for ``score``, trains the reference
checkpoint) through the grhd CLI.  It runs apart from the timed command
processes, so that its memory does not count in their peak RSS.

    python3 perfbench/setup_child.py WORKLOAD SEED WORK_DIR [TRACE_FILE]
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    workload = WORKLOADS[name]
    from grhd.cli import main as cli_main

    tracer = None
    if len(argv) > 3:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    (work / "synth.cfg").write_text(workload.synth_config(seed))
    try:
        for cmd in workload.setup_commands(work, seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli_main(cmd)
            if rc != 0:
                print(f"set-up command {cmd} exited {rc}:\n{out.getvalue()}",
                      file=sys.stderr)
                return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(Path(argv[3]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
