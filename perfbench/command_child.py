"""One grhd CLI command in a fresh process, as a user runs it.

    python3 perfbench/command_child.py RESULT TRACE|- ARGV...

Imports grhd, then runs ``grhd.cli.main(ARGV)`` and times it (imports
excluded: ``setup_s`` counts them once).  It pickles to RESULT the exit
code, the command's stdout, the per-clip scores of ``grhd eval``, the wall
and CPU time and the monotonic start and end of the call, and the
process's peak RSS.  With a TRACE path it runs under the tracer and writes
the spans there.

Each command gets its own process because a process's peak RSS depends on
its memory layout: the same ``grhd embed`` peaks anywhere from ~504 to
~590 MB from one process to the next (ASLR; with address randomization
off it repeats exactly).  Fresh processes give each round an independent
draw, and the run reports the median.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, trace_path, command = Path(argv[0]), argv[1], argv[2:]
    import grhd.cli as cli

    scored: list = []
    evaluate = cli.evaluate

    def keep_scores(*args, **kwargs):
        # cmd_eval writes only the aggregated report; the brute-force AUC
        # checks need the per-clip scores behind it.
        report, clips = evaluate(*args, **kwargs)
        scored.extend(clips)
        return report, clips
    cli.evaluate = keep_scores

    tracer = None
    if trace_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start_ns, c0 = time.monotonic_ns(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(command)
    except Exception:  # a crash is one failed command, reported in full
        traceback.print_exc()
        rc = -1
    end_ns, cpu_s = time.monotonic_ns(), time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(trace_path))
    with open(result_path, "wb") as fh:
        pickle.dump({
            "argv": command, "rc": rc, "stdout": out.getvalue(),
            "scored": scored, "start_ns": start_ns, "end_ns": end_ns,
            "wall_s": (end_ns - start_ns) / 1e9, "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
