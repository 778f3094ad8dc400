"""One fresh-interpreter fqlab invocation, timed from inside.

    python3 child.py ROOT RESULT_JSON TRACE [CLI_ARG ...]

Imports fqlab.cli from ROOT/src and notes the monotonic clock, which
run.py compares with its own reading taken just before it started this
process, and the process's CPU time so far: the set-up cost of starting
the interpreter and importing numpy and the package.  With CLI arguments
it then calls fqlab.cli.main on them, spans recorded when TRACE is 1, and
writes a JSON result: import times, main()'s wall and CPU time, exit
code, peak RSS and the spans.  Without CLI arguments it only times the
import.  The process exits with main()'s return code.
"""

import sys
import time

root, result_path, trace, cli_args = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
sys.path.insert(0, root + "/src")

import fqlab.cli  # noqa: E402

imported_at = time.monotonic()
setup_cpu_s = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402

result = {"imported_at": imported_at, "setup_cpu_s": setup_cpu_s}
rc = 0
if cli_args:
    tracer = None
    if trace:
        import spans

        tracer = spans.install()
    start, start_cpu = time.perf_counter(), time.process_time()
    rc = fqlab.cli.main(cli_args)
    result["cpu_s"] = time.process_time() - start_cpu
    result["wall_s"] = time.perf_counter() - start
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
with open(result_path, "w", encoding="utf-8") as fh:
    json.dump(result, fh)
sys.exit(rc)
