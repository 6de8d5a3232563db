"""One fresh process of the benchmark.

    child.py items IN OUT [--trace] [--load]
        Import contactconics (and load the worked example with --load), which
        is the measured set-up, then run the items listed in the JSON file IN
        and write times, outputs and failures to the JSON file OUT.
    child.py cli OUT -- ARGS...
        Run the contactconics command line under the tracer and write the
        trace to OUT; standard output and the exit code are the command's.

The parent starts every child with `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _run_items(in_path: str, out_path: str, trace: bool, load: bool) -> int:
    start = time.perf_counter()
    import contactconics as cc

    if load:
        cc.load_worked_example()
    setup_s = time.perf_counter() - start

    from workloads import Runner

    with open(in_path, encoding="utf-8") as handle:
        items = json.load(handle)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(cc)
    times, outputs, failures, errors = [], [], [], []
    clock = time.perf_counter
    for item in items:
        began = clock()
        try:
            output = runner.run(item)
        except Exception as exc:  # every refusal counts as a failed item
            output = None
            failures.append(type(exc).__name__)
            errors.append(traceback.format_exc())
        times.append(clock() - began)
        outputs.append(output)
    result = {
        "setup_s": setup_s,
        "times": times,
        "outputs": outputs,
        "failures": failures,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run_cli(out_path: str, argv: list[str]) -> int:
    from contactconics import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.snapshot(), handle)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["items"] and len(argv) >= 3:
        return _run_items(argv[1], argv[2], "--trace" in argv[3:], "--load" in argv[3:])
    if argv[:1] == ["cli"] and len(argv) >= 3 and argv[2] == "--":
        return _run_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
