"""Benchmark worker: one fresh interpreter per CLI call, as a user's shell would start.

run.py starts it with ``src`` on PYTHONPATH and drives it over stdin and
stdout, one JSON object per line:

* on start it imports ``squeezesim.cli`` while sampling the machine's speed
  and replies ``{"ready": true, "spent": ..., "speed": ...}``, from which
  run.py scales the time it waited for that line into a set-up sample;
* ``{"op": "answer", "argv": [...], "trace": bool, "csv": path or null}``
  runs ``cli.main(argv)`` once and replies with its exit code, its wall time
  raw and scaled to the reference speed (see speed.py), the captured output
  and, for a traced answer, its per-layer metrics and spans;
* ``{"op": "quit"}`` replies with the worker's peak resident memory and exits.

The worker is the process that runs the workload, so its peak RSS is the
workload's.  Everything done to check an answer happens after its clock
stops.  The benchmark's own imports wait until the CLI is imported, so that
a set-up sample times the interpreter and the CLI alone.
"""

import os
import sys
import time

import speed

SETUP_INTERVAL_S = 0.05
ANSWER_INTERVAL_S = 0.1


def _sha256(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def answer(cli, request: dict) -> dict:
    import contextlib
    import gc
    import io
    import traceback

    import spans

    tracer = spans.Tracer() if request["trace"] else None
    wrapped = tracer.install() if tracer is not None else []
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                speed.Sampler(ANSWER_INTERVAL_S) as sampler:
            start = time.perf_counter()
            try:
                if tracer is not None:
                    rc = tracer.call(spans.MAIN_SPAN, "perfbench", cli.main, request["argv"])
                else:
                    rc = cli.main(request["argv"])
            except Exception:  # an answer that crashes counts as failed; the run goes on
                rc = None
                traceback.print_exc()
            wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    reply = {"rc": rc, "answer_s": sampler.scaled(wall_s), "wall_s": wall_s, "speed": sampler.speed(),
             "stdout": out.getvalue(), "stderr": err.getvalue()}
    if request["csv"] and rc == 0:
        reply["csv_sha256"] = _sha256(request["csv"])
    if tracer is not None:
        reply["metrics"] = spans.layer_metrics(tracer.spans, sampler.speed())
        reply["spans"] = [s.as_dict() for s in tracer.spans]
        reply["wrapped"] = wrapped
    return reply


def main() -> None:
    # keep the protocol on its own descriptor; stray prints go to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    with speed.Sampler(SETUP_INTERVAL_S) as sampler:
        from squeezesim import cli
    import json
    import resource

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True, "spent": sampler.spent, "speed": sampler.speed()})
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            break
        send(answer(cli, request))
    send({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})


if __name__ == "__main__":
    main()
