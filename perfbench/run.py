"""folint benchmark: one workload per run, in one process.

    python3 perfbench/run.py --workload fixtures-decide --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` the run times whole instances (no wrappers installed) for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it runs
one untraced pass and one traced pass, checks that both give the same
results, and reports the per-layer metrics and the tracing overhead.  Every
result is checked; the last line of standard output is one JSON object, and
the exit code is 0 only when every instance finished with a correct result.
Details (environment, per-instance times, spans) go to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from time import perf_counter, process_time

import tracing
import workloads
from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
INSTANCE_CAP_S = 60.0
# no run may take longer than this, whatever its instances do or --seconds
# asks for
RUN_LIMIT_S = 160.0
# after the first pass, cheap instances are run again, up to MIN_RUNS runs,
# for at most this share of the first pass's time
TOP_UP_SHARE = 0.1
MIN_RUNS = 3
END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_p50_s", "s"),
    ("instance_p90_s", "s"),
    ("instance_max_s", "s"),
    ("peak_rss_mb", "MB"),
)


class InstanceTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no ``except Exception``
    inside folint can turn it into a verdict."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


class Record:
    """What became of one instance over all its runs."""

    def __init__(self, inst):
        self.inst = inst
        self.samples = []       # (start, end) wall times of correct runs
        self.status = "ok"
        self.detail = None
        self.output = None
        self.problem = None
        self.outcome = None
        self.counts = None

    def wall_median(self):
        return statistics.median(t1 - t0 for t0, t1 in self.samples)

    @property
    def ok(self):
        return self.status == "ok" and self.problem is None

    def summary(self):
        out = {"name": self.inst.name, "status": self.status,
               "wall_s": [round(t1 - t0, 6) for t0, t1 in self.samples],
               "outcome": self.outcome}
        for key in ("detail", "problem", "counts"):
            if getattr(self, key):
                out[key] = getattr(self, key)
        return out


class Runner:
    """Runs instances under the per-instance cap and the run's time limit.
    Only an instance's first run can fail by time: a repeat that the limit
    stops or leaves unstarted is dropped, since its result is known."""

    def __init__(self, mods, run_deadline):
        self.mods = mods
        self.run_deadline = run_deadline

    def once(self, rec):
        inst = rec.inst
        first = not rec.samples
        cap = min(INSTANCE_CAP_S, self.run_deadline - perf_counter())
        if cap <= 0:
            if first:
                rec.status = "not_started"
                rec.detail = "run time limit reached"
            return
        # start from a clean heap, as a fresh CLI process does, rather than
        # pay for collecting the garbage of earlier instances
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = perf_counter()
        try:
            try:
                result = inst.execute(self.mods)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except InstanceTimeout:
            if first:
                rec.status = "timeout"
                rec.detail = "stopped after %.1f s" % (perf_counter() - start)
            return
        except Exception as err:    # one instance's bug must not end the run
            rec.status = "error"
            rec.detail = traceback.format_exc(limit=-3)
            return
        end = perf_counter()
        output = inst.output(self.mods, result)
        if rec.output is None:
            rec.output = output
            rec.problem = inst.check(self.mods, result)
            rec.outcome = result[1].outcome if result[1] else "configuration"
        elif output != rec.output:
            rec.problem = "result changed between repeats"
        rec.samples.append((start, end))


def measure(runner, instances, seconds):
    """Every instance once.  Then the cheapest instances again, until each
    has MIN_RUNS runs or the extra time reaches TOP_UP_SHARE of the first
    pass.  Then more passes while an instance still fits before the
    deadline.  No repeat starts unless it fits before the run's limit."""
    records = [Record(inst) for inst in instances]
    start = perf_counter()
    deadline = min(start + seconds, runner.run_deadline)
    for rec in records:
        runner.once(rec)
    top_up_end = min(perf_counter() + TOP_UP_SHARE * (perf_counter() - start),
                     runner.run_deadline)
    for rec in sorted((r for r in records if r.ok), key=Record.wall_median):
        while (rec.ok and len(rec.samples) < MIN_RUNS
               and perf_counter() + rec.wall_median() <= top_up_end):
            runner.once(rec)
    ran = True
    while ran:
        ran = False
        for rec in records:
            if rec.ok and perf_counter() + rec.wall_median() <= deadline:
                runner.once(rec)
                ran = True
    return records


def single_pass(runner, instances, tracer=None):
    """Every instance once; returns the records and the pass's wall span."""
    records = [Record(inst) for inst in instances]
    start = perf_counter()
    for rec in records:
        if tracer is not None:
            tracer.instance = rec.inst.name
        runner.once(rec)
        if tracer is not None:
            rec.counts = tracer.counts(rec.inst.name)
    return records, (start, perf_counter())


def end_to_end(records, setup_spans, elapsed):
    """The end-to-end metrics; ``elapsed(t0, t1)`` measures a wall span.
    An instance's time is the median over its runs."""
    times = [statistics.median(elapsed(*s) for s in r.samples)
             for r in records if r.ok] or [0.0]
    total = sum(times)
    values = {
        "setup_s": statistics.median(elapsed(*s) for s in setup_spans),
        "instances_per_s": len(times) / total if total else 0.0,
        "instance_p50_s": statistics.median(times),
        "instance_p90_s": (statistics.quantiles(times, n=10,
                                                method="inclusive")[8]
                           if len(times) > 1 else times[0]),
        "instance_max_s": max(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced_run(runner, instances, mods):
    """An untraced and a traced pass.  The traced records carry the
    problems found by comparing the two passes and by the counter
    self-test."""
    plain, plain_span = single_pass(runner, instances)
    tracer = tracing.Tracer()
    with tracer:
        tracer.install(mods)
        traced, traced_span = single_pass(runner, instances, tracer)
    for a, b in zip(plain, traced):
        if a.ok and b.ok and a.output != b.output:
            b.problem = "traced result differs from the untraced one"
        if b.status == "ok":
            broken = tracing.counter_problems(b.counts, b.inst.kind)
            if broken and b.problem is None:
                b.problem = "counters disagree: " + "; ".join(broken)
    return plain + traced, tracer, plain_span, traced_span


def per_layer(tracer, plain_span, traced_span, elapsed):
    metrics = tracer.layer_metrics(elapsed)
    plain_s, traced_s = elapsed(*plain_span), elapsed(*traced_span)
    metrics["bench.untraced_pass_s"] = {"value": plain_s, "unit": "s"}
    metrics["bench.traced_pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["bench.trace_overhead_s"] = {"value": traced_s - plain_s,
                                         "unit": "s"}
    return metrics


def git_commit(root):
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "pencil_pool_seed": workloads.PENCIL_POOL_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(args, work_dir):
    """Import folint and build the timed inputs, SETUP_REPEATS times; the
    last import is the one used.  Returns the wall span of each repeat too."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mods = workloads.import_folint(os.path.join(ROOT, "src"))
        timed = workloads.build(args.workload, args.seed, ROOT, work_dir,
                                mods)
        spans.append((start, perf_counter()))
    return mods, timed, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for the details of the run")
    return parser.parse_args(argv)


def wall(t0, t1):
    return t1 - t0


def main(argv=None):
    started, cpu_started = perf_counter(), process_time()
    args = parse_args(argv)
    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work_dir)
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = HostClock()
    try:
        with clock:
            mods, timed, setup_spans = setup(args, work_dir)
            fresh = workloads.fresh(args.workload, args.seed, work_dir, mods)
            runner = Runner(mods, started + RUN_LIMIT_S)
            tracer = None
            if args.trace:
                records, tracer, *passes = traced_run(runner, timed, mods)
            else:
                records = measure(runner, timed, args.seconds)
            # checked, not timed
            fresh_records, _ = single_pass(runner, fresh)
    finally:
        shutil.rmtree(work_dir)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:     # another run's inputs are still there
            pass
    if args.trace:
        metrics = per_layer(tracer, *passes, clock.elapsed)
        wall_metrics = per_layer(tracer, *passes, wall)
    else:
        metrics = end_to_end(records, setup_spans, clock.elapsed)
        wall_metrics = end_to_end(records, setup_spans, wall)
    records += fresh_records
    instances = timed + fresh
    failed = {r.inst.name for r in records if not r.ok}
    decided = [r for r in records if r.outcome not in (None, "configuration")]
    extra = {
        "instances": len(instances),
        "failed_share": len(failed) / len(instances),
        "inconclusive_share": (sum(r.outcome == "inconclusive"
                                   for r in decided) / len(decided)
                               if decided else 0.0),
        "host_speed_median": clock.median_speed(),
        "run_wall_s": perf_counter() - started,
        # near 1 when the process was never off the CPU, so that CPU
        # seconds would spread as wall seconds do
        "cpu_share": ((process_time() - cpu_started)
                      / (perf_counter() - started)),
    }
    report(args, records, metrics, wall_metrics, extra, tracer, clock)
    result = {"correct": not failed, "attempted": len(instances),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


def report(args, records, metrics, wall_metrics, extra, tracer, clock):
    """Human-readable lines on stdout, details in the --out directory."""
    env = environment(args)
    print("# folint benchmark  workload=%s seed=%d trace=%d  python %s, "
          "%d cpus, commit %s" % (args.workload, args.seed, args.trace,
                                  env["python"], env["nproc"],
                                  env["git_commit"]))
    print("# times in reference seconds (wall seconds in brackets)")
    rows = []
    for rec in records:
        row = rec.summary()
        row["ref_s"] = [round(clock.elapsed(*s), 6) for s in rec.samples]
        rows.append(row)
        line = "%-28s %-11s n=%d" % (rec.inst.name, rec.status,
                                     len(rec.samples))
        if rec.samples:
            line += "  %.4f s (%.4f)" % (statistics.median(row["ref_s"]),
                                         rec.wall_median())
        if rec.outcome:
            line += "  %s" % rec.outcome
        if rec.problem or rec.detail:
            line += "  !! %s" % (rec.problem or rec.detail.splitlines()[-1])
        if rec.counts and rec.status != "ok":
            line += "; calls so far: %s" % ", ".join(
                "%s %d" % item for item in sorted(rec.counts.items()))
        print(line)
    for name, m in metrics.items():
        print("%-44s %14.6f %-5s (%.6f)" % (name, m["value"], m["unit"],
                                            wall_metrics[name]["value"]))
    for name, value in extra.items():
        print("%-44s %14.6f" % (name, value))
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "metrics": metrics,
                   "wall_metrics": wall_metrics, "extra": extra,
                   "records": rows}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.tsv")


if __name__ == "__main__":
    sys.exit(main())
