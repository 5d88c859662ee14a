"""Statistics of the repo benchmark: percentiles, span self times, metrics.

The C++ runner (perfbench/src) only records raw measurements; every
number the benchmark reports is computed here, from that raw result, so
the rules below are the benchmark's whole definition of its metrics and
test_stats.py can pin them.
"""

from collections import defaultdict
from statistics import median

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

# End-to-end percentiles are taken per block of this many consecutive
# operations of one load thread; a block's p99 has exactly MIN_BEYOND
# samples beyond it.
BLOCK = 1000

# The percentile that latency_us reports on each workload: the one that
# load from other tenants of a shared host moves least. A training step
# runs on one thread, whose speed follows its vCPU's load from second to
# second, so its p50 does too; the fastest steps do not. A socket round or
# a served request waits on other threads, and how often it waits on none
# of them swings with the host's load, so there the p50 is the steady one.
LATENCY_PERCENTILE = {"train_lm": 5, "train_cnn": 5, "async_socket": 50, "serve_lm": 50}

# Per-layer metrics that are median span self times, by span name.
SPAN_METRICS = {
    "data.sample_us": "data.sample",
    "nn.forward_us": "nn.forward",
    "autograd.backward_us": "autograd.backward",
    "tuner.begin_apply_us": "tuner.begin_apply",
    "optim.sweep_us": "optim.sweep",
    "dist.pull_us": "dist.pull",
    "dist.push_us": "dist.push",
    "serve.publish_us": "serve.publish",
}

# Per-layer metrics the runner computes itself, with their units. A layer
# a workload does not run reports 0.
COUNTER_METRICS = {
    "core.allocs_per_step": "count",
    "dist.bytes_per_update": "bytes",
    "dist.retries": "count",
    "async.staleness": "updates",
    "async.mu_gap": "momentum",
    "serve.forward_us": "us",
    "serve.forward_max_batch_us": "us",
    "serve.coalesce": "requests",
    "serve.wait_us": "us",
}


def percentile(samples, p):
    """Nearest-rank p-th percentile of `samples`, p an integer in (0, 100).

    Raises ValueError unless at least MIN_BEYOND samples lie beyond it on
    the tail side: above it for p >= 50, below it otherwise.
    """
    n = len(samples)
    rank = max(1, -(-p * n // 100))  # ceil(p% of n) in exact integer arithmetic
    beyond = n - rank if p >= 50 else rank - 1
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it, needs {MIN_BEYOND}")
    return sorted(samples)[rank - 1]


def blocks(runs):
    """Consecutive blocks of BLOCK samples of each run.

    `runs` holds one list per load thread, in completion order. Blocks
    never span two runs; a run's last block takes in its remainder, and a
    run shorter than BLOCK gives no block. Raises ValueError when no run
    gives one.
    """
    out = []
    for run in runs:
        count = len(run) // BLOCK
        for b in range(count):
            out.append(run[b * BLOCK:(b + 1) * BLOCK if b < count - 1 else len(run)])
    if not out:
        raise ValueError(f"no block of {BLOCK} samples in runs of {[len(r) for r in runs]}")
    return out


def block_percentile(runs, p):
    """Median over blocks (see `blocks`) of each block's p-th percentile.

    A burst of load from other tenants of a shared host inflates the tail
    of the blocks it overlaps, not the median block, so this stays put
    where a percentile over the whole run would jump. Returns (value,
    number of blocks).
    """
    parts = blocks(runs)
    return median(percentile(b, p) for b in parts), len(parts)


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Self time of every closed span of one thread's log.

    `spans` holds [name, parent, op, start_ns, end_ns] rows, `parent`
    indexing the same list (-1 for a root). A span's self time is its
    duration minus the part of it that its child spans cover. Returns
    (name, op, self_ns) rows; ops with a span left open are skipped.
    """
    children = defaultdict(list)
    open_ops = set()
    for i, (_, parent, op, start, end) in enumerate(spans):
        if end < start or end == 0:
            open_ops.add(op)
        if parent >= 0:
            children[parent].append(i)
    rows = []
    for i, (name, _, op, start, end) in enumerate(spans):
        if op in open_ops:
            continue
        kids = [(spans[c][3], spans[c][4]) for c in children[i]]
        rows.append((name, op, end - start - covered(start, end, kids)))
    return rows


def layer_self_us(logs, span_names):
    """Median self time per operation, in µs, of each span name.

    An operation is one op id of one thread's log; a name's time in it is
    the sum of the self times of its spans there. The median runs over
    the operations that contain the name; a name no operation contains
    reports 0.
    """
    per_op = defaultdict(lambda: defaultdict(int))
    for log_index, spans in enumerate(logs):
        for name, op, self_ns in self_times(spans):
            per_op[span_names[name]][(log_index, op)] += self_ns
    return {name: median(per_op[name].values()) * 1e-3 if per_op[name] else 0.0
            for name in set(span_names)}


def flatten(runs):
    return [x for run in runs for x in run]


def latency(raw, p):
    """(value, unit, note) of the block percentile p of an untraced run."""
    runs = raw["latency_us"]
    value, count = block_percentile(runs, p)
    return value, "us", f"median p{p} of {count} blocks, {sum(map(len, runs))} samples"


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit, note)}."""
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s",
                    f"median of {len(raw['setup_s'])} fresh builds"),
        "latency_us": latency(raw, LATENCY_PERCENTILE[raw["workload"]]),
    }
    metrics["mean_loss"] = (raw["mean_loss"], "nats", "over a fixed horizon")
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB", "peak resident set")
    return metrics


def ungated(raw):
    """Metrics an untraced run prints but BENCHMARK.json does not bound.

    Through minute-long bursts of load from other tenants of the host, the
    p99 of async_socket rounds doubled (4.7 to 13.6 ms) and the throughput
    of async_socket and serve_lm fell by a third, while latency_us moved
    by a fifth at most. No bound holds those two apart from the host.
    """
    return {
        "latency_p99_us": latency(raw, 99),
        "ops_per_s": (raw["completed"] / raw["measured_s"], "1/s",
                      f"{raw['completed']} ops in {raw['measured_s']:.3f} s"),
    }


def per_layer(raw):
    """Per-layer metrics of a traced run: {name: (value, unit, note)}."""
    self_us = layer_self_us(raw["spans"], raw["span_names"])
    metrics = {}
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = (self_us.get(span, 0.0), "us", "median self time per op")
    for metric, unit in COUNTER_METRICS.items():
        metrics[metric] = (raw["layer"].get(metric, 0.0), unit, "counted by the runner")
    # p5, the operation latency that host contention moves least.
    base = percentile(flatten(raw["untraced_latency_us"]), 5)
    traced = percentile(flatten(raw["latency_us"]), 5)
    metrics["trace.overhead_pct"] = (
        (traced / base - 1.0) * 100.0, "%",
        f"p5 op {traced:.1f} us traced vs {base:.1f} us untraced")
    return metrics
