"""reqtag benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``. Every workload run is a fresh child process; this
harness only generates inputs, starts children, times them from outside,
checks their outputs and prints results. The last line of stdout is the
result object; the line before it is a record with the environment and
the per-workload metrics under the names used in perfbench/README.md.
Scratch files and result records go to ``.perfbench/`` in the checkout.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# a run gives up on hung children so that it ends within 180 s
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = {"train-default": 5, "extract": 3}
# a p99 needs at least ten samples beyond it
P99_MIN_SAMPLES = 1000

# (name, unit, better, bound): the metrics every workload reports with
# tracing off. Per workload (train-default | extract) they mean:
#   tok_per_s   trained tokens/s | bulk-phase tokens/s
#   op_p50_ms   median train run (train + save) | median line reply
# On a shared 2-vCPU VM, identical work ran up to 30% faster or slower in
# phases lasting minutes, so every bound is the widest allowed. Peak RSS
# is only recorded: it moves 10-30% between seeds with heap layout.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("tok_per_s", "tok/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
]
PER_LAYER_EXTRA = [
    ("training.pad_batch.pad_fraction", "padded/total"),
    ("network.checkpoint_bytes", "B"),
    ("lstm.lstm_step.calls_per_token", "calls/tok"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
]


PER_LAYER = [(f"{b}.{k}", unit) for b in spans.BOUNDARY_NAMES
             for k, unit in (("calls", "count"), ("busy_ms", "ms"),
                             ("self_ms", "ms"))] + PER_LAYER_EXTRA
# Per-workload metrics under their own names, printed in the record line.
SUMMARY = {
    "train-default": {"setup_s": "s", "train_tok_per_s": "tok/s",
                      "train_loss_final": "nats/sentence",
                      "checkpoint_save_s": "s", "fold_run_s": "s",
                      "fold_f1": "f1", "peak_rss_mb": "MB",
                      "error_rate": "failed/attempted"},
    "extract": {"setup_s": "s", "extract_line_p50_ms": "ms",
                "extract_line_p99_ms": "ms", "extract_tok_per_s": "tok/s",
                "peak_rss_mb": "MB", "error_rate": "failed/attempted"},
}
UNITS = {**{m[0]: m[1] for m in END_TO_END}, **dict(PER_LAYER)}


class Fatal(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def _missing_boundary(code):
    if code == spans.MISSING_BOUNDARY_EXIT:
        raise Fatal("a traced boundary is missing from the program; see "
                    "stderr and update perfbench/spans.py")


# ------------------------------------------------------------ environment

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn()), f"{Path(path).name}:{sym}"
    return None, None


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    threads, source = _blas_threads()
    env_threads = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}
    files = sorted((SRC / "reqtag").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        body = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + body)
        lines += body.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_source": source,
        "blas_thread_env": env_threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_reqtag_lines": lines,
    }


# ---------------------------------------------------------------- children

class Child:
    """A child process whose stdout is read as lines with a deadline."""

    def __init__(self, argv, deadline, env_extra=None, stdin=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(env_extra or {})
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE)
        self.fd = self.proc.stdout.fileno()
        self._buf = b""
        self.eof = False

    def readline(self):
        """Next stdout line (bytes, no newline), or None at EOF or deadline."""
        while b"\n" not in self._buf:
            if self.eof:
                return None
            left = self.deadline - time.perf_counter()
            if left <= 0:
                return None
            ready, _, _ = select.select([self.fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                self.eof = True
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def send(self, data):
        """Write to stdin; False if the process has closed it."""
        try:
            self.proc.stdin.write(data)
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            return False
        return True

    def finish(self):
        """Close stdin, wait until the deadline, kill if still running."""
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=max(0.1, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _peak_rss_mb():
    """Largest resident set of any child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Run:
    """Counts, checks and figures of one benchmark invocation."""

    def __init__(self, workload, seed, seconds, trace, sizes, workdir):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.sizes, self.workdir = trace, sizes, workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.summary = {}
        self.metrics = {}

    def fail(self, ops, why):
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)

    def note(self, name, value):
        """A per-workload metric for the record line."""
        self.summary[name] = {"value": value,
                              "unit": SUMMARY[self.workload][name]}

    def metric(self, name, value):
        """An end-to-end or per-layer metric for the result line."""
        self.metrics[name] = {"value": value, "unit": UNITS[name]}


# ------------------------------------------------------------ train-default

def _run_child(run, corpus, config, extra):
    """Start one child; returns (set-up seconds, result dict, exit code)."""
    child = Child(["-u", str(HERE / "child.py"), "run", "--corpus", str(corpus),
                   "--config", str(config), "--workdir", str(run.workdir),
                   "--seconds", str(run.seconds)] + extra, run.deadline)
    ready = child.readline()
    setup = time.perf_counter() - child.started if ready == b'"ready"' else None
    result = None
    if setup is not None and "--setup-only" not in extra:
        line = child.readline()
        try:
            result = json.loads(line) if line is not None else None
        except json.JSONDecodeError:
            pass
    code = child.finish()
    return setup, result if code == 0 else None, code


def _check_units(run, result):
    """Count operations (train runs, the fold-run) and check their outputs."""
    units, fold = result["units"], result["fold"]
    run.attempted += len(units) + (fold is not None) + result["failed_ops"]
    for u in units:
        if not math.isfinite(u["loss"]):
            run.fail(1, f"non-finite training loss {u['loss']}")
        elif u["loss"] != units[0]["loss"]:
            run.fail(1, f"loss {u['loss']!r} differs from the first "
                        f"run's {units[0]['loss']!r}")
    if units and not result.get("roundtrip_ok"):
        run.fail(1, "saved checkpoint does not load back bit-exact")
    if fold is not None and not 0.0 <= fold["f1"] <= 1.0:
        run.fail(1, f"fold-run F1 {fold['f1']} outside [0, 1]")
    if result["failed_ops"]:
        run.fail(result["failed_ops"], "operation raised: "
                 + result["error"].strip().splitlines()[-1])


def run_train(run):
    corpus = run.workdir / "corpus.jsonl"
    config = run.workdir / "config.json"
    workloads.write_corpus(corpus, workloads.corpus(run.seed, run.sizes))
    workloads.write_config(config, run.sizes, run.seed)
    if run.trace:
        return _trace_train(run, corpus, config)

    setups = []
    for _ in range(SETUP_SAMPLES[run.workload] - 1):
        setup, _result, _code = _run_child(run, corpus, config, ["--setup-only"])
        if setup is None:
            raise Fatal("set-up child did not start; see stderr")
        setups.append(setup)
    setup, result, _code = _run_child(run, corpus, config, [])
    if result is None:
        run.attempted += 1
        run.fail(1, "workload child died or timed out")
        return
    setups.append(setup)
    _check_units(run, result)
    units, fold = result["units"], result["fold"]
    if not units or fold is None:
        return
    tok_s = statistics.median(result["run_tokens"] / u["train_s"]
                              for u in units)
    run.note("setup_s", statistics.median(setups))
    run.note("train_tok_per_s", tok_s)
    run.note("train_loss_final", units[0]["loss"])
    run.note("checkpoint_save_s", statistics.median(u["save_s"] for u in units))
    run.summary["train_runs"] = len(units)
    run.note("fold_run_s", fold["fold_run_s"])
    run.note("fold_f1", fold["f1"])
    run.note("peak_rss_mb", result["peak_rss_kib"] / 1024.0)
    run.metric("setup_s", run.summary["setup_s"]["value"])
    run.metric("tok_per_s", tok_s)
    run.metric("op_p50_ms", statistics.median(
        1e3 * (u["train_s"] + u["save_s"]) for u in units))


def _trace_train(run, corpus, config):
    """One train run and the fold-run, untraced then traced."""
    trace_out = run.workdir / "spans.npz"
    results = []
    for extra in ([], ["--trace-out", str(trace_out)]):
        _setup, result, code = _run_child(run, corpus, config,
                                          ["--iterations", "1"] + extra)
        _missing_boundary(code)
        if result is None:
            run.attempted += 1
            run.fail(1, "workload child died or timed out")
            return
        _check_units(run, result)
        if not result["units"] or result["fold"] is None:
            return
        results.append(result)
    unit_ms = [1e3 * (r["units"][0]["train_s"] + r["units"][0]["save_s"]
                      + r["fold"]["fold_run_s"]) for r in results]
    traced = results[1]
    _layer_metrics(run, trace_out, traced["run_tokens"] + traced["fold_tokens"],
                   traced["units"][0]["bytes"], *unit_ms)


def _layer_metrics(run, trace_out, tokens, ckpt_bytes, untraced_ms, traced_ms):
    layer, extra = spans.summarize(trace_out)
    if run.workload == "train-default":
        # Self times partition each train span exactly: a mismatch means
        # spans were lost or overlapped.
        if not math.isclose(extra["train_tree_self_ms"], extra["train_busy_ms"],
                            rel_tol=1e-9, abs_tol=1e-6):
            run.fail(1, f"self times under training.train sum to "
                        f"{extra['train_tree_self_ms']} ms, busy "
                        f"{extra['train_busy_ms']} ms")
    for name, value in layer.items():
        run.metric(name, value)
    padded, total = extra["pad_positions"]
    run.metric("training.pad_batch.pad_fraction", padded / total if total else 0.0)
    run.metric("network.checkpoint_bytes", ckpt_bytes)
    run.metric("lstm.lstm_step.calls_per_token",
               layer["lstm.lstm_step.calls"] / tokens if tokens else 0.0)
    run.metric("trace.untraced_ms", untraced_ms)
    run.metric("trace.traced_ms", traced_ms)
    run.metric("trace.overhead_ms", traced_ms - untraced_ms)
    run.metric("trace.spans", extra["spans"])
    shutil.copyfile(trace_out, OUT / f"spans-{run.workload}.npz")


# ----------------------------------------------------------------- extract

def _extract_inputs(run):
    """Checkpoint file, pool of (line, tokens) and the expected replies."""
    from reqtag import network
    from reqtag.embeddings import UNK_INDEX, Vocabulary

    words = workloads.extract_vocabulary(run.seed, run.sizes["vocab"])
    vocab = Vocabulary(token_to_index={w: i for i, w in enumerate(words)},
                       index_to_token=list(words))
    params = network.init_model(len(words),
                                network.ModelDims(**run.sizes["dims"]),
                                np.random.default_rng([run.seed, 4]))
    model = run.workdir / "model.json"
    network.save_checkpoint(model, params, vocab)
    weights = {k: a.copy() for k, a in network.param_blocks(params).items()}

    pool = workloads.review_lines(run.seed, run.sizes["lines"])
    index = [[vocab.token_to_index.get(t, UNK_INDEX) for t in toks]
             for _, toks in pool]
    expected = []
    for (text, toks), tags in zip(pool, reference.tag_lines(weights, index)):
        if not reference.is_valid_bio(tags):
            raise Fatal(f"reference tagger produced illegal BIO {tags}")
        expected.append({"text": text, "requirements": [
            {"span": span, "text": phrase}
            for span, phrase in reference.spans(tags, toks)]})
    return model, pool, expected


def _check_reply(run, reply, want):
    """One extract line: a JSON reply equal to the reference, well formed."""
    try:
        got = json.loads(reply)
    except json.JSONDecodeError:
        run.fail(1, f"unparsable reply {reply!r:.80}")
        return
    if got != want:
        run.fail(1, f"reply {reply!r:.80} differs from reference {want!r:.80}")
        return
    prev_end = -2
    for r in got["requirements"]:
        start, end = r["span"]
        # maximal non-O runs: ordered, disjoint, separated by an O
        if not prev_end + 1 < start <= end:
            run.fail(1, f"malformed spans in reply {reply!r:.80}")
            return
        prev_end = end


def _ask(run, child, line, want):
    """Send one line, wait for its reply; returns the latency or None."""
    run.attempted += 1
    sent = time.perf_counter()
    reply = child.readline() if child.send(line + b"\n") else None
    if reply is None:
        run.fail(1, "extract stopped replying")
        return None
    latency = time.perf_counter() - sent
    _check_reply(run, reply, want)
    return latency


def _closed_loop(run, child, pool, expected, min_lines, min_s):
    """One client, one line in flight: whole passes until both minimums met.

    Returns (latencies, seconds per pass), or (latencies, None) if the
    process stopped replying.
    """
    lat = []
    t0 = time.perf_counter()
    passes = 0
    while True:
        for (text, _toks), want in zip(pool, expected):
            latency = _ask(run, child, text.encode("utf-8"), want)
            if latency is None:
                return lat, None
            lat.append(latency)
        passes += 1
        spent = time.perf_counter() - t0
        if len(lat) >= min_lines and spent >= min_s:
            return lat, spent / passes


def _bulk(run, child, pool, expected, reps):
    """Write reps passes of the pool at once, close stdin, read every reply.

    Returns the tokens/s of each pass, timed from the previous pass's last
    reply (the first from the first write) to its own last reply.
    """
    payload = b"".join(t.encode("utf-8") + b"\n" for t, _ in pool) * reps
    n = len(pool) * reps
    run.attempted += n

    def write():
        if child.send(payload):
            child.proc.stdin.close()

    writer = threading.Thread(target=write)
    pass_ends = [time.perf_counter()]
    writer.start()
    got = 0
    while got < n:
        reply = child.readline()
        if reply is None:
            break
        _check_reply(run, reply, expected[got % len(pool)])
        got += 1
        if got % len(pool) == 0:
            pass_ends.append(time.perf_counter())
    writer.join(timeout=max(0.1, run.deadline - time.perf_counter()))
    if got < n:
        run.fail(n - got, f"{n - got} bulk lines got no reply")
    tokens = sum(len(toks) for _, toks in pool)
    return [tokens / (b - a) for a, b in zip(pass_ends, pass_ends[1:])]


def _extract_child(run, model, trace_out=None):
    tail = ["extract", "--model", str(model), "--input", "/dev/stdin"]
    argv = ["-m", "reqtag.cli"] + tail if trace_out is None else \
        [str(HERE / "child.py"), "cli", "--trace-out", str(trace_out), "--"] + tail
    return Child(argv, run.deadline, {"PYTHONUNBUFFERED": "1"}, stdin=True)


def _end_extract(run, child):
    code = child.finish()
    _missing_boundary(code)
    if code != 0:
        run.fail(1, f"extract exited with code {code}")


def _probe(run, child):
    """The empty probe line; returns seconds from spawn to its reply."""
    if _ask(run, child, b"", {"text": "", "requirements": []}) is None:
        _end_extract(run, child)
        return None
    return time.perf_counter() - child.started


def run_extract(run):
    model, pool, expected = _extract_inputs(run)
    if run.trace:
        return _trace_extract(run, model, pool, expected)

    setups = []
    for k in range(SETUP_SAMPLES["extract"]):
        child = _extract_child(run, model)
        setup = _probe(run, child)
        if setup is None:
            return
        setups.append(setup)
        if k < SETUP_SAMPLES["extract"] - 1:
            _end_extract(run, child)

    lat, pass_s = _closed_loop(run, child, pool, expected, P99_MIN_SAMPLES,
                               run.seconds / 2)
    if pass_s is None:
        _end_extract(run, child)
        return
    reps = max(3, round(run.seconds / 2 / pass_s))
    pass_tok_s = _bulk(run, child, pool, expected, reps)
    _end_extract(run, child)
    if not pass_tok_s:
        return

    lat_ms = 1e3 * np.array(lat)
    run.note("setup_s", statistics.median(setups))
    run.note("extract_line_p50_ms", float(np.median(lat_ms)))
    run.note("extract_line_p99_ms", float(np.percentile(lat_ms, 99)))
    run.summary["extract_line_samples"] = len(lat)
    run.note("extract_tok_per_s", statistics.median(pass_tok_s))
    run.summary["extract_bulk_passes"] = reps
    run.note("peak_rss_mb", _peak_rss_mb())
    run.metric("setup_s", run.summary["setup_s"]["value"])
    run.metric("tok_per_s", run.summary["extract_tok_per_s"]["value"])
    run.metric("op_p50_ms", run.summary["extract_line_p50_ms"]["value"])


def _trace_extract(run, model, pool, expected):
    """Probe, one closed-loop pass and one bulk pass, untraced then traced."""
    trace_out = run.workdir / "spans.npz"
    unit_ms = []
    for path in (None, trace_out):
        child = _extract_child(run, model, path)
        if _probe(run, child) is None:
            return
        t0 = time.perf_counter()
        _lat, pass_s = _closed_loop(run, child, pool, expected, 0, 0)
        if pass_s is None:
            _end_extract(run, child)
            return
        _bulk(run, child, pool, expected, 1)
        unit_ms.append(1e3 * (time.perf_counter() - t0))
        _end_extract(run, child)
    tokens = sum(len(toks) for _, toks in pool)
    _layer_metrics(run, trace_out, 2 * tokens, model.stat().st_size, *unit_ms)


# -------------------------------------------------------------------- main

RUNNERS = {"train-default": run_train, "extract": run_extract}


def run_workload(workload, seed, seconds, trace, sizes):
    """Run one workload; returns (record, result) or raises Fatal."""
    if not (SRC / "reqtag" / "__init__.py").is_file():
        raise Fatal(f"no program source at {SRC / 'reqtag'}; run from a "
                    "reqtag checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, seconds, trace, sizes[workload], workdir)
    try:
        RUNNERS[workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(1, run.attempted)
    if not trace:
        run.note("error_rate", run.failed / attempted)
    wanted = END_TO_END if not trace else PER_LAYER
    complete = all(m[0] in run.metrics for m in wanted)
    if not complete and not run.failed:
        run.problems.append("some metrics were not measured")
    result = {"correct": run.failed == 0 and complete,
              "attempted": attempted, "failed": run.failed,
              "metrics": run.metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": attempted, "failed": run.failed,
              "problems": run.problems, "summary": run.summary,
              "env": environment()}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    return record, result


def self_check():
    """Tiny sizes: every metric printed with its unit, every boundary traced."""
    errors = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if bench.get("end_to_end") != [
            {"name": n, "unit": u, "better": b, "bound": bd}
            for n, u, b, bd in END_TO_END]:
        errors.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if bench.get("per_layer") != [{"name": n, "unit": u, "better": "lower"}
                                  for n, u in PER_LAYER]:
        errors.append("BENCHMARK.json per_layer differs from PER_LAYER")
    if [w["name"] for w in bench.get("workloads", [])] != list(RUNNERS):
        errors.append("BENCHMARK.json workloads differ from RUNNERS")

    calls = dict.fromkeys(spans.BOUNDARY_NAMES, 0)
    for workload in RUNNERS:
        for trace in (0, 1):
            record, result = run_workload(workload, 1, 1, trace,
                                          workloads.SELF_CHECK_SIZES)
            where = f"{workload} trace={trace}"
            if not result["correct"]:
                errors.append(f"{where}: not correct: {record['problems']}")
            if trace:
                tables = [(result["metrics"], PER_LAYER)]
            else:
                tables = [(result["metrics"], [m[:2] for m in END_TO_END]),
                          (record["summary"], SUMMARY[workload].items())]
            for table, wanted in tables:
                for name, unit in wanted:
                    if table.get(name, {}).get("unit") != unit:
                        errors.append(f"{where}: metric {name} [{unit}] missing")
            for b in calls:
                calls[b] += result["metrics"].get(f"{b}.calls", {}).get("value", 0)
            print(f"self-check {where}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
    errors += [f"boundary {b} never appeared in a trace"
               for b, n in calls.items() if n == 0]
    for e in errors:
        print(f"self-check: {e}", file=sys.stderr)
    print("self-check: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one reqtag benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=list(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny sizes and verify "
                             "the metric and boundary lists")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.self_check:
            return self_check()
        record, result = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, workloads.SIZES)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
