"""ctxlm benchmark: one workload in one process, BLAS pinned to one thread.

    python3 bench/run.py --workload toy-train --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead, measured by wrapping the program's public
functions (see tracing.py) in rounds that alternate with untraced ones, whose
gap is reported as tracing overhead. Untraced times are read against a
machine-speed probe that runs throughout (probe.py): each is the median
ratio of unit time to probe time, in seconds of the reference machine.
Correctness checks run after the measurement; any failure makes the exit
code 1. A full record (environment, raw samples, probe times, every layer
number, spans) is written to bench/out/.
"""

import os

# BLAS threads must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
BLOCK_S = 0.5            # seconds of one phase before the scheduler switches
CHECK_WINDOWS = 6        # windows per reference-forward check
CHECK_CONTEXTS = 30000   # vocabulary-sized sums per KN normalisation check, in words
NLL_TOLERANCE = 1e-9     # relative, float64
KN_TOLERANCE = 1e-9
# Each probe's typical time on the reference machine (BASELINE.md): reported times
# are unit/probe ratios scaled by these, so they read as seconds on that machine.
REFERENCE_PROBE_S = {"python": 0.0045, "array": 0.0027}


def import_program():
    """Import ctxlm from this checkout's src/ only, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ctxlm", "__init__.py")):
        sys.exit(f"bench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import ctxlm
    if os.path.dirname(os.path.abspath(ctxlm.__file__)) != os.path.join(SRC, "ctxlm"):
        sys.exit(f"bench: ctxlm imported from {ctxlm.__file__}, not from {SRC}")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(wl, seed: int, trace: bool) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "workload": wl.name,
        "precision": wl.precision,
        "seed": seed,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def timed_setup(wl, seed: int, checkpoints: list[str]):
    import workloads
    gc.collect()   # every timed unit starts from the same collector state
    started = workloads.clock()
    inputs = workloads.build_inputs(wl, seed, checkpoints)
    return inputs, workloads.clock() - started


def timed_unit(phase: str, wl, seed: int, inputs):
    from workloads import UNITS
    gc.collect()
    return UNITS[phase](wl, seed, inputs)


def measure(wl, seed: int, seconds: float, checkpoints: list[str]) -> dict:
    """Untraced run. Set-up and the phase units run in blocks of about
    BLOCK_S seconds, interleaved for the whole run, each block given to the
    phase furthest behind its share of the time: every metric then samples
    the same mix of machine states, and few of its units start cache-cold.
    The machine-speed probe (probe.py) runs throughout; each unit keeps the
    probe time around it."""
    import workloads
    from probe import INTERVAL_S, SpeedSampler
    from workloads import PHASES
    sampler = SpeedSampler()
    runs = {phase: [] for phase in ("setup",) + PHASES}      # unit seconds, probe excluded
    windows = {phase: [] for phase in ("setup",) + PHASES}   # (start, end) perf_counter
    samples = {phase: [] for phase in PHASES}

    def behind(phase):
        return (len(runs[phase]) > 0, sum(runs[phase]) / wl.shares[phase])

    def out_of_time(phase):
        typical = statistics.median(runs[phase]) if runs[phase] else 0.0
        return time.perf_counter() - started + typical > seconds and all(samples.values())

    workloads.clock = sampler.clock
    sampler.start()
    try:
        window = time.perf_counter()
        inputs, took = timed_setup(wl, seed, checkpoints)
        runs["setup"].append(took)
        windows["setup"].append((window, time.perf_counter()))
        started = time.perf_counter()
        while not out_of_time(phase := min(runs, key=behind)):
            block = time.perf_counter()
            while True:
                window = time.perf_counter()
                if phase == "setup":
                    runs[phase].append(timed_setup(wl, seed, checkpoints)[1])
                else:
                    samples[phase].append(timed_unit(phase, wl, seed, inputs))
                    runs[phase].append(samples[phase][-1].seconds)
                windows[phase].append((window, time.perf_counter()))
                if time.perf_counter() - block >= BLOCK_S or out_of_time(phase):
                    break
        time.sleep(2 * INTERVAL_S)   # so that probes follow the last unit too
    finally:
        sampler.stop()
        workloads.clock = time.perf_counter
    kind = {phase: "array" if phase in wl.array_phases else "python" for phase in windows}
    probes = {phase: [sampler.probe_s(kind[phase], a, b) for a, b in spans]
              for phase, spans in windows.items()}
    return {"setup_s": runs["setup"], "samples": samples, "inputs": inputs, "probes": probes,
            "probe_kinds": kind, "windows": windows,
            "probe_series": {"starts": sampler.starts, **sampler.durations},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_traced(wl, seed: int, seconds: float, checkpoints: list[str]) -> dict:
    """Rounds of set-up plus one unit per phase, alternately untraced and
    traced. Per-layer numbers are medians over traced rounds; the gap between
    the two kinds of round is the tracing overhead."""
    from tracing import Tracer
    from workloads import PHASES
    tracer = Tracer()
    rounds: dict[str, list[dict]] = {"untraced": [], "traced": []}
    layers: list[dict] = []
    samples = {phase: [] for phase in PHASES}
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        for kind in ("untraced", "traced"):
            times = {}
            if kind == "traced":
                tracer.reset_counters()
                tracer.install()
            try:
                with tracer.span("bench.round") if kind == "traced" else contextlib.nullcontext():
                    inputs, times["setup"] = timed_setup(wl, seed, checkpoints)
                    for phase in PHASES:
                        samples[phase].append(timed_unit(phase, wl, seed, inputs))
                        times[phase] = samples[phase][-1].seconds
            finally:
                tracer.remove()
            rounds[kind].append(times)
        numbers = tracer.layer_metrics()
        numbers["training.state_mb"] = samples["train"][-1].detail["state_mb"]
        numbers["ngram.entries"] = samples["ngram_count"][-1].detail["entries"]
        for variant, rate in samples["train"][-2].detail["windows_per_s"].items():
            numbers[f"fusion.{variant}.windows_per_s"] = rate   # from the untraced round
        layers.append(numbers)
        pair = time.perf_counter() - pair_started
        if time.perf_counter() - started + pair > seconds:
            break
    per_layer = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    for phase in ("setup",) + PHASES:
        gaps = [t[phase] / u[phase] - 1.0 for u, t in zip(rounds["untraced"], rounds["traced"])]
        per_layer[f"trace.overhead.{phase}"] = statistics.median(gaps)
    return {"samples": samples, "inputs": inputs, "per_layer": per_layer, "rounds": rounds,
            "spans": tracer.spans}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def run_checks(wl, seed: int, inputs, samples: dict) -> list[dict]:
    """Checks of the program's outputs that do not use the program's own
    per-window path; each entry is one attempted check."""
    import numpy as np
    from reference import REFERENCE_VARIANTS, kn_normalization_error, window_nll
    from ctxlm import corpus, fusion, ngram
    from ctxlm.numeric import Variable
    rng = np.random.default_rng(seed + 7)
    checks = []

    windows = corpus.corpus_windows(inputs.docs["test"], wl.n)
    for model in inputs.models:
        tag = model.variant.tag
        if tag not in REFERENCE_VARIANTS:
            continue
        picks = [windows[i] for i in rng.choice(len(windows), CHECK_WINDOWS, replace=False)]
        arrays = {name: p.value.astype(np.float64) for name, p in model.params.items()}
        params = {name: Variable(a) for name, a in arrays.items()}
        got, _ = fusion.batch_nll(picks, params, tag, model.vocab)
        want = [window_nll(arrays, tag, w.target.token_ids, [s.token_ids for s in w.context])
                for w in picks]
        err = float(np.max(np.abs(got.value - want) / np.abs(want)))
        checks.append({"check": f"reference_forward.{tag}", "ok": bool(err <= NLL_TOLERANCE),
                       "max_rel_err": err})
        del arrays, params

    table, vocab_size = inputs.table, len(inputs.vocab)
    sentences = [s.token_ids for d in inputs.docs["test"] for s in d.sentences]
    worst = 0.0
    for _ in range(max(3, CHECK_CONTEXTS // vocab_size)):
        seq = (ngram.BOS,) * (table.order - 1) + sentences[rng.integers(len(sentences))]
        i = int(rng.integers(table.order - 1, len(seq)))
        worst = max(worst, kn_normalization_error(table, vocab_size, seq[i - table.order + 1:i]))
    checks.append({"check": "kn_normalization", "ok": worst <= KN_TOLERANCE, "max_abs_err": worst})

    if wl.precision == "f64":   # float64 runs are bit-reproducible; repeats must agree exactly
        for phase, key in (("train", "valid_nll"), ("eval", "total_nll"),
                           ("pos_ppl", "tagged_nll"), ("ngram_query", "total_nll")):
            values = [json.dumps(s.detail[key], sort_keys=True) for s in samples[phase]]
            checks.append({"check": f"repeatable.{phase}", "ok": len(set(values)) == 1})
    return checks


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def reference_time(times: list[float], probes: list[float], kind: str) -> float:
    """A unit's time at the reference machine speed: the median over the run
    of unit time / probe time around it, times the probe's reference time."""
    return statistics.median(t / p for t, p in zip(times, probes)) * REFERENCE_PROBE_S[kind]


def end_to_end(result: dict) -> dict[str, float]:
    s, probes, kinds = result["samples"], result["probes"], result["probe_kinds"]

    def rate(phase):   # every unit of a phase does the same work
        times = [x.seconds for x in s[phase]]
        return s[phase][0].work / reference_time(times, probes[phase], kinds[phase])

    valid = s["train"][0].detail["valid_nll"]
    return {
        "setup_s": reference_time(result["setup_s"], probes["setup"], kinds["setup"]),
        "train_windows_per_s": rate("train"),
        "valid_nll": sum(valid.values()) / len(valid),
        "eval_tokens_per_s": rate("eval"),
        "pos_ppl_tokens_per_s": rate("pos_ppl"),
        "ngram_count_tokens_per_s": rate("ngram_count"),
        "ngram_query_tokens_per_s": rate("ngram_query"),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = load_contract()
    import_program()
    # the KN fallback warnings repeat once per counted table; keep stderr readable
    logging.getLogger("ctxlm.ngram").setLevel(logging.ERROR)
    from workloads import WORKLOADS, build_inputs, write_seeded_checkpoints
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    wl = WORKLOADS[args.workload]
    env = environment(wl, args.seed, bool(args.trace))

    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        checkpoints = write_seeded_checkpoints(wl, args.seed, build_inputs(wl, args.seed, []),
                                               work)
        if args.trace:
            result = measure_traced(wl, args.seed, args.seconds, checkpoints)
            numbers = result["per_layer"]
            wanted = contract["per_layer"]
        else:
            result = measure(wl, args.seed, args.seconds, checkpoints)
            numbers = end_to_end(result)
            wanted = contract["end_to_end"]
        checks = run_checks(wl, args.seed, result["inputs"], result["samples"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [x for phase in result["samples"].values() for x in phase]
    attempted = sum(x.attempted for x in samples) + len(checks)
    failed = sum(x.failed for x in samples) + sum(not c["ok"] for c in checks)
    metrics = {m["name"]: {"value": numbers[m["name"]], "unit": m["unit"]} for m in wanted}

    summary = {phase: {"units": len(xs),
                       "median_unit_s": statistics.median(x.seconds for x in xs),
                       "median_probe_s": (statistics.median(result["probes"][phase])
                                          if "probes" in result else None)}
               for phase, xs in result["samples"].items()}
    record = {
        "environment": env,
        "summary": summary,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
        "all_layers": result.get("per_layer"),
        "samples": {phase: [vars(x) for x in xs] for phase, xs in result["samples"].items()},
        "setup_s": result.get("setup_s"),
        "probes": result.get("probes"),
        "probe_kinds": result.get("probe_kinds"),
        "windows": result.get("windows"),
        "probe_series": result.get("probe_series"),
        "rounds": result.get("rounds"),
        "spans": result.get("spans"),
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for check in checks:
        if not check["ok"]:
            print(f"bench: check failed: {check}", file=sys.stderr)
    for metric, m in metrics.items():
        print(f"{metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
