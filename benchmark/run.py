#!/usr/bin/env python3
"""altbench front end: build the benchmark binary, then run it.

  run.py --workload W --seed N --seconds S --trace 0|1   one run (the contract in BENCHMARK.json)
  run.py --set NAME [--seeds K]                          K seeds x every workload + one traced run each
  run.py --compare A.json B.json                         two sets against the bounds in BENCHMARK.json

Every run's result is also written to benchmark/out/, with what it was
taken on (seed, nproc, threads, CPU, rustc, git commit, op and sample counts).
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Per-layer counts of the traced run (seed 1, one client) that repeat exactly
# on one commit: if they differ between two sets, the sets measured different
# programs or inputs.
EXACT = ["learned.segments", "alt.num_models", "alt.jump_hops_mean", "alt.root_hops_mean"]


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Release build from source; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr; stdout stays the benchmark's.
    if subprocess.run(cmd, stdout=sys.stderr, env={**os.environ, "CARGO_TARGET_DIR": target}).returncode:
        sys.exit("altbench: the build failed (it needs the repository's crates/ and shims/ beside benchmark/)")
    return os.path.join(target, "release", "altbench")


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """One run of the binary; returns its result record (also written to out/)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    detail = next((json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: ")), {})
    record = {
        "rustc": output_of(["rustc", "--version"]),
        "git_commit": output_of(["git", "rev-parse", "HEAD"]),
        **detail,
        "result": json.loads(lines[-1]),
    }
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if echo:
        sys.stdout.write(proc.stdout)
    return record


def summarize(values):
    """Median, quartiles and the quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_set(name, seeds):
    spec = contract()
    binary = build()
    baseline = os.path.join(HERE, "baseline", "baseline.json")
    result = {"name": name, "seeds": seeds, "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(binary, w, seed, spec["run_seconds"], 0, echo=False)
                for seed in range(1, seeds + 1)]
        traced = run_once(binary, w, 1, spec["run_seconds"], 1, echo=False)
        for key in ("threads", "nproc", "cpu_model", "rustc", "git_commit"):
            result[key] = runs[0][key]
        if os.path.exists(baseline):
            with open(baseline) as f:
                recorded = json.load(f)["threads"]
            if recorded != result["threads"]:
                sys.exit(f"altbench: {result['threads']} client threads here, but the baseline was "
                         f"recorded with {recorded}: the numbers are not comparable")
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        metrics = {m: summarize([r["result"]["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["result"]["metrics"]}
        units = {m: v["unit"] for r in (runs[0], traced) for m, v in r["result"]["metrics"].items()}
        result["workloads"][w] = {
            "attempted": attempted, "failed": failed,
            "failed_ops_share": failed / attempted,
            "end_to_end": metrics,
            "per_layer": {m: v["value"] for m, v in traced["result"]["metrics"].items()},
            "units": units,
            "runs": [{k: v for k, v in r.items() if k != "result"} for r in runs],
        }
        print(f"== {w}: {attempted} ops, {failed} failed")
        for m, s in metrics.items():
            print(f"  {m:<22} {s['median']:>16.4f} {units[m]:<7} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"spread {100 * s['spread']:.2f}%")
        for m, v in result["workloads"][w]["per_layer"].items():
            print(f"  {m:<34} {v:>16.4f} {units[m]}")
    path = os.path.join(OUT, f"set-{name}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {path}")


def compare(path_a, path_b, spec=None, out=sys.stdout):
    """One row per metric x workload; returns the process exit code."""
    spec = spec or contract()
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["threads"] != b["threads"]:
        print(f"sets were taken with {a['threads']} and {b['threads']} client threads: not comparable", file=out)
        return 2
    bad = False
    for w in [w["name"] for w in spec["workloads"]]:
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            sa, sb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            change = (sb["median"] - sa["median"]) / sa["median"]
            if m["better"] == "higher":
                change = -change
            # `change` is now the share by which B is worse than A.
            if max(sa["spread"], sb["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif change < -m["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            bad |= verdict == "worse"
            print(f"{w:<11} {m['name']:<18} {sa['median']:>14.4f} -> {sb['median']:>14.4f} {m['unit']:<7}"
                  f" {-100 * change:+7.2f}% (bound {100 * m['bound']:.0f}%, spread {100 * sa['spread']:.1f}%"
                  f" / {100 * sb['spread']:.1f}%)  {verdict}", file=out)
        for name in EXACT:
            if name in wa.get("per_layer", {}) and name in wb.get("per_layer", {}):
                va, vb = wa["per_layer"][name], wb["per_layer"][name]
                print(f"{w:<11} {name:<18} {va:>14.4f} -> {vb:>14.4f}  "
                      f"{'identical' if va == vb else 'differs'}", file=out)
        fa_, fb_ = wa["failed_ops_share"], wb["failed_ops_share"]
        verdict = "worse" if fb_ > fa_ else "same"
        bad |= fb_ > fa_
        print(f"{w:<11} {'failed_ops_share':<18} {fa_:>14.6f} -> {fb_:>14.6f}  {verdict}", file=out)
    return 1 if bad else 0


def main(argv):
    if argv[:1] == ["--compare"] and len(argv) == 3:
        sys.exit(compare(argv[1], argv[2]))
    if argv[:1] == ["--set"] and len(argv) in (2, 4):
        seeds = int(argv[3]) if argv[2:3] == ["--seeds"] else 10
        return run_set(argv[1], seeds)
    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or "--workload" not in args or set(args) - {"--workload", "--seed", "--seconds", "--trace"}:
        sys.exit(__doc__)
    run_once(build(), args["--workload"], args.get("--seed", "1"),
             args.get("--seconds", str(contract()["run_seconds"])), args.get("--trace", "0"))


if __name__ == "__main__":
    main(sys.argv[1:])
