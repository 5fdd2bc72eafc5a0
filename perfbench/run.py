"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload mine_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``mine_cold``   five TML statements through the in-process library;
* ``serve_warm``  warm cache hits over keep-alive HTTP connections;
* ``append_mine`` streamed appends and re-mines through the cluster.

Inputs come from ``--seed``; every output is checked, and a failed
check exits non-zero without a result.  The last line of standard
output is one JSON object: with ``--trace 0`` its metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from a traced
run (which also measures an untraced window, to report the tracing
overhead).  Lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mine_cold", "serve_warm", "append_mine")

#: End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)


class Report:
    """Human-readable lines, printed as the run goes."""

    def line(self, label: str, value) -> None:
        if not isinstance(value, str):
            value = json.dumps(value, sort_keys=True)
        print(f"# {label}: {value}", flush=True)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"  ({note})" if note else ""
        print(f"# metric {name} = {value:.6g} {unit}{suffix}", flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench import common

    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common.clear_pinning_env()
    run_dir = ROOT / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir)
    report = Report()
    record = dict(common.run_record(), workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    report.line("run", record)
    try:
        if args.workload == "mine_cold":
            from perfbench import mine_cold

            result = mine_cold.run(args.seed, args.seconds, bool(args.trace), report)
        elif args.workload == "serve_warm":
            from perfbench import serve_warm

            result = serve_warm.run(args.seed, args.seconds, bool(args.trace), report, run_dir)
        else:
            from perfbench import append_mine

            result = append_mine.run(args.seed, args.seconds, bool(args.trace), report, run_dir)
    except common.BenchFailure as failure:
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 — any other failure is a failed run too
        traceback.print_exc()
        return 1
    finally:
        common.Child.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = int(result["attempted"]), int(result["failed"])
    for name, unit in END_TO_END:
        report.metric(name, result["metrics"][name], unit)
    report.metric("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted} attempted")
    if args.trace:
        from perfbench import tracing

        units = dict(tracing.PER_LAYER)
        for name, unit in tracing.PER_LAYER:
            report.metric(name, result["per_layer"][name], unit)
        for name, value in result["per_layer"].items():
            if name not in units:
                report.line(name, value)
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
