#!/usr/bin/env python3
"""Drive amm_swarm against a real loopback cluster.

This script boots --n node clusters of ``amm_node``, aims an amm_swarm rung
ladder at them, and folds the swarm's throughput table into one
harness-style JSON document (the shape collect_bench.py ingests via
--extra amm_swarm=FILE).

Measurement controls (the committed BENCH_net.json baseline uses all three):

  --fresh-cluster-per-rung   boot a new cluster for every rung (and every
      trial) so a rung never inherits the previous rung's record history or
      its idle-population teardown. A shared cluster carries every earlier
      rung's history (a larger view and resident set) into the later rungs,
      which tilts the ladder against them.
  --total-appends N          per-writer appends = N // writers, so every
      rung performs the same total work and deposits the same history —
      rungs differ only in fanout, the variable under study.
  --trials K                 run each rung K times and keep the best
      appends/sec row (peak sustained throughput; best-of damps loopback
      scheduler noise on small machines).

Exit status is nonzero if any swarm invocation fails (incomplete rung,
unreachable cluster), making this a cheap end-to-end smoke for the whole
high-fanout path: connect burst -> accept -> ctl append -> signature check
and ABD quorum -> ctl reply.

Usage:
  tools/swarm_smoke.py --bin-dir build/tools [--n 3] [--scale 8,32]
                       [--appends 20 | --total-appends 25600] [--window 4]
                       [--idle 0] [--trials 1] [--fresh-cluster-per-rung]
                       [--json swarm.json]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cluster_test import Cluster, ClusterError, log  # noqa: E402

RATE_COLUMN = "appends/sec"
CAPTION = "append throughput vs concurrent writers"


def run_swarm(bin_dir: Path, cluster: Cluster, scale: str, appends: int,
              window: int, idle: int) -> dict:
    """Runs one amm_swarm invocation; returns its throughput table."""
    ports = ",".join(str(cluster.port(i)) for i in range(cluster.n))
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_json = Path(tmp.name)
    try:
        cmd = [str(bin_dir / "amm_swarm"), "--ports", ports, "--scale", scale,
               "--appends", str(appends), "--window", str(window),
               "--idle", str(idle), "--json", str(out_json)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise ClusterError(
                f"amm_swarm -> exit {proc.returncode}: {proc.stderr.strip()}")
        doc = json.loads(out_json.read_text())
        # amm_swarm emits the throughput ladder plus (when the post-run
        # stats probe succeeds) a per-node resident-memory table; the
        # ladder is the one keyed by the rate column.
        tables = [t for t in doc.get("tables", [])
                  if RATE_COLUMN in t.get("table", {}).get("headers", [])]
        if len(tables) != 1:
            raise ClusterError(
                f"amm_swarm emitted {len(tables)} throughput tables, expected 1")
        return tables[0]
    finally:
        out_json.unlink(missing_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin-dir", type=Path, required=True)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20200715)
    parser.add_argument("--scale", default="8,32")
    parser.add_argument("--appends", type=int, default=20,
                        help="appends per writer (ignored when --total-appends is set)")
    parser.add_argument("--total-appends", type=int, default=None,
                        help="fix total appends per rung; per-writer = total // writers")
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--idle", type=int, default=0,
                        help="held-open quiescent connections per cluster (the "
                             "high-fanout regime)")
    parser.add_argument("--trials", type=int, default=1,
                        help="runs per rung; the best appends/sec row is kept")
    parser.add_argument("--fresh-cluster-per-rung", action="store_true",
                        help="boot a new cluster per rung+trial (no cross-rung "
                             "history or idle-teardown contamination)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the merged harness document here")
    args = parser.parse_args()

    rungs = [int(s) for s in args.scale.split(",") if s]
    if not rungs or args.trials < 1:
        log("FAILED: need a nonempty --scale and --trials >= 1")
        return 1

    def appends_for(writers: int) -> int:
        if args.total_appends is not None:
            return max(1, args.total_appends // writers)
        return args.appends

    headers: list[str] | None = None

    def one_trial(cluster: Cluster, writers: int) -> list[list[str]]:
        table = run_swarm(args.bin_dir, cluster, str(writers), appends_for(writers),
                          args.window, args.idle)
        nonlocal headers
        if headers is None:
            headers = table["table"]["headers"]
        return table["table"]["rows"]

    rows: list[list[str]] = []
    if args.fresh_cluster_per_rung:
        # Sweep-major: each trial walks the whole ladder, then best-of is
        # taken per rung across sweeps. Trial-major would let slow ambient
        # drift masquerade as a rung-ordering effect (the last rung always
        # measured on the most-drifted machine).
        candidates: dict[int, list[list[str]]] = {w: [] for w in rungs}
        for _ in range(args.trials):
            for writers in rungs:
                cluster = Cluster(args.bin_dir, args.n, args.seed)
                cluster.start()
                try:
                    candidates[writers] += one_trial(cluster, writers)
                finally:
                    cluster.stop_all()
        rate = headers.index(RATE_COLUMN)
        for writers in rungs:
            rows.append(max(candidates[writers], key=lambda r: float(r[rate])))
    else:
        cluster = Cluster(args.bin_dir, args.n, args.seed)
        cluster.start()
        try:
            for writers in rungs:
                candidates = []
                for _ in range(args.trials):
                    candidates += one_trial(cluster, writers)
                rate = headers.index(RATE_COLUMN)
                rows.append(max(candidates, key=lambda r: float(r[rate])))
        finally:
            cluster.stop_all()

    doc = {"title": "amm_swarm client swarm",
           "tables": [{"caption": CAPTION, "table": {"headers": headers, "rows": rows}}]}
    if args.json:
        args.json.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        log(f"wrote {args.json}")
    log("swarm smoke OK")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ClusterError as err:
        log(f"FAILED: {err}")
        sys.exit(1)
