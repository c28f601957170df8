#!/usr/bin/env bash
# simbench smoke: runs every workload named in BENCHMARK.json for 2 s at seed 1 and fails
# unless each run's last output line parses as JSON with "correct": true. simbench/ is its
# own CMake project outside the main build (python3 simbench/run.py builds it into
# .bench_build/), so this is also what notices a src/ API change that breaks it.
#
# Each workload's events and allocations per delivered packet go to BENCH_e2e.json, which is
# then held against bench/trajectory/BENCH_e2e.json: events per packet repeat exactly for a
# seed, so any change fails unless the seed file moves with it; allocations follow the
# standard library and are only recorded. To regenerate the seed after a change that is
# meant to move the counts, run this script and copy BENCH_e2e.json over it.
#
# Usage: scripts/simbench_smoke.sh   (from anywhere; it runs at the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
: > BENCH_e2e.json
for w in $workloads; do
  last=$(python3 simbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  echo "$w: ${last:0:160}"
  python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' "$last"
  python3 -c 'import json, sys; m = json.loads(sys.argv[2])["metrics"]; [print(json.dumps({"bench": "e2e", "metric": sys.argv[1] + "." + k, "value": m[k]["value"]})) for k in ("events_per_packet", "allocs_per_packet")]' "$w" "$last" >> BENCH_e2e.json
done
python3 scripts/bench_regression.py bench/trajectory/BENCH_e2e.json BENCH_e2e.json
