#!/usr/bin/env bash
# End-to-end smoke test of the `flare` CLI.
#
#   tools/cli_smoke.sh [path/to/flare]      (default: build/src/cli/flare)
#
# Runs README's two command-line walkthroughs — the single-shape one and the
# `--shapes default:6,small:2,dense:4` fleet one — in a scratch directory,
# generating the batch and metric files they read. Any non-zero exit fails
# the script. Then, for every pipeline command, it checks that a run without
# --shapes prints (and writes) exactly the same bytes as the same run with
# --shapes default:1: a single-shape run is a one-shape fleet.
set -euo pipefail

flare=$(realpath "${1:-build/src/cli/flare}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

step() {
  echo "+ flare $*"
  "$flare" "$@"
}

echo "== single-shape walkthrough"
step simulate --out scenarios.csv --scenarios 895
step profile  --scenarios scenarios.csv --out metrics.csv
step analyze  --metrics metrics.csv --quality-curve
step evaluate --scenarios scenarios.csv --feature feature2 --truth --sampling
step evaluate --scenarios scenarios.csv --feature "fmax=2.0,llc=20,smt=off"
step report   --scenarios scenarios.csv --out report.md --truth \
              --features "feature1;feature2;fmax=2.2,llc=24"
step campaign --scenarios scenarios.csv --feature feature2 \
              --testbeds 4 --target-ci 2.0 --campaign-state campaign.csv
step simulate --out scenarios_q0.csv --scenarios 300 --seed 3
step simulate --out scenarios_q1.csv --scenarios 300 --seed 4
step profile  --scenarios scenarios_q0.csv --out metrics_q0.csv
step profile  --scenarios scenarios_q1.csv --out metrics_q1.csv
step drift    --baseline metrics_q0.csv --fresh metrics_q1.csv
step simulate --out batch.csv --scenarios 60 --seed 11
step ingest   --scenarios scenarios.csv --batch batch.csv \
              --journal --resume --faults 0.1 --sample-quorum 2 --max-retries 2

echo "== fleet walkthrough"
fleet=default:6,small:2,dense:4
step simulate --shapes "$fleet" --scenarios 150 --out fleet.csv
step simulate --shapes "$fleet" --scenarios 20 --seed 13 --out fleet_batch.csv
step evaluate --scenarios fleet.csv --shapes "$fleet" --feature feature1 --truth
step ingest   --scenarios fleet.csv --batch fleet_batch.csv --shapes "$fleet"
step report   --scenarios fleet.csv --shapes "$fleet" \
              --features "feature1;feature2" --truth --out fleet.md
step campaign --scenarios fleet.csv --shapes "$fleet" \
              --feature feature1 --testbeds 8 --target-ci 2.0 \
              --replay-faults 0.1 --campaign-state fleet_campaign.csv --truth
step report   --campaign-state fleet_campaign.csv --out campaign.md

echo "== no --shapes vs --shapes default:1"
step simulate --out small.csv --scenarios 150 --seed 5
step profile  --scenarios small.csv --out small_metrics.csv --samples 2
# same_bytes NAME FILE EXTRA -- ARGS...: runs ARGS twice, plain and with
# `--shapes default:1` plus EXTRA appended, and compares stdout plus FILE
# (when non-empty) between the two runs.
same_bytes() {
  local name=$1 file=$2 extra=$3
  shift 4
  echo "+ flare $* [vs. + --shapes default:1 $extra]"
  "$flare" "$@" > "$name.plain.out"
  [[ -z "$file" ]] || mv "$file" "$name.plain.file"
  # shellcheck disable=SC2086
  "$flare" "$@" --shapes default:1 $extra > "$name.fleet.out"
  [[ -z "$file" ]] || mv "$file" "$name.fleet.file"
  cmp "$name.plain.out" "$name.fleet.out"
  [[ -z "$file" ]] || cmp "$name.plain.file" "$name.fleet.file"
}
# Metric rows carry no shape id: with --shapes, analyze routes them by the
# row-aligned scenario trace.
same_bytes analyze "" "--scenarios small.csv" -- \
  analyze --metrics small_metrics.csv --clusters 6
same_bytes evaluate "" "" -- evaluate --scenarios small.csv \
  --feature feature1 --clusters 6 --truth --sampling --per-job \
  --replay-faults 0.1
same_bytes ingest "" "" -- ingest --scenarios small.csv --batch batch.csv \
  --clusters 6 --faults 0.1 --drift-response on --pca-update auto
same_bytes report small.md "" -- report --scenarios small.csv \
  --out small.md --clusters 6 --truth --replay-faults 0.1
same_bytes campaign small_campaign.csv "" -- campaign --scenarios small.csv \
  --feature feature2 --clusters 6 --truth --campaign-state small_campaign.csv
echo "cli smoke: ok"
