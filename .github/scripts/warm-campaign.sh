#!/usr/bin/env bash
# Run one campaign cold, then re-run it and require the re-run to
# execute nothing and serve all N runs from the warm store.
#
# usage: warm-campaign.sh N [--json-out PATH] CAMPAIGN_ARGS...
#
# A leading --json-out goes to the cold run only, so the uploaded
# campaign record keeps the cold run's accounting.
set -eu
cached="$1"
shift
cold_only=()
if [ "${1:-}" = "--json-out" ]; then
  cold_only=("$1" "$2")
  shift 2
fi
export PYTHONPATH=src
python -m repro.experiments.campaign "$@" "${cold_only[@]}"
python -m repro.experiments.campaign "$@" \
  | tee /dev/stderr | grep "executed=0 cached=${cached}" >/dev/null
