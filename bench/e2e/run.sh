#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark with an existing build and
# writes <out>/results.json; with --sets 2, also compares the two sets.
#   bench/e2e/run.sh [--build DIR] [--reps N] [--sets K] [--seed S] [--out DIR]
# Builds nothing: build first as bench/e2e/README.md shows.
exec python3 "$(dirname "$0")/run.py" suite "$@"
