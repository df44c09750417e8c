#!/bin/sh
# Builds the patchitpy binary and the benchmark from source, then runs
# one workload:
#
#   sh perfbench/run.sh --workload serve-unique --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout.  Build outputs and the per-run
# scratch files go under .bench_build; build logs go to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -e
if [ ! -f dune-project ] || [ ! -f bin/patchitpy_cli.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a full patchitpy checkout" >&2
  exit 2
fi
dune build --root . --build-dir .bench_build --profile release \
  --cache=disabled --display=quiet \
  bin/patchitpy_cli.exe perfbench/perfbench.exe 1>&2
exec .bench_build/default/perfbench/perfbench.exe \
  --cli .bench_build/default/bin/patchitpy_cli.exe \
  --work-dir .bench_build/perfbench "$@"
