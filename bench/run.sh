#!/usr/bin/env bash
# Builds the SymBee benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload busy_air --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare parent.jsonl change.jsonl
#
# Every build artifact (binary, Go build cache) stays under .bench_build
# in the current directory, so the run reads and writes nothing outside
# the checkout. The build fails, and the script exits non-zero without
# printing a result, when the program sources beside bench/ are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local

# Stamp the commit into the binary only when the checkout itself is a git
# repository; otherwise the toolchain would search parent directories.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi
(cd "$root/bench" && go build -buildvcs="$vcs" -o "$out/symbeebench" .)
exec "$out/symbeebench" "$@"
