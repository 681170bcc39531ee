#!/usr/bin/env bash
# Builds mus-serve and the benchmark driver from the sources of the
# checkout it is run in, then runs the driver. Run it from the root of the
# repository:
#
#	bash musbench/run.sh --workload cold-ladder --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, temporary files and the
# server's -data-dir.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mus-serve" || ! -f "$root/musbench/go.mod" ]]; then
	echo "run.sh: run from the root of a mus checkout (go.mod, cmd/mus-serve and musbench/ are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/musbench" && go build -o "$out/mus-serve" repro/cmd/mus-serve && go build -o "$out/musbench" .)
exec "$out/musbench" -server "$out/mus-serve" -workdir "$out" "$@"
