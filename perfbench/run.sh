#!/usr/bin/env bash
# Builds the perfbench program from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload jobs-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, temporary files, the binary, the service stores) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the root of an ftspanner checkout (go.mod, internal/ and perfbench/ must exist)" >&2
  exit 2
fi
if ! command -v go > /dev/null 2>&1; then
  echo "perfbench: the go toolchain is not on PATH" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off GOFLAGS=

commit=unknown
if [ -d "$root/.git" ] && command -v git > /dev/null 2>&1; then
  commit=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
fi
export PERFBENCH_COMMIT="$commit"

# The stamp hashes the toolchain version and every Go source and go.mod; it
# names the measured code in the run's fingerprint. Rebuild only when it
# changed: rewriting the binary on every run would leave megabytes of dirty
# pages behind, and their writeback slows the next run's set-up.
stamp=$( (go version; find "$root" \( -path "$out" -o -path "$root/.git" \) -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
  | LC_ALL=C sort | xargs sha256sum) | sha256sum | cut -d' ' -f1)
if [ ! -x "$out/perfbench" ] || [ "$(cat "$out/perfbench.stamp" 2> /dev/null)" != "$stamp" ]; then
  (cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
  echo "$stamp" > "$out/perfbench.stamp"
fi
export PERFBENCH_SOURCE="$stamp"
exec "$out/perfbench" "$@"
