#!/bin/sh
# check.sh — the one-command repo gate. In order: gofmt, go vet, the tier-1
# tests with a coverage floor, the race detector over everything (view
# maintenance fans Propagate+Apply out over a worker pool, and the read-only
# contracts of the store and the round's draft it relies on are only enforced
# by these tests; arena poison is on under -race), a fuzz smoke of the three
# front ends, the xqtop golden frames, the MVCC concurrency battery under a
# deadline (the read path's frame-body memo test rides in it: racing first
# readers, bodies shared across versions), and last the repository's one
# benchmark against its own bounds (≈ 3 min). The unused-field lint over the
# round, view-set, shared-DAG, state-cache, MVCC, draft and script-evaluation
# structs is a tier-1 test (TestStructFieldsReferenced).
#
# Usage: ./check.sh [extra go test args, e.g. -count=1; -short falls under the
# coverage floor]
set -eu
cd "$(dirname "$0")"

echo "== gofmt -l" >&2
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..." >&2
go vet ./...

echo "== go test ./... (tier-1, with coverage)" >&2
coverprofile="${TMPDIR:-/tmp}/xqview_cover.$$"
trap 'rm -f "$coverprofile"' EXIT
go test -coverprofile="$coverprofile" "$@" ./...

# Coverage floor: total statement coverage was 73.1% when the gate was
# introduced and 77.2% when the floor was last raised; fail if a change sheds
# more than 2 points. Raise the floor when coverage durably improves, never
# lower it to admit a regression.
cover_floor=75.0
echo "== coverage floor ($cover_floor%)" >&2
go tool cover -func="$coverprofile" | awk -v floor="$cover_floor" '
	/^total:/ {
		pct = $NF; sub(/%/, "", pct)
		printf "total statement coverage: %s%% (floor %s%%)\n", pct, floor
		if (pct + 0 < floor + 0) {
			printf "COVERAGE REGRESSION: %s%% < %s%%\n", pct, floor
			exit 1
		}
	}
' >&2

echo "== go test -race ./..." >&2
go test -race "$@" ./...

# Fuzz smoke: each native fuzz target runs briefly past its checked-in
# seed corpus (testdata/fuzz/) so newly-introduced panics in the query
# frontend, the update language, or FlexKey gap generation surface here
# rather than only in long offline fuzzing. FuzzParseUpdates is also a
# differential: every input's primitives and errors must be those of the
# per-statement reference evaluator (script-scoped evaluation shares binding
# lists and answers repeated "=" probes from a hash).
fuzz_smoke="${FUZZ_SMOKE:-3s}"
echo "== fuzz smoke (-fuzztime $fuzz_smoke per target)" >&2
go test ./internal/compile/ -run '^$' -fuzz '^FuzzCompile$' -fuzztime "$fuzz_smoke" >&2
go test ./internal/update/ -run '^$' -fuzz '^FuzzParseUpdates$' -fuzztime "$fuzz_smoke" >&2
go test ./internal/flexkey/ -run '^$' -fuzz '^FuzzFlexKeyBetween$' -fuzztime "$fuzz_smoke" >&2

# The xqtop dashboard must build, and its golden frames must hold at both
# reference terminal sizes (the renderer is pure, so the frames are fully
# deterministic).
echo "== xqtop build + golden frames" >&2
go build ./cmd/xqtop ./cmd/xqview
go test ./internal/top/ -run 'TestRenderGolden|TestRenderShape' >&2

# The MVCC concurrency battery runs under -race with an explicit deadline (a
# lost wakeup or livelock in the epoch registry must fail the gate, not hang
# it): the randomized linearizability sweep, the epoch-reclamation leak
# test (versions and the frame bodies they hold), the frame-body memo test
# (first readers of an epoch race to one body), the round sample's reader
# count (derived from the handles, whatever the telemetry switch did between
# acquire and release), and the crash-consistency sweeps that pin reader
# isolation across aborted rounds. Arena poison is on
# under -race, so a published extent aliasing round-arena memory fails here
# too.
echo "== MVCC concurrency battery (-race, 300s deadline)" >&2
go test -race -timeout 300s \
	-run 'TestSnapshotLinearizability|TestSnapshotEpochReclamation|TestSnapRegLifecycle|TestFrameBodySharedAcrossVersions|TestRoundTelemetrySnapshotFields|TestCrashConsistencyEverySite|TestSharedCrashConsistencyEverySite' \
	. ./internal/core/ >&2

# The benchmark, twice over this tree: every operation checked against the
# recompute oracle, every end-to-end metric × workload beside the bound
# BENCHMARK.json gives it (see benchmark/README.md).
echo "== go run ./benchmark -repeat 2 -check" >&2
go run ./benchmark -repeat 2 -check >&2

echo "check.sh: all green" >&2
