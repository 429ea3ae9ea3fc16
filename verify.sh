#!/bin/sh
# verify.sh — the tiered verification gate.
#
#   ./verify.sh         tier-1: cleanliness + static analysis + short tests,
#                       over the root module and the nested benchmark module
#   ./verify.sh full    tier-2: adds the race detector, the full test suite,
#                       10 s of each fuzz target, and the §5.2 figure,
#                       chaos, crash-resume, determinism, transport and
#                       run-mode smokes
#
# Performance is not checked here: the repo benchmark (BENCHMARK.json,
# `bash benchmark/run.sh`) is measured on parent and change on one host.
#
# Order: cheapest-to-fail first. Formatting and module drift fail in
# milliseconds, the static layers (vet, icovet) in seconds, the dynamic
# ones last. Tier-1 uses `go test -short` so the multi-hour integration
# battery (longrun_test.go) and the multi-simulation benchmarks stay out
# of the inner loop; `full` runs everything.
set -eux

# --- tier 1 -----------------------------------------------------------
# Formatting: gofmt -l prints offending files; any output is a failure.
# gofmt walks directories, not modules, so this covers benchmark/ too.
test -z "$(gofmt -l .)"
# Module drift: go.mod/go.sum must be exactly what go mod tidy produces.
go mod tidy -diff

go build ./...
# Generated-kernel drift: internal/gen/kernels_gen.go is codegen output
# checked in as its own golden; regenerating must be a no-op, or the tree
# carries hand edits to generated code (or a stale generation). Scoped to
# the generated package so the gate works on a dirty tree; CI runs the
# whole-tree variant on its clean checkout.
go generate ./...
git diff --exit-code -- internal/gen
go vet ./...
# icovet: the repo-specific analyzer suite, plus the suppression budget —
# every //icovet:ignore must name its analyzer and justify itself, and
# the total may not grow past the count below without a conscious,
# reviewed bump here and in ci.yml.
go run ./cmd/icovet -ignore-budget 2 ./...
go test -short ./...
# The nested benchmark module (benchmark/go.mod; `./...` above stops at
# its boundary): same vet and icovet, no ignores, and its tests hold
# BENCHMARK.json and the program's metric set together.
(cd benchmark && go vet ./... && go run icoearth/cmd/icovet ./...)
go test -C benchmark ./...

[ "${1:-}" = "full" ] || exit 0

# --- tier 2 (full) ----------------------------------------------------
# Race detector over every package. The short run covers the whole module
# (the long-haul integration batteries are too slow under the race
# runtime); the concurrency-critical packages then rerun un-short so
# their full suites — pool stress, halo exchange, supervised recovery —
# execute under the detector, and the atmosphere, ocean, BGC and land so
# their vertex, edge, cell and column sweeps are shown to write disjoint
# columns.
go test -race -short ./...
go test -race ./internal/sched/... ./internal/par/... ./internal/par/socket/... ./internal/exec/... ./internal/coupler/... ./internal/fault/... ./internal/restart/... ./internal/atmos/... ./internal/ocean/... ./internal/bgc/... ./internal/land/...
go test ./...
# Fuzz the two parsers of on-disk checkpoint bytes, the decoder of socket
# frames and the -chaos/-crash-at spec grammars, 10 s each (tier-1 ran
# their checked-in corpora as plain tests): no panic; for the byte parsers
# no allocation beyond a small multiple of the input and an accepted input
# re-encodes to itself; an accepted spec re-encodes to an equal value.
go test ./internal/restart -run '^$' -fuzz '^FuzzReadShard$' -fuzztime 10s
go test ./internal/restart -run '^$' -fuzz '^FuzzReadManifest$' -fuzztime 10s
go test ./internal/par/socket -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s
go test ./internal/fault -run '^$' -fuzz '^FuzzParseChaosSpec$' -fuzztime 10s
go test ./internal/fault -run '^$' -fuzz '^FuzzParseKillSpec$' -fuzztime 10s
# §5.2 smoke: the interpreter against the generated kernels that ship,
# with the lines-of-code and bandwidth figures (≈3 s).
go run ./cmd/figures sdfg
# Chaos smoke: a supervised run with injected faults must complete with
# conservation intact (tiny grid; exercises crash, rollback, retry; the
# coupling window overlapped — the default).
go run ./cmd/esmrun -hours 0.5 -grid 1 -atmlev 5 -oclev 4 -chaos seed=1
# Crash-resume smoke: a durable run SIGKILLed mid-checkpoint-write (a
# torn manifest genuinely on disk) must resume to the exact fingerprint
# of the uninterrupted durable run. The full seeded kill-point lottery
# runs in `go test ./internal/fault/` above; this drives the esmrun CLI
# path end to end.
CKPT_DIR="$(mktemp -d)"
go run ./cmd/esmrun -hours 0.5 -grid 1 -atmlev 5 -oclev 4 -ckpt-dir "$CKPT_DIR/ref" -sums "$CKPT_DIR/a.txt" > /dev/null
# (`if`, not `!`: errexit ignores a `!` pipeline, so a crash run that
# survived would go unnoticed and the resume below compare trivially.)
if go run ./cmd/esmrun -hours 0.5 -grid 1 -atmlev 5 -oclev 4 -ckpt-dir "$CKPT_DIR/crash" -crash-at write=manifest-temp:2 > /dev/null; then
	echo "crash run survived its kill point"
	exit 1
fi
go run ./cmd/esmrun -hours 0.5 -grid 1 -atmlev 5 -oclev 4 -resume "$CKPT_DIR/crash" -sums "$CKPT_DIR/b.txt" > /dev/null
cmp "$CKPT_DIR/a.txt" "$CKPT_DIR/b.txt"
rm -rf "$CKPT_DIR"
# Determinism smoke: the overlapped and the serialised coupling window
# must produce byte-for-byte identical conservation fingerprints (the CI
# determinism job runs the full workers × overlap matrix).
SUMS_DIR="$(mktemp -d)"
go run ./cmd/esmrun -hours 0.5 -overlap=true -sums "$SUMS_DIR/on.txt" > /dev/null
go run ./cmd/esmrun -hours 0.5 -overlap=false -sums "$SUMS_DIR/off.txt" > /dev/null
cmp "$SUMS_DIR/on.txt" "$SUMS_DIR/off.txt"
# Land pair: the 64 land records launched one by one (-no-graphs) against
# the captured graph's replay — the fused pass rides on the first record
# either way (CI runs this pair too).
go run ./cmd/esmrun -hours 1 -sums "$SUMS_DIR/land-graph.txt" > /dev/null
go run ./cmd/esmrun -hours 1 -no-graphs -sums "$SUMS_DIR/land-eager.txt" > /dev/null
cmp "$SUMS_DIR/land-graph.txt" "$SUMS_DIR/land-eager.txt"
# Atmosphere-heavy pair: the runs above have 10 atmosphere levels; 20 (the
# benchmark's atm_bound shape) put the physics and column sweeps, block
# boundaries included, under the workers {1,4} check where they dominate
# (CI runs this pair too).
go run ./cmd/esmrun -hours 1 -atmlev 20 -oclev 8 -workers 1 -sums "$SUMS_DIR/atm-w1.txt" > /dev/null
go run ./cmd/esmrun -hours 1 -atmlev 20 -oclev 8 -workers 4 -sums "$SUMS_DIR/atm-w4.txt" > /dev/null
cmp "$SUMS_DIR/atm-w1.txt" "$SUMS_DIR/atm-w4.txt"
# Ocean-heavy pair: 6 atmosphere and 12 ocean levels (the benchmark's
# ocean_bound shape) make the transport sweep's coefficient and stencil
# passes, block boundaries included, the bulk of the work (CI runs this
# pair too).
go run ./cmd/esmrun -hours 1 -atmlev 6 -oclev 12 -workers 1 -sums "$SUMS_DIR/ocean-w1.txt" > /dev/null
go run ./cmd/esmrun -hours 1 -atmlev 6 -oclev 12 -workers 4 -sums "$SUMS_DIR/ocean-w4.txt" > /dev/null
cmp "$SUMS_DIR/ocean-w1.txt" "$SUMS_DIR/ocean-w4.txt"
# Transport smoke: the one par.Comm over both of its substrates — four
# goroutine ranks over channels, four real rank processes over unix
# sockets, then seven (an uneven split of the reduction blocks, so the
# solver's paired fold carries lists of unequal length) — must land on
# the byte-identical fingerprint (the CI determinism job runs the full
# ranks × transport matrix). Built to a
# binary first: the socket launcher re-execs os.Executable(), which under
# `go run` is a temp path that may vanish.
go build -o "$SUMS_DIR/esmrun" ./cmd/esmrun
"$SUMS_DIR/esmrun" -hours 0.5 -ranks 4 -sums "$SUMS_DIR/inproc.txt" > /dev/null
cmp "$SUMS_DIR/on.txt" "$SUMS_DIR/inproc.txt"
"$SUMS_DIR/esmrun" -hours 0.5 -ranks 4 -transport socket -sums "$SUMS_DIR/socket.txt" > /dev/null
cmp "$SUMS_DIR/on.txt" "$SUMS_DIR/socket.txt"
"$SUMS_DIR/esmrun" -hours 0.5 -ranks 7 -transport socket -sums "$SUMS_DIR/socket7.txt" > /dev/null
cmp "$SUMS_DIR/on.txt" "$SUMS_DIR/socket7.txt"
# Run-mode smoke: plain, durable, chaos (crash, corrupted checkpoint, NaN)
# and three socket ranks step the same windows through esmrun's one run
# loop and must land on one fingerprint (the CI determinism job runs this
# step too).
TINY="-hours 1 -grid 1 -atmlev 5 -oclev 4"
"$SUMS_DIR/esmrun" $TINY -sums "$SUMS_DIR/modes-plain.txt" > /dev/null
"$SUMS_DIR/esmrun" $TINY -ckpt-dir "$SUMS_DIR/store" -sums "$SUMS_DIR/modes-durable.txt" > /dev/null
"$SUMS_DIR/esmrun" $TINY -chaos "seed=7,plan=crash@1:dycore;ckptflip@2;nan@2:atm.qv" -sums "$SUMS_DIR/modes-chaos.txt" > /dev/null
"$SUMS_DIR/esmrun" $TINY -ranks 3 -transport socket -sums "$SUMS_DIR/modes-ranks.txt" > /dev/null
for m in durable chaos ranks; do
	cmp "$SUMS_DIR/modes-plain.txt" "$SUMS_DIR/modes-$m.txt"
done
rm -rf "$SUMS_DIR"
