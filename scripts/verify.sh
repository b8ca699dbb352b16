#!/bin/sh
# verify.sh — the repository's full correctness gate, run locally and in CI:
#   build, go vet, go vet of the bench module (which type-checks the
#   benchmark's calls into this tree, so a renamed or re-signed name it
#   uses fails here), gofmt -l (no unformatted file), dynalint (all eight
#   analyzers, JSON findings diffed against the checked-in empty
#   baseline; DYNALINT_FINDINGS names the artifact file), the test
#   suite under the race detector (which includes the fault-injection soak,
#   TestPipelineUnderLoss), a bounded stress run of parallel.MapErr's
#   lowest-index error contract, the golden regression corpus, the crash-injection
#   kill-and-resume smoke, the seeded HA failover matrix (lease-preserving
#   and renumbering takeovers under -race plus the serve-bng standby
#   promotion), a metrics/stats CLI smoke, a 'dynamips watch' smoke
#   against a live serve-bng /sketch endpoint, a live standby smoke (a
#   serve-bng -standby tracking a churning active to hour 48 with no
#   split brain), a coverage floor over
#   the assignment-plane protocol packages and their address pool, the
#   simulators' event queue, the bng session store, the CGN substrate,
#   the checkpoint layer, the observability layer, and the IP-echo schema
#   (plus a stricter floor over the sketch plane), the non-race
#   million-session BNG soak (>=10^6 concurrent sessions at >=10^6
#   events/sec with worker-count hash identity), one iteration of the
#   bng engine stage benchmark and of each CDN stream stage benchmark, a
#   bench regression smoke against the checked-in baseline, and a
#   bounded fuzz smoke over every wire-codec,
#   fault-profile-parsing, journal-decoding, sketch-codec,
#   sketch-query-parsing, session-snapshot codec, address-pool,
#   event-queue and IP-echo-records Fuzz* target.
#   FUZZTIME bounds each fuzz run (default 10s); BENCH_THRESHOLD bounds
#   the allowed ns/op slowdown factor (default 2.0).
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"
COVERAGE_FLOOR="${COVERAGE_FLOOR:-80}"
SKETCH_COVERAGE_FLOOR="${SKETCH_COVERAGE_FLOOR:-90}"
BENCH_THRESHOLD="${BENCH_THRESHOLD:-2.0}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> (cd bench && go vet ./...) (the benchmark compiles against this tree)"
(cd bench && go vet ./...)

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt -l lists unformatted files:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> dynalint ./... (JSON findings, gated against .dynalint-baseline.json)"
lintjson="${DYNALINT_FINDINGS:-$(mktemp)}"
rc=0
go run ./cmd/dynalint -json -baseline .dynalint-baseline.json ./... >"$lintjson" || rc=$?
if [ "$rc" -ne 0 ]; then
	echo "FAIL: dynalint findings not covered by the baseline:" >&2
	cat "$lintjson" >&2
	exit 1
fi
echo "    findings artifact: $lintjson"

echo "==> go test -race ./... (includes the loss soak)"
go test -race ./...

echo "==> parallel.MapErr stress (lowest failing index reported, every lower index run)"
go test ./internal/parallel -run '^TestMapErrLowestIndexError$' -count=5000 -cpu 4

echo "==> million-session BNG soak (non-race: >=10^6 sessions, >=10^6 events/sec, worker-count identity)"
go test ./internal/bng -run '^TestMillionSessionSoak$' -count=1 -v

echo "==> golden regression corpus"
go test . -run '^TestGolden' -count=1

echo "==> crash-injection smoke (kill-and-resume matrix)"
go test ./cmd/dynamips -run '^(TestKillAndResume|TestResumeAfterTrailingCorruption)$' -count=1

echo "==> HA failover matrix (both recovery policies under -race at workers 1/4/16; standby promotion)"
go test -race ./internal/bng -run '^(TestFailoverPreserveIdentity|TestFailoverRenumberDeterministic|TestFailoverResumeReplay|TestFailoverMeanSchedule|TestPairSyncPromote)$' -count=1
go test ./cmd/dynamips -run '^TestServeBNGStandbyPromotion$' -count=1

echo "==> metrics/stats CLI smoke"
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go build -o "$smokedir/dynamips" ./cmd/dynamips
"$smokedir/dynamips" experiment -hours 8760 -probe-scale 0.1 -workers 4 \
	-metrics "$smokedir/metrics.json" sanitize >/dev/null
"$smokedir/dynamips" stats "$smokedir/metrics.json" >/dev/null

echo "==> watch smoke (dynamips watch -once against a live serve-bng /sketch)"
"$smokedir/dynamips" serve-bng -subscribers 2000 -shards 3 -churn-hours 24 -round-hours 6 \
	-listen 127.0.0.1:0 >"$smokedir/serve.log" 2>&1 &
bngpid=$!
# The daemons are normally stopped already; under set -e a failing kill
# would end the trap early with status 1.
trap 'kill "$bngpid" 2>/dev/null || true; rm -rf "$smokedir"' EXIT
bngurl=""
i=0
while [ $i -lt 100 ]; do
	bngurl=$(sed -n 's,.*API on \(http://[^ ]*\).*,\1,p' "$smokedir/serve.log")
	[ -n "$bngurl" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$bngurl" ]; then
	echo "FAIL: serve-bng never published its API address:" >&2
	cat "$smokedir/serve.log" >&2
	exit 1
fi
"$smokedir/dynamips" watch -bng "$bngurl" -once >"$smokedir/watch.out"
kill "$bngpid" 2>/dev/null
wait "$bngpid" 2>/dev/null || true
for want in "virtual hour" churn24 dur_hours pfx64; do
	if ! grep -q "$want" "$smokedir/watch.out"; then
		echo "FAIL: watch output missing $want:" >&2
		cat "$smokedir/watch.out" >&2
		exit 1
	fi
done

echo "==> live standby smoke (serve-bng -standby tracking a churning active to hour 48)"
"$smokedir/dynamips" serve-bng -churn-hours 48 -listen 127.0.0.1:0 >"$smokedir/active.log" 2>&1 &
activepid=$!
standbypid=""
trap 'kill "$activepid" $standbypid 2>/dev/null || true; rm -rf "$smokedir"' EXIT
activeurl=""
i=0
while [ $i -lt 300 ]; do
	activeurl=$(sed -n 's,.*API on \(http://[^ ]*\).*,\1,p' "$smokedir/active.log")
	[ -n "$activeurl" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$activeurl" ]; then
	echo "FAIL: active serve-bng never published its API address:" >&2
	cat "$smokedir/active.log" >&2
	exit 1
fi
"$smokedir/dynamips" serve-bng -churn-hours 48 -standby "$activeurl" -poll 200ms >"$smokedir/standby.log" 2>&1 &
standbypid=$!
i=0
until grep -q "churned to hour 48" "$smokedir/active.log"; do
	if [ $i -ge 1200 ] || ! kill -0 "$activepid" 2>/dev/null; then
		echo "FAIL: active serve-bng did not reach hour 48:" >&2
		cat "$smokedir/active.log" >&2
		exit 1
	fi
	i=$((i + 1))
	sleep 0.1
done
sleep 1 # a few more standby polls of the settled active
kill -TERM "$standbypid" 2>/dev/null || true
rc=0
wait "$standbypid" || rc=$?
kill -TERM "$activepid" 2>/dev/null || true
wait "$activepid" 2>/dev/null || true
if [ "$rc" -ne 0 ] || grep -q "split brain" "$smokedir/standby.log"; then
	echo "FAIL: standby exited $rc while tracking the active:" >&2
	cat "$smokedir/standby.log" >&2
	exit 1
fi

echo "==> coverage floor (>=${COVERAGE_FLOOR}% of statements)"
for pkg in internal/addrpool internal/evq internal/dhcp4 internal/dhcp6 internal/radius internal/faultnet internal/checkpoint internal/obs internal/cgnat internal/bng internal/bng/stripe internal/echo; do
	line=$(go test -cover "./$pkg" | tail -n 1)
	echo "$line"
	pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "FAIL: no coverage figure for $pkg" >&2
		exit 1
	fi
	if awk -v p="$pct" -v f="$COVERAGE_FLOOR" 'BEGIN{exit !(p < f)}'; then
		echo "FAIL: $pkg coverage ${pct}% below floor ${COVERAGE_FLOOR}%" >&2
		exit 1
	fi
done

echo "==> sketch coverage floor (internal/sketch >=${SKETCH_COVERAGE_FLOOR}% of statements)"
line=$(go test -cover ./internal/sketch | tail -n 1)
echo "$line"
pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
if [ -z "$pct" ]; then
	echo "FAIL: no coverage figure for internal/sketch" >&2
	exit 1
fi
if awk -v p="$pct" -v f="$SKETCH_COVERAGE_FLOOR" 'BEGIN{exit !(p < f)}'; then
	echo "FAIL: internal/sketch coverage ${pct}% below floor ${SKETCH_COVERAGE_FLOOR}%" >&2
	exit 1
fi

echo "==> bng engine stage benchmark (one iteration, so it keeps running; allocs/op shown, not bounded)"
go test ./internal/bng -run '^$' -bench '^BenchmarkEngineAdvance$' -benchtime 1x -benchmem

echo "==> CDN stream stage benchmarks (one iteration each, so they keep running)"
go test ./internal/cdn/stream -run '^$' -bench 'GenerateUnits|GenerateTail|Partition|ShardUnit|Reduce' -benchtime 1x

echo "==> bench regression smoke (<=${BENCH_THRESHOLD}x of baseline; streaming RSS ceiling)"
go test -run '^$' -bench '^(BenchmarkTable1|BenchmarkFig1|BenchmarkGlobalDurations|BenchmarkBuildAtlasPipeline|BenchmarkBuildCDNPipeline|BenchmarkStreamCDNPipeline|BenchmarkBNGChurn)$' \
	-benchtime 5x -json . \
	| go run ./scripts/benchcheck -baseline testdata/bench_baseline.json -threshold "$BENCH_THRESHOLD"

echo "==> fuzz smoke (-fuzztime ${FUZZTIME} each)"
go test ./internal/dhcp4 -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime "$FUZZTIME"
go test ./internal/dhcp6 -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime "$FUZZTIME"
go test ./internal/radius -run '^$' -fuzz '^FuzzParse$' -fuzztime "$FUZZTIME"
go test ./internal/radius -run '^$' -fuzz '^FuzzDynauth$' -fuzztime "$FUZZTIME"
go test ./internal/dhcp6 -run '^$' -fuzz '^FuzzRelayMessage$' -fuzztime "$FUZZTIME"
go test ./internal/faultnet -run '^$' -fuzz '^FuzzParseProfile$' -fuzztime "$FUZZTIME"
go test ./internal/checkpoint -run '^$' -fuzz '^FuzzJournalScan$' -fuzztime "$FUZZTIME"
go test ./internal/cdn/stream -run '^$' -fuzz '^FuzzChunkCodec$' -fuzztime "$FUZZTIME"
go test ./internal/cdn/stream -run '^$' -fuzz '^FuzzScanCSV$' -fuzztime "$FUZZTIME"
go test ./internal/cdn -run '^$' -fuzz '^FuzzScanCSVBlocks$' -fuzztime "$FUZZTIME"
go test ./internal/sketch -run '^$' -fuzz '^FuzzSketchCodec$' -fuzztime "$FUZZTIME"
go test ./internal/bng -run '^$' -fuzz '^FuzzSketchQuery$' -fuzztime "$FUZZTIME"
go test ./internal/bng/stripe -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime "$FUZZTIME"
go test ./internal/addrpool -run '^$' -fuzz '^FuzzPool$' -fuzztime "$FUZZTIME"
go test ./internal/evq -run '^$' -fuzz '^FuzzHeap$' -fuzztime "$FUZZTIME"
go test ./internal/echo -run '^$' -fuzz '^FuzzRecordsToSeries$' -fuzztime "$FUZZTIME"

echo "==> verify OK"
