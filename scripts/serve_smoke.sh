#!/usr/bin/env sh
# Smoke test for the live serving modes. Five phases, selectable by the
# first argument (default: all):
#
#   serve   start `pipemap -serve` on the fft+histogram spec with an
#           injected instance death, scrape the endpoints, fail on
#           malformed Prometheus exposition or a missing health signal,
#           then SIGTERM it and require a graceful drain.
#   adapt   run the adaptive controller (-adapt) with the same injected
#           death, require /pipeline to report a migrated generation, then
#           SIGTERM it and require a graceful drain.
#   ingest  stand up the real ingestion data plane (-ingest), submit a
#           data set and read the computed result back, overload it with a
#           concurrent burst and require structured 429/503 sheds plus a
#           positive ingest_shed_total, then SIGTERM it and require a
#           graceful zero-loss drain. Writes a summary to $INGEST_REPORT
#           (default: <tmp>/ingest_report.txt) for CI artifact upload.
#   trace   run the plane with full-rate tracing and span export, submit
#           under a fixed W3C traceparent, and require the trace ID echoed
#           in the response, the flight recorder, /slo, and — after a
#           graceful SIGTERM — the exported NDJSON span file. Writes the
#           trace artifacts to $TRACE_REPORT (default:
#           <tmp>/trace_report.txt) for CI upload.
#   fleet   start the fleet scheduler (-fleet) with the ffthist256 and
#           radar64 specs sharing one pool, submit to both tenants, kill a
#           quarter of the pool over POST /fleet/fail, and require a
#           rebalance generation bump, no over-allocation, live-swapped
#           planes that still answer, and a zero-loss drain on SIGTERM.
#           Writes a summary to $FLEET_REPORT (default:
#           <tmp>/fleet_report.txt) for CI artifact upload.
#
# CI runs this after the unit tests; it needs only curl and the go
# toolchain.
set -eu

PHASE=${1:-all}
OUT=$(mktemp -d)
PID=; PID2=; PID3=; PID4=; PID5=
trap 'kill $PID $PID2 $PID3 $PID4 $PID5 2>/dev/null || true; rm -rf "$OUT"' EXIT

fail() {
    echo "serve_smoke: $1" >&2
    exit 1
}

# build_pipemap builds the server once per run into $BIN. Every phase runs
# the binary, not `go run`, so SIGTERM reaches the server itself: no
# server outlives the script, and stop checks the graceful drain.
BIN="$OUT/pipemap"
build_pipemap() {
    [ -x "$BIN" ] || go build -o "$BIN" ./cmd/pipemap
}

# stop PID LOG: SIGTERM the server and require a zero exit, i.e. a
# completed graceful drain.
stop() {
    kill -TERM "$1"
    if ! wait "$1"; then
        cat "$2" >&2
        fail "server exited non-zero on SIGTERM"
    fi
}

# wait_http URL LOG: poll until URL answers or give up.
wait_http() {
    i=0
    until curl -fsS "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "serve_smoke: server at $1 never came up" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# wait_log PATTERN LOG: poll until the pattern appears in the log.
wait_log() {
    i=0
    until grep -q "$1" "$2"; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "serve_smoke: never saw '$1' in the run log" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.2
    done
}

phase_serve() {
    ADDR=127.0.0.1:9127
    build_pipemap
    "$BIN" -serve "$ADDR" -serve-n 120 -serve-speedup 400 \
        -serve-for 30s -serve-kill auto specs/ffthist256.json >"$OUT/run.log" 2>&1 &
    PID=$!

    wait_http "http://$ADDR/healthz" "$OUT/run.log"
    # Let the run finish so the injected death and final health are settled.
    wait_log "run complete" "$OUT/run.log"

    curl -fsS "http://$ADDR/healthz" | grep -q ok || fail "/healthz not ok"

    curl -fsS "http://$ADDR/metrics" >"$OUT/metrics"
    grep -q 'pipemap_stage_period_seconds{stage=' "$OUT/metrics" \
        || fail "/metrics missing stage period series"
    grep -q '^pipemap_up 1$' "$OUT/metrics" || fail "/metrics missing pipemap_up"
    grep -q '^pipemap_degraded 1$' "$OUT/metrics" \
        || fail "/metrics not degraded after injected death"
    # Lint: every non-comment line must be `name{labels} value`.
    BAD=$(grep -v '^#' "$OUT/metrics" | grep -cvE \
        '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$' || true)
    [ "$BAD" -eq 0 ] || {
        grep -v '^#' "$OUT/metrics" | grep -vE \
            '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$' >&2
        fail "malformed exposition lines"
    }

    curl -fsS "http://$ADDR/pipeline" >"$OUT/pipeline"
    grep -q '"bottleneckStage"' "$OUT/pipeline" || fail "/pipeline missing bottleneck"
    grep -q '"status": "degraded"' "$OUT/pipeline" || fail "/pipeline not degraded"

    # /readyz must report 503 while degraded.
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
    [ "$CODE" = 503 ] || fail "/readyz = $CODE, want 503 when degraded"

    stop $PID "$OUT/run.log"
    PID=
    grep -q "drain complete" "$OUT/run.log" || fail "no drain summary after SIGTERM"
    echo "serve_smoke: serve phase ok"
}

phase_adapt() {
    ADDR2=127.0.0.1:9128
    build_pipemap
    "$BIN" -serve "$ADDR2" -serve-n 400 -serve-speedup 400 \
        -serve-for 30s -serve-kill auto \
        -adapt -adapt-interval 250ms -adapt-threshold 0.02 \
        specs/threestage.json >"$OUT/adapt.log" 2>&1 &
    PID2=$!

    wait_http "http://$ADDR2/healthz" "$OUT/adapt.log"

    # Poll /pipeline until the controller reports a post-migration
    # generation; fail on timeout — the injected death must trigger a remap.
    i=0
    while :; do
        curl -fsS "http://$ADDR2/pipeline" >"$OUT/adapt_pipeline" 2>/dev/null || true
        if grep -q '"generation": [1-9]' "$OUT/adapt_pipeline"; then
            break
        fi
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "serve_smoke: controller never migrated to a new generation" >&2
            cat "$OUT/adapt_pipeline" >&2
            cat "$OUT/adapt.log" >&2
            exit 1
        fi
        sleep 0.2
    done

    grep -q '"controller"' "$OUT/adapt_pipeline" || fail "/pipeline missing controller state"
    grep -q '"lastDecision"' "$OUT/adapt_pipeline" || fail "/pipeline missing last decision"

    curl -fsS "http://$ADDR2/metrics" >"$OUT/adapt_metrics"
    grep -q 'adapt_cycles' "$OUT/adapt_metrics" || fail "/metrics missing adapt_cycles"
    grep -q 'adapt_migrations' "$OUT/adapt_metrics" || fail "/metrics missing adapt_migrations"

    stop $PID2 "$OUT/adapt.log"
    PID2=
    grep -q "drain complete" "$OUT/adapt.log" || fail "no drain summary after SIGTERM"
    echo "serve_smoke: adapt phase ok"
}

phase_ingest() {
    ADDR3=127.0.0.1:9129
    REPORT=${INGEST_REPORT:-$OUT/ingest_report.txt}
    build_pipemap
    "$BIN" -serve "$ADDR3" -ingest ffthist -ingest-size 64 \
        -queue-depth 4 -ingest-dispatchers 1 -shed-deadline 10s \
        specs/ffthist256.json >"$OUT/ingest.log" 2>&1 &
    PID3=$!

    wait_http "http://$ADDR3/healthz" "$OUT/ingest.log"

    # A well-formed submission returns a computed histogram.
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","input":{"seed":1}}' \
        "http://$ADDR3/v1/submit" >"$OUT/submit.json" \
        || fail "POST /v1/submit failed"
    grep -q '"result"' "$OUT/submit.json" || fail "/v1/submit carries no result"
    grep -q '"count"' "$OUT/submit.json" || fail "/v1/submit result has no histogram count"

    # Overload burst: 80 concurrent submissions against queue depth 4 and a
    # single dispatcher. The plane must keep answering — some 200s, and the
    # overflow shed with structured 429/503 responses, never a hang.
    mkdir -p "$OUT/burst"
    BPIDS=
    i=0
    while [ "$i" -lt 80 ]; do
        (
            curl -s -o "$OUT/burst/body.$i" -w '%{http_code}' \
                -X POST -H 'Content-Type: application/json' \
                -d "{\"tenant\":\"t$((i % 4))\",\"input\":{\"seed\":$i}}" \
                "http://$ADDR3/v1/submit" >"$OUT/burst/code.$i"
        ) &
        BPIDS="$BPIDS $!"
        i=$((i + 1))
    done
    # Wait for the burst only — a bare `wait` would also wait on the
    # server, which is still running.
    wait $BPIDS
    # The status files carry no trailing newline; count per-file with -l.
    OK=$(grep -lx '200' "$OUT"/burst/code.* 2>/dev/null | wc -l)
    SHED=$(grep -lxE '429|503' "$OUT"/burst/code.* 2>/dev/null | wc -l)
    OTHER=$((80 - OK - SHED))
    [ "$OK" -ge 1 ] || fail "no burst submission completed (ok=$OK shed=$SHED other=$OTHER)"
    [ "$SHED" -ge 1 ] || fail "no burst submission shed (ok=$OK shed=$SHED other=$OTHER)"
    [ "$OTHER" -eq 0 ] || fail "burst produced unexpected statuses (ok=$OK shed=$SHED other=$OTHER)"
    # Shed bodies are structured errors.
    for f in "$OUT"/burst/code.*; do
        if grep -qxE '429|503' "$f"; then
            b="$OUT/burst/body.${f##*.}"
            grep -q '"reason"' "$b" || fail "shed body is not structured: $(cat "$b")"
            break
        fi
    done

    curl -fsS "http://$ADDR3/metrics" >"$OUT/ingest_metrics"
    grep -qE 'ingest_shed_total [1-9]' "$OUT/ingest_metrics" \
        || fail "/metrics ingest_shed_total not positive after overload"
    grep -q 'ingest_admit_total' "$OUT/ingest_metrics" \
        || fail "/metrics missing ingest_admit_total"

    curl -fsS "http://$ADDR3/v1/ingest" >"$OUT/ingest_stats.json"
    grep -q '"admitted"' "$OUT/ingest_stats.json" || fail "/v1/ingest missing stats"

    # Graceful drain: SIGTERM must flush in-flight work and exit cleanly.
    stop $PID3 "$OUT/ingest.log"
    PID3=
    grep -q "drain complete" "$OUT/ingest.log" || fail "no drain summary after SIGTERM"

    {
        echo "# ingest overload smoke"
        echo "burst: 80 requests, ok=$OK shed=$SHED"
        echo
        echo "## /v1/ingest"
        cat "$OUT/ingest_stats.json"
        echo
        echo "## ingest metrics"
        grep '^ingest_' "$OUT/ingest_metrics" || true
        echo
        echo "## drain"
        grep -E 'drain|admitted' "$OUT/ingest.log" || true
    } >"$REPORT"
    echo "serve_smoke: ingest phase ok (report: $REPORT)"
}

phase_trace() {
    ADDR4=127.0.0.1:9130
    REPORT=${TRACE_REPORT:-$OUT/trace_report.txt}
    SPANS="$OUT/spans.ndjson"
    build_pipemap
    "$BIN" -serve "$ADDR4" -ingest ffthist -ingest-size 64 \
        -trace-sample 1 -trace-spans "$SPANS" -flight 64 \
        specs/ffthist256.json >"$OUT/trace.log" 2>&1 &
    PID4=$!

    wait_http "http://$ADDR4/healthz" "$OUT/trace.log"

    # Submit under a fixed W3C trace context; the sampled flag forces the
    # request into the trace even independent of the sample rate.
    TRACE_ID=4bf92f3577b34da6a3ce929d0e0e4736
    PARENT="00-$TRACE_ID-00f067aa0ba902b7-01"
    curl -fsS -D "$OUT/trace_headers" -X POST \
        -H 'Content-Type: application/json' -H "traceparent: $PARENT" \
        -d '{"tenant":"smoke","input":{"seed":1}}' \
        "http://$ADDR4/v1/submit" >"$OUT/trace_submit.json" \
        || fail "traced POST /v1/submit failed"
    grep -qi "^x-trace-id: $TRACE_ID" "$OUT/trace_headers" \
        || fail "response did not echo X-Trace-Id"
    grep -qi "^traceparent: 00-$TRACE_ID-" "$OUT/trace_headers" \
        || fail "response did not echo traceparent"
    grep -q "\"trace_id\": *\"$TRACE_ID\"" "$OUT/trace_submit.json" \
        || fail "response body carries no trace_id"

    # The flight recorder holds the request with its spans.
    curl -fsS "http://$ADDR4/debug/flightrecorder" >"$OUT/flight.json"
    grep -q "$TRACE_ID" "$OUT/flight.json" || fail "/debug/flightrecorder missing the trace"
    grep -q '"kind": *"stage"' "$OUT/flight.json" || fail "flight entry has no stage spans"

    # /slo serves objective reports; /metrics carries the burn gauges.
    curl -fsS "http://$ADDR4/slo" >"$OUT/slo.json"
    grep -q '"objectives"' "$OUT/slo.json" || fail "/slo missing objectives"
    grep -q '"availability"' "$OUT/slo.json" || fail "/slo missing availability objective"
    curl -fsS "http://$ADDR4/metrics" | grep -q 'slo_availability_compliance' \
        || fail "/metrics missing SLO gauges"

    # Graceful stop must flush the exporter: the span file ends up with the
    # full trace on disk.
    stop $PID4 "$OUT/trace.log"
    PID4=
    [ -s "$SPANS" ] || fail "span export file is empty"
    grep -q "$TRACE_ID" "$SPANS" || fail "span export missing the traced request"

    {
        echo "# trace smoke"
        echo "trace id: $TRACE_ID"
        echo
        echo "## /slo"
        cat "$OUT/slo.json"
        echo
        echo "## exported spans"
        cat "$SPANS"
    } >"$REPORT"
    echo "serve_smoke: trace phase ok (report: $REPORT)"
}

phase_fleet() {
    ADDR5=127.0.0.1:9131
    REPORT=${FLEET_REPORT:-$OUT/fleet_report.txt}
    build_pipemap
    "$BIN" -serve "$ADDR5" -fleet -ingest-size 64 \
        -queue-depth 8 -shed-deadline 10s \
        specs/ffthist256.json specs/radar64.json >"$OUT/fleet.log" 2>&1 &
    PID5=$!

    wait_http "http://$ADDR5/healthz" "$OUT/fleet.log"
    wait_log "fleet serving" "$OUT/fleet.log"

    # Both tenants placed, no over-allocation, and a recorded generation.
    curl -fsS "http://$ADDR5/fleet" >"$OUT/fleet_before.json" || fail "GET /fleet failed"
    grep -q '"ffthist256"' "$OUT/fleet_before.json" || fail "/fleet missing tenant ffthist256"
    grep -q '"radar64"' "$OUT/fleet_before.json" || fail "/fleet missing tenant radar64"
    grep -q '"placed": 2' "$OUT/fleet_before.json" || fail "/fleet does not report 2 placed pipelines"
    GEN_BEFORE=$(grep -o '"generation": [0-9]*' "$OUT/fleet_before.json" | head -1 | grep -o '[0-9]*')
    POOL=$(grep -o '"poolProcs": [0-9]*' "$OUT/fleet_before.json" | grep -o '[0-9]*')
    USED=$(grep -o '"usedProcs": [0-9]*' "$OUT/fleet_before.json" | grep -o '[0-9]*')
    [ "$USED" -le "$POOL" ] || fail "over-allocation before failure: used=$USED pool=$POOL"

    # Both tenants serve real kernel work on their own endpoints.
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","input":{"seed":1}}' \
        "http://$ADDR5/v1/ffthist256/submit" >"$OUT/fleet_fft.json" \
        || fail "POST /v1/ffthist256/submit failed"
    grep -q '"result"' "$OUT/fleet_fft.json" || fail "ffthist submit carries no result"
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","input":{"seed":2}}' \
        "http://$ADDR5/v1/radar64/submit" >"$OUT/fleet_radar.json" \
        || fail "POST /v1/radar64/submit failed"
    grep -q '"result"' "$OUT/fleet_radar.json" || fail "radar submit carries no result"

    # Kill a quarter of the pool; the response is the rebalanced state.
    KILL=$((POOL / 4))
    curl -fsS -X POST "http://$ADDR5/fleet/fail?n=$KILL" >"$OUT/fleet_failed.json" \
        || fail "POST /fleet/fail failed"

    # Poll /fleet for the rebalance generation bump and re-shrunk pool.
    i=0
    while :; do
        curl -fsS "http://$ADDR5/fleet" >"$OUT/fleet_after.json" 2>/dev/null || true
        GEN_AFTER=$(grep -o '"generation": [0-9]*' "$OUT/fleet_after.json" | head -1 | grep -o '[0-9]*' || echo 0)
        if [ "${GEN_AFTER:-0}" -gt "$GEN_BEFORE" ]; then
            break
        fi
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "serve_smoke: fleet generation never bumped past $GEN_BEFORE after failure" >&2
            cat "$OUT/fleet_after.json" >&2
            cat "$OUT/fleet.log" >&2
            exit 1
        fi
        sleep 0.2
    done
    POOL_AFTER=$(grep -o '"poolProcs": [0-9]*' "$OUT/fleet_after.json" | grep -o '[0-9]*')
    USED_AFTER=$(grep -o '"usedProcs": [0-9]*' "$OUT/fleet_after.json" | grep -o '[0-9]*')
    [ "$POOL_AFTER" -eq $((POOL - KILL)) ] || fail "pool after failure = $POOL_AFTER, want $((POOL - KILL))"
    [ "$USED_AFTER" -le "$POOL_AFTER" ] || fail "over-allocation after failure: used=$USED_AFTER pool=$POOL_AFTER"
    wait_log "remapped" "$OUT/fleet.log"

    # The survivors keep serving on their live-swapped planes.
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","input":{"seed":3}}' \
        "http://$ADDR5/v1/ffthist256/submit" >/dev/null \
        || fail "post-failure ffthist submit failed"
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","input":{"seed":4}}' \
        "http://$ADDR5/v1/radar64/submit" >/dev/null \
        || fail "post-failure radar submit failed"

    # fleet_* series are exposed and the exposition still lints.
    curl -fsS "http://$ADDR5/metrics" >"$OUT/fleet_metrics"
    grep -q 'fleet_admitted_total' "$OUT/fleet_metrics" || fail "/metrics missing fleet_admitted_total"
    grep -q 'fleet_pool_utilization' "$OUT/fleet_metrics" || fail "/metrics missing fleet_pool_utilization"
    grep -q 'fleet_cache_hit_rate' "$OUT/fleet_metrics" || fail "/metrics missing fleet_cache_hit_rate"
    grep -qE 'fleet_generation [1-9]' "$OUT/fleet_metrics" || fail "/metrics fleet_generation not positive"
    BAD=$(grep -v '^#' "$OUT/fleet_metrics" | grep -cvE \
        '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$' || true)
    [ "$BAD" -eq 0 ] || {
        grep -v '^#' "$OUT/fleet_metrics" | grep -vE \
            '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$' >&2
        fail "malformed fleet exposition lines"
    }

    # Graceful stop: SIGTERM drains every tenant plane.
    stop $PID5 "$OUT/fleet.log"
    PID5=
    grep -q "fleet drain complete" "$OUT/fleet.log" || fail "no fleet drain summary after SIGTERM"

    {
        echo "# fleet smoke"
        echo "pool: $POOL -> $POOL_AFTER after failing $KILL processors"
        echo "generation: $GEN_BEFORE -> $GEN_AFTER"
        echo
        echo "## /fleet after failure"
        cat "$OUT/fleet_after.json"
        echo
        echo "## fleet metrics"
        grep '^fleet_' "$OUT/fleet_metrics" || true
        echo
        echo "## drain"
        grep -E 'fleet' "$OUT/fleet.log" || true
    } >"$REPORT"
    echo "serve_smoke: fleet phase ok (report: $REPORT)"
}

case "$PHASE" in
serve) phase_serve ;;
adapt) phase_adapt ;;
ingest) phase_ingest ;;
trace) phase_trace ;;
fleet) phase_fleet ;;
all)
    phase_serve
    phase_adapt
    phase_ingest
    phase_trace
    phase_fleet
    ;;
*)
    fail "unknown phase '$PHASE' (want serve, adapt, ingest, trace, fleet, or all)"
    ;;
esac

echo "serve_smoke: ok"
