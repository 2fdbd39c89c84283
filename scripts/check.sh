#!/usr/bin/env bash
# Full correctness check: build + tests, observability smokes (trace,
# metrics snapshot, profiler), convergence CSV byte-stability, the
# resilience smoke, the propagation and hybrid bound tables (BENCH_9.json
# and BENCH_10.json regenerated in a temp dir and byte-compared with the
# committed files, plus their headline claims), exploration determinism
# across job counts, self-verification (sanitizer + differential and
# per-kernel oracles on the paper system and a fixed-seed fuzz batch),
# and a serve-daemon smoke (warm session round over a Unix socket +
# clean SIGTERM drain).  Nothing here times anything: speed is measured
# across commits by perfbench (see perfbench/README.md).  The check
# writes only under /tmp and leaves the working tree unchanged.
#
# Usage: scripts/check.sh   (CHECK_TIMEOUT_S caps the test run, default 900)
set -euo pipefail
cd "$(dirname "$0")/.."
# Hard wall-clock ceiling: a hung fixed point or deadlocked pool must
# fail the check, not stall it (tune with CHECK_TIMEOUT_S).
timeout "${CHECK_TIMEOUT_S:-900}" dune build @runtest

# --- trace smoke test -------------------------------------------------
# An analyse run with --trace must produce a valid Chrome trace with
# balanced span begin/end events and one span per global iteration.
trace=$(mktemp /tmp/hem_trace.XXXXXX.json)
dune exec bin/hem_tool.exe -- analyse --trace "$trace" > /dev/null
jq -e '.traceEvents | length > 0' "$trace" > /dev/null
b=$(jq '[.traceEvents[] | select(.ph=="B")] | length' "$trace")
e=$(jq '[.traceEvents[] | select(.ph=="E")] | length' "$trace")
iters=$(jq '[.traceEvents[] | select(.ph=="B" and .name=="engine.iteration")] | length' "$trace")
if [ "$b" != "$e" ]; then
  echo "check: unbalanced trace spans ($b begin, $e end)" >&2
  exit 1
fi
if [ "$iters" -lt 1 ]; then
  echo "check: no engine.iteration span in trace" >&2
  exit 1
fi
rm -f "$trace"
echo "check: trace smoke test ok ($b spans, $iters iteration spans)"

# --- metrics snapshot smoke test --------------------------------------
# analyse --metrics must emit a JSON snapshot with the counter/gauge/
# histogram sections and populated iteration-latency percentiles.
metrics=$(mktemp /tmp/hem_metrics.XXXXXX.json)
dune exec bin/hem_tool.exe -- analyse --metrics "$metrics" > /dev/null
jq -e 'has("counters") and has("gauges") and has("histograms")' "$metrics" > /dev/null \
  || { echo "check: metrics snapshot missing top-level sections" >&2; exit 1; }
jq -e '.histograms["engine.iteration_ns"] | .count >= 1 and .p50 > 0 and .p99 >= .p50 and .max >= .p99' "$metrics" > /dev/null \
  || { echo "check: engine.iteration_ns histogram missing or inconsistent" >&2; exit 1; }
jq -e '.counters["busy_window.windows"] >= 1' "$metrics" > /dev/null \
  || { echo "check: busy_window.windows counter missing from snapshot" >&2; exit 1; }
rm -f "$metrics"
echo "check: metrics snapshot smoke ok"

# --- profiler smoke test ----------------------------------------------
# hem_tool profile must produce a collapsed-stack file with integer
# self-times whose leaves are rooted in the synthetic "analysis" span.
flame=$(mktemp /tmp/hem_flame.XXXXXX.txt)
dune exec bin/hem_tool.exe -- profile examples/paper.spec --flame "$flame" > /dev/null
if ! [ -s "$flame" ]; then
  echo "check: profile wrote an empty flamegraph file" >&2
  exit 1
fi
if grep -qvE '^.+ [0-9]+$' "$flame"; then
  echo "check: malformed collapsed-stack line in $flame" >&2
  grep -vE '^.+ [0-9]+$' "$flame" >&2
  exit 1
fi
if ! grep -q '^analysis' "$flame"; then
  echo "check: no analysis-rooted stack in flamegraph output" >&2
  exit 1
fi
# The flat baseline's per-frame SEM fit is its costliest step: it must
# stay attributed to its own engine.stream span.
dune exec bin/hem_tool.exe -- profile --mode=flat examples/paper.spec \
  --flame "$flame" > /dev/null
if ! grep -q ';engine\.stream:frame_sem:[^;]* [0-9]*$' "$flame"; then
  echo "check: profile --mode=flat has no engine.stream span for frame_sem" >&2
  exit 1
fi
rm -f "$flame"
echo "check: profile smoke ok (collapsed stacks well-formed, frame_sem attributed)"

# --- convergence CSV byte-stability -----------------------------------
# The machine-readable convergence format carries analysis data only
# (no timing), so two runs must be byte-identical.
c1=$(mktemp) c2=$(mktemp)
dune exec bin/hem_tool.exe -- convergence --format csv > "$c1"
dune exec bin/hem_tool.exe -- convergence --format csv > "$c2"
if ! cmp -s "$c1" "$c2"; then
  echo "check: convergence --format csv is not byte-stable across runs" >&2
  diff "$c1" "$c2" >&2 || true
  exit 1
fi
rm -f "$c1" "$c2"
echo "check: convergence csv byte-stable"

# --- resilience smoke test --------------------------------------------
# A tiny deadline must degrade gracefully — widened-but-sound bounds,
# exit code 3 — and must never hang; an exhausted verify budget must
# stop with the same code after its completed prefix.
code=0
timeout 30 dune exec bin/hem_tool.exe -- analyse --deadline 0 \
  > /dev/null 2>&1 || code=$?
if [ "$code" != 3 ]; then
  echo "check: analyse --deadline 0 exited $code, expected 3 (degraded)" >&2
  exit 1
fi
code=0
timeout 30 dune exec bin/hem_tool.exe -- verify --budget 1 \
  > /dev/null 2>&1 || code=$?
if [ "$code" != 3 ]; then
  echo "check: verify --budget 1 exited $code, expected 3 (degraded)" >&2
  exit 1
fi
echo "check: resilience smoke ok (deadline and budget degrade with exit 3)"

# --- bound tables (BENCH_9.json, BENCH_10.json) ----------------------
# Both files hold analysis results only (no timing), so a regenerated
# copy must match the committed one byte for byte: a change that moves
# any propagation-mode or backend bound, boundedness count or status
# fails here.  The bench itself exits non-zero when the optimal
# propagation mode is looser than any single mode or never strictly
# tighter than theta-tau, when pure-RTC and pure-CPA bounds differ on
# the paper point system, or when any backend's bounds fall below DES
# observations.  To accept an intended change, rerun
# `dune exec bench/main.exe -- propagation hybrid` at the repo root and
# commit the files.
dune build bench/main.exe
tables=$(mktemp -d /tmp/hem_tables.XXXXXX)
(cd "$tables" && "$OLDPWD/_build/default/bench/main.exe" propagation hybrid > /dev/null)
for table in BENCH_9.json BENCH_10.json; do
  if ! cmp -s "$table" "$tables/$table"; then
    echo "check: regenerated $table differs from the committed file" >&2
    diff "$table" "$tables/$table" >&2 || true
    exit 1
  fi
done
rm -rf "$tables"
jq -e '.strict_win_systems | length >= 1' BENCH_9.json > /dev/null \
  || { echo "check: optimal never strictly tighter than theta_tau" >&2; exit 1; }
jq -e '[.systems[].optimal_pointwise_le] | all' BENCH_9.json > /dev/null \
  || { echo "check: optimal looser than a single mode somewhere" >&2; exit 1; }
jq -e '[.systems[].elements[] | select(.optimal != null and .theta_tau != null)
        | .optimal <= .theta_tau] | all' BENCH_9.json > /dev/null \
  || { echo "check: per-element optimal vs theta_tau comparison failed" >&2; exit 1; }
jq -e '.paper_pure_agreement == true' BENCH_10.json > /dev/null \
  || { echo "check: rtc and cpa bounds differ on the paper system" >&2; exit 1; }
jq -e '[.paper_dominance[]] | all' BENCH_10.json > /dev/null \
  || { echo "check: a backend's bounds fall below DES observations" >&2; exit 1; }
jq -e '[.systems[] | select(.name == "paper") | .backends[]
        | .bounded == .elements and .status == "converged"] | all' BENCH_10.json > /dev/null \
  || { echo "check: paper system not fully bounded under every backend" >&2; exit 1; }
echo "check: bound tables ok (BENCH_9/BENCH_10 byte-identical; strict wins: $(jq -cr '.strict_win_systems | join(", ")' BENCH_9.json))"

# --- propagation modes and backends on the CLI ------------------------
# Every propagation mode and backend is accepted end to end, and the
# (backend rtc) spec syntax analyses and verifies.
for pmode in theta_tau jitter jitter_offset jitter_bmin busy_window optimal; do
  dune exec bin/hem_tool.exe -- analyse --propagation "$pmode" > /dev/null \
    || { echo "check: analyse --propagation $pmode failed" >&2; exit 1; }
done
for b in spec cpa rtc; do
  dune exec bin/hem_tool.exe -- analyse --backend "$b" > /dev/null \
    || { echo "check: analyse --backend $b failed" >&2; exit 1; }
done
dune exec bin/hem_tool.exe -- analyse --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed to analyse" >&2; exit 1; }
dune exec bin/hem_tool.exe -- verify --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed verification" >&2; exit 1; }
echo "check: propagation modes and backends ok on the CLI"

# --- exploration: determinism guard -----------------------------------
# The deterministic stdout of sweep/explore must be byte-identical at
# any job count (timing telemetry goes to stderr and is ignored here).
j1=$(mktemp) j4=$(mktemp)
dune exec bin/hem_tool.exe -- sweep --period S3=400..1500:100 \
  --cet-scale T3=90..114:2 --jobs 1 2> /dev/null > "$j1"
dune exec bin/hem_tool.exe -- sweep --period S3=400..1500:100 \
  --cet-scale T3=90..114:2 --jobs 4 2> /dev/null > "$j4"
if ! cmp -s "$j1" "$j4"; then
  echo "check: sweep output differs between --jobs 1 and --jobs 4" >&2
  diff "$j1" "$j4" >&2 || true
  exit 1
fi
variants=$(grep -c '^' "$j1")
rm -f "$j1" "$j4"
e1=$(mktemp) e4=$(mktemp)
dune exec bin/hem_tool.exe -- explore --jobs 1 2> /dev/null > "$e1"
dune exec bin/hem_tool.exe -- explore --jobs 4 2> /dev/null > "$e4"
if ! cmp -s "$e1" "$e4"; then
  echo "check: explore output differs between --jobs 1 and --jobs 4" >&2
  diff "$e1" "$e4" >&2 || true
  exit 1
fi
rm -f "$e1" "$e4"
echo "check: exploration determinism ok (sweep ${variants} lines + layout enumeration byte-identical at jobs 1 vs 4)"

# --- self-verification ------------------------------------------------
# The sanitizer + differential oracles must pass on the paper system
# (zero violations, byte-identical engine/cache outcomes, every analysis
# kernel equal to its naive reference, bounds dominating the simulator)
# and on a fixed-seed batch of fuzzed systems.
dune exec bin/hem_tool.exe -- verify > /dev/null
echo "check: verify ok (paper system: sanitizer + oracles clean)"
dune exec bin/hem_tool.exe -- verify --fuzz 25 --seed 2026 --horizon 100000 > /dev/null
echo "check: verify ok (25 fuzzed systems, seed 2026)"

# --- serve daemon smoke -----------------------------------------------
# Full client/server round on a temp Unix socket: load a session, make a
# warm edit that moves a bound (and must reuse analyses from the resident
# fixed point), require the read-back to differ from the load's outcomes,
# restore the edit and require the read-back to equal them again, read
# per-session metrics, close, then SIGTERM the daemon and require a clean
# (exit 0) drain.  The built binary is used
# directly so the backgrounded daemon does not contend for the dune
# build lock.
HEM=./_build/default/bin/hem_tool.exe
sock=$(mktemp -u /tmp/hem_serve.XXXXXX.sock)
servelog=$(mktemp /tmp/hem_serve.XXXXXX.log)
"$HEM" serve --socket "$sock" > "$servelog" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true; rm -f "$sock" "$servelog"' EXIT
up=0
for _ in $(seq 1 100); do
  if "$HEM" client ping --socket "$sock" > /dev/null 2>&1; then up=1; break; fi
  sleep 0.05
done
if [ "$up" != 1 ]; then
  echo "check: serve daemon did not come up on $sock" >&2
  cat "$servelog" >&2
  exit 1
fi
loaded=$("$HEM" client load --socket "$sock" --file examples/paper.spec)
sid=$(printf '%s' "$loaded" | jq -r '.body.session')
if [ -z "$sid" ] || [ "$sid" = null ]; then
  echo "check: serve load returned no session id" >&2
  exit 1
fi
# Raising t3 above t1 moves cpu1's bounds: the edit reply must report
# outcomes that differ from the load's, so the restore below can tell a
# fresh read-back from a stale one.
want=$(printf '%s' "$loaded" | jq -c '.body.outcomes')
edited=$("$HEM" client edit --socket "$sock" --session "$sid" --task-priority t3=0)
printf '%s' "$edited" | jq -e --argjson want "$want" \
    '.status == 0 and ([.body.changed[] as $c | $want[]
                        | select(.element == $c.element) | . != $c] | any)' \
    > /dev/null \
  || { echo "check: serve edit t3=0 moved no bound" >&2; exit 1; }
reused=$(printf '%s' "$edited" | jq '.body.stats["resources-reused"]')
if [ "$reused" -lt 1 ]; then
  echo "check: warm edit reused $reused analyses, expected > 0" >&2
  exit 1
fi
"$HEM" client analyse --socket "$sock" --session "$sid" \
  | jq -e --argjson want "$want" \
      '.status == 0 and (.body.outcomes | length > 0)
       and .body.outcomes != $want' > /dev/null \
  || { echo "check: serve analyse after edit reads back the load" >&2; exit 1; }
# t3's priority in examples/paper.spec is 3: restoring it must read back
# exactly the outcomes the load computed
"$HEM" client edit --socket "$sock" --session "$sid" --task-priority t3=3 \
  | jq -e '.status == 0' > /dev/null \
  || { echo "check: serve restoring edit failed" >&2; exit 1; }
"$HEM" client analyse --socket "$sock" --session "$sid" \
  | jq -e --argjson want "$want" \
      '.status == 0 and .body.outcomes == $want' > /dev/null \
  || { echo "check: serve analyse after restore differs from load" >&2; exit 1; }
"$HEM" client metrics --socket "$sock" --session "$sid" \
  | jq -e '.body.requests >= 2 and .body.counters["busy_window.windows"] >= 1
           and .body.process.counters["serve.requests"] >= 1' > /dev/null \
  || { echo "check: serve metrics missing per-session counters" >&2; exit 1; }
"$HEM" client close --socket "$sock" --session "$sid" > /dev/null
kill -TERM "$serve_pid"
code=0
wait "$serve_pid" || code=$?
if [ "$code" != 0 ]; then
  echo "check: serve daemon exited $code on SIGTERM, expected 0" >&2
  cat "$servelog" >&2
  exit 1
fi
trap - EXIT
rm -f "$sock" "$servelog"
echo "check: serve daemon smoke ok (warm edit reused ${reused} analyses, clean SIGTERM drain)"
echo "check: ok"
