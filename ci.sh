#!/bin/sh
# CI smoke: build, full test suite, fast benchmark pass.
# Fails (non-zero exit) as soon as any step does.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build
# Every step runs what that build made; 'dune exec' would re-check the
# build (and take its lock) on each call.
ts_bin=./_build/default/bin/ts_cli.exe

echo "== release build: no module compiled with -opaque =="
# dune-workspace selects the release profile; dune's dev profile passes
# -opaque to every library module, which stops inlining across modules.
rules=$(dune rules -r @@default)
echo "$rules" | grep -q 'net__Codec\.cmx' || {
  echo "release build: dune rules lists no net__Codec.cmx" >&2; exit 1; }
if echo "$rules" | grep -q -- '-opaque'; then
  echo "release build: a module is compiled with -opaque (dev profile?)" >&2
  exit 1
fi

echo "== one clock: no wall-clock reads, no sleeps outside Obs.Clock =="
# Every latency, deadline and stopwatch reads Obs.Clock (monotonic
# nanoseconds); a wall clock can step backwards.
if grep -rn --include='*.ml' --exclude-dir=_build gettimeofday \
     lib bin bench test; then
  echo "one clock: gettimeofday read (use Obs.Clock)" >&2; exit 1
fi
if grep -rn --include='*.ml' --exclude-dir=_build 'Unix\.sleepf' \
     lib bin bench | grep -v '^lib/obs/clock\.ml:'; then
  echo "one clock: Unix.sleepf outside lib/obs/clock.ml" >&2; exit 1
fi

echo "== one wire load run: no hand-built Loadgen.Drive in bin or bench =="
# A live server is driven through Net.Client.run, which owns the probe,
# client order, per-loop counts and cleanup; a Drive setup built by hand
# here would be a second copy of them.  perfbench builds its own setups.
if grep -rn 'Loadgen\.Drive' bin bench; then
  echo "one wire load run: Loadgen.Drive in bin/ or bench/" \
       "(drive a live server with Net.Client.run)" >&2
  exit 1
fi

# Every experiment writes its BENCH_*.json into the working directory.
# Run the bench binary from a scratch directory, so CI's fast-mode
# output never overwrites the committed full-mode trajectory files.
# Every other file a step writes (repros, sidecars, sockets, server
# logs) goes there too, and the trap removes it; its short /tmp name
# keeps each socket path far below the 108-byte limit.
bench_bin=$PWD/_build/default/bench/main.exe
tmp_dir=$(mktemp -d /tmp/ts_ci.XXXXXX)
trap 'rm -rf "$tmp_dir"' EXIT
bench() { (cd "$tmp_dir" && "$bench_bin" "$@"); }

echo "== dune runtest =="
dune runtest

echo "== bench --fast =="
bench --fast

echo "== bench files: every BENCH file of the fast pass is valid and has the header =="
# One writer heads every trajectory file with the host and the revision;
# a BENCH file that fails to parse or lacks them fails here.
for bench_file in "$tmp_dir"/BENCH_*.json; do
  "$ts_bin" obs --validate "$bench_file"
  for key in git_rev recommended_domains; do
    grep -q "^  \"$key\": " "$bench_file" || {
      echo "bench files: $bench_file has no header key $key" >&2; exit 1; }
  done
done

echo "== perfbench self-test: every workload builds, checks and reports =="
# A tiny pass over each benchmark workload, traced and untraced, plus
# injected faults; a library change that breaks the benchmark's build,
# checker or metric list fails here.  Writes only under .perfbench/.
python3 perfbench/selftest.py

echo "== fuzz smoke: seeded differential run =="
"$ts_bin" fuzz --seed 42 --iters 200 -n 4 -c 2

echo "== fuzz smoke: planted mutant must be killed and shrunk =="
if "$ts_bin" fuzz --mutant mutant-lost-increment --seed 42 --iters 200 \
     -n 4 -c 2 --repro-out "$tmp_dir/fuzz_repro.json"; then
  echo "mutant survived the fuzzer" >&2
  exit 1
fi
"$ts_bin" fuzz --replay "$tmp_dir/fuzz_repro.json"

echo "== fuzz smoke: repro corpus replays =="
for repro in test/repro_corpus/mutant-*.json; do
  "$ts_bin" fuzz --replay "$repro"
done

echo "== model smoke: serving-layer models verify exhaustively at n=2 =="
"$ts_bin" verify-svc -n 2

echo "== model smoke: the park model's lost-wakeup mutant must be killed =="
# exit 1 = counterexample found; 0 would mean the mutant survived and 2
# a bad invocation, so demand exactly 1
rc=0
"$ts_bin" verify-svc -m park --mutant park-wake-first -n 2 \
  || rc=$?
[ "$rc" -eq 1 ] || {
  echo "park-wake-first survived the model checker (exit $rc)" >&2
  exit 1; }

echo "== model smoke: model repro corpus replays =="
for repro in test/repro_corpus/model-*.json; do
  "$ts_bin" verify-svc --replay "$repro"
done

echo "== obs smoke: instrumented run + sidecar validation =="
"$ts_bin" obs --impl efr-longlived -n 8 \
  --trace-out "$tmp_dir/trace.json" --metrics-out "$tmp_dir/m.jsonl"
"$ts_bin" obs --validate "$tmp_dir/trace.json" --validate "$tmp_dir/m.jsonl"

echo "== symmetry smoke: quotient must not change the verdict =="
sym_out=$("$ts_bin" explore -i simple-oneshot -n 3)
echo "$sym_out"
echo "$sym_out" | grep -q "symmetry merges" || {
  echo "symmetry smoke: quotient not engaged on a symmetric workload" >&2
  exit 1; }
nosym_out=$("$ts_bin" explore -i simple-oneshot -n 3 \
  --no-symmetry)
echo "$nosym_out"
sym_verdict=$(echo "$sym_out" | grep -o "EXHAUSTIVELY VERIFIED\|OK\|VIOLATION" | head -1)
nosym_verdict=$(echo "$nosym_out" | grep -o "EXHAUSTIVELY VERIFIED\|OK\|VIOLATION" | head -1)
[ "$sym_verdict" = "$nosym_verdict" ] || {
  echo "symmetry smoke: verdict changed with --no-symmetry" \
       "($sym_verdict vs $nosym_verdict)" >&2
  exit 1; }

echo "== parallel smoke: worker domains must not change the verdict =="
# Instances big enough that the breadth-first frontier hands nodes to the
# worker domains (each prints a per-domain line); the verdict word must
# match the sequential run's.
par_smoke() {
  seq_out=$("$ts_bin" "$@")
  par_out=$("$ts_bin" "$@" --domains 2)
  echo "$seq_out"
  echo "$par_out"
  echo "$par_out" | grep -q "^  domain 0:" || {
    echo "parallel smoke: no worker domain ran for $*" >&2; exit 1; }
  seq_verdict=$(echo "$seq_out" | grep -o "EXHAUSTIVELY VERIFIED\|COUNTEREXAMPLE" | head -1)
  par_verdict=$(echo "$par_out" | grep -o "EXHAUSTIVELY VERIFIED\|COUNTEREXAMPLE" | head -1)
  [ "$par_verdict" = "EXHAUSTIVELY VERIFIED" ] \
    && [ "$par_verdict" = "$seq_verdict" ] || {
    echo "parallel smoke: verdict '$par_verdict' on two domains," \
         "'$seq_verdict' sequentially, for $*" >&2
    exit 1; }
}
par_smoke explore -i simple-oneshot -n 4
par_smoke verify-svc -m pool -n 3

echo "== service smoke: closed-loop loadgen + hb checker =="
lg_out=$("$ts_bin" loadgen -i efr-longlived \
  --clients 3 -r 40 --shards 2 --batch 16 --pipeline 4)
echo "$lg_out"
echo "$lg_out" | grep -q "served 120 requests" || {
  echo "loadgen smoke: wrong request count" >&2; exit 1; }
echo "$lg_out" | grep -q "checker: OK" || {
  echo "loadgen smoke: checker did not pass" >&2; exit 1; }

echo "== scale smoke: 200k requests checked by the strict-weak sweep =="
# ~2e10 happens-before pairs: minutes for the all-pairs scan, under a
# second for the sweep, so the timeout catches a fallback to the scan
scale_out=$(timeout 60 "$ts_bin" loadgen \
  -i lamport-longlived --clients 2 -r 100000 --shards 1 --batch 16 \
  --pipeline 8)
echo "$scale_out"
echo "$scale_out" | grep -q "served 200000 requests" || {
  echo "scale smoke: wrong request count" >&2; exit 1; }
echo "$scale_out" | grep -q "checker: OK" || {
  echo "scale smoke: checker did not pass" >&2; exit 1; }
echo "$scale_out" | grep -q "^checked in " || {
  echo "scale smoke: no check time printed" >&2; exit 1; }

echo "== scale smoke: 10^5 vector and snapshot requests checked by the frontier =="
# ~5e9 happens-before pairs: about 20 minutes for the all-pairs scan, well
# under a second for the frontier, so the timeout catches a fallback
for impl in vector-longlived snapshot-longlived; do
  po_out=$(timeout 60 "$ts_bin" loadgen -i "$impl" \
    -n 4 --clients 2 -r 50000 --direct)
  echo "$po_out"
  echo "$po_out" | grep -q "served 100000 requests" || {
    echo "partial-order smoke: wrong request count for $impl" >&2; exit 1; }
  echo "$po_out" | grep -q "checker: OK" || {
    echo "partial-order smoke: checker did not pass for $impl" >&2; exit 1; }
  echo "$po_out" | grep -q "^checked in " || {
    echo "partial-order smoke: no check time printed for $impl" >&2; exit 1; }
done

echo "== telemetry smoke: open-loop loadgen writes a valid stall-free stream =="
tel_out=$("$ts_bin" loadgen -i lamport-longlived \
  --clients 2 -r 60 --shards 2 --batch 16 --pipeline 2 --rate 2000 \
  --telemetry-out "$tmp_dir/telemetry.jsonl" --telemetry-interval-us 5000)
echo "$tel_out"
echo "$tel_out" | grep -q "checker: OK" || {
  echo "telemetry smoke: checker did not pass" >&2; exit 1; }
val_out=$("$ts_bin" obs --validate "$tmp_dir/telemetry.jsonl")
echo "$val_out"
echo "$val_out" | grep -q "OK (telemetry schema" || {
  echo "telemetry smoke: time series failed validation" >&2; exit 1; }
# Stalls depend on host wall-clock scheduling (the open-loop arrival
# clock keeps ticking while CI neighbours steal the core), so a stall is
# noise here, not a failure: warn and move on.
echo "$val_out" | grep -q ", 0 stalls)" \
  || echo "telemetry smoke: WARNING - stall events in the stream" \
       "(timing noise on a loaded host; not failing CI)" >&2
"$ts_bin" top --file "$tmp_dir/telemetry.jsonl" --once

echo "== stress smoke: real domains, checked verdicts =="
stress_ok() {
  stress_out=$("$ts_bin" stress "$@")
  echo "$stress_out"
  echo "$stress_out" | grep -q " OK " || {
    echo "stress smoke: verdict not OK for $*" >&2; exit 1; }
}
stress_ok -i lamport-longlived -n 4 -c 50
stress_ok -i sqrt-oneshot -n 8

echo "== example smoke: multicore_stress checks each object on real domains =="
ex_out=$(./_build/default/examples/multicore_stress.exe)
echo "$ex_out"
if echo "$ex_out" | grep -q "VIOLATION\|FAILURES"; then
  echo "example smoke: multicore_stress reported a violation" >&2; exit 1
fi

echo "== scaling sanity: 2-shard sweep emits schema-valid JSON =="
bench --fast --only e13 --max-shards 2 --requests 60
"$ts_bin" obs --validate "$tmp_dir/BENCH_service.json"

# start_server SOCK LOG ARGS...: run 'ts_cli serve ARGS --listen
# unix:SOCK' in the background (its pid in $server_pid) and wait up to
# 10 s for the socket, less if the server exits first; if no socket
# appears, print the log and fail.
start_server() {
  server_sock=$1; server_log=$2; shift 2
  rm -f "$server_sock" "$server_log"
  "$ts_bin" serve "$@" --listen "unix:$server_sock" > "$server_log" 2>&1 &
  server_pid=$!
  i=0
  while [ ! -S "$server_sock" ] && [ "$i" -lt 100 ] \
    && kill -0 "$server_pid" 2>/dev/null; do
    sleep 0.1; i=$((i + 1))
  done
  [ -S "$server_sock" ] || {
    echo "net smoke: server socket $server_sock never appeared" >&2
    cat "$server_log" >&2; kill "$server_pid" 2>/dev/null || true; exit 1; }
}

echo "== net smoke: wire server + loadgen over a unix socket + graceful stop =="
net_sock="$tmp_dir/net.sock"
start_server "$net_sock" "$tmp_dir/net_serve.log" -i efr-longlived -n 8 \
  --io-threads 2 --telemetry-out "$tmp_dir/net_tel.jsonl"
# Four leased clients in one process: every stamp goes through one
# global happens-before check.
wide_out=$("$ts_bin" loadgen -i efr-longlived --addr "unix:$net_sock" \
  --clients 4 -r 50 --lease 16)
echo "$wide_out"
echo "$wide_out" | grep -q "served 200 requests" || {
  echo "net smoke: four leased clients, wrong request count" >&2; exit 1; }
echo "$wide_out" | grep -q "checker: OK" || {
  echo "net smoke: four leased clients failed the checker" >&2; exit 1; }
# Anchors run on demand: a client's second lease anchors on a getTS
# submitted after its first lease's ticks were reserved, so the checker
# sees ordered pairs even for a single leased client.
lease_out=$("$ts_bin" loadgen -i efr-longlived --addr "unix:$net_sock" \
  --clients 1 -r 20 --lease 16)
echo "$lease_out"
echo "$lease_out" | grep -q "checker: OK ([1-9]" || {
  echo "net smoke: a leased client's stamps gave no ordered pair" >&2
  exit 1; }
net_out=$("$ts_bin" loadgen -i efr-longlived --addr "unix:$net_sock" \
  --clients 2 -r 100 --lease 16 --stop-server)
echo "$net_out"
echo "$net_out" | grep -q "served 200 requests" || {
  echo "net smoke: wrong request count" >&2; exit 1; }
echo "$net_out" | grep -q "checker: OK" || {
  echo "net smoke: checker did not pass over the wire" >&2; exit 1; }
wait "$server_pid" || {
  echo "net smoke: server did not stop cleanly" >&2
  cat "$tmp_dir/net_serve.log" >&2; exit 1; }
cat "$tmp_dir/net_serve.log"
grep -q "serve: stopped after" "$tmp_dir/net_serve.log" || {
  echo "net smoke: server summary missing" >&2; exit 1; }
grep -q "io_threads=2" "$tmp_dir/net_serve.log" || {
  echo "net smoke: reactor io_threads banner missing" >&2; exit 1; }
"$ts_bin" obs --validate "$tmp_dir/net_tel.jsonl"
"$ts_bin" top --file "$tmp_dir/net_tel.jsonl" --once

echo "== net smoke: one-shot object over the wire =="
# Each stamp draws a fresh pid on the I/O loop that decoded it.
os_sock="$tmp_dir/oneshot.sock"
start_server "$os_sock" "$tmp_dir/oneshot_serve.log" -i sqrt-oneshot -n 1000
os_out=$("$ts_bin" loadgen -i sqrt-oneshot --addr "unix:$os_sock" \
  --clients 2 -r 200 --stop-server)
echo "$os_out"
echo "$os_out" | grep -q "served 400 requests" || {
  echo "net smoke: one-shot wrong request count" >&2; exit 1; }
echo "$os_out" | grep -q "checker: OK" || {
  echo "net smoke: one-shot checker did not pass" >&2; exit 1; }
wait "$server_pid" || {
  echo "net smoke: one-shot server did not stop cleanly" >&2
  cat "$tmp_dir/oneshot_serve.log" >&2; exit 1; }

echo "== net smoke: connections come and go, the loop keeps its pid =="
# Each I/O loop runs as one of a long-lived object's n processes and no
# connection holds a pid: three runs against n=2 on one loop all serve
# (a pid per stamping connection, never returned, refused the third).
pid_sock="$tmp_dir/pids.sock"
start_server "$pid_sock" "$tmp_dir/pids_serve.log" -i lamport-longlived -n 2 \
  --io-threads 1
for run in 1 2 3; do
  stop=""
  [ "$run" -eq 3 ] && stop=--stop-server
  run_out=$("$ts_bin" loadgen -i lamport-longlived --addr "unix:$pid_sock" \
    --clients 1 -r 5 $stop) || {
    echo "net smoke: run $run against n=2 failed" >&2
    kill "$server_pid" 2>/dev/null; exit 1; }
  echo "$run_out"
  echo "$run_out" | grep -q "checker: OK" \
    && echo "$run_out" | grep -q " served=5 " || {
    echo "net smoke: run $run did not report its own 5 checked stamps" >&2
    kill "$server_pid" 2>/dev/null; exit 1; }
done
wait "$server_pid" || {
  echo "net smoke: n=2 server did not stop cleanly" >&2
  cat "$tmp_dir/pids_serve.log" >&2; exit 1; }

echo "== net smoke: 10^5 per-stamp round trips, every frame decoded in place =="
# Lease 1: each stamp is one Get_stamp frame decoded where it lies in the
# loop's receive buffer and one Stamp reply decoded where it lies in the
# client's; pipelined bursts of 8 straddle reads on both ends.
ip_sock="$tmp_dir/inplace.sock"
start_server "$ip_sock" "$tmp_dir/inplace_serve.log" -i lamport-longlived -n 2
ip_out=$(timeout 120 "$ts_bin" loadgen -i lamport-longlived \
  --addr "unix:$ip_sock" --clients 2 -r 50000 --pipeline 8 --lease 1 \
  --stop-server) || {
  echo "net smoke: the lease-1 scale run failed" >&2
  cat "$tmp_dir/inplace_serve.log" >&2; kill "$server_pid" 2>/dev/null; exit 1; }
echo "$ip_out"
echo "$ip_out" | grep -q "served 100000 requests" || {
  echo "net smoke: lease-1 scale run has the wrong request count" >&2
  kill "$server_pid" 2>/dev/null; exit 1; }
echo "$ip_out" | grep -q "checker: OK" || {
  echo "net smoke: lease-1 scale run failed the checker" >&2
  kill "$server_pid" 2>/dev/null; exit 1; }
wait "$server_pid" || {
  echo "net smoke: lease-1 server did not stop cleanly" >&2
  cat "$tmp_dir/inplace_serve.log" >&2; exit 1; }

echo "== net smoke: the TCP transport, on a port the kernel picks =="
# Every other net smoke serves on a unix path.  A TCP server leaves no
# socket file for start_server to wait on, so wait up to 10 s for its
# banner and read the bound port from it.
tcp_log="$tmp_dir/tcp_serve.log"
"$ts_bin" serve -i lamport-longlived -n 2 --listen tcp:127.0.0.1:0 \
  > "$tcp_log" 2>&1 &
server_pid=$!
tcp_addr=""
i=0
while [ -z "$tcp_addr" ] && [ "$i" -lt 100 ] \
  && kill -0 "$server_pid" 2>/dev/null; do
  sleep 0.1; i=$((i + 1))
  tcp_addr=$(sed -n 's/^serving .* at \(tcp:127\.0\.0\.1:[0-9]*\) .*/\1/p' \
    "$tcp_log")
done
[ -n "$tcp_addr" ] || {
  echo "net smoke: the TCP server printed no bound address" >&2
  cat "$tcp_log" >&2; kill "$server_pid" 2>/dev/null || true; exit 1; }
tcp_out=$("$ts_bin" loadgen -i lamport-longlived --addr "$tcp_addr" \
  --clients 2 -r 100 --stop-server) || {
  echo "net smoke: the TCP run failed" >&2
  cat "$tcp_log" >&2; kill "$server_pid" 2>/dev/null; exit 1; }
echo "$tcp_out"
echo "$tcp_out" | grep -q "served 200 requests" || {
  echo "net smoke: TCP run has the wrong request count" >&2
  kill "$server_pid" 2>/dev/null; exit 1; }
echo "$tcp_out" | grep -q "checker: OK" || {
  echo "net smoke: TCP run failed the checker" >&2
  kill "$server_pid" 2>/dev/null; exit 1; }
wait "$server_pid" || {
  echo "net smoke: TCP server did not stop cleanly" >&2
  cat "$tcp_log" >&2; exit 1; }
cat "$tcp_log"

echo "== ci.sh: all green =="
