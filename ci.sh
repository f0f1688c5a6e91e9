#!/usr/bin/env bash
# Tier-1 entry point: lint gate first (fail fast, report uploaded to
# results/lint_report.json), then offline build and the full test
# suite (which re-runs the gate in-process via tests/lint_gate.rs).
# `./ci.sh --lint-only` stops after the gate — the editing loop's
# fast path.
set -euo pipefail
cd "$(dirname "$0")"

if cargo fmt --version >/dev/null 2>&1; then
    echo "== fmt =="
    cargo fmt --check
fi

echo "== lint gate =="
# Debug build: the analyzer itself is cheap, the release compile is
# not. The JSON report is written even when findings fail the gate.
mkdir -p results
lint_status=0
cargo run -q -p palu-lint -- --json >results/lint_report.json || lint_status=$?
if [ "$lint_status" != 0 ]; then
    echo "ci: lint gate failed (report in results/lint_report.json):" >&2
    cargo run -q -p palu-lint || true
    exit "$lint_status"
fi
echo "lint gate: clean (report in results/lint_report.json)"
if [ "${1:-}" = "--lint-only" ]; then
    echo "ci: lint-only run, stopping after the gate"
    exit 0
fi

echo "== build (release, offline) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== benchmark harness (build + unit tests) =="
# perfbench/ is its own workspace with path dependencies on the crates:
# building it here means a library API change that breaks the
# benchmark fails CI, not the benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== pipeline determinism (1, 2, 8 threads) =="
# The sharded pipeline's hard contract, run explicitly so CI logs show
# it even when the quiet test harness truncates: bit-identical pooled
# results at 1, 2, and 8 threads on a 64-window workload.
cargo test -q -p palu-suite --test parallel_pipeline \
    parallel_pipeline_is_bit_identical_to_serial_at_1_2_8_threads
# Same contract end-to-end through the bench binary, which also emits
# results/BENCH_pipeline.json with per-stage timings and packets/sec.
# --gate additionally enforces the parallel-scaling floor: 8-thread
# speedup ≥ 0.75 × min(threads, effective cores) — 6× on an 8-core
# box, and on a single-core runner it still catches the historical
# parallel-slower-than-serial inversion (exit 1 on regression).
cargo run -q --release -p palu-bench --bin pipeline -- --gate
test -s results/BENCH_pipeline.json

echo "== bootstrap scaling gate =="
# fit_bootstrap draws its resamples in order on the caller's RNG and
# refits them across cores (DESIGN.md §4m). The bench binary times it
# against a serial replay built from public calls in the same run,
# asserts identical replicates, and with --gate requires a speedup
# ≥ 0.75 × min(2, effective cores); it records
# results/BENCH_bootstrap.json.
cargo run -q --release -p palu-bench --bin bootstrap -- --gate
test -s results/BENCH_bootstrap.json

echo "== synthesis speedup gate =="
# Uniform synthesis indexes conversations directly instead of
# binary-searching a cumulative table (DESIGN.md §4n). The bench binary
# times both at 10⁴–10⁷ conversations in the same run, asserts
# identical packets, and with --gate requires the direct index to be
# ≥ 2× the search at every size; it records results/BENCH_synth.json.
cargo run -q --release -p palu-bench --bin synth -- --gate
test -s results/BENCH_synth.json

echo "== undirected-degree kernel speedup gate =="
# The engine measures undirected degree from packets straight to
# sorted partner keys, with no COO/CSR build (DESIGN.md §4o). The
# bench binary times that kernel against the COO→CSR path at
# N_V ∈ {2·10⁴, 10⁵, 10⁶} in the same run, asserts equal histograms on
# every window, and with --gate requires the kernel to be ≥ 1.5× the
# matrix path at every size; it records results/BENCH_degree.json.
cargo run -q --release -p palu-bench --bin degree -- --gate
test -s results/BENCH_degree.json

echo "== fault-injection smoke matrix (0%, 5%, 50%) =="
# The quarantine policy must complete at every injection rate, with a
# clean report at 0% and a non-empty quarantine set at 50%.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
for rate in 0 0.05 0.5; do
    inject_args=()
    if [ "$rate" != 0 ]; then
        inject_args=(--inject-faults "$rate")
    fi
    cargo run -q --release -p palu-cli -- simulate \
        --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 \
        --nodes 20000 --nv 5000 --windows 16 --seed 42 \
        --fail-policy quarantine --max-retries 0 \
        "${inject_args[@]}" \
        --metrics "$smoke_dir/fault_$rate.json" \
        --out "$smoke_dir/fault_$rate.txt" 2>/dev/null
    quarantined=$(grep -A 10 '"fault_report"' "$smoke_dir/fault_$rate.json" \
        | grep '"quarantined"' | head -1 | tr -dc '0-9')
    echo "rate $rate: quarantined $quarantined window(s)"
    if [ "$rate" = 0 ] && [ "$quarantined" != 0 ]; then
        echo "ci: unexpected quarantine with injection disabled" >&2
        exit 1
    fi
    if [ "$rate" = 0.5 ] && [ "$quarantined" = 0 ]; then
        echo "ci: 50% injection should quarantine at least one window" >&2
        exit 1
    fi
done

echo "== fig3 drift gate (committed results/fig3.json) =="
# fig3.json holds only what the seeds determine (its timings go to
# BENCH_fig3.json), so a fresh run must reproduce the committed file
# byte for byte. It sizes its capture with default_threads() and runs
# pool_observatory_parallel, so a change that moves an output byte of
# the capture engine fails here.
fig3_dir="$smoke_dir/fig3"
mkdir -p "$fig3_dir"
cargo run -q --release -p palu-bench --bin fig3 -- --out "$fig3_dir" >/dev/null
cmp "$fig3_dir/fig3.json" results/fig3.json
echo "fig3: fig3.json byte-identical to the committed result"

echo "== bootstrap core-count smoke (taskset -c 0 vs all cores) =="
# Bootstrap output must not depend on the core count: the same
# fit --boot and gof --boot runs pinned to one core (no refit workers)
# and unpinned (refits spread over every core) must print the same
# bytes.
command -v taskset >/dev/null || {
    echo "ci: taskset (util-linux) is required for the bootstrap smoke" >&2
    exit 1
}
boot_dir="$smoke_dir/bootstrap"
mkdir -p "$boot_dir"
./target/release/palu-cli generate --nodes 20000 --core 0.5 --leaves 0.2 \
    --lambda 3 --alpha 2 --seed 3 --out "$boot_dir/edges.txt" 2>/dev/null
./target/release/palu-cli degrees --in "$boot_dir/edges.txt" \
    --out "$boot_dir/hist.txt" 2>/dev/null
for pin in all one; do
    pin_cmd=()
    if [ "$pin" = one ]; then
        pin_cmd=(taskset -c 0)
    fi
    "${pin_cmd[@]}" ./target/release/palu-cli fit --in "$boot_dir/hist.txt" \
        --boot 20 --out "$boot_dir/fit_$pin.txt" 2>/dev/null
    "${pin_cmd[@]}" ./target/release/palu-cli gof --in "$boot_dir/hist.txt" \
        --boot 50 --out "$boot_dir/gof_$pin.txt" 2>/dev/null
done
cmp "$boot_dir/fit_all.txt" "$boot_dir/fit_one.txt"
cmp "$boot_dir/gof_all.txt" "$boot_dir/gof_one.txt"
grep -q "90% CI" "$boot_dir/fit_all.txt"
grep -q "goodness of fit: p = " "$boot_dir/gof_all.txt"
echo "bootstrap: fit --boot 20 and gof --boot 50 byte-identical on one core and on all cores"

echo "== crash-recovery smoke (SIGKILL mid-capture + resume) =="
# A durable capture killed with SIGKILL must resume from its journal
# and finish with output bit-identical to an uninterrupted run
# (DESIGN.md §4f). Same workload, three runs: reference, killed,
# resumed.
jr_dir="$smoke_dir/journal"
mkdir -p "$jr_dir"
sim_args=(simulate
    --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0
    --nodes 20000 --nv 150000 --windows 64 --seed 7
    --fail-policy quarantine --max-retries 1)

cargo run -q --release -p palu-cli -- "${sim_args[@]}" \
    --out "$jr_dir/ref.txt" --metrics "$jr_dir/ref.json" 2>/dev/null

cargo run -q --release -p palu-cli -- "${sim_args[@]}" \
    --journal "$jr_dir/capture.journal" \
    --out "$jr_dir/killed.txt" --metrics "$jr_dir/killed.json" 2>/dev/null &
sim_pid=$!
# Let the journal accumulate a prefix of window records, then kill -9.
for _ in $(seq 1 400); do
    jr_size=$(stat -c %s "$jr_dir/capture.journal" 2>/dev/null || echo 0)
    [ "$jr_size" -gt 5000 ] && break
    sleep 0.02
done
kill -9 "$sim_pid" 2>/dev/null || true
wait "$sim_pid" 2>/dev/null || true

cargo run -q --release -p palu-cli -- "${sim_args[@]}" \
    --journal "$jr_dir/capture.journal" --resume \
    --out "$jr_dir/resumed.txt" --metrics "$jr_dir/resumed.json" \
    2>"$jr_dir/resume.log"

cmp "$jr_dir/ref.txt" "$jr_dir/resumed.txt"
# The fault-report section must match the uninterrupted run exactly
# (the journal counters that differ by construction precede it).
sed -n '/"fault_report"/,$p' "$jr_dir/ref.json" >"$jr_dir/ref_report.json"
sed -n '/"fault_report"/,$p' "$jr_dir/resumed.json" >"$jr_dir/resumed_report.json"
diff "$jr_dir/ref_report.json" "$jr_dir/resumed_report.json"
recovered=$(grep '"windows_recovered"' "$jr_dir/resumed.json" | head -1 | tr -dc '0-9')
echo "crash recovery: resume replayed ${recovered:-0} journaled window(s), output bit-identical"
if [ "${recovered:-0}" = 0 ]; then
    echo "ci: resume should replay at least one journaled window" >&2
    exit 1
fi

# A corrupted journal must be refused with a typed fault — no panic,
# no silent partial resume — and the refusal must carry the dedicated
# JOURNAL_CORRUPT exit code (4). Flip one payload byte in the middle
# of the file (well past the header record, inside a window record).
jr_size=$(stat -c %s "$jr_dir/capture.journal")
flip_at=$((jr_size / 2))
cur=$(dd if="$jr_dir/capture.journal" bs=1 skip="$flip_at" count=1 status=none | od -An -tu1 | tr -d '[:space:]')
printf "$(printf '\\x%02x' $(((cur + 1) % 256)))" \
    | dd of="$jr_dir/capture.journal" bs=1 seek="$flip_at" conv=notrunc status=none
corrupt_status=0
cargo run -q --release -p palu-cli -- "${sim_args[@]}" \
    --journal "$jr_dir/capture.journal" --resume \
    --out "$jr_dir/corrupt.txt" 2>"$jr_dir/corrupt.log" || corrupt_status=$?
if [ "$corrupt_status" != 4 ]; then
    echo "ci: corrupted journal must refuse with exit 4, got $corrupt_status" >&2
    cat "$jr_dir/corrupt.log" >&2
    exit 1
fi
grep -qiE "checksum|malformed" "$jr_dir/corrupt.log" || {
    echo "ci: corruption refusal should name a typed journal fault:" >&2
    cat "$jr_dir/corrupt.log" >&2
    exit 1
}
echo "crash recovery: corrupted journal refused with a typed fault (exit 4)"

echo "== federated shard-kill smoke (SIGKILL one shard + resume + merge) =="
# Federation contract (DESIGN.md §4j): shard the capture three ways,
# SIGKILL one shard mid-journal, resume only that shard, merge the
# journals hierarchically — and the pooled output must be byte-
# identical to the single-process run. A merge missing a whole shard
# at the default coverage threshold must refuse with exit 6.
fed_dir="$smoke_dir/federation"
mkdir -p "$fed_dir"
fed_args=(
    --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0
    --nodes 20000 --nv 150000 --windows 12 --seed 7
    --fail-policy quarantine --max-retries 1)

cargo run -q --release -p palu-cli -- simulate "${fed_args[@]}" \
    --out "$fed_dir/ref.txt" 2>/dev/null

for shard in 0 2; do
    cargo run -q --release -p palu-cli -- shard "${fed_args[@]}" \
        --shard-index "$shard" --shards 3 \
        --journal "$fed_dir/shard$shard.journal" \
        --out "$fed_dir/shard$shard.txt" 2>/dev/null
done

# Shard 1 gets killed mid-capture once its journal holds a prefix…
cargo run -q --release -p palu-cli -- shard "${fed_args[@]}" \
    --shard-index 1 --shards 3 \
    --journal "$fed_dir/shard1.journal" \
    --out "$fed_dir/shard1.txt" 2>/dev/null &
shard_pid=$!
for _ in $(seq 1 400); do
    fed_size=$(stat -c %s "$fed_dir/shard1.journal" 2>/dev/null || echo 0)
    [ "$fed_size" -gt 5000 ] && break
    sleep 0.02
done
kill -9 "$shard_pid" 2>/dev/null || true
wait "$shard_pid" 2>/dev/null || true

# …a merge without it must refuse at the default coverage of 1.0
# with the dedicated COVERAGE exit code (6)…
coverage_status=0
cargo run -q --release -p palu-cli -- pool "${fed_args[@]}" \
    --merge "$fed_dir/shard0.journal" "$fed_dir/shard2.journal" \
    --out "$fed_dir/refused.txt" 2>"$fed_dir/refused.log" || coverage_status=$?
if [ "$coverage_status" != 6 ]; then
    echo "ci: merge below coverage must refuse with exit 6, got $coverage_status" >&2
    cat "$fed_dir/refused.log" >&2
    exit 1
fi
grep -q "coverage below threshold" "$fed_dir/refused.log" || {
    echo "ci: coverage refusal should name the threshold:" >&2
    cat "$fed_dir/refused.log" >&2
    exit 1
}

# …then the killed shard resumes from its torn journal and the full
# merge reproduces the single-process bytes.
cargo run -q --release -p palu-cli -- shard "${fed_args[@]}" \
    --shard-index 1 --shards 3 \
    --journal "$fed_dir/shard1.journal" --resume \
    --out "$fed_dir/shard1.txt" 2>/dev/null

cargo run -q --release -p palu-cli -- pool "${fed_args[@]}" \
    --merge "$fed_dir/shard0.journal" "$fed_dir/shard1.journal" "$fed_dir/shard2.journal" \
    --metrics "$fed_dir/merge.json" \
    --out "$fed_dir/merged.txt" 2>/dev/null
cmp "$fed_dir/ref.txt" "$fed_dir/merged.txt"
covered=$(grep -m 1 '"covered"' "$fed_dir/merge.json" | tr -dc '0-9')
if [ "${covered:-0}" != 12 ]; then
    echo "ci: healed federation should cover all 12 windows, got ${covered:-0}" >&2
    exit 1
fi
echo "federation: shard killed, resumed, merged — output bit-identical; coverage refusal exits 6"

echo "== federation service smoke (serve + submit, kills on both sides) =="
# Service contract (DESIGN.md §4k): the same three shard journals
# submitted over TCP must serve a fit byte-identical to the single-
# process output. Along the way: a below-coverage fit refuses with
# exit 6, a client whose every frame tears mid-write exhausts its
# retry deadline with exit 8 without corrupting the server, a
# SIGKILL'd server rebuilds coverage from its journal directory on
# restart, and `submit --shutdown` drains gracefully.
# The server is exec'd directly (not via cargo run) so kill -9 hits
# the serving process itself.
palu_bin=./target/release/palu-cli
srv_dir="$smoke_dir/service"
mkdir -p "$srv_dir/journals"

"$palu_bin" serve "${fed_args[@]}" \
    --shards 3 --journal-dir "$srv_dir/journals" \
    --addr-file "$srv_dir/addr1" 2>"$srv_dir/serve1.log" &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -s "$srv_dir/addr1" ] && break
    sleep 0.02
done
addr=$(cat "$srv_dir/addr1")

# Two shards submit concurrently from separate client processes…
"$palu_bin" submit "${fed_args[@]}" --server "$addr" \
    --journal "$fed_dir/shard0.journal" --shard-index 0 --shards 3 \
    2>/dev/null &
sub0_pid=$!
"$palu_bin" submit "${fed_args[@]}" --server "$addr" \
    --journal "$fed_dir/shard2.journal" --shard-index 2 --shards 3 \
    2>/dev/null
wait "$sub0_pid"

# …a fit at 2/3 coverage refuses with the dedicated COVERAGE code…
fit_status=0
"$palu_bin" fit --server "$addr" \
    --out "$srv_dir/partial.txt" 2>"$srv_dir/partial.log" || fit_status=$?
if [ "$fit_status" != 6 ]; then
    echo "ci: partial service fit must refuse with exit 6, got $fit_status" >&2
    cat "$srv_dir/partial.log" >&2
    exit 1
fi
grep -q "coverage" "$srv_dir/partial.log" || {
    echo "ci: partial-fit refusal should name coverage:" >&2
    cat "$srv_dir/partial.log" >&2
    exit 1
}

# …shard 1's first client dies mid-frame on every attempt (the seeded
# injector tears each frame half-written) and must give up with the
# SERVICE_UNAVAILABLE code, leaving the server healthy…
torn_status=0
"$palu_bin" submit "${fed_args[@]}" --server "$addr" \
    --journal "$fed_dir/shard1.journal" --shard-index 1 --shards 3 \
    --wire-faults truncate=1.0 \
    --retry-deadline-ms 400 --backoff-base-ms 5 --backoff-cap-ms 20 \
    2>"$srv_dir/torn.log" || torn_status=$?
if [ "$torn_status" != 8 ]; then
    echo "ci: a client torn on every frame must exit 8, got $torn_status" >&2
    cat "$srv_dir/torn.log" >&2
    exit 1
fi

# …then the server itself is SIGKILL'd and restarted on the same
# journal directory: coverage rebuilds from disk…
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$palu_bin" serve "${fed_args[@]}" \
    --shards 3 --journal-dir "$srv_dir/journals" \
    --addr-file "$srv_dir/addr2" --metrics "$srv_dir/serve2.json" \
    2>"$srv_dir/serve2.log" &
serve2_pid=$!
for _ in $(seq 1 200); do
    [ -s "$srv_dir/addr2" ] && break
    sleep 0.02
done
addr2=$(cat "$srv_dir/addr2")
grep -q "recovered" "$srv_dir/serve2.log" || {
    echo "ci: restarted server should report recovered windows:" >&2
    cat "$srv_dir/serve2.log" >&2
    exit 1
}

# …the killed shard's client retries cleanly and resumes…
"$palu_bin" submit "${fed_args[@]}" --server "$addr2" \
    --journal "$fed_dir/shard1.journal" --shard-index 1 --shards 3 \
    2>/dev/null

# …and the served fit is byte-identical to the single-process output.
"$palu_bin" fit --server "$addr2" --out "$srv_dir/fit.txt" 2>/dev/null
cmp "$fed_dir/ref.txt" "$srv_dir/fit.txt"

"$palu_bin" submit --server "$addr2" --shutdown 2>/dev/null
wait "$serve2_pid"
srv_covered=$(grep -m 1 '"covered"' "$srv_dir/serve2.json" | tr -dc '0-9')
if [ "${srv_covered:-0}" != 12 ]; then
    echo "ci: drained service should cover all 12 windows, got ${srv_covered:-0}" >&2
    exit 1
fi
echo "service: client torn mid-frame exits 8, server SIGKILL'd and recovered, fit byte-identical; partial fit exits 6"

echo "== dispatcher smoke (lease supervision, kills on both sides, zombie fenced) =="
# Dispatcher contract (DESIGN.md §4l): workers that only ever talk to
# the dispatcher produce a merged fit byte-identical to the single-
# process run — under a worker killed mid-capture AND a dispatcher
# SIGKILL + restart — and a zombie worker resuming a pre-kill lease is
# refused with the dedicated DISPATCH_FENCED code (9) without being
# able to change coverage.
dsp_dir="$smoke_dir/dispatch"
mkdir -p "$dsp_dir/journals" "$dsp_dir/work"

"$palu_bin" dispatch "${fed_args[@]}" --shards 4 \
    --journal-dir "$dsp_dir/journals" \
    --lease-ms 1500 --heartbeat-ms 300 \
    --addr-file "$dsp_dir/addr1" 2>"$dsp_dir/dispatch1.log" &
dsp_pid=$!
for _ in $(seq 1 200); do
    [ -s "$dsp_dir/addr1" ] && break
    sleep 0.02
done
dsp_addr=$(cat "$dsp_dir/addr1")

# Worker 100 takes a lease and dies mid-capture (--chaos-kill leaves
# the exact on-disk state of a SIGKILL at that phase: a partial local
# journal plus the lease-state file, and nothing submitted)…
"$palu_bin" work "${fed_args[@]}" --server "$dsp_addr" --worker 100 \
    --work-dir "$dsp_dir/work" --chaos-kill mid-capture 2>"$dsp_dir/work100.log"
test -s "$dsp_dir/work/worker-100.lease"

# …then the dispatcher itself is SIGKILL'd with that lease still
# outstanding, and restarted over the same journal directory
# (--linger keeps the fit queryable after the plan completes)…
kill -9 "$dsp_pid" 2>/dev/null || true
wait "$dsp_pid" 2>/dev/null || true
"$palu_bin" dispatch "${fed_args[@]}" --shards 4 \
    --journal-dir "$dsp_dir/journals" \
    --lease-ms 1500 --heartbeat-ms 300 --linger \
    --addr-file "$dsp_dir/addr2" --metrics "$dsp_dir/dispatch2.json" \
    2>"$dsp_dir/dispatch2.log" &
dsp2_pid=$!
for _ in $(seq 1 200); do
    [ -s "$dsp_dir/addr2" ] && break
    sleep 0.02
done
dsp_addr2=$(cat "$dsp_dir/addr2")

# …three fresh workers complete the plan between them…
"$palu_bin" work "${fed_args[@]}" --server "$dsp_addr2" --worker 0 \
    --work-dir "$dsp_dir/work" 2>"$dsp_dir/work0.log" &
w0_pid=$!
"$palu_bin" work "${fed_args[@]}" --server "$dsp_addr2" --worker 1 \
    --work-dir "$dsp_dir/work" 2>"$dsp_dir/work1.log" &
w1_pid=$!
"$palu_bin" work "${fed_args[@]}" --server "$dsp_addr2" --worker 2 \
    --work-dir "$dsp_dir/work" 2>"$dsp_dir/work2.log"
wait "$w0_pid"
wait "$w1_pid"

# …and the dispatched fit is byte-identical to the single-process run.
"$palu_bin" fit --server "$dsp_addr2" --out "$dsp_dir/fit.txt" 2>/dev/null
cmp "$fed_dir/ref.txt" "$dsp_dir/fit.txt"

# The killed worker wakes up as a zombie holding its pre-kill lease:
# resubmission is byte-idempotent (coverage cannot change) and the
# stale fence is refused with the dedicated code.
fence_status=0
"$palu_bin" work "${fed_args[@]}" --server "$dsp_addr2" --worker 100 \
    --work-dir "$dsp_dir/work" --resume-lease 2>"$dsp_dir/zombie.log" || fence_status=$?
if [ "$fence_status" != 9 ]; then
    echo "ci: a fenced zombie must exit 9, got $fence_status" >&2
    cat "$dsp_dir/zombie.log" >&2
    exit 1
fi
grep -qi "fenced" "$dsp_dir/zombie.log" || {
    echo "ci: the zombie refusal should say fenced:" >&2
    cat "$dsp_dir/zombie.log" >&2
    exit 1
}
"$palu_bin" fit --server "$dsp_addr2" --out "$dsp_dir/fit2.txt" 2>/dev/null
cmp "$fed_dir/ref.txt" "$dsp_dir/fit2.txt"

"$palu_bin" submit --server "$dsp_addr2" --shutdown 2>/dev/null
wait "$dsp2_pid"
dsp_covered=$(grep -m 1 '"covered"' "$dsp_dir/dispatch2.json" | tr -dc '0-9')
if [ "${dsp_covered:-0}" != 12 ]; then
    echo "ci: dispatched capture should cover all 12 windows, got ${dsp_covered:-0}" >&2
    exit 1
fi
echo "dispatcher: worker killed mid-capture, dispatcher SIGKILL'd and restarted, fit byte-identical; zombie fenced (exit 9), coverage untouched"

echo "== stall watchdog smoke =="
# A window exceeding --window-deadline-ms is classified Stalled and
# flows through quarantine into the fault report.
cargo run -q --release -p palu-cli -- simulate \
    --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0 \
    --nodes 20000 --nv 5000 --windows 2 --seed 9 \
    --inject-faults stall=1.0 --window-deadline-ms 40 \
    --fail-policy quarantine --max-retries 0 \
    --metrics "$jr_dir/stall.json" --out "$jr_dir/stall.txt" 2>/dev/null
grep -q '"stalled"' "$jr_dir/stall.json" || {
    echo "ci: stalled windows must be visible in the fault report" >&2
    exit 1
}
echo "stall watchdog: Stalled verdicts present in fault report"

echo "== memory-budget governor smoke =="
# A tight-but-feasible budget must complete with degradation rungs
# recorded in the metrics JSON and pooled output bit-identical to the
# unbudgeted run; a budget below the degraded floor must be refused at
# admission with exit 1 and the typed message (DESIGN.md §4g). The
# 1 600 000 B limit sits between this workload's floor (~760 KB) and
# its undegraded peak (~2.8 MB) — rung engagement is deterministic.
bud_dir="$smoke_dir/budget"
mkdir -p "$bud_dir"
bud_args=(simulate
    --core 0.5 --leaves 0.2 --lambda 2.0 --alpha 2.0
    --nodes 20000 --nv 10000 --windows 6 --seed 9 --threads 4)

cargo run -q --release -p palu-cli -- "${bud_args[@]}" \
    --out "$bud_dir/ref.txt" 2>/dev/null
cargo run -q --release -p palu-cli -- "${bud_args[@]}" \
    --memory-budget 1600000 \
    --metrics "$bud_dir/tight.json" --out "$bud_dir/tight.txt" 2>/dev/null
cmp "$bud_dir/ref.txt" "$bud_dir/tight.txt"
degradations=$(grep -m 1 '"degradations"' "$bud_dir/tight.json" | tr -dc '0-9')
echo "tight budget: ${degradations:-0} degradation rung(s), output bit-identical"
if [ "${degradations:-0}" = 0 ]; then
    echo "ci: a tight budget should engage the degradation ladder" >&2
    exit 1
fi

admission_status=0
cargo run -q --release -p palu-cli -- "${bud_args[@]}" \
    --memory-budget 64k \
    --out "$bud_dir/refused.txt" 2>"$bud_dir/refused.log" || admission_status=$?
if [ "$admission_status" != 3 ]; then
    echo "ci: an impossible budget must be refused with exit 3, got $admission_status" >&2
    cat "$bud_dir/refused.log" >&2
    exit 1
fi
grep -q "admission refused" "$bud_dir/refused.log" || {
    echo "ci: budget refusal should cite admission:" >&2
    cat "$bud_dir/refused.log" >&2
    exit 1
}
echo "impossible budget: refused at admission with a typed fault (exit 3)"

echo "ci: all green"
