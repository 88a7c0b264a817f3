#!/usr/bin/env bash
# The repository's CI gate, runnable locally: formatting, an offline
# release build (the workspace is std-only; no registry access needed),
# and the full offline test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy --offline -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc --offline -D warnings =="
# `--lib`: the `compdiff` binary's doc page would collide with the
# `compdiff` library's.
RUSTDOCFLAGS='-D warnings' cargo doc --offline --workspace --no-deps --lib

echo "== cargo build --release --offline =="
cargo build --release --offline --workspace

echo "== cargo test -q --offline =="
cargo test -q --offline --workspace

echo "== telemetry determinism =="
cargo test -q --offline -p campaign metrics_stream_is_deterministic

echo "== fault-injection suite =="
cargo test -q --offline -p campaign --test faults

echo "== block-dispatch equivalence suite =="
cargo test -q --offline --test block_equivalence

lint_a="$(mktemp)"
lint_b="$(mktemp)"
smoke="$(mktemp)"
camp_a="$(mktemp)"
camp_b="$(mktemp)"
pcamp_a="$(mktemp)"
pcamp_b="$(mktemp)"
pcamp_ra="$(mktemp)"
pcamp_rb="$(mktemp)"
tcamp_a="$(mktemp)"
tcamp_b="$(mktemp)"
tcamp_ra="$(mktemp)"
tcamp_rb="$(mktemp)"
drop_smoke="$(mktemp)"
progen_a="$(mktemp -d)"
progen_b="$(mktemp -d)"
san_a="$(mktemp)"
san_b="$(mktemp)"
san_dir="$(mktemp -d)"
bad_dir="$(mktemp -d)"
trap 'rm -rf "$lint_a" "$lint_b" "$smoke" "$camp_a" "$camp_b" "$pcamp_a" "$pcamp_b" "$pcamp_ra" "$pcamp_rb" "$tcamp_a" "$tcamp_b" "$tcamp_ra" "$tcamp_rb" "$drop_smoke" "$progen_a" "$progen_b" "$san_a" "$san_b" "$san_dir" "$bad_dir"' EXIT

echo "== smoke campaign with injected panic (must exit 0 with partial results) =="
./target/release/compdiff campaign --workers 2 --execs-per-target 120 --shards 2 \
    --targets tcpdump,jq --seed 7 --max-retries 1 --quarantine-after 2 \
    --fault-plan 'panic@tcpdump#any*inf' --quiet > "$smoke"
grep -q "PARTIAL RESULTS" "$smoke"
grep -q "quarantined: tcpdump" "$smoke"
grep -q "fault tolerance:" "$smoke"

echo "== campaign byte-determinism (two runs, fixed clock, --batch-size 16) =="
# The cmp proves block-compiled execution and the batched oracle sweep
# (including divergence bisection order) are byte-reproducible end to
# end. The greps prove the runs reused their block translations and
# actually formed batches rather than degenerating to per-input sweeps.
# One worker keeps it minimal; the stream is written in canonical order,
# so any worker count is deterministic too (the 2-worker cmp below).
./target/release/compdiff campaign --workers 1 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 --batch-size 16 \
    --metrics-out "$camp_a" --fixed-clock 0 --quiet > /dev/null
./target/release/compdiff campaign --workers 1 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 --batch-size 16 \
    --metrics-out "$camp_b" --fixed-clock 0 --quiet > /dev/null
cmp "$camp_a" "$camp_b"
grep -q '"vm.block_cache_hits":[1-9]' "$camp_a"
grep -q '"diff.batch_size"' "$camp_a"

echo "== multi-worker campaign byte-determinism (two runs, 2 worker threads) =="
# Two in-process workers under partitioned leasing, twice under a fixed
# clock: report (per-worker lines included) and metrics stream must match
# byte for byte, and the second worker must actually have run jobs.
./target/release/compdiff campaign --workers 2 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 \
    --metrics-out "$tcamp_a" --fixed-clock 0 --quiet > "$tcamp_ra"
./target/release/compdiff campaign --workers 2 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 \
    --metrics-out "$tcamp_b" --fixed-clock 0 --quiet > "$tcamp_rb"
cmp "$tcamp_ra" "$tcamp_rb"
cmp "$tcamp_a" "$tcamp_b"
grep -q "worker 1: [1-9]" "$tcamp_ra"

echo "== multi-process campaign byte-determinism (two runs, 2 worker processes) =="
# A real coordinator + 2 worker *processes* over the socket protocol,
# twice under a fixed clock: report and metrics stream must match byte
# for byte (canonical-order event buffering + commutative registry
# merges), and leases must actually have flowed over the wire.
./target/release/compdiff campaign --workers-proc 2 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 \
    --metrics-out "$pcamp_a" --fixed-clock 0 --quiet > "$pcamp_ra"
./target/release/compdiff campaign --workers-proc 2 --execs-per-target 150 --shards 2 \
    --targets readelf,brotli --seed 11 \
    --metrics-out "$pcamp_b" --fixed-clock 0 --quiet > "$pcamp_rb"
cmp "$pcamp_ra" "$pcamp_rb"
cmp "$pcamp_a" "$pcamp_b"
grep -q '"campaign.leases_granted":[1-9]' "$pcamp_a"

echo "== lint counted once per target (1 thread, 2 threads, 2 processes) =="
# Each target is linted where its binaries are built, and the coordinator
# counts the lint once per target, so the `lint.` fields of the three
# campaigns' final metrics lines above must be equal.
lint_fields() { tail -n 1 "$1" | grep -o '"lint\.[^"]*":\({[^}]*}\|[0-9]*\)'; }
grep -q '"lint.scan_us":{"count":2,' "$camp_a"
diff <(lint_fields "$camp_a") <(lint_fields "$tcamp_a")
diff <(lint_fields "$camp_a") <(lint_fields "$pcamp_a")

echo "== multi-process campaign dropped-connection smoke (must exit 0 with partial results) =="
# Every lease grant's connection is severed (drop@conn:any*inf) with
# retries off: the coordinator must reclaim each lost lease, quarantine
# the target, and still deliver a partial report with exit 0.
./target/release/compdiff campaign --workers-proc 1 --execs-per-target 80 --shards 2 \
    --targets tcpdump --seed 7 --max-retries 0 --quarantine-after 2 \
    --fault-plan 'drop@conn:any*inf' --quiet > "$drop_smoke" 2> /dev/null
grep -q "PARTIAL RESULTS" "$drop_smoke"
grep -q "quarantined: tcpdump" "$drop_smoke"

echo "== lint determinism (compdiff lint --all, twice) =="
./target/release/compdiff lint --all --workers 4 > "$lint_a"
./target/release/compdiff lint --all --workers 2 > "$lint_b"
cmp "$lint_a" "$lint_b"

echo "== sancheck determinism (compdiff sancheck --all, two worker counts) =="
./target/release/compdiff sancheck --all --workers 1 > "$san_a"
./target/release/compdiff sancheck --all --workers 8 > "$san_b"
cmp "$san_a" "$san_b"

echo "== dataflow time bound (316-level chains: lint and sancheck within 5 s) =="
# The deepest `&&` and `?:` chains the frontend accepts (minc::parser::
# MAX_DEPTH minus the four levels of main, its body, the return and x).
# Each lowers to a chain of 316 branches that all join; a solver that
# revisits blocks takes 10-20 s here, one visit per block well under 1 s.
printf 'int main() { int x = 1; return x%s; }\n' \
    "$(printf ' && x%.0s' $(seq 316))" > "$san_dir/deep_and.mc"
printf 'int main() { int x = 1; return %sx; }\n' \
    "$(printf 'x ? x : %.0s' $(seq 316))" > "$san_dir/deep_ternary.mc"
for deep in "$san_dir/deep_and.mc" "$san_dir/deep_ternary.mc"; do
    timeout 5 ./target/release/compdiff lint "$deep" > /dev/null
    timeout 5 ./target/release/compdiff sancheck "$deep" > /dev/null
done

echo "== initializer robustness (former panics exit 0 or 1, never 101) =="
# Global initializers that once panicked the lowering: `!1.5` now folds
# like the same expression at run time, and a string literal anywhere but
# as the whole value of a pointer or `long` is a sema error.
n=0
for init in 'int g = (int)"abc";' 'char *p = "abc" + 1;' \
    'int g = "abc" == "abc";' 'int g = !1.5;'; do
    n=$((n + 1))
    printf '%s\nint main() { return 0; }\n' "$init" > "$san_dir/init$n.mc"
    for cmd in run lint sancheck; do
        status=0
        timeout 5 ./target/release/compdiff "$cmd" "$san_dir/init$n.mc" > /dev/null 2>&1 ||
            status=$?
        if [ "$status" -gt 1 ]; then
            echo "compdiff $cmd on '$init' exited $status" >&2
            exit 1
        fi
    done
done

echo "== defined conversions (no finding, no sanitizer FN, C's value) =="
# Defined programs the tools once got wrong. A wrapped `unsigned int`
# sum, and a negative `int` zero-extended to `long`, each reach a shift
# amount the interval domain kept unwrapped and called oversized. A
# double above INT_MAX converted to `unsigned int` saturated to
# 2147483647 under all ten implementations.
cat > "$san_dir/wrap_add.mc" <<'EOF'
int main() {
    unsigned int a = 2147483647;
    unsigned int b = a + a;
    int c = (int)b;
    int r = 8 >> (c + 4);
    printf("%d\n", r);
    return 0;
}
EOF
cat > "$san_dir/zext.mc" <<'EOF'
int main() {
    unsigned int u = (unsigned int)-1;
    long l = u;
    long r = 8L >> (l - 4294967292L);
    printf("%ld %ld\n", l, r);
    return 0;
}
EOF
for prog in "$san_dir/wrap_add.mc" "$san_dir/zext.mc"; do
    ./target/release/compdiff lint "$prog" > "$san_a"
    grep -qx 'no findings' "$san_a"
    ./target/release/compdiff sancheck "$prog" > "$san_b"
    grep -q ' san_fn=0 ' "$san_b"
done
cat > "$san_dir/double_to_uint.mc" <<'EOF'
int main() {
    double d = 3000000000.0;
    unsigned int u = d;
    printf("%u %u\n", u, (unsigned int)4294967295.0);
    return 0;
}
EOF
./target/release/compdiff run "$san_dir/double_to_uint.mc" > "$san_a"
grep -q 'all 10 implementations agree' "$san_a"
grep -qx '3000000000 4294967295' "$san_a"

echo "== UB after a call that never returns (no must site, no sanitizer FN) =="
# Each program prints "a" and exits 0 under all ten implementations, so
# the line after `exit(0)` (in main, or inside a helper) never runs and
# no sanitizer can be charged with missing it.
printf '%s\n' 'int main() {' '    int z = 0;' '    printf("a\n");' '    exit(0);' \
    '    int t = 5 / z;' '    printf("%d\n", t);' '    return 0;' '}' > "$san_dir/exit_main.mc"
printf '%s\n' 'void stop() { exit(0); }' 'int main() {' '    int z = 0;' \
    '    printf("a\n");' '    stop();' '    int t = 5 / z;' '    printf("%d\n", t);' \
    '    return 0;' '}' > "$san_dir/exit_helper.mc"
printf '%s\n' 'int main() {' '    int u;' '    printf("a\n");' '    exit(0);' \
    '    if (u > 0) { printf("y\n"); }' '    return 0;' '}' > "$san_dir/exit_uninit.mc"
for prog in "$san_dir/exit_main.mc" "$san_dir/exit_helper.mc" "$san_dir/exit_uninit.mc"; do
    ./target/release/compdiff run "$prog" > "$san_a"
    grep -q 'all 10 implementations agree' "$san_a"
    ./target/release/compdiff sancheck "$prog" > "$san_b"
    grep -q ' must=0 san_fn=0 ' "$san_b"
done

echo "== sancheck planted-FN smoke (suppressed MSan must be flagged) =="
# A must-execute uninitialized branch with MSan's poison callbacks
# deterministically suppressed: the meta-oracle must charge every impl
# with a false negative, proven by the static must-site it went silent on.
cat > "$san_dir/uninit.mc" <<'EOF'
int main() {
    int u;
    if (u > 0) { printf("y\n"); }
    return 0;
}
EOF
./target/release/compdiff sancheck "$san_dir/uninit.mc" --fault-plan suppress@msan > "$san_a"
grep -Eq 'san_fn=[1-9]' "$san_a"
grep -q "FALSE NEGATIVE: MSan stayed silent" "$san_a"

echo "== sancheck planted-FP smoke (spurious UBSan firing must be refuted) =="
# A statically clean program with a spurious shift-out-of-bounds report
# injected into UBSan's first check callback: the map refutes the class,
# so the meta-oracle must flag the firing as a false alarm.
cat > "$san_dir/clean.mc" <<'EOF'
int main() {
    int x = 1 + 2;
    printf("%d\n", x);
    return 0;
}
EOF
./target/release/compdiff sancheck "$san_dir/clean.mc" \
    --fault-plan 'fire@ubsan:shift-out-of-bounds#1' > "$san_b"
grep -Eq 'san_fp=[1-9]' "$san_b"
grep -q "FALSE ALARM: UBSan" "$san_b"

echo "== compdiff fuzz golden (gated UB program, plain and --feedback) =="
# CompDiff-AFL++ end to end on a committed program: the summary line and
# every rendered discrepancy report must equal the recorded output, with
# and without divergence feedback (the two runs differ, so both pin it).
fuzz_prog=tests/golden/fuzz/gated_ub.mc
diff <(./target/release/compdiff fuzz "$fuzz_prog" --execs 3000 --seed 2 2> /dev/null) \
    tests/golden/fuzz/gated_ub.plain.stdout
diff <(./target/release/compdiff fuzz "$fuzz_prog" --execs 3000 --seed 2 --feedback 2> /dev/null) \
    tests/golden/fuzz/gated_ub.feedback.stdout

echo "== progen evolve smoke + byte-determinism (seeded, twice, against the goldens) =="
./target/release/compdiff progen evolve --seed 7 --generations 2 --population 6 \
    --out-dir "$progen_a" --fixed-clock 0 > /dev/null 2>&1
./target/release/compdiff progen evolve --seed 7 --generations 2 --population 6 \
    --out-dir "$progen_b" --fixed-clock 0 > /dev/null 2>&1
cmp "$progen_a/generations.jsonl" "$progen_b/generations.jsonl"
cmp "$progen_a/state.json" "$progen_b/state.json"
# At least one diverging program must be found, auto-reduced, and the
# reduced witnesses must match byte for byte across the two runs.
ls "$progen_a"/witness_*.mc > /dev/null
for w in "$progen_a"/witness_*.mc; do
    cmp "$w" "$progen_b/$(basename "$w")"
done
# The same seed, population and generations as tests/progen_golden.rs:
# every find and witness must be the pinned one, so a change in the
# mutators' or the reducer's traversal order fails here as well.
seed7=tests/golden/progen/seed7
[ "$(ls "$progen_a"/divergent_*.mc | wc -l)" -eq "$(ls "$seed7"/find_*.mc | wc -l)" ]
[ "$(ls "$progen_a"/witness_*.mc | wc -l)" -eq "$(ls "$seed7"/witness_*.mc | wc -l)" ]
for f in "$seed7"/find_*.mc; do
    n="${f##*/find_}"
    cmp "$progen_a/divergent_$n" "$f"
    cmp "$progen_a/witness_$n" "$seed7/witness_$n"
done

echo "== malformed resume inputs are refused by name (exit 1, never a silent value) =="
# A checkpoint job record with "execs": -1 (not the last line, so not a
# torn write) once resumed as 2^64 - 1 execs, and a state.json find with
# "generation": 4294967297 once resumed as generation 1 and was written
# back that way. Every field reads through compdiff::json's typed reader.
cat > "$bad_dir/checkpoint.jsonl" <<'EOF'
{"type":"header","version":2,"seed":11,"execs_per_target":40,"shards":2,"targets":["jq"]}
{"type":"job","target":"jq","shard":0,"execs":-1,"oracle_execs":10,"divergent":0,"crashes":0,"signatures":[]}
{"type":"job","target":"jq","shard":1,"execs":20,"oracle_execs":10,"divergent":0,"crashes":0,"signatures":[]}
EOF
status=0
./target/release/compdiff campaign --resume "$bad_dir" --targets jq --execs-per-target 40 \
    --shards 2 --seed 11 --workers 1 --quiet > /dev/null 2> "$san_a" || status=$?
[ "$status" -eq 1 ]
grep -q 'field `execs` is out of range' "$san_a"
# The same bad record as the last line: it parses, so it is no torn
# write, and resume must refuse it rather than drop it and re-run its job.
mkdir "$bad_dir/last"
cat > "$bad_dir/last/checkpoint.jsonl" <<'EOF'
{"type":"header","version":2,"seed":11,"execs_per_target":40,"shards":2,"targets":["jq"]}
{"type":"job","target":"jq","shard":1,"execs":20,"oracle_execs":10,"divergent":0,"crashes":0,"signatures":[]}
{"type":"job","target":"jq","shard":0,"execs":-1,"oracle_execs":10,"divergent":0,"crashes":0,"signatures":[]}
EOF
status=0
./target/release/compdiff campaign --resume "$bad_dir/last" --targets jq --execs-per-target 40 \
    --shards 2 --seed 11 --workers 1 --quiet > /dev/null 2> "$san_a" || status=$?
[ "$status" -eq 1 ]
grep -q 'field `execs` is out of range' "$san_a"
mkdir "$bad_dir/progen"
sed '0,/"generation": [0-9]*/s//"generation": 4294967297/' "$progen_a/state.json" \
    > "$bad_dir/progen/state.json"
status=0
./target/release/compdiff progen evolve --seed 7 --generations 1 --no-reduce \
    --out-dir "$bad_dir/progen" --resume > /dev/null 2> "$san_b" || status=$?
[ "$status" -eq 1 ]
grep -q 'field `generation` is out of range' "$san_b"

echo "== benchmark package: fmt, clippy, tests =="
# The benchmark is a package of its own (benchmark/Cargo.toml) that links
# the campaign, progen and sancheck crates; gating it here keeps an API
# change in those crates from breaking it unseen.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== cargo build --benches --offline =="
cargo build --benches --offline --workspace

echo "== vm_session bench (fast smoke, interp + block rows) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench vm_session

echo "== vm_ops bench (fast smoke, each row checked against the reference first) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench vm_ops

echo "== vm_modes bench (fast smoke, per-target interp/block/block_san) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench vm_modes

echo "== batch bench (fast smoke, per-target batch=1/16/64) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench batch

echo "== fuzzer bench (fast smoke, pinned plain-AFL outcome checked first) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench fuzzer

echo "== sancheck bench (fast smoke, pinned digests and kept-session runs checked first) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench sancheck

echo "== compile bench (fast smoke, shared build checked against each pipeline first) =="
COMPDIFF_BENCH_FAST=1 cargo bench -q --offline -p compdiff-bench --bench compile

echo "CI green."
