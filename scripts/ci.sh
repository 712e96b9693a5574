#!/bin/sh
# Tier-1 verification pipeline: build, test, key-hygiene lint.
#
# Everything here must pass before a change lands. The keylint step is the
# static counterpart of the paper's runtime discipline: no implicit clones of
# key material, no Debug/format leaks, zero-on-drop everywhere (see
# DESIGN.md, "Static key-hygiene analysis").
set -eu

cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== test =="
cargo test --workspace

echo "== determinism equivalence (release) =="
# Parallel sweeps must stay bit-identical to the serial oracle; the
# wallclock test prints serial-vs-parallel timing for one representative
# sweep so perf regressions in the executor are visible in tier-1 output.
cargo test --release -p harness --test determinism -- --nocapture
cargo test --release -p simrng --test fork_properties

echo "== scan-path equivalence (release) =="
# The incremental dirty-frame scanner and the skip-loop match core must stay
# bit-identical to their naive full-scan oracles: at the memsim layer, the
# physical-memory module's unit tests (every mutator stamps its frame, the
# one "frames stamped above clock C" walk, the delta restore), the kernel's
# delta-restore and cold-boot decay unit tests, and the generation-counter
# contract, whose random operation soup also checks the change walk against
# the bytes; the span walk's balancer and random span lists at 1/2/3/8
# threads and the lazy span builder, over whole haystacks and page ranges
# (keyscan unit tests); differential fuzzing at the keyscan layer (dump
# scans included: plain bytes test each page and skip the all-zero ones,
# cold-boot snapshots skip their known-zero frames without reading them,
# and both must equal the naive oracle), then the harness wiring
# (timelines, fault sweeps, executor cells) at 2/4/8 worker threads. The
# keyscan unit tests also run the cold-boot reconstructor in release: the
# zero-page-skipping harvest and the one-add-per-k table against the
# byte-at-a-time and divide-per-k code they replaced, kept as test
# oracles. Sweep cells restore pooled spare machines by copying only the
# frames stamped since the copy, so the pooled sweeps are checked against
# clone-per-cell runs: the harness unit tests, and the benchmark's replica
# suite, a clone-per-cell program built from public calls that must
# reproduce the harness sweeps result for result.
cargo test --release -p memsim --lib
cargo test --release -p memsim --test generations
cargo test --release -p keyscan --lib
cargo test --release -p keyscan --test differential
cargo test --release -p keyscan --test incremental
cargo test --release -p harness --test scan_equivalence
cargo test --release -p harness --lib faultsweep
cargo test --release --offline --manifest-path benchmark/Cargo.toml --test replica

echo "== scan bench smoke (target/BENCH_scan.json) =="
# Machine-readable scan throughput: full-scan bytes/sec of the one match
# core, intra-kernel sharded-scan speedups, incremental-vs-full timeline
# speedup, frames rescanned. Written under target/, so the run
# leaves the committed BENCH_scan.json (a deliberately re-recorded copy of
# one such run) untouched.
cargo bench -p bench --bench scan_cost -- --smoke

# Sharded-scan floor: on a machine with >= 4 cores, splitting one kernel's
# sweep across 4 threads must be at least 2x the serial sweep. Single- and
# dual-core runners can't demonstrate the scaling, so they skip with notice
# (the bit-identity tests above still ran either way).
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  sharded=$(awk -F: '/"sharded_scan_speedup"/ { gsub(/[ ,]/, "", $2); print $2 }' target/BENCH_scan.json)
  echo "ci: sharded_scan_speedup=${sharded} on ${cores} cores (floor 2.0)"
  awk -v s="$sharded" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "ci: FAIL sharded scan speedup ${sharded} below 2.0x floor" >&2
    exit 1
  }
else
  echo "ci: skipping sharded-scan floor (only ${cores} core(s))"
fi

# The six smoke runs below (three faultsweep, rotsweep, attacker_matrix,
# timeline) and the benchmark digest step write their artifacts here; the
# results/ byte check after them compares every file with its committed
# copy under results/.
smoke_out=$(mktemp -d)
trap 'rm -rf "$smoke_out"' EXIT

echo "== faultsweep smoke matrix (release) =="
# Deterministic fault injection: fail, then kill, fallible kernel operations
# across the protected workloads and assert the no-leak invariant (kernel
# and integrated levels leave zero key bytes in unallocated frames after any
# injected fault). Strided to stay bounded; the exhaustive stride-1 sweep
# runs in the harness test suite and in `faultsweep` itself. The binary
# exits nonzero on any violation.
cargo run --release -p harness --bin faultsweep -- --test --stride 7 \
    --level kernel --fault-seed 42 --denom 40 --fault-reps 4 --out "$smoke_out"
cargo run --release -p harness --bin faultsweep -- --test --stride 7 \
    --level integrated --out "$smoke_out"

echo "== rotation lifecycle & second-order fault sweeps (release) =="
# The rotation test wall: the crash-consistent lifecycle state machine
# (keyguard), retryable retirement through both servers, the rotation
# schedule/scenario wiring, and the memsim error-path table including the
# swap/writeback fault paths the sweeps lean on.
cargo test --release -p keyguard --lib rotation
cargo test --release -p memsim --test error_paths
cargo test --release -p harness --lib rotsweep
# rotsweep --smoke: both servers at the hardened levels, exhaustive
# first-order fail+kill over the rotation lifecycle plus sampled
# second-order (j, k) pairs, then the unfaulted retire checks. The binary
# exits nonzero on any violation.
cargo run --release -p harness --bin rotsweep -- --smoke --out "$smoke_out"
# Second-order faultsweep smoke: a sparse seeded multi-fault plan layered
# over the kill-mode sweep, so two independent faults can interact inside
# one run of the non-rotation workload too.
cargo run --release -p harness --bin faultsweep -- --test --stride 11 \
    --level integrated --fault-seed 1709 --denom 53 --fault-reps 2 --out "$smoke_out"

echo "== swap & writeback disclosure channels (release) =="
# The PR-8 test wall: eviction really unmaps (access faults pages back in),
# swap crypto never reuses a keystream, the slotted swap device stays
# bounded, dirty page-cache pages survive writeback faults with partial
# progress, KSM merges are conservative and COW-break-detectable, and —
# the paper's core promise — an mlocked key stays off swap under every
# single-fault plan over the new SwapOut/SwapIn/Writeback op classes.
cargo test --release -p memsim --test swap_behaviour
cargo test --release -p memsim --test properties
# Scenario-level channels: swap-theft respects the mlock line, a planted
# log line reaches the unprivileged disk reader only after writeback, and
# merge/swap scenario runs are bit-identical run to run.
cargo test --release -p harness --lib scenario

echo "== shielded keys & stronger attackers (release) =="
# The shielded-tier test wall: cold-boot decay is one-sided/seeded/
# deterministic and a snapshot keeps its own known-zero frame bits
# (memsim), the shielded region keeps ciphertext at rest and plaintext
# only inside the unshield window (keyguard), and the CRT reconstructor
# corrects decay without ever returning a wrong key (keyscan's table of
# decay rates over decayed machine snapshots, each reconstruction run over
# the snapshot, whose known-zero frames the harvest does not read, and
# over its bytes, with equal keys and stats). The reconstructor's unit
# tests run in the scan-path stage above.
cargo test --release -p memsim --test coldboot
cargo test --release -p keyguard --test shielded
cargo test --release -p keyscan --test reconstruct

echo "== attacker matrix smoke (release) =="
# Every protection level against exact-free, exact-allocated, cold-boot
# + reconstruction, swap-theft, dedup-timing, and rotation-window
# attackers, for both servers. Writes attacker_matrix_{ssh,apache}.dat and
# exits nonzero if any cell deviates from the expectation table — in
# particular if Shielded falls to any attacker class, or any weaker level
# survives one it shouldn't.
cargo run --release -p harness --bin attacker_matrix -- --smoke --out "$smoke_out"

echo "== timeline smoke (release) =="
# Per-tick key counts and locations for both servers at every protection
# level: the Fig. 5-6, 9-16 and 21-28 timelines at test scale (.dat + .svg).
cargo run --release -p harness --bin timeline -- --test --server both --level all \
    --out "$smoke_out"

echo "== benchmark simulated results (release) =="
# The four BENCHMARK.json workloads, in its order, at the test scale: one
# round each, whose sim_digest hashes every deterministic result the round
# produced. Pinning the digests makes the byte check below catch a change
# to what any workload simulates, so a performance change cannot alter a
# result unnoticed.
for w in faultsweep_64m timeline_rotating server_stress attack_matrix; do
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --test --seed 7 --seconds 0 --trace 0)
    printf '%s %s\n' "$w" "$(printf '%s\n' "$out" | awk '$1 == "sim_digest" { print $2 }')"
done > "$smoke_out/benchmark_sim_digest.txt"

echo "== results/ byte check =="
# Every artifact the smoke runs and the digest step wrote (later runs
# overwrite earlier ones, as they would in results/) must equal its
# committed copy under results/ byte for byte. The committed files carry
# the HELD verdict lines, so this also pins every verdict; any drift in a
# simulated result, or a file with no committed counterpart, fails the run.
checked=0
for f in "$smoke_out"/*; do
    name=$(basename "$f")
    cmp -s "$f" "results/$name" || {
        echo "ci: results/$name is missing or differs from the smoke run's output" >&2
        exit 1
    }
    checked=$((checked + 1))
done
[ "$checked" -gt 0 ] || { echo "ci: the smoke runs wrote no artifacts" >&2; exit 1; }
echo "ci: ${checked} smoke artifacts byte-identical to results/"

echo "== keylint taint fixtures =="
# The taint engine's end-to-end behavior, pinned by fixture markers:
# laundered one-/two-hop sinks fire, sanitized/shadowed/cross-function
# cases stay clean (asserted against the JSON output too).
cargo test --release -p keylint --test rules taint
cargo test --release -p keylint --test taint

echo "== keylint interprocedural fixtures =="
# Cross-file laundering, recursive helpers, call-site sinks with traces
# (S008), and loop back-edge taint — the summary engine end to end.
cargo test --release -p keylint --test interproc

echo "== keylint baseline hygiene =="
# A committed baseline must hold finished decisions, not placeholders.
if grep -q "TODO" keylint-baseline.json; then
    echo "ci: keylint-baseline.json still contains TODO reasons" >&2
    exit 1
fi

echo "== keylint =="
# Full-workspace lint (the analyzed-in wall clock is printed to stderr;
# it must stay well under the 2s budget), with the machine-readable
# report and the call graph emitted as artifacts at the workspace root.
cargo run --release -p keylint -- --workspace --format json \
    --emit-callgraph keylint-callgraph.dot > keylint-report.json
grep -q "digraph keylint_callgraph" keylint-callgraph.dot || {
    echo "ci: keylint-callgraph.dot is not a DOT call graph" >&2
    exit 1
}

echo "ci: all green"
