#!/usr/bin/env bash
# CI entry point: static analysis + offline build + full test suite.
#
# The lint tier runs first and names what checks what (DESIGN.md section 8):
#   cargo clippy      the lints [workspace.lints] switches on, configured by
#                     clippy.toml: documented unsafe, no unreasoned panic or
#                     indexing in library code, no wall-clock read, sleep,
#                     exit or scalar f16 conversion without a reason, and
#                     every suppression an #[expect] with a reason that
#                     still matches a finding; and rustc's own, from
#                     [workspace.lints.rust]: no `pub` item that no path
#                     from its crate's root reaches (unreachable_pub), and
#                     no item that nothing calls (dead_code, on by default).
#                     Test targets and benchmark/ get the unsafe lints only.
#   awk               every Ordering::Relaxed outside test code has a
#                     comment saying why relaxed is enough, the one rule
#                     clippy has no lint for.
#   cargo metadata    std only: every package of both workspaces has a null
#                     "source", so `--offline` can never silently start
#                     meaning "from the local registry cache".
# Registered trace/fault names are checked by the compiler (trace::names /
# fault::Site newtypes, the build tier), allocation-free kernels by the
# counting-allocator suites (tests/steady_state.rs, train_step.rs,
# trace_overhead.rs), which see through calls. No code takes a lock while it
# holds another (DESIGN.md section 8, "One lock at a time"): the pool and
# trace-registry tests that fail if it does run in the workspace passes below.
#
# Everything a tier writes goes under target/: the script fails if it
# leaves the working tree different from how it found it.
set -euo pipefail
cd "$(dirname "$0")/.."
tree_before=$(git status --porcelain)

lint_start=$(date +%s.%N)
echo "== lint: every workspace member inherits [workspace.lints]"
for manifest in Cargo.toml crates/*/Cargo.toml; do
  grep -A1 '^\[lints\]$' "$manifest" | grep -q '^workspace = true$' || {
    echo "lint tier FAILED: $manifest has no '[lints] workspace = true'"
    exit 1
  }
done

echo "== lint: workspace invariants (cargo clippy -D warnings)"
cargo clippy --version >/dev/null 2>&1 || {
  echo "lint tier FAILED: cargo clippy is not installed; it ships with the toolchain (rustup component add clippy)"
  exit 1
}
clippy_start=$(date +%s.%N)
# Library targets: everything, the panic lints included.
cargo clippy --workspace --lib --offline -- -D warnings
# Binaries and examples may unwrap, as before; the rest applies.
cargo clippy --workspace --bins --examples --offline -- -D warnings \
  -A clippy::unwrap_used -A clippy::expect_used -A clippy::panic \
  -A clippy::todo -A clippy::unimplemented
# Test targets, and benchmark/ (bench code, the class that may read clocks
# and exit; it reads the same clippy.toml): the unsafe lints only.
unsafe_only="-A warnings -D clippy::undocumented_unsafe_blocks -D clippy::missing_safety_doc"
cargo clippy --workspace --tests --offline -- $unsafe_only
CLIPPY_CONF_DIR="$PWD" cargo clippy --manifest-path benchmark/Cargo.toml --offline \
  --target-dir target/clippy-benchmark -- $unsafe_only
awk -v s="$clippy_start" -v e="$(date +%s.%N)" \
  'BEGIN { printf "lint tier: clippy took %.1f s\n", e - s }'

echo "== lint: every Ordering::Relaxed outside test code says why relaxed is enough"
# Each file is read up to its test module (`#[cfg(test)]` then `mod tests {`
# at column 0); the reason is a comment mentioning "relaxed" on the same
# line or one of the two above it.
git ls-files '*.rs' ':!:**/tests/**' ':!:tests/**' | xargs awk '
  function why(s,  i) { i = index(s, "//"); return i && tolower(substr(s, i)) ~ /relaxed/ }
  FNR == 1 { live = 1; p1 = p2 = "" }
  /^mod tests \{/ && p1 ~ /^#\[cfg\(test\)\]$/ { live = 0 }
  live && /Ordering::Relaxed/ && !why(p2) && !why(p1) && !why($0) {
    print FILENAME ":" FNR ": Ordering::Relaxed without a comment saying why relaxed is enough"; bad = 1
  }
  { p2 = p1; p1 = $0 }
  END { exit bad }' || { echo "lint tier FAILED: unexplained Ordering::Relaxed"; exit 1; }

echo "== lint: dependency-freedom guard (cargo metadata)"
for manifest in Cargo.toml benchmark/Cargo.toml; do
  metadata=$(cargo metadata --offline --format-version 1 --manifest-path "$manifest") || {
    echo "lint tier FAILED: $manifest does not resolve offline"
    exit 1
  }
  foreign=$(grep -o '"source":[^,]*' <<<"$metadata" | grep -vc '"source":null' || true)
  if [ "$foreign" != 0 ]; then
    echo "lint tier FAILED: $manifest resolves $foreign package(s) from outside the repository"
    exit 1
  fi
done
awk -v s="$lint_start" -v e="$(date +%s.%N)" \
  'BEGIN { printf "lint tier: took %.1f s\n", e - s }'

echo "== build (release, offline)"
cargo build --release --offline

echo "== tests (workspace, offline)"
cargo test --workspace -q --offline

echo "== tests again, one at a time (--test-threads=1)"
# The same suite with tests serialised inside each binary: a test that
# only passes (or only fails) because of what its siblings do concurrently
# — shared process-global state, an allocation counter, a fault plan —
# shows up as a difference between this run and the one above.
cargo test --workspace -q --offline -- --test-threads=1
# Both passes hold the gates no tier below repeats: the f16 feature store moving <= 55% of the f32 store's
# transfer.bytes, and training at both dtypes (tests/mixed_precision.rs);
# the staging slot back in its pool after every scenario
# (tests/fault_matrix.rs, tests/steady_state.rs), and the pool handing out
# the slot released last through both acquires
# (batchprep's `pinned::tests::the_slot_released_last_is_acquired_next`);
# and what the `salient` binary does with a SALIENT_DTYPE, --model,
# --executor, --dataset, paper artifact, number (among them a `sample` or
# `paper` --scale at which a preset overflows a NodeId) or fault variable
# it does not accept: exits 2 naming what it accepts (tests/cli.rs).

echo "== fault tier: the fault matrix, the serving and the DDP scenarios again (release)"
# Every scenario asserts the exact point events its plan implies (one
# fault.retry and one fault.failed_batch, one of each per batch when every
# send panics, seven ladder moves, ...). An optimised build gives the prep
# workers and the serving steps other interleavings than the two debug
# passes above do; every plan there is built with its own seed. The fault
# matrix runs ten times: its scenarios at one to three prep workers race
# the workers for the claim cursor, and each run is another schedule of
# which worker prepares, retries or fails which batch. The first run also
# takes tests/distributed.rs: every DDP rank owns a prep worker thread, so
# an optimised build races ranks, their workers and the ring anew.
fault_start=$(date +%s.%N)
cargo test --release -q --offline --test fault_matrix --test serving --test distributed
for _ in 2 3 4 5 6 7 8 9 10; do
  cargo test --release -q --offline --test fault_matrix
done
awk -v s="$fault_start" -v e="$(date +%s.%N)" \
  'BEGIN { printf "fault tier: took %.1f s\n", e - s }'

echo "== sampler tier: the distribution did not change (release, 10^5 draws a cell)"
# The chi-square comparison of FastSampler against PygSampler and the
# exact-count checks over fanouts 5..20 x degrees on both sides of the
# complement switch and the bitmask boundary. The workspace runs above cover
# them at 10^4 draws (a 10 % tilt is caught); optimised, the same tests
# afford 10^5 and catch 3 % (crates/sampler/tests/distribution.rs). The same
# run holds the whole-subset chi-square and the exact count of RNG words
# per drawn position (tests/draw_count.rs).
cargo test --release -q --offline -p salient-sampler

echo "== graph tier: every dataset builds to the reference's bits (release)"
# The generator (guided draws resolved 64 edges a block, one scatter into
# the symmetric CSR, feature rows narrowed as they are drawn) against the
# #[cfg(test)] oracle in crates/graph/src/oracle.rs (binary-search draws,
# the directed CSR symmetrized through a second index array, the f32 matrix
# quantized),
# bit for bit: graph, features, labels and splits of the benchmark's own
# G100k datasets at seeds 2868 and 94445095, the presets at small scale
# and the edge cases (one node, one community, p_intra 0 and 1, equal
# degree bounds, mostly self-loops, draws ending 1, 63, 64 and 65 edges
# into the block loop), plus the guided walk against the binary search on
# random draws, exact ties and a weight that spans many buckets. The
# workspace runs above check the same at G10k.
# The same run holds the feature noise's math (crates/graph/src/labels.rs)
# against std on the full 2^24-point uniform grid, where the workspace runs
# take every 61st point: the polynomial ln within 2 epsilon relative of
# f32::ln, sin and cos within 5e-7 of f32::sin_cos; 2^20 Box-Muller pairs
# (2^18 in debug) as independent standard normals (each half's mean,
# variance and chi-square against the normal CDF, the halves' correlation),
# a rotation mutant that swaps sine and cosine on odd quarter turns
# rejected by the same checks, and each class of the G10k features centred
# on signal x prototype with variance noise^2/dim.
graph_start=$(date +%s.%N)
cargo test --release -q --offline -p salient-graph
awk -v s="$graph_start" -v e="$(date +%s.%N)" \
  'BEGIN { printf "graph tier: took %.1f s\n", e - s }'

echo "== tensor tier: GEMM tiles and the aggregation row kernel against their oracles (release, full shapes)"
# Every rung of the CSR row kernel the host supports (portable, AVX2,
# AVX-512) against the one scalar oracle, bit for bit, over 13 widths x 6
# edge-list shapes x arbitrary chunk cuts, plus the public entry points at
# hop 0 of an inference batch (9 970 -> 9 036 rows, 147 k edges, 100 columns),
# over f32 rows and over the same rows stored as f16 (widened in the panel
# load: what hop 0 of every staged batch runs); and the fused SAGE layer on a
# lent slab of halves against the layer on their widened copy, bit for bit;
# and the half-input GEMM inside its documented elementwise bound
# 2.5*2^-11*(|A|.|B|) at 1024x602x256, 1024x256x256 and 1024x100x47.
# The workspace runs above use smaller shapes (debug builds walk them
# slowly) and compile the kernels unoptimised; this is the code that ships.
cargo test --release -q --offline -p salient-tensor
# The benchmark pins the pool to one thread, where `parallel_for` is a plain
# call and never a dispatch, and every run above drives the rung CPUID
# picks — on a host with AMX that is the amx rung: the training step's large
# SAGE products in bf16 tiles (their bound against an f64 oracle, their
# bits at every row cut and at pool widths 1 and 3), everything else on the
# AVX-512 tile. Then the tensor and nn suites again at one thread, at one
# thread on the AVX-512 rung (on an AMX host, the f32 products the amx rung
# replaced; elsewhere the default again, so it is skipped), at one thread on
# the AVX2 rung (the tiles a host without AVX-512 runs), and at one thread
# on the portable rung (where an f16 row goes through the bulk conversion).
# Each pass re-runs the half-GEMM bound on its rung.
# Each of the five passes is followed by tests/bits.rs on the same rung:
# three epochs' loss bits of every executor against the constants for that
# rung (AVX2, AVX-512 and amx share them; the portable rung, which rounds
# each product before it adds, has its own), the wide run's, whose products
# cross the amx threshold (one constant for AVX2 and AVX-512, one for
# portable, one for amx), the digests of the benchmark's two G100k
# datasets, of a warm FastSampler's MFGs, of one batch-prep epoch's MFGs in
# batch-id order (one constant, at one worker and at three) and of a seeded
# serving replay's answers. The five bits runs add ~10 s warm (2 s each).
if ! { grep -qw amx_bf16 /proc/cpuinfo 2>/dev/null && grep -qw amx_tile /proc/cpuinfo 2>/dev/null; }; then
  echo "tensor tier: this host has no AMX (amx_bf16 + amx_tile) — the amx rung was skipped; the default passes ran its f32 rung"
fi
cargo test --release -q --offline --test bits
SALIENT_NUM_THREADS=1 cargo test --release -q --offline -p salient-tensor -p salient-nn
SALIENT_NUM_THREADS=1 cargo test --release -q --offline --test bits
# The counting-allocator suites' warm-step bounds hold at any pool width (a
# dispatch allocates nothing: the pool keeps its one job in place): the
# workspace passes check them at this host's width, this at the
# benchmark's.
SALIENT_NUM_THREADS=1 cargo test -q --offline --test steady_state --test train_step
if grep -qw amx_bf16 /proc/cpuinfo 2>/dev/null && grep -qw amx_tile /proc/cpuinfo 2>/dev/null \
  && grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
  SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=avx512 \
    cargo test --release -q --offline -p salient-tensor -p salient-nn
  SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=avx512 cargo test --release -q --offline --test bits
else
  echo "tensor tier: no amx rung to opt out of — the AVX-512 pass is the default one above, skipped"
fi
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null \
  && grep -qw f16c /proc/cpuinfo 2>/dev/null; then
  SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=avx2 \
    cargo test --release -q --offline -p salient-tensor -p salient-nn
  SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=avx2 cargo test --release -q --offline --test bits
else
  echo "tensor tier: this host has no AVX2 + FMA + F16C — the AVX2-rung pass is skipped"
fi
SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=portable \
  cargo test --release -q --offline -p salient-tensor -p salient-nn
SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=portable cargo test --release -q --offline --test bits

echo "== benchmark tier: the four workloads' correctness checks (--smoke)"
# A few batches of every BENCHMARK.json workload (train_compute,
# infer_sweep, prep_stream, serve_open), checks only, ~20 s: a change that
# breaks what the benchmark measures fails CI here rather than in the
# driver. Timings from a smoke run are not compared with anything.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== paper tier: results/ is what 'salient paper' prints, and every claim holds"
# The tables and figures that come from the discrete-event simulator and
# the seeded dataset generators alone are deterministic to the byte, so
# results/<name>.txt must be exactly what `salient paper <name>` prints
# today. Each artifact also checks its shape claims (Table 3's ladder is
# monotone, Figure 5's speedup grows with graph size, ...): they print to
# stderr, and one that fails exits non-zero. The real-clock artifacts
# (table2, table6, fig2-4, fig6) are not diffed; table2 (under 0.1 s) runs
# for its claim alone: FastSampler at least 1.5x the PyG-style sampler per
# edge on products-sim at scale 0.25, 512 seeds, fanouts 15,10,5.
mkdir -p target/paper
for name in table1 table3 table4 table5 table7 fig1 fig5; do
  ./target/release/salient paper "$name" >"target/paper/$name.txt" || {
    echo "paper tier FAILED: 'salient paper $name' failed"
    exit 1
  }
  diff "results/$name.txt" "target/paper/$name.txt" || {
    echo "paper tier FAILED: results/$name.txt is not what 'salient paper $name' prints"
    exit 1
  }
done
./target/release/salient paper table2 >target/paper/table2.txt || {
  echo "paper tier FAILED: a 'salient paper table2' claim failed"
  exit 1
}

echo "== observability tier: instrumented run on a virtual clock, overlap on the real one"
# A 2-epoch SALIENT-executor run on a VirtualClock: prints the
# stall-attribution report, exports the Chrome trace + metrics snapshot,
# validates both with the in-repo JSON parser (no serde), reads the Chrome
# trace back and asserts that the per-batch prep durations (their
# percentiles and total) and the staged bytes it rebuilds from the file
# equal the in-process pass's, and asserts the profiler's acceptance gate:
# >= 90% of every batch's chain extent charged to named causal categories,
# and one chain (and one recorded batch for the what-if line) per batch
# prepared, as the `prep.slice` spans count them.
# On a host with two or more cores the same example then measures, on the
# monotonic clock, how much of the consumer's compute the batch-preparation
# workers' work overlapped (the paper's Figure-4 win), prints it as
# overlap_frac and asserts it is above 0.5; on one core, where wall-clock
# overlap is at the scheduler's mercy, it says so and skips that check.
cargo run -q --release --offline --example observe_pipeline
test -s target/trace_pipeline.json
test -s target/metrics_pipeline.json
# The flight recorder keeps no store of its own (a dump reads the trace's
# per-thread logs), so it costs recording nothing: tests/trace_overhead.rs
# runs its enabled-recording allocation bound with and without one
# attached (both workspace passes above).

echo "== serving tier: deadlines, admission control, degradation ladder"
# The deterministic VirtualClock tests — deadline expiry at every stage
# boundary, breaker open -> half-open -> close, ladder degrade/restore
# hysteresis, exact replay equality under a seeded bursty trace, a node
# outside the graph failing alone at harvest, a model panic inside the
# GEMM stage failing only its batch under the stage's one guard — are
# tests/serving.rs, run by both workspace passes above. Admission is
# feasibility, breaker and the bounded queue; there is no p99 guard.
# Here the real-clock frontier: trains a model, sweeps Poisson load at
# 0.3x/0.7x/2x calibrated capacity, and asserts the overload contract
# in-bench (no shedding below the knee, typed shedding at 2x, p99 within
# 5x of the knee, no throughput collapse) and prints the frontier.
SALIENT_BENCH_SMOKE=1 cargo run -q --release --offline --example serve_inference

echo "== working tree: CI modified no tracked file and left nothing unignored"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
  echo "CI FAILED: the working tree changed while the script ran"
  diff <(echo "$tree_before") <(git status --porcelain) || true
  exit 1
fi

echo "CI OK"
