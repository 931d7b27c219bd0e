#!/usr/bin/env bash
# CI entry point: static analysis + offline build + full test suite.
#
# The lint tier runs first and names what checks what (DESIGN.md section 8):
#   cargo clippy      the lints [workspace.lints] switches on, configured by
#                     clippy.toml: documented unsafe, no unreasoned panic or
#                     indexing in library code, no wall-clock read, sleep,
#                     exit or scalar f16 conversion without a reason, and
#                     every suppression an #[expect] with a reason that
#                     still matches a finding. Test targets and benchmark/
#                     get the unsafe lints only.
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
# Binaries, examples and benches may unwrap, as before; the rest applies.
cargo clippy --workspace --bins --examples --bench '*' --offline -- -D warnings \
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
git ls-files '*.rs' ':!:**/tests/**' ':!:tests/**' ':!:**/benches/**' | xargs awk '
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

echo "== sampler tier: the distribution did not change (release, 10^5 draws a cell), the speed at the benchmark's shapes"
# The chi-square comparison of FastSampler against PygSampler and the
# exact-count checks over fanouts 5..20 x degrees on both sides of the
# complement switch and the bitmask boundary. The workspace runs above cover
# them at 10^4 draws (a 10 % tilt is caught); optimised, the same tests
# afford 10^5 and catch 3 % (crates/sampler/tests/distribution.rs). The same
# run holds the whole-subset chi-square and the exact count of RNG words
# per drawn position (tests/draw_count.rs).
cargo test --release -q --offline -p salient-sampler
# Then the samplers alone at each shape a benchmark workload samples (G10k
# 15,10,5 and 20,20,20 at 256, G100k 15,10,5 at 256 and 10,10 at 16), edges/s
# a row, asserting FastSampler >= 1.5x the PyG-style baseline at the
# batch-preparation shape (Figure 2 reads ~2.7x). Short batches; the
# assertion is the gate, not the timings.
SALIENT_BENCH_SMOKE=1 cargo bench -q -p salient-bench --bench sampler --offline

echo "== tensor tier: GEMM tiles and the aggregation row kernel against their oracles (release, bench shapes)"
# Every rung of the CSR row kernel the host supports (portable, AVX2,
# AVX-512) against the one scalar oracle, bit for bit, over 13 widths x 6
# edge-list shapes x arbitrary chunk cuts, plus the public entry points at
# hop 0 of an inference batch (9 970 -> 9 036 rows, 147 k edges, 100 columns),
# over f32 rows and over the same rows stored as f16 (widened in the panel
# load: what hop 0 of every staged batch runs); and the fused SAGE layer on a
# lent slab of halves against the layer on their widened copy, bit for bit.
# The workspace runs above use a tenth of that shape (debug builds walk it
# slowly) and compile the kernel unoptimised; this is the code that ships.
cargo test --release -q --offline -p salient-tensor
# The benchmark pins the pool to one thread, where `parallel_for` is a plain
# call and never a dispatch, and every run above drives the rung CPUID
# picks: the tensor and nn suites again at one thread, at one thread on the
# AVX2 rung (the tiles a host without AVX-512 runs), and at one thread on the
# portable rung (where an f16 row goes through the bulk conversion).
SALIENT_NUM_THREADS=1 cargo test --release -q --offline -p salient-tensor -p salient-nn
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null \
  && grep -qw f16c /proc/cpuinfo 2>/dev/null; then
  SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=avx2 \
    cargo test --release -q --offline -p salient-tensor -p salient-nn
else
  echo "tensor tier: this host has no AVX2 + FMA + F16C — the AVX2-rung pass is skipped"
fi
SALIENT_NUM_THREADS=1 SALIENT_GEMM_KERNEL=portable \
  cargo test --release -q --offline -p salient-tensor -p salient-nn

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
# edge.
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

echo "== fault tier: deterministic fault-injection matrix"
# The matrix installs its own scoped plans; the fixed seed here pins the
# probabilistic-trigger schedules so failures reproduce bit-for-bit.
SALIENT_FAULT_SEED=42 cargo test -q --offline --test fault_matrix

echo "== observability tier: instrumented run on a virtual clock, overlap on the real one"
# A 2-epoch SALIENT-executor run on a VirtualClock: prints the
# stall-attribution report, exports the Chrome trace + metrics snapshot,
# validates both with the in-repo JSON parser (no serde), and writes the
# per-stage breakdown to target/bench_pipeline.json. Exits non-zero if
# any artifact fails validation. On a host with two or more cores the same
# run then measures, on the monotonic clock, how much of the consumer's
# compute the batch-preparation workers' work overlapped (the paper's
# Figure-4 win) and records it as overlap_frac.
cargo run -q --release --offline --example observe_pipeline
test -s target/bench_pipeline.json
test -s target/trace_pipeline.json
test -s target/metrics_pipeline.json
# The critical-path section is the profiler's acceptance gate: >= 90% of
# every batch's chain extent charged to named causal categories, and one
# chain (and one recorded batch for the what-if line) per batch trained,
# as the `pipeline.batches` counter says (the example itself asserts both;
# CI re-checks the artifact survived).
grep -q '"critical_path"' target/bench_pipeline.json
grep -q '"named_pct"' target/bench_pipeline.json
# The flight recorder keeps no store of its own (a dump reads the trace's
# per-thread logs), so it costs recording nothing: tests/trace_overhead.rs
# runs its enabled-recording allocation bound with and without one
# attached (both workspace passes above).

# The overlap_frac > 0.5 gate needs genuine parallelism, so it is skipped
# (with a notice) on single-core runners, where wall-clock overlap is at
# the scheduler's mercy and the example records "skipped" instead.
overlap_frac=$(grep -m1 '"overlap_frac"' target/bench_pipeline.json | tr -dc '0-9.')
echo "observability tier: overlap_frac = ${overlap_frac}"
if ! grep -q '"skipped"' target/bench_pipeline.json; then
  awk -v f="$overlap_frac" 'BEGIN { exit !(f > 0.5) }' || {
    echo "observability tier FAILED: overlap_frac ${overlap_frac} <= 0.5"
    exit 1
  }
else
  echo "observability tier: single-core runner — overlap_frac gate skipped"
fi

echo "== mixed-precision tier: f16 storage, half GEMM accuracy, byte traffic"
# Integration tests: half GEMM inside the documented
# 2.5*2^-11*(|A|.|B|) elementwise bound, f16 feature stores moving
# <= 55% of the f32 store's transfer.bytes, training parity at both
# dtypes, `Dtype::parse`'s spellings (tests/mixed_precision.rs, run by both
# workspace passes above).
# What the `salient` binary does with a SALIENT_DTYPE, --model, --executor,
# --dataset, paper artifact or number it does not accept: exits 2 naming
# what it accepts, instead of running the default (tests/cli.rs, likewise).
# The kernel bench doubles as the acceptance gate: it re-asserts the
# GEMM bound at the full bench shapes and the <= 55% byte criterion on
# the slice + hand-over path (through the transfer.bytes counter), then
# writes target/bench_kernels.json. SALIENT_BENCH_SMOKE shrinks the
# timing batches so this tier stays fast; every assertion still runs.
SALIENT_BENCH_SMOKE=1 cargo bench -q -p salient-bench --bench kernels --offline
test -s target/bench_kernels.json

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
# 5x of the knee, no throughput collapse) before writing the frontier.
SALIENT_BENCH_SMOKE=1 cargo run -q --release --offline --example serve_inference
test -s target/bench_serving.json

echo "== working tree: CI modified no tracked file and left nothing unignored"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
  echo "CI FAILED: the working tree changed while the script ran"
  diff <(echo "$tree_before") <(git status --porcelain) || true
  exit 1
fi

echo "CI OK"
