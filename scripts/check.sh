#!/usr/bin/env bash
# Tier-1 verification, twice: once as a plain Release build and once
# instrumented with AddressSanitizer + UndefinedBehaviorSanitizer
# (-DHAP_SANITIZE=address,undefined). Each pass uses its own build
# directory so sanitized and plain objects never mix.
#
# Usage: scripts/check.sh [jobs]   (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
  local build_dir="$1"
  shift
  echo "=== ${build_dir}: cmake $* ==="
  cmake -B "${build_dir}" -S . "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

run_pass build

# --- Observability pass (docs/OBSERVABILITY.md) -------------------------
# A short training run must produce a JSON-valid Chrome trace with
# balanced begin/end spans plus a per-epoch JSONL run log, and enabling
# metrics must not move the bit-deterministic sparse-parity trajectory.
obs_pass() {
  echo "=== build: observability smoke ==="
  rm -f build/trace.json build/run.jsonl
  HAP_TRACE=build/trace.json ./build/examples/hap_tool classify \
    --dataset mutag --graphs 40 --epochs 2 --log build/run.jsonl \
    > /dev/null
  python3 - <<'EOF'
import json
trace = json.load(open("build/trace.json"))
events = trace["traceEvents"]
depth = {}
for e in events:
    if e["ph"] == "B":
        depth[e["tid"]] = depth.get(e["tid"], 0) + 1
    elif e["ph"] == "E":
        depth[e["tid"]] = depth.get(e["tid"], 0) - 1
        assert depth[e["tid"]] >= 0, "end-before-begin in trace"
assert all(d == 0 for d in depth.values()), f"unbalanced spans: {depth}"
assert any(e["ph"] == "B" for e in events), "trace contains no spans"

records = [json.loads(l) for l in open("build/run.jsonl")]
assert len(records) >= 2, "run log missing epochs"
for r in records:
    for key in ("epoch", "train_loss", "val_accuracy", "grad_norm",
                "train_s", "eval_s", "epoch_s"):
        assert key in r, f"run log record missing {key}"
print(f"observability smoke OK: {len(events)} trace events, "
      f"{len(records)} run-log records")
EOF
  HAP_METRICS=1 ./build/tests/sparse_parity_test > /dev/null
  echo "sparse parity unchanged with metrics enabled"
}
obs_pass

# --- Serving pass (docs/SERVING.md) -------------------------------------
# Train a tiny checkpoint, replay it through the serving stack at
# thread-pool widths 1 and 4 (predictions must be identical — serving is
# deterministic, and at width 4 four chunks of a batch run at once on the
# one shared model), and run the serve-throughput bench, which exits non-zero
# unless served predictions are bit-identical to direct forwards and int8
# parity holds; its JSON is then checked for what the bench does not gate
# itself. The serving concurrency tests (hot-swap under load) also run in
# the sanitized ctest pass below.
serve_pass() {
  echo "=== build: serving smoke ==="
  rm -f build/serve_ckpt.bin build/serve_preds_t1.txt \
    build/serve_preds_t4.txt build/BENCH_serve_throughput.json
  ./build/examples/hap_tool classify --dataset mutag --method HAP \
    --graphs 30 --epochs 2 --hidden 8 --seed 7 \
    --checkpoint build/serve_ckpt.bin > /dev/null
  for t in 1 4; do
    HAP_NUM_THREADS=$t ./build/examples/hap_serve \
      --checkpoint build/serve_ckpt.bin --dataset mutag --method HAP \
      --hidden 8 --requests 100 --seed 7 \
      --predictions-out "build/serve_preds_t${t}.txt" > /dev/null
  done
  cmp build/serve_preds_t1.txt build/serve_preds_t4.txt
  echo "serve predictions identical across thread counts"
  HAP_BENCH_FAST=1 ./build/bench/bench_serve_throughput \
    build/BENCH_serve_throughput.json > /dev/null
  python3 - <<'EOF'
import json
doc = json.load(open("build/BENCH_serve_throughput.json"))
runs = doc["runs"]
assert len(runs) == 4 and all("throughput_qps" in r for r in runs)
assert doc["speedup_batch16_vs_batch1"] > 0
parity = {p["precision"]: p for p in doc["precision_parity"]}
assert set(parity) == {"fp32", "int8"}, parity
print(f"serve bench OK: batched speedup "
      f"{doc['speedup_batch16_vs_batch1']:.2f}x, "
      f"coalesce {runs[1]['coalesce_factor']:.1f} req/forward")

# Bench-trajectory guard (docs/OBSERVABILITY.md): the live run's sketch
# percentiles must land near the committed bench's. The replay is a
# closed loop that submits the whole stream up front, so queue backlog
# — and with it absolute latency — scales with the request count;
# comparing p50/p99 *per request* makes fast (400-request) and full
# (3000-request) runs commensurable. The 10x two-sided tolerance is
# deliberately generous: it absorbs machine-speed and scheduler noise
# while still catching order-of-magnitude latency regressions and
# sketch-math breakage (a wrong bucket decode shifts quantiles far
# beyond 10x).
live = doc
committed = json.load(open("BENCH_serve_throughput.json"))
for live_run, committed_run in zip(live["runs"], committed["runs"]):
    assert (live_run["threads"] == committed_run["threads"]
            and live_run["max_batch"] == committed_run["max_batch"])
    for key in ("latency_p50_us", "latency_p99_us"):
        live_norm = live_run[key] / live["requests"]
        committed_norm = committed_run[key] / committed["requests"]
        assert live_norm > 0 and committed_norm > 0, f"{key} missing/zero"
        ratio = live_norm / committed_norm
        assert 0.1 <= ratio <= 10.0, (
            f"threads {live_run['threads']} max_batch "
            f"{live_run['max_batch']}: live {key} {live_run[key]:.0f} us "
            f"vs committed {committed_run[key]:.0f} us — per-request "
            f"ratio {ratio:.2f} outside [0.1, 10]")
    assert live_run["latency_p99_us"] >= live_run["latency_p50_us"]
print("serve latency trajectory OK: live sketch p50/p99 within 10x "
      "of committed (per-request normalized)")
EOF
}
serve_pass

# --- Telemetry pass (docs/OBSERVABILITY.md) -----------------------------
# One serve replay must produce, in a single run: a grammar-valid
# Prometheus text file plus JSON snapshot from the HAP_PROM exporter, a
# Chrome trace whose per-request flow events are complete (each request
# id binds producer -> batcher -> lane exactly once per stage), and an
# access log with one well-formed JSON line per request whose stage
# stamps are causally ordered. The snapshot must then survive the
# hap_tool metrics-dump pretty-printer.
telemetry_pass() {
  echo "=== build: serve telemetry smoke ==="
  rm -f build/metrics.prom build/metrics.prom.json build/serve_trace.json \
    build/access.jsonl
  HAP_PROM=build/metrics.prom HAP_TRACE=build/serve_trace.json \
    ./build/examples/hap_serve --checkpoint build/serve_ckpt.bin \
    --dataset mutag --method HAP --hidden 8 --requests 200 --seed 7 \
    --access-log build/access.jsonl > /dev/null
  python3 - <<'EOF'
import json, re

# Prometheus text exposition: TYPE lines, legal names, numeric samples,
# cumulative le-bucketed histograms ending in +Inf.
name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
typed = {}
series = {}
for line in open("build/metrics.prom"):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split()
        assert parts[0] == "#" and parts[1] == "TYPE", f"bad comment: {line}"
        assert parts[3] in ("counter", "gauge", "histogram"), line
        typed[parts[2]] = parts[3]
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    assert m, f"unparseable sample: {line}"
    name, labels, value = m.groups()
    float(value)  # numeric (inf allowed)
    base = re.sub(r"_(bucket|sum|count)$", "", name)
    assert name in typed or base in typed, f"sample without TYPE: {name}"
    if labels and "le=" in labels:
        series.setdefault(name, []).append(line)
assert any(t == "histogram" for t in typed.values()), "no histograms exported"
for name, buckets in series.items():
    assert any('le="+Inf"' in b for b in buckets), f"{name} missing +Inf"
    counts = [float(b.rsplit(" ", 1)[1]) for b in buckets]
    assert counts == sorted(counts), f"{name} buckets not cumulative"
assert "hap_serve_latency_ns" in typed, "serve latency sketch not exported"

# Exporter JSON: cumulative snapshot + interval sketch quantiles +
# scrape sections (serve exemplars ride along here).
doc = json.load(open("build/metrics.prom.json"))
assert "cumulative" in doc and "interval_sketches" in doc and "sections" in doc
exemplars = json.loads(doc["sections"]["serve_exemplars"]) \
    if isinstance(doc["sections"]["serve_exemplars"], str) \
    else doc["sections"]["serve_exemplars"]
assert "slow" in exemplars and "sampled" in exemplars

# Flow events: every request id appears exactly once per stage, and the
# producer ('s') and batcher ('t') run on different tracks.
trace = json.load(open("build/serve_trace.json"))
flows = {}
for e in trace["traceEvents"]:
    if e.get("cat") == "flow":
        assert e["ph"] in ("s", "t", "f"), e
        flows.setdefault(e["id"], []).append(e["ph"])
assert flows, "no flow events in serve trace"
for fid, phases in flows.items():
    assert sorted(phases) == ["f", "s", "t"], f"request {fid}: {phases}"

# Access log: one JSON line per request, causally ordered stage stamps.
lines = [json.loads(l) for l in open("build/access.jsonl")]
assert len(lines) == 200, f"access log has {len(lines)} lines, want 200"
for r in lines:
    assert (r["enqueue_ns"] <= r["seal_ns"] <= r["forward_start_ns"]
            <= r["forward_end_ns"] <= r["resolve_ns"]), r
assert len({r["id"] for r in lines}) == 200, "duplicate request ids"
print(f"telemetry smoke OK: {len(typed)} exported metric families, "
      f"{len(flows)} request flows, {len(lines)} access-log lines")
EOF
  ./build/examples/hap_tool metrics-dump build/metrics.prom.json > /dev/null
  echo "metrics-dump renders the exporter snapshot"
}
telemetry_pass

# --- Network serving pass (docs/SERVING.md) -----------------------------
# Put the network front end through its SLO machinery over loopback TCP:
# a light open-loop load must come back clean (every request answered,
# nothing shed, zero deadline misses), a checkpoint hot-swap must land
# mid-load via POST /reload, /metrics must stay grammar-valid over the
# wire, and an unpaced burst must engage typed load shedding with every
# frame still answered. The committed network bench JSON must exist and
# clear its own gates.
#
# The daemon gathers each batch for 20 ms (--max-delay-us) toward a batch
# of 64, and the batcher sleeps through that window until 63 requests
# are queued. Shedding at depth 48 keeps the queue below that, so every
# window runs to its end: the burst sheds as soon as 48 requests arrive
# within one window, however fast the forwards drain, while the light
# load queues about 4 per window.
network_pass() {
  echo "=== build: network serving smoke ==="
  rm -f build/served_port build/serve_net_client_light.json \
    build/serve_net_client_burst.json
  ./build/examples/hap_served --checkpoint build/serve_ckpt.bin \
    --dataset mutag --method HAP --hidden 8 --port 0 \
    --port-file build/served_port --shed-queue-depth 48 \
    --max-batch 64 --max-delay-us 20000 > /dev/null &
  local served_pid=$!
  # Under set -e any failure below (a client, the /reload POST, an
  # assert) exits the script; the trap keeps the daemon from outliving
  # it still bound to its port.
  trap "kill ${served_pid} 2>/dev/null || true" EXIT
  local port=""
  for _ in $(seq 100); do
    if [ -s build/served_port ]; then port=$(cat build/served_port); break; fi
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "hap_served never published its port"
    exit 1
  fi

  # Light open-loop load with a generous deadline; while it runs, hot-swap
  # the model through the HTTP front end (ModelRegistry publish mid-load).
  ./build/bench/bench_serve_network --port "${port}" --qps 200 \
    --requests 400 --deadline-ms 2000 \
    --out build/serve_net_client_light.json > /dev/null &
  local light_pid=$!
  sleep 0.5
  python3 - "${port}" <<'EOF'
import json, sys, urllib.request
port = sys.argv[1]
req = urllib.request.Request(f"http://127.0.0.1:{port}/reload", data=b"",
                             method="POST")
body = json.loads(urllib.request.urlopen(req, timeout=10).read())
assert body.get("reloaded") is True, body
EOF
  wait "${light_pid}"
  echo "hot-swap OK: POST /reload landed mid-load"

  # Unpaced burst: shedding must engage, typed, with every frame answered
  # (the client exits non-zero if any request went unaccounted).
  ./build/bench/bench_serve_network --port "${port}" --qps 0 \
    --requests 2000 --out build/serve_net_client_burst.json > /dev/null

  python3 - "${port}" <<'EOF'
import json, re, sys, urllib.request
port = sys.argv[1]
light = json.load(open("build/serve_net_client_light.json"))
assert light["all_accounted"] and light["ok"] == light["sent"] == 400, light
assert light["shed"] == 0 and light["failed"] == 0, light
burst = json.load(open("build/serve_net_client_burst.json"))
assert burst["all_accounted"], burst
assert burst["shed"] > 0, "burst never engaged shedding"
assert burst["ok"] > 0, "burst starved admitted requests"
assert burst["failed"] == 0, burst

stats = json.loads(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/stats", timeout=10).read())
counters = stats["counters"]
assert counters["serve.model.reloads"] >= 1, "hot-swap not recorded"
assert counters["serve.deadline_miss.total"] == 0, (
    "light load missed deadlines")
assert counters["serve.shed.total"] == burst["shed"], (
    "server shed accounting disagrees with client rejects")
assert stats["latency_ns"]["count"] > 0 and stats["latency_ns"]["p99"] > 0

# /metrics over the wire: same text-exposition grammar contract as the
# file exporter, plus the serve counters the SLO machinery feeds.
text = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
typed = {}
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("#"):
        parts = line.split()
        assert parts[0] == "#" and parts[1] == "TYPE", line
        assert parts[3] in ("counter", "gauge", "histogram"), line
        typed[parts[2]] = parts[3]
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    assert m, f"unparseable sample over the wire: {line}"
    float(m.group(3))
for name in ("hap_serve_shed_total", "hap_serve_net_requests_binary",
             "hap_serve_latency_ns"):
    assert name in typed, f"{name} missing from /metrics"
print(f"network smoke OK: light {light['ok']}/{light['sent']} clean "
      f"(client p99 {light['client_p99_ms']:.2f} ms), burst shed "
      f"{burst['shed']}/{burst['sent']} typed, {len(typed)} families "
      f"over the wire")
EOF
  kill "${served_pid}"
  wait "${served_pid}" 2>/dev/null || true
  trap - EXIT

  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_serve_network.json"))
assert doc["light_no_shed_no_miss"], "committed bench: light load unclean"
assert doc["overload_shed_engaged"], "committed bench: overload never shed"
assert doc["all_accounted"], "committed bench: unaccounted requests"
points = {p["name"]: p for p in doc["load_points"]}
light, over = points["light"], points["overload"]
print(f"network bench OK: light p99 {light['server_p99_ms']:.2f} ms "
      f"({light['ok']}/{light['sent']} ok), overload shed "
      f"{over['shed_total']} with p99 {over['server_p99_ms']:.2f} ms")
EOF
}
network_pass

# --- Kernel pass (docs/PERFORMANCE.md) ----------------------------------
# The committed kernel bench JSON must exist and clear its acceptance
# speedup with bit-identical kernels. The parity suite that pins the
# blocked kernels to the naive reference (ops_test MatMulKernelParity*)
# and the arena's allocation-free steady state (arena_test) run plain
# and under address,undefined in the ctest passes.
kernel_pass() {
  echo "=== build: kernel bench gate ==="
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_matmul_kernels.json"))
assert doc["all_bit_identical"], "kernel bench recorded non-identical bits"
assert doc["accept_shape_fwd_speedup"] >= 3.0, (
    f"acceptance shape speedup {doc['accept_shape_fwd_speedup']:.2f}x < 3x")
print(f"kernel bench OK: {doc['accept_shape_fwd_speedup']:.2f}x at the "
      f"acceptance shape, bit-identical")
EOF
}
kernel_pass

# --- Batching pass (docs/BATCHING.md) -----------------------------------
# Cross-graph batched execution must stay bit-identical to per-graph
# execution (segment kernels + parity suites run plain and sanitized in
# the ctest passes), a live fast bench run must exit 0 (it exits 1 unless
# bit-identical), and the committed batching bench JSON must exist and
# clear its serve-throughput gate.
batching_pass() {
  echo "=== build: cross-graph batching bench gate ==="
  HAP_BENCH_FAST=1 ./build/bench/bench_cross_graph_batching \
    build/BENCH_cross_graph_batching.json > /dev/null
  python3 - <<'EOF'
import json
live = json.load(open("build/BENCH_cross_graph_batching.json"))
assert all(s["speedup_batch16_vs_1"] > 0 for s in live["serve_speedups"])
doc = json.load(open("BENCH_cross_graph_batching.json"))
assert doc["all_bit_identical"], (
    "committed batching bench recorded non-identical bits")
assert doc["meets_2x"] and doc["serve_speedup_batch16_vs_1"] >= 2.0, (
    f"committed serve speedup {doc['serve_speedup_batch16_vs_1']:.2f}x < 2x "
    f"at batch 16 vs 1 ({doc['gate_method']})")
print(f"batching bench OK: {doc['serve_speedup_batch16_vs_1']:.2f}x serve "
      f"throughput at batch 16 vs 1 ({doc['gate_method']}), bit-identical")
EOF
}
batching_pass

# --- Sparse-coarsening pass (docs/SPARSE.md) ----------------------------
# The committed sparse-coarsening bench JSON must exist and clear its
# gates: >= 5x hierarchical-forward speedup at 10k nodes, a completed 100k
# sparse-only forward, and >= 99% prediction agreement with dense mode
# from a non-constant classifier. The fused coarsening ops (GCont
# standardisation, MOA, Gumbel soft sampling, SymNormalize) must stay
# memcmp-equal to their composed reference, taped and untaped, at 1 and 4
# threads (MOA's CᵀC sum is row-ordered; a row-parallel accumulation would
# show at 4), and their gradient bits must match across thread counts.
# The CSR×dense products (SpMatMul, CsrTransposeMatMul,
# AssignmentTransposeMatMul) must match their scalar loops bit for bit,
# forward and every gradient, at 1 and 4 threads (csr_parity_test).
# The top-k/CSR parity suite (sparse_coarsen_test) runs in the ctest
# passes.
sparse_coarsen_pass() {
  echo "=== build: sparse coarsening parity + bench gate ==="
  for threads in 1 4; do
    HAP_NUM_THREADS=$threads ./build/tests/coarsening_test > /dev/null
    HAP_NUM_THREADS=$threads ./build/tests/fused_ops_test > /dev/null
    HAP_NUM_THREADS=$threads ./build/tests/csr_parity_test > /dev/null
  done
  echo "fused coarsening ops memcmp-equal to the composed reference and CSR products to their scalar loops at 1 and 4 threads; gradient bits match across thread counts"
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_sparse_coarsening.json"))
ten_k = [c for c in doc["configs"] if c["nodes"] == 10000]
assert ten_k and ten_k[0]["speedup_topk_vs_dense"] >= 5.0, (
    "committed sparse-coarsening speedup at 10k below 5x")
hundred_k = [c for c in doc["configs"] if c["nodes"] == 100000]
assert hundred_k and hundred_k[0]["completed"], "100k forward missing"
assert not hundred_k[0]["dense_ran"], "100k row must be sparse-only"
agreement = doc["agreement"]
assert agreement["topk_vs_dense"] >= 0.99, "topk agreement below 0.99"
assert agreement["auto_vs_dense"] >= 0.99, "auto agreement below 0.99"
assert agreement["dense_nonconstant"], (
    "dense predictor constant: agreement numbers vacuous")
assert doc["speedup_10k_at_least_5x"] and doc["all_forwards_completed"] \
    and doc["agreement_met"]
print(f"sparse coarsening bench OK: "
      f"{ten_k[0]['speedup_topk_vs_dense']:.2f}x at 10k nodes, 100k "
      f"sparse-only forward {hundred_k[0]['topk_forward_ms']:.0f} ms, "
      f"agreement {agreement['topk_vs_dense']:.4f}")
EOF
}
sparse_coarsen_pass

# --- Quantization pass (docs/PERFORMANCE.md) ----------------------------
# Reduced-precision serving must clear its accuracy gates live: a fast
# bench_quantized_gemm run exercises the int8 GEMM family end to end
# (per-shape sweep + serve replay at fp32 and int8) and exits
# non-zero unless classification agreement >= 99% and similarity-ranking
# Kendall-tau >= 0.98 hold vs fp32. The quant unit suite runs plain and
# sanitized in the ctest passes, and the committed bench JSON must exist
# and clear both the accuracy gates and the 1.5x end-to-end int8
# throughput gate.
quant_pass() {
  echo "=== build: quantized GEMM accuracy + bench gate ==="
  HAP_BENCH_FAST=1 ./build/bench/bench_quantized_gemm \
    build/BENCH_quantized_gemm.json > /dev/null
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_quantized_gemm.json"))
assert doc["accuracy_gates_pass"], (
    "committed quantized bench recorded failed accuracy gates")
serve = {s["precision"]: s for s in doc["serve"]}
assert serve["int8"]["agreement_vs_fp32"] >= 0.99, serve["int8"]
assert serve["int8"]["kendall_tau_vs_fp32"] >= 0.98, serve["int8"]
assert doc["meets_1p5x_e2e"] and doc["e2e_speedup_int8_vs_fp32"] >= 1.5, (
    f"committed int8 serve speedup "
    f"{doc['e2e_speedup_int8_vs_fp32']:.2f}x < 1.5x vs fp32")
print(f"quantized bench OK: int8 serve "
      f"{doc['e2e_speedup_int8_vs_fp32']:.2f}x e2e, agreement "
      f"{serve['int8']['agreement_vs_fp32']:.4f}, tau "
      f"{serve['int8']['kendall_tau_vs_fp32']:.4f}")
EOF
}
quant_pass

# --- Docs pass ----------------------------------------------------------
# Every relative link in README.md and docs/*.md must resolve; a renamed
# or deleted file fails here instead of leaving dead links.
docs_pass() {
  echo "=== docs: relative link check ==="
  python3 - <<'EOF'
import os, re, glob
bad = []
files = ["README.md"] + sorted(glob.glob("docs/*.md"))
for path in files:
    base = os.path.dirname(path)
    text = open(path).read()
    # Strip fenced code blocks: links there are illustrative, not navigational.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for label, target in re.findall(r"\[([^\]]+)\]\(([^)]+)\)", text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        rel = target.split("#")[0]
        if not rel:
            continue  # pure fragment link
        if not os.path.exists(os.path.normpath(os.path.join(base, rel))):
            bad.append(f"{path}: [{label}]({target})")
for b in bad:
    print("dead link:", b)
assert not bad, f"{len(bad)} dead relative link(s)"
print(f"docs links OK: {len(files)} files checked")
EOF
}
docs_pass

# --- Benchmark pass (BENCHMARK.json, perfbench/) ------------------------
# The benchmark compiles against the library's headers from this tree, so
# an API change that breaks it fails here instead of first in a benchmark
# run. Its helper tests run, then each workload runs briefly (serve_replay
# traced as well): every run must exit 0 and end on a result line whose
# outputs were correct with no failed operation.
bench_pass() {
  echo "=== perfbench: self-test + short run of every workload ==="
  python3 perfbench/run.py --self-test > /dev/null
  local run workload trace
  for run in "serve_replay 0" "train_hap 0" "embed_large 0" \
             "serve_replay 1"; do
    read -r workload trace <<< "${run}"
    python3 perfbench/run.py --workload "${workload}" --seed 1 \
      --seconds 3 --trace "${trace}" > build/perfbench_result.txt
    python3 - "${workload}" "${trace}" <<'EOF'
import json, sys
result = json.loads(open("build/perfbench_result.txt").read().splitlines()[-1])
assert result["correct"] is True and result["failed"] == 0, result
print(f"perfbench {sys.argv[1]} (trace {sys.argv[2]}) OK: "
      f"{result['attempted']} operations correct, none failed")
EOF
  done
}
bench_pass

# halt_on_error keeps ctest failures attributable to one test; the
# suppression-free defaults are intentional — the tree should stay clean.
# The quant suite, whose kernels poke raw packed buffers with intrinsics,
# runs here as one of the ctest cases.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  run_pass build-sanitize -DHAP_SANITIZE=address,undefined

echo "All checks passed (plain + observability + serving + telemetry + network + kernel + batching + sparse coarsening + quantization + docs + benchmark + address,undefined)."
