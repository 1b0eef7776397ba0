#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, lint wall.
#
# Run from the repo root (or anywhere inside it). Mirrors what the
# driver enforces, plus `--workspace` so every crate's tests run, not
# just the root package's.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

echo "==> cargo test --workspace -q (all crates)"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# --- Observability smoke tests (PR 2) -------------------------------------
# The root `cargo build --release` only builds the root package; the
# miniamr CLI binary needs an explicit -p.
echo "==> cargo build --release -p miniamr"
cargo build --release -p miniamr
MINIAMR=target/release/miniamr

# Traced smoke run: each variant must produce a merged Chrome trace that
# parses as JSON and contains every rank's process metadata.
for variant in mpi forkjoin dataflow; do
  echo "==> traced smoke run: $variant"
  trace="$(mktemp /tmp/miniamr-trace-XXXXXX.json)"
  "$MINIAMR" --variant "$variant" --npx 2 --npy 2 --nx 6 --ny 6 --nz 6 \
      --num_vars 4 --num_tsteps 2 --input single_sphere \
      --trace-json "$trace" --metrics >/dev/null
  python3 - "$trace" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
ranks = {e["pid"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"
         and e["args"]["name"].startswith("rank ")}
assert ranks == {0, 1, 2, 3}, f"expected ranks 0..3 in trace, got {sorted(ranks)}"
PY
  rm -f "$trace"
done

# Watchdog self-test: the seed's group-offset bug (kept behind
# --legacy_group_offsets) deadlocks the data-flow variant; the stall
# watchdog must detect it, dump blocked tasks + unmatched messages, and
# exit 86 instead of hanging. Exactly where the hang lands is
# scheduling-dependent — occasionally the mailboxes are drained and only
# blocked tasks remain — so retry until one run shows both sections.
echo "==> watchdog self-test (known-deadlock config)"
wd_ok=0
for attempt in 1 2 3; do
  set +e
  wd_out="$(timeout 60 "$MINIAMR" --variant dataflow --comm_vars 3 --send_faces \
      --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
      --input single_sphere --legacy_group_offsets --watchdog_ms 3000 2>&1)"
  wd_rc=$?
  set -e
  if [ "$wd_rc" -ne 86 ]; then
    echo "watchdog self-test: expected exit 86, got $wd_rc (attempt $attempt)" >&2
    echo "$wd_out" >&2
    exit 1
  fi
  # No pipes here: with pipefail, `grep -q` exiting at the first match
  # SIGPIPEs the echo and fails the pipeline despite the match.
  if grep -q "unmatched" <<<"$wd_out" && grep -q "pending tasks" <<<"$wd_out"; then
    wd_ok=1
    break
  fi
  echo "    attempt $attempt: exit 86 but dump incomplete; retrying"
done
if [ "$wd_ok" -ne 1 ]; then
  echo "watchdog dump never showed both unmatched messages and pending tasks" >&2
  echo "$wd_out" >&2
  exit 1
fi

# --- Sanitizer smoke tests (PR 3) -----------------------------------------
# All three variants must run clean under --sanitize: zero violations,
# checksums still validated, exit 0.
for variant in mpi forkjoin dataflow; do
  echo "==> sanitized smoke run: $variant"
  san_out="$("$MINIAMR" --variant "$variant" --sanitize --npx 2 --npy 2 \
      --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 2 \
      --input single_sphere 2>&1)"
  if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
    echo "sanitized $variant run did not report a clean bill" >&2
    echo "$san_out" >&2
    exit 1
  fi
done

# Sanitizer regression: the same legacy group-offset bug the watchdog
# only times out on must be *diagnosed* by depsan — a tag-size lint
# naming the aliased same-tag traffic — and exit 97 before the watchdog
# (5 s) can fire.
echo "==> depsan legacy-bug regression (expect exit 97)"
set +e
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize --comm_vars 3 \
    --send_faces --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets --watchdog_ms 5000 2>&1)"
san_rc=$?
set -e
if [ "$san_rc" -ne 97 ]; then
  echo "depsan regression: expected exit 97, got $san_rc" >&2
  echo "$san_out" >&2
  exit 1
fi
if ! grep -q "depsan: violation: tag-size-mismatch" <<<"$san_out"; then
  echo "depsan regression: exit 97 but no tag-size-mismatch report" >&2
  echo "$san_out" >&2
  exit 1
fi

# --- Static verifier (PR 8) -------------------------------------------------
# Pre-flight on the clean smoke scenario: all three variants must pass the
# static check and then complete the run normally.
DFCHECK=target/release/dfcheck
for variant in mpi forkjoin dataflow; do
  echo "==> staticcheck pre-flight: $variant"
  sc_out="$(timeout 60 "$MINIAMR" --staticcheck --variant "$variant" --npx 2 --npy 2 \
      --nx 6 --ny 6 --nz 6 --num_vars 4 --num_tsteps 2 --input single_sphere 2>&1)"
  if ! grep -q "staticcheck: clean" <<<"$sc_out"; then
    echo "staticcheck pre-flight: $variant did not come back clean" >&2
    echo "$sc_out" >&2
    exit 1
  fi
done

# Static regression: the legacy group-offset bug must be flagged *before a
# single timestep runs* — exit 95, a tag-collision naming the aliased
# sends, and the slot-arithmetic warning, with no worker ever spawned.
echo "==> staticcheck legacy-bug regression (expect exit 95)"
set +e
sc_out="$(timeout 60 "$MINIAMR" --staticcheck --variant dataflow --comm_vars 3 \
    --send_faces --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets 2>&1)"
sc_rc=$?
set -e
if [ "$sc_rc" -ne 95 ]; then
  echo "staticcheck regression: expected exit 95, got $sc_rc" >&2
  echo "$sc_out" >&2
  exit 1
fi
for needle in "tag-collision" "buffer-slot-overlap" "miniamr-dfcheck-report"; do
  if ! grep -q "$needle" <<<"$sc_out"; then
    echo "staticcheck regression: exit 95 but report lacks '$needle'" >&2
    echo "$sc_out" >&2
    exit 1
  fi
done

# dfcheck-vs-depsan agreement smoke: the standalone verifier and the
# dynamic sanitizer must agree on both sides of the legacy bug — the
# clean scenario passes both (dfcheck --all exit 0; the sanitized runs
# above already came back clean), and the buggy one fails both (exit 95
# statically, exit 97 dynamically per the depsan regression above).
echo "==> dfcheck standalone: clean scenario, all variants (expect exit 0)"
"$DFCHECK" --all --npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4 \
    --num_tsteps 2 --input single_sphere >/dev/null
echo "==> dfcheck standalone: legacy scenario (expect exit 95)"
set +e
timeout 60 "$DFCHECK" --variant dataflow --comm_vars 3 --send_faces \
    --npx 2 --nx 6 --ny 6 --nz 6 --num_vars 8 --num_tsteps 3 \
    --input single_sphere --legacy_group_offsets >/dev/null 2>&1
df_rc=$?
set -e
if [ "$df_rc" -ne 95 ]; then
  echo "dfcheck standalone: expected exit 95 on the legacy scenario, got $df_rc" >&2
  exit 1
fi

# --- Chaos transport soak (PR 4) ------------------------------------------
# The headline reliability guarantee: under any seeded fault plan whose
# losses stay within the retry budget, every variant's checksum digest is
# bitwise-identical to its fault-free run — the ack/retransmit layer
# absorbs drops, duplicates, corruption and delay spikes invisibly.
chaos_mesh=(--npx 2 --npy 1 --npz 1 --nx 8 --ny 8 --nz 8
            --init_x 2 --init_y 2 --init_z 2 --num_refine 2
            --max_blocks 600 --num_tsteps 4 --stages_per_ts 4)
chaos_plan=(--chaos_drop 0.08 --chaos_dup 0.05 --chaos_corrupt 0.05
            --chaos_delay 0.2 --chaos_retry 20 --chaos_rto_us 2000
            --ckpt_freq 4)
for variant in mpi forkjoin dataflow; do
  echo "==> chaos soak: $variant"
  base_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${chaos_mesh[@]}" 2>&1)"
  base_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$base_out")"
  if [ -z "$base_digest" ]; then
    echo "chaos soak: fault-free $variant run printed no checksum_digest" >&2
    echo "$base_out" >&2
    exit 1
  fi
  for seed in 7 42 1337; do
    chaos_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${chaos_mesh[@]}" \
        --chaos_seed "$seed" "${chaos_plan[@]}" 2>&1)"
    chaos_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$chaos_out")"
    if [ "$chaos_digest" != "$base_digest" ]; then
      echo "chaos soak: $variant seed $seed digest '$chaos_digest' != fault-free '$base_digest'" >&2
      echo "$chaos_out" >&2
      exit 1
    fi
    if ! grep -q "checkpoints_taken" <<<"$chaos_out"; then
      echo "chaos soak: $variant seed $seed never took a checkpoint" >&2
      echo "$chaos_out" >&2
      exit 1
    fi
  done
done

# Unrecoverable hard-crash: rank 1 dies mid-run per plan. The survivor
# must detect it (retry-budget exhaustion or heartbeat timeout), restore
# its latest checkpoint, verify the digest, print the structured report,
# and exit 88 — never hang.
echo "==> unrecoverable-crash case (expect exit 88, structured report)"
set +e
crash_out="$(timeout 60 "$MINIAMR" --variant mpi "${chaos_mesh[@]}" \
    --chaos_seed 42 --chaos_crash_rank 1 --chaos_crash_after 10 \
    --chaos_retry 3 --chaos_rto_us 1000 --ckpt_freq 1 2>&1)"
crash_rc=$?
set -e
if [ "$crash_rc" -ne 88 ]; then
  echo "unrecoverable-crash: expected exit 88, got $crash_rc" >&2
  echo "$crash_out" >&2
  exit 1
fi
for needle in "chaos: peer lost" "hard-crashed per plan" \
              "restored from checkpoint" "verified after restore" \
              "exiting with code 88"; do
  if ! grep -q "$needle" <<<"$crash_out"; then
    echo "unrecoverable-crash: exit 88 but report lacks '$needle'" >&2
    echo "$crash_out" >&2
    exit 1
  fi
done

# --- Contention-aware fabric (PR 5) ----------------------------------------
# Table II reproduction: the full-size granularity sweep must place the
# optimum message count inside the paper's 4..16 band with
# one-message-per-face worst. The binary's own shape_checks (including
# the optimum-band check, which only runs at full size) exit non-zero on
# failure; the grep below is a belt-and-braces guard on the headline.
echo "==> table2 granularity sweep (shared fabric cost model)"
t2_out="$(cargo run --release -q -p amr-bench --bin table2)"
echo "$t2_out"
if ! grep -qE "^# observed optimum: (4|8|16) " <<<"$t2_out"; then
  echo "table2: observed optimum outside the paper's 4..16 band" >&2
  exit 1
fi

# Fabric on/off digest parity: the contention model shifts *when*
# messages become available, never *what* they carry — every variant's
# checksum digest must be bitwise identical with the fabric on and off.
# Two scenarios: the fabric smoke, and a regrid + checkpoint run long
# enough to cross a regrid (ts 5) and two checkpoints (every 8 stages),
# whose digest must also agree across the three variants.
fab_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
          --num_tsteps 3 --input single_sphere --ranks_per_node 2)
ckpt_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
           --num_tsteps 10 --refine_freq 5 --ckpt_freq 8
           --input single_sphere)
ckpt_digest=""
for variant in mpi forkjoin dataflow; do
  for mesh in fab ckpt; do
    if [ "$mesh" = fab ]; then args=("${fab_mesh[@]}"); else args=("${ckpt_mesh[@]}"); fi
    echo "==> fabric digest parity: $variant ($mesh)"
    on_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${args[@]}" --fabric on 2>&1)"
    off_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${args[@]}" --fabric off 2>&1)"
    d_on="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$on_out")"
    d_off="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$off_out")"
    if [ -z "$d_on" ] || [ "$d_on" != "$d_off" ]; then
      echo "fabric parity: $variant ($mesh) digest on='$d_on' off='$d_off'" >&2
      echo "$on_out" >&2
      exit 1
    fi
    if [ "$mesh" = ckpt ]; then
      ckpt_digest="${ckpt_digest:-$d_on}"
      if [ "$d_on" != "$ckpt_digest" ]; then
        echo "regrid + checkpoint run: $variant digest '$d_on' != mpi '$ckpt_digest'" >&2
        echo "$on_out" >&2
        exit 1
      fi
    fi
  done
done

# Sanitized data-flow smoke on the regrid + checkpoint run: depsan must
# come back clean across a regrid and the checkpoint drains.
echo "==> sanitized regrid + checkpoint smoke: dataflow"
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize "${ckpt_mesh[@]}" 2>&1)"
if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
  echo "sanitized regrid + checkpoint run did not report a clean bill" >&2
  echo "$san_out" >&2
  exit 1
fi

# CLI validation regression: a meaningless bandwidth must be a usage
# error at parse time (exit 2), not a Duration::from_secs_f64 panic on
# the delivery thread mid-run.
echo "==> network-parameter validation (expect exit 2)"
set +e
bw_out="$(timeout 60 "$MINIAMR" --variant mpi --npx 2 --nx 6 --ny 6 --nz 6 \
    --num_vars 4 --num_tsteps 1 --input single_sphere --bandwidth_gbps 0 2>&1)"
bw_rc=$?
set -e
if [ "$bw_rc" -ne 2 ] || ! grep -q "invalid network parameters" <<<"$bw_out"; then
  echo "bandwidth validation: expected exit 2 with a usage error, got rc=$bw_rc" >&2
  echo "$bw_out" >&2
  exit 1
fi

# --- Topology-aware collectives & face coalescing (PR 10) ------------------
# `--coll hier --coalesce on` reshapes the transport only: two-level
# collectives over node leaders and one merged flow per inter-node
# neighbor group must leave every variant's checksum digest bitwise
# identical to the flat, uncoalesced reference. --ranks_per_node 2
# splits the 4 smoke ranks into 2 simulated nodes (both the intra-node
# slot stage and the inter-node leader stage run); --eager_kb 0 forces
# every inter-node group over the coalescing threshold; --send_faces
# --comm_vars 2 give the coalescer real per-face messages to merge.
coll_mesh=(--npx 2 --npy 2 --nx 6 --ny 6 --nz 6 --num_vars 4
           --num_tsteps 3 --input single_sphere --send_faces --comm_vars 2
           --ranks_per_node 2)
for variant in mpi forkjoin dataflow; do
  echo "==> collectives digest parity: $variant"
  flat_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${coll_mesh[@]}" \
      --coll flat --coalesce off 2>&1)"
  hier_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${coll_mesh[@]}" \
      --coll hier --coalesce on --eager_kb 0 2>&1)"
  d_flat="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$flat_out")"
  d_hier="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$hier_out")"
  if [ -z "$d_flat" ] || [ "$d_flat" != "$d_hier" ]; then
    echo "collectives parity: $variant digest flat='$d_flat' hier+coalesce='$d_hier'" >&2
    echo "$hier_out" >&2
    exit 1
  fi
done

# Sanitized hier smoke: the intra-node slot stage bypasses the message
# layer entirely; depsan must still come back clean on the reshaped
# plan.
echo "==> sanitized hier+coalesce smoke: dataflow"
san_out="$(timeout 60 "$MINIAMR" --variant dataflow --sanitize "${coll_mesh[@]}" \
    --coll hier --coalesce on --eager_kb 0 2>&1)"
if ! grep -q "depsan: no violations detected" <<<"$san_out"; then
  echo "sanitized hier+coalesce run did not report a clean bill" >&2
  echo "$san_out" >&2
  exit 1
fi

# dfcheck must accept and verify the reshaped (coalesced) plan — the
# scenario flags are shared, so the static model sees the merged flows.
echo "==> dfcheck on the coalesced plan (expect exit 0)"
timeout 120 "$DFCHECK" --all "${coll_mesh[@]}" \
    --coll hier --coalesce on --eager_kb 0 >/dev/null

# Exchange-livelock regression: two completely full ranks swapping
# equal block counts must converge instead of starving each other
# (Phase A credits this round's outgoing moves as capacity).
echo "==> exchange livelock regression (two-full-ranks swap)"
cargo test -q -p miniamr --test exchange_protocol \
    exactly_full_ranks_swap_converges >/dev/null

# Micro-bench gate: bench_compare.py guards the runtime benches against
# extreme regressions relative to BENCH_PR13.json (per-bench median of
# three runs on a 2-core host; loose threshold: the shim reports
# fastest-of-few-samples on a shared box).
echo "==> runtime bench gate"
bench_json="$(mktemp /tmp/miniamr-bench-XXXXXX.json)"
rm -f "$bench_json"  # the shim appends; start clean
CRITERION_JSON="$bench_json" cargo bench -q -p amr-bench --bench runtime >/dev/null
python3 - "$bench_json" <<'PY'
import json, sys
runs = {(r["group"], r["name"]): r["ns_per_iter"]
        for r in map(json.loads, open(sys.argv[1]))}
# Collective gate (PR 10): the hierarchical allreduce must not lose to
# its in-run flat companion. It typically wins by 3-10% (BENCH_PR10.json
# pins a measured run); the 15% headroom only absorbs scheduler noise on
# a shared single-core box — the companion controls for machine drift.
hier = runs[("vmpi", "allreduce_8ranks")]
flat = runs[("vmpi", "allreduce_8ranks_flat")]
assert hier <= flat * 1.15, (
    f"hier allreduce regressed past its flat companion: {hier:.0f} vs {flat:.0f} ns/iter")
PY
python3 scripts/bench_compare.py BENCH_PR13.json "$bench_json" --threshold 1.0 --quiet
rm -f "$bench_json"

# --- Causal perf analyzer (PR 7) -------------------------------------------
# The 4-rank data-flow smoke must emit a schema-valid perf report whose
# per-timestep critical-path categories telescope to the window's
# wall-clock exactly (so the 5% acceptance bound holds by construction),
# and whose Perfetto export carries balanced send->recv flow arrows.
# --obs_ring 262144 keeps every event; the report's own "dropped" field
# is the overflow guard.
echo "==> causal perf analyzer: 4-rank dataflow report"
perf_json="$(mktemp /tmp/miniamr-perf-XXXXXX.json)"
perf_trace="$(mktemp /tmp/miniamr-perftrace-XXXXXX.json)"
timeout 120 "$MINIAMR" --variant dataflow --npx 2 --npy 2 \
    --nx 8 --ny 8 --nz 8 --num_vars 4 --num_tsteps 4 --input single_sphere \
    --obs_ring 262144 --perf_report "$perf_json" \
    --trace-json "$perf_trace" >/dev/null 2>&1
python3 - "$perf_json" "$perf_trace" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc.get("schema") == "miniamr-perf-report" and doc.get("version") == 1, "bad schema"
assert doc["dropped"] == 0, f"ring overflow dropped {doc['dropped']} events"
assert len(doc["timesteps"]) == 4, f"expected 4 windows, got {len(doc['timesteps'])}"
for t in doc["timesteps"]:
    cp = t["critical_path"]
    cats = (cp["compute_us"] + cp["pack_us"] + cp["transit_us"]
            + cp["wait_us"] + cp["runtime_us"])
    assert cats == cp["total_us"], (
        f"tstep {t['tstep']}: categories {cats} != total {cp['total_us']}")
    assert abs(cats - t["wall_us"]) <= 0.05 * t["wall_us"], (
        f"tstep {t['tstep']}: path {cats} vs wall {t['wall_us']}")
    assert cp["nodes"] > 0, f"tstep {t['tstep']} walked no nodes"
trace = open(sys.argv[2]).read()
s, f = trace.count('"ph":"s"'), trace.count('"ph":"f"')
assert s > 0 and s == f, f"flow arrows unbalanced: {s} starts vs {f} finishes"
PY

# Fork-join tasks carry their kind, so its critical path sees compute.
echo "==> causal perf analyzer: 4-rank fork-join compute"
fj_perf_json="$(mktemp /tmp/miniamr-perf-fj-XXXXXX.json)"
timeout 120 "$MINIAMR" --variant forkjoin --npx 2 --npy 2 \
    --nx 8 --ny 8 --nz 8 --num_vars 4 --num_tsteps 4 --input single_sphere \
    --obs_ring 262144 --perf_report "$fj_perf_json" >/dev/null 2>&1
python3 - "$fj_perf_json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["dropped"] == 0, f"ring overflow dropped {doc['dropped']} events"
compute = sum(t["critical_path"]["compute_us"] for t in doc["timesteps"])
assert compute > 0, "fork-join: no compute on the critical path"
PY
rm -f "$fj_perf_json"

# MPI-only is visible to the analyzer through its phase spans alone: a
# plain --perf_report run (no other obs flag) must attribute every rank,
# with busy time and a largest-gap figure.
echo "==> causal perf analyzer: MPI-only ranks_detail"
mpi_perf_json="$(mktemp /tmp/miniamr-perf-mpi-XXXXXX.json)"
timeout 120 "$MINIAMR" --variant mpi --npx 2 --npy 2 --nx 6 --ny 6 --nz 6 \
    --num_vars 4 --num_tsteps 2 --input single_sphere \
    --perf_report "$mpi_perf_json" >/dev/null 2>&1
python3 - "$mpi_perf_json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["dropped"] == 0, f"ring overflow dropped {doc['dropped']} events"
ranks = sorted(r["rank"] for r in doc["ranks_detail"])
assert ranks == [0, 1, 2, 3], f"expected one ranks_detail entry per rank, got {ranks}"
for r in doc["ranks_detail"]:
    assert r["busy_us"] > 0, f"rank {r['rank']}: no busy time"
    assert "largest_gap_us" in r, f"rank {r['rank']}: no largest_gap_us"
PY
rm -f "$mpi_perf_json"

# Figures 1-3 from the span graph: the harness exits non-zero on any
# SHAPE FAIL (data-flow phase overlap, checksums, digest parity). Full
# size: at --quick size the data-flow tasks are too short to overlap on a
# 2-core host, so the overlap check cannot pass there.
echo "==> trace_figs (Figs. 1-3 SHAPE checks)"
cargo run --release -q -p amr-bench --bin trace_figs | grep '^SHAPE'

# Report-diff plumbing smoke: the same document compared to itself must
# come out all-1.00x and exit 0 (exercises bench_compare.py's
# perf-report path deterministically).
python3 scripts/bench_compare.py BENCH_PR13.json BENCH_PR13.json \
    --report-old "$perf_json" --report-new "$perf_json" --quiet >/dev/null
rm -f "$perf_json" "$perf_trace"

# --- Elastic service mode (PR 9) -------------------------------------------
# Malleability must be physics-neutral: a run that grows and/or shrinks
# its rank world mid-flight — by plan (--resize_at) or by failure
# (--on_peer_lost shrink after a hard crash) — must land on the exact
# checksum digest of the fixed-rank, fault-free run. The digest folds
# per-block sums in global block-id order, so ownership moves are
# invisible by construction; this stage is the end-to-end proof.
el_mesh=(--npx 2 --npy 2 --npz 1 --nx 6 --ny 6 --nz 6 --num_vars 4
         --num_tsteps 6 --stages_per_ts 4 --checksum_freq 2
         --refine_freq 2 --num_refine 2)
df_fixed=""
for variant in mpi forkjoin dataflow; do
  echo "==> elastic digest parity: $variant"
  fixed_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${el_mesh[@]}" 2>&1)"
  fixed_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$fixed_out")"
  if [ -z "$fixed_digest" ]; then
    echo "elastic: fixed-rank $variant run printed no checksum_digest" >&2
    echo "$fixed_out" >&2
    exit 1
  fi
  if [ "$variant" = dataflow ]; then df_fixed="$fixed_digest"; fi
  # Grow 4->8; grow then shrink back 8->4; pure shrink 4->2.
  for plan in "--resize_at 2:8" \
              "--resize_at 2:8 --resize_at 4:4" \
              "--resize_at 3:2"; do
    # shellcheck disable=SC2086
    el_out="$(timeout 60 "$MINIAMR" --variant "$variant" "${el_mesh[@]}" $plan 2>&1)"
    el_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$el_out")"
    if ! grep -q "elastic plan" <<<"$el_out"; then
      echo "elastic: $variant '$plan' never armed the resize plan" >&2
      echo "$el_out" >&2
      exit 1
    fi
    if [ "$el_digest" != "$fixed_digest" ]; then
      echo "elastic: $variant '$plan' digest '$el_digest' != fixed '$fixed_digest'" >&2
      echo "$el_out" >&2
      exit 1
    fi
  done
done

# Shrink-on-failure: rank 3's NIC hard-crashes mid-run (frame 340 is
# past the initial refinement exchange, so a coordinated boundary
# snapshot exists). Instead of the exit-88 abort, the survivors rewind
# to the latest coordinated boundary, the world shrinks onto them, and
# the run must complete with the fault-free digest. The data-flow
# variant is the hard case: the failure surfaces on the delivery thread
# inside a tampi callback and has to unwind through the poisoned task
# runtime to taskwait.
echo "==> shrink-on-failure: dataflow (expect shrink + fixed digest)"
sh_out="$(timeout 60 "$MINIAMR" --variant dataflow "${el_mesh[@]}" \
    --chaos_seed 7 --chaos_crash_rank 3 --chaos_crash_after 340 \
    --chaos_retry 4 --chaos_rto_us 2000 --on_peer_lost shrink 2>&1)"
sh_digest="$(awk '$1 == "checksum_digest" { print $2 }' <<<"$sh_out")"
if ! grep -q "shrinking 4 -> 3 ranks" <<<"$sh_out"; then
  echo "shrink-on-failure: the world never shrank" >&2
  echo "$sh_out" >&2
  exit 1
fi
if [ "$sh_digest" != "$df_fixed" ]; then
  echo "shrink-on-failure: digest '$sh_digest' != fixed '$df_fixed'" >&2
  echo "$sh_out" >&2
  exit 1
fi

# Checkpoint-mismatch regression: a corrupt restored checkpoint must be
# a structured failure (miniamr-ckpt-mismatch JSON + exit 88), never a
# silent "MISMATCH, continuing" resume. MINIAMR_TEST_CORRUPT_CKPT
# flips one cell after the digest is recorded, so the recovery hook's
# re-verification must trip.
echo "==> checkpoint-mismatch regression (expect exit 88 + JSON report)"
set +e
mm_out="$(MINIAMR_TEST_CORRUPT_CKPT=1 timeout 60 "$MINIAMR" --variant mpi \
    "${chaos_mesh[@]}" --chaos_seed 42 --chaos_crash_rank 1 \
    --chaos_crash_after 10 --chaos_retry 3 --chaos_rto_us 1000 \
    --ckpt_freq 1 2>&1)"
mm_rc=$?
set -e
if [ "$mm_rc" -ne 88 ]; then
  echo "ckpt-mismatch regression: expected exit 88, got $mm_rc" >&2
  echo "$mm_out" >&2
  exit 1
fi
if ! grep -q "miniamr-ckpt-mismatch" <<<"$mm_out"; then
  echo "ckpt-mismatch regression: exit 88 but no structured JSON report" >&2
  echo "$mm_out" >&2
  exit 1
fi

# Sanitized multi-job soak: 4 complete scenario instances resize
# concurrently in one process under depsan. Per-job keying of the
# checkpoint store and boundary registry is what this breaks without; every job's digest must equal the fixed-rank run's.
echo "==> sanitized 4-job elastic soak: dataflow"
soak_out="$(timeout 120 "$MINIAMR" --variant dataflow "${el_mesh[@]}" --sanitize \
    --jobs 4 --resize_at 2:8 --resize_at 4:3 2>&1)"
soak_digests="$(awk '$1 ~ /^job[0-9]+_checksum_digest$/ { print $2 }' <<<"$soak_out")"
if [ "$(wc -l <<<"$soak_digests")" -ne 4 ]; then
  echo "elastic soak: expected 4 per-job digests" >&2
  echo "$soak_out" >&2
  exit 1
fi
if [ "$(sort -u <<<"$soak_digests" | tr -d '[:space:]')" != "$df_fixed" ]; then
  echo "elastic soak: per-job digests diverged from fixed '$df_fixed':" >&2
  echo "$soak_digests" >&2
  echo "$soak_out" >&2
  exit 1
fi
if ! grep -q "depsan: no violations detected" <<<"$soak_out"; then
  echo "elastic soak: sanitized run did not report a clean bill" >&2
  echo "$soak_out" >&2
  exit 1
fi

echo "CI OK"
