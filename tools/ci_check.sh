#!/usr/bin/env bash
# CI sweep. A warnings leg first builds every target — library, tools, tests,
# benches and examples — with -DLC_WARNINGS_AS_ERRORS=ON. The sanitizer
# legs then build the default tree under ASan and then UBSan and run the
# full test suite (the fault-injection suite included — every fault
# site is live in every build) under each. A third leg builds under TSan and
# runs just the concurrency suites: the thread pool, the coarse and
# parallel determinism tests, the thread-invariance
# suite, whose parallel similarity build has pool workers write disjoint
# slices of the shared final arrays, the forest suite, whose pool workers
# write disjoint slots of the shared score triangles and run Prim on
# disjoint k ranges, the checkpoint resume
# tests, which cross thread counts, the sweep-source suite, whose bucketed
# source hands bucket sorts to a prefetch thread, the serve suite, and the
# fault-injection suite, whose multi-thread cases throw inside pool workers
# and on the prefetch thread. The full suite under TSan is prohibitively slow
# and the serial tests cannot race. Any sanitizer report fails the build
# because CMakeLists.txt sets -fno-sanitize-recover=all.
#
# The smoke legs then drive the ASan CLI binary end to end, arming faults
# through LC_FAULT_PLAN: a fault-injected sleep parks a checkpointing run
# mid-sweep, SIGKILL (fine and coarse) or SIGTERM tears it down, and a
# --resume run must reproduce the uninterrupted dendrogram byte for byte; a
# fine and a coarse run under a small memory budget must write the
# unbudgeted merge lists;
# a serve session is contained and autorecovered the same way; and a pinned
# block of `lc chaos` schedules runs last.
#
# Usage: tools/ci_check.sh [build-dir-prefix]
#   build-dir-prefix defaults to "build-san"; the trees land in
#   <prefix>-werror/, <prefix>-address/, <prefix>-undefined/, and
#   <prefix>-thread/.
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"
jobs="$(nproc 2>/dev/null || echo 4)"

build_dir="${prefix}-werror"
echo "== werror: configure (${build_dir}) =="
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DLC_WARNINGS_AS_ERRORS=ON \
  -DLC_BUILD_BENCHES=ON \
  -DLC_BUILD_EXAMPLES=ON
echo "== werror: build (every target) =="
cmake --build "${build_dir}" -j "${jobs}"

for san in address undefined; do
  build_dir="${prefix}-${san}"
  echo "== ${san}: configure (${build_dir}) =="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLC_SANITIZE="${san}" \
    -DLC_BUILD_BENCHES=OFF \
    -DLC_BUILD_EXAMPLES=OFF
  echo "== ${san}: build =="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "== ${san}: test =="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
done

build_dir="${prefix}-thread"
echo "== thread: configure (${build_dir}) =="
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLC_SANITIZE=thread \
  -DLC_BUILD_BENCHES=OFF \
  -DLC_BUILD_EXAMPLES=OFF
echo "== thread: build =="
cmake --build "${build_dir}" -j "${jobs}" \
  --target parallel_thread_pool_test \
           core_coarse_test core_similarity_determinism_test \
           core_similarity_gather_test core_thread_invariance_test \
           core_forest_sweep_test core_checkpoint_test \
           core_sweep_source_test serve_server_test \
           integration_fault_injection_test
echo "== thread: test (concurrency suites) =="
# The serve suite rides along: every test crosses the RunSupervisor's
# worker-thread handoff (launch/report/wait/cancel from the protocol thread
# against the run on the worker), which is exactly what TSan is for. So does
# the fault suite: its T = 8 cases unwind exceptions out of pool workers and
# the bucket-prefetch thread.
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
  -R 'ThreadPool|Coarse|Determinism|Gather|ThreadInvariance|Forest|Checkpoint|SweepSource|ServerTest|Signals|RunSupervisor|FaultInjection|SnapshotFault|ServeFault'

# ---- Kill/resume smoke: crash a checkpointing run with SIGKILL, resume it,
# and demand the dendrogram the crash interrupted. Uses the ASan binary so
# the replayed sweep is also sanitized. The LC_FAULT_PLAN sleep parks the
# run inside the sweep after enough chunk boundaries have committed
# snapshots, which makes the kill deterministic without racing the sweep.
smoke() {
  local mode="$1" fault="$2"; shift 2
  local work
  work="$(mktemp -d)"
  local bin="${prefix}-address/tools/linkcluster"
  echo "== smoke: ${mode} kill/resume (${work}) =="
  "${bin}" generate --type er --n 600 --p 0.02 --seed 7 --output "${work}/g.edges"
  "${bin}" cluster --input "${work}/g.edges" --mode "${mode}" "$@" \
    --merges "${work}/ref.merges"
  LC_FAULT_PLAN="${fault}" \
    "${bin}" cluster --input "${work}/g.edges" --mode "${mode}" "$@" \
      --checkpoint-dir "${work}/ckpt" --checkpoint-every-ms 0 \
      --merges "${work}/killed.merges" &
  local pid=$!
  local snapshot="${work}/ckpt/checkpoint.lcsnap"
  for _ in $(seq 1 300); do
    [ -f "${snapshot}" ] && break
    sleep 0.1
  done
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  if [ ! -f "${snapshot}" ]; then
    echo "smoke: no snapshot appeared before the kill (${mode})" >&2
    exit 1
  fi
  "${bin}" cluster --input "${work}/g.edges" --mode "${mode}" "$@" \
    --checkpoint-dir "${work}/ckpt" --resume --merges "${work}/resumed.merges"
  cmp "${work}/ref.merges" "${work}/resumed.merges"
  echo "smoke: ${mode} resume reproduced the uninterrupted dendrogram"
  rm -rf "${work}"
}

# Fine: the merge pass visits one spanning-forest pair per entry boundary
# (about 6.6k on this graph), so sleeping after 400 parks it inside the pass
# with hundreds of snapshots already on disk; the resume rebuilds the forest
# and continues from the stored pair. Coarse: the loop head commits a
# snapshot before each coarse.chunk hit, so three skips guarantee one; the
# coarse leg kills and resumes a bucketed lazy-sort run — the resume lands
# mid-bucket and must skip the sorts of every bucket before it.
smoke fine  "sweep.entry:sleep:skip=400:sleep=60000"
smoke coarse "coarse.chunk:sleep:skip=3:sleep=60000" --delta0 32

# ---- Batch SIGTERM smoke: a termination signal must turn into a cooperative
# cancel (exit 3), leave a final checkpoint behind, and --resume must finish
# the run byte for byte. The park is short (1 s) because sleep_for resumes
# after EINTR — the signal is observed at the next entry boundary, not
# mid-sleep.
sigterm_smoke() {
  local work
  work="$(mktemp -d)"
  local bin="${prefix}-address/tools/linkcluster"
  echo "== smoke: batch SIGTERM -> final checkpoint -> resume (${work}) =="
  "${bin}" generate --type er --n 600 --p 0.02 --seed 7 --output "${work}/g.edges"
  "${bin}" cluster --input "${work}/g.edges" --merges "${work}/ref.merges"
  LC_FAULT_PLAN="sweep.entry:sleep:skip=400:sleep=1000" \
    "${bin}" cluster --input "${work}/g.edges" \
      --checkpoint-dir "${work}/ckpt" --checkpoint-every-ms 0 \
      --merges "${work}/killed.merges" &
  local pid=$!
  local snapshot="${work}/ckpt/checkpoint.lcsnap"
  for _ in $(seq 1 300); do
    [ -f "${snapshot}" ] && break
    sleep 0.1
  done
  if [ ! -f "${snapshot}" ]; then
    echo "sigterm smoke: no snapshot appeared before the signal" >&2
    exit 1
  fi
  kill -TERM "${pid}"
  local rc=0
  wait "${pid}" || rc=$?
  if [ "${rc}" -ne 3 ]; then
    echo "sigterm smoke: expected exit 3 (cancelled), got ${rc}" >&2
    exit 1
  fi
  "${bin}" cluster --input "${work}/g.edges" \
    --checkpoint-dir "${work}/ckpt" --resume --merges "${work}/resumed.merges"
  cmp "${work}/ref.merges" "${work}/resumed.merges"
  echo "sigterm smoke: resume after SIGTERM reproduced the dendrogram"
  rm -rf "${work}"
}
sigterm_smoke

# ---- Budget smoke: a memory budget far below the score triangles must buy
# more passes over them, never a different dendrogram. At 4 MiB the fine run
# of ER(3000, 0.01) builds its triangles in several k-ranges and must write
# the unbudgeted merge list byte for byte. Coarse mode also holds its list L
# (about 1.17M keys here) beside the passes, and plans for twice a bound on
# its bytes (86 MB here), so its leg runs at 88 MiB: four passes.
budget_smoke() {
  local work
  work="$(mktemp -d)"
  local bin="${prefix}-address/tools/linkcluster"
  echo "== smoke: fine and coarse runs under a memory budget (${work}) =="
  "${bin}" generate --type er --n 3000 --p 0.01 --seed 7 --output "${work}/g.edges"
  "${bin}" cluster --input "${work}/g.edges" --merges "${work}/ref.merges"
  "${bin}" cluster --input "${work}/g.edges" --max-memory-mb 4 \
    --merges "${work}/budget.merges" | tee "${work}/budget.out"
  grep -q 'passes over the score triangles' "${work}/budget.out"
  cmp "${work}/ref.merges" "${work}/budget.merges"
  "${bin}" cluster --input "${work}/g.edges" --mode coarse \
    --merges "${work}/coarse_ref.merges"
  "${bin}" cluster --input "${work}/g.edges" --mode coarse --max-memory-mb 88 \
    --merges "${work}/coarse_budget.merges" | tee "${work}/coarse_budget.out"
  grep -q 'passes over the score triangles' "${work}/coarse_budget.out"
  cmp "${work}/coarse_ref.merges" "${work}/coarse_budget.merges"
  echo "budget smoke: the budgeted runs reproduced the unbudgeted merge lists"
  rm -rf "${work}"
}
budget_smoke

# ---- Serve chaos: the scripted sequence from DESIGN.md §14. One server
# takes a failed run (deadline trips) and must keep serving; a second is
# SIGKILLed mid-sweep and a restart on the same --checkpoint-dir must
# autorecover the interrupted run and write the byte-identical merge list.
# Uses the ASan binary throughout so both server lifetimes are sanitized.
serve_chaos() {
  local work
  work="$(mktemp -d)"
  local bin="${prefix}-address/tools/linkcluster"
  echo "== smoke: serve containment + kill/autorecover (${work}) =="
  "${bin}" generate --type er --n 600 --p 0.02 --seed 7 --output "${work}/g.edges"
  "${bin}" cluster --input "${work}/g.edges" --merges "${work}/ref.merges"

  # Leg 1 — containment: a deadline-tripped run comes back as a structured
  # error and the same session immediately serves the next run to completion.
  printf 'load path=%s\nrun deadline_ms=0\nwait\nrun merges=%s\nwait\nhealth\nshutdown\n' \
      "${work}/g.edges" "${work}/ok.merges" \
    | "${bin}" serve > "${work}/contain.out" 2> "${work}/contain.err"
  grep -q 'state=failed.*code=deadline_exceeded class=resource' "${work}/contain.out"
  grep -q 'runs_total=2 runs_failed=1' "${work}/contain.out"
  cmp "${work}/ref.merges" "${work}/ok.merges"
  echo "serve smoke: failed run contained, server kept serving"

  # Leg 2 — crash autorecovery: park the supervised run mid-sweep (snapshots
  # already on disk), SIGKILL the server, restart it on the same checkpoint
  # dir, and let startup autorecovery finish the run. The fifo keeps the
  # first server's stdin open while it is parked.
  mkfifo "${work}/in"
  LC_FAULT_PLAN="sweep.entry:sleep:skip=400:sleep=60000" \
    "${bin}" serve --checkpoint-dir "${work}/ckpt" --checkpoint-every-ms 0 \
      < "${work}/in" > "${work}/serve1.out" 2> "${work}/serve1.err" &
  local pid=$!
  exec 9> "${work}/in"
  printf 'load path=%s\nrun merges=%s\n' \
    "${work}/g.edges" "${work}/recovered.merges" >&9
  local snapshot="${work}/ckpt/checkpoint.lcsnap"
  for _ in $(seq 1 300); do
    [ -f "${snapshot}" ] && break
    sleep 0.1
  done
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  exec 9>&-
  if [ ! -f "${snapshot}" ]; then
    echo "serve smoke: no snapshot appeared before the kill" >&2
    exit 1
  fi
  if [ ! -f "${work}/ckpt/run.manifest" ]; then
    echo "serve smoke: the killed server left no run manifest" >&2
    exit 1
  fi
  printf 'wait\nhealth\nshutdown\n' \
    | "${bin}" serve --checkpoint-dir "${work}/ckpt" \
        > "${work}/serve2.out" 2> "${work}/serve2.err"
  grep -q 'recovered=1' "${work}/serve2.out"
  cmp "${work}/ref.merges" "${work}/recovered.merges"
  if [ -f "${work}/ckpt/run.manifest" ]; then
    echo "serve smoke: autorecovery left the manifest behind after success" >&2
    exit 1
  fi
  echo "serve smoke: SIGKILL mid-sweep autorecovered byte-identically"
  rm -rf "${work}"
}
serve_chaos

# ---- Randomized chaos leg: the built-in torture harness (`lc chaos`) runs a
# fixed block of seeded schedules — randomized fault plans against cluster and
# serve children, including SIGKILL mid-run and snapshot corruption — with the
# ASan binary, so every recovery path the schedules reach is sanitized. The
# seed is pinned: a failure here replays exactly with
#   linkcluster chaos --seed <N> --schedules 1 --keep
chaos_leg() {
  local bin="${prefix}-address/tools/linkcluster"
  echo "== chaos: 12 seeded schedules (ASan binary) =="
  "${bin}" chaos --seed 1000 --schedules 12
}
chaos_leg

echo "ci_check: werror build, all sanitizer suites, kill/resume, SIGTERM, budget, serve chaos, and seeded chaos schedules passed"
