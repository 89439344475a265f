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
# source scatters L on the pool, the serve suite, and the
# fault-injection suite, whose multi-thread cases throw inside pool workers.
# The full suite under TSan is prohibitively slow
# and the serial tests cannot race. Any sanitizer report fails the build
# because CMakeLists.txt sets -fno-sanitize-recover=all.
#
# The smoke legs then drive the ASan CLI binary end to end, arming faults
# through LC_FAULT_PLAN: a fault-injected sleep parks a run mid-sweep and
# SIGKILL or SIGTERM tears it down. A checkpointing fine run is resumed with
# --resume; a coarse run, which writes no snapshots, is rerun from scratch;
# either way the merge list must match the uninterrupted run's byte for
# byte. A fine and a coarse run under a small memory budget must write the
# unbudgeted merge lists; a serve session is contained, and a killed server
# restarted on its --state-dir reruns the interrupted run (fine and coarse)
# to the same bytes; and a pinned block of `lc chaos` schedules runs last.
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
# the fault suite: its T = 8 cases unwind exceptions out of pool workers.
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
# and continues from the stored pair.
smoke fine  "sweep.entry:sleep:skip=400:sleep=60000"

# ---- Coarse kill/rerun smoke: coarse mode writes no snapshots (a resume
# would rerun the build, which dominates the run), so an interrupted coarse
# run is rerun from scratch and must give the uninterrupted merge list. The
# park holds the sweep at its fourth chunk for a minute; the unparked run
# takes well under the 2 s before the kill, so the kill lands while it is
# held, and the killed run must have written neither a merge list nor a
# snapshot.
coarse_rerun_smoke() {
  local work
  work="$(mktemp -d)"
  local bin="${prefix}-address/tools/linkcluster"
  echo "== smoke: coarse kill/rerun (${work}) =="
  "${bin}" generate --type er --n 600 --p 0.02 --seed 7 --output "${work}/g.edges"
  "${bin}" cluster --input "${work}/g.edges" --mode coarse --delta0 32 \
    --merges "${work}/ref.merges"
  LC_FAULT_PLAN="coarse.chunk:sleep:skip=3:sleep=60000" \
    "${bin}" cluster --input "${work}/g.edges" --mode coarse --delta0 32 \
      --merges "${work}/killed.merges" &
  local pid=$!
  sleep 2
  if ! kill -0 "${pid}" 2>/dev/null; then
    echo "coarse smoke: the parked run was gone before the kill" >&2
    exit 1
  fi
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  if [ -f "${work}/killed.merges" ]; then
    echo "coarse smoke: the killed run finished before the kill" >&2
    exit 1
  fi
  "${bin}" cluster --input "${work}/g.edges" --mode coarse --delta0 32 \
    --merges "${work}/rerun.merges"
  cmp "${work}/ref.merges" "${work}/rerun.merges"
  if [ -n "$(find "${work}" -name '*.lcsnap*')" ]; then
    echo "coarse smoke: a coarse run wrote a snapshot" >&2
    exit 1
  fi
  echo "smoke: coarse rerun reproduced the uninterrupted dendrogram"
  rm -rf "${work}"
}
coarse_rerun_smoke

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
# takes a failed run (deadline trips) and must keep serving; then, in each
# mode, a server is SIGKILLed mid-sweep and a restart on the same
# --state-dir must rerun the interrupted run from scratch and write the
# byte-identical merge list. Uses the ASan binary throughout so both server
# lifetimes are sanitized.
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

  # Leg 2 — crash autorecovery, once per mode: the supervisor writes
  # run.manifest before the run starts; park the run mid-sweep, SIGKILL the
  # server 2 s after the manifest appears, restart it on the same state dir,
  # and let startup autorecovery rerun the run. The fifo keeps the first
  # server's stdin open while it is parked.
  "${bin}" cluster --input "${work}/g.edges" --mode coarse --delta0 32 \
    --merges "${work}/coarse_ref.merges"
  local mode plan run_args ref state
  for mode in fine coarse; do
    if [ "${mode}" = fine ]; then
      plan="sweep.entry:sleep:skip=400:sleep=60000"
      run_args="mode=fine"
      ref="${work}/ref.merges"
    else
      plan="coarse.chunk:sleep:skip=3:sleep=60000"
      run_args="mode=coarse delta0=32"
      ref="${work}/coarse_ref.merges"
    fi
    state="${work}/state-${mode}"
    rm -f "${work}/in"
    mkfifo "${work}/in"
    LC_FAULT_PLAN="${plan}" \
      "${bin}" serve --state-dir "${state}" \
        < "${work}/in" > "${work}/serve1-${mode}.out" 2> "${work}/serve1-${mode}.err" &
    local pid=$!
    exec 9> "${work}/in"
    printf 'load path=%s\nrun %s merges=%s\n' \
      "${work}/g.edges" "${run_args}" "${work}/recovered-${mode}.merges" >&9
    for _ in $(seq 1 300); do
      [ -f "${state}/run.manifest" ] && break
      sleep 0.1
    done
    sleep 2
    kill -9 "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    exec 9>&-
    if [ ! -f "${state}/run.manifest" ]; then
      echo "serve smoke: the killed ${mode} server left no run manifest" >&2
      exit 1
    fi
    if [ -f "${work}/recovered-${mode}.merges" ]; then
      echo "serve smoke: the ${mode} run finished before the kill" >&2
      exit 1
    fi
    printf 'wait\nhealth\nshutdown\n' \
      | "${bin}" serve --state-dir "${state}" \
          > "${work}/serve2-${mode}.out" 2> "${work}/serve2-${mode}.err"
    grep -q 'recovered=1' "${work}/serve2-${mode}.out"
    grep -q 'autorecovery: re-running' "${work}/serve2-${mode}.err"
    cmp "${ref}" "${work}/recovered-${mode}.merges"
    if [ -f "${state}/run.manifest" ]; then
      echo "serve smoke: autorecovery left the manifest behind after success" >&2
      exit 1
    fi
    if [ -n "$(find "${state}" -name '*.lcsnap*')" ]; then
      echo "serve smoke: the ${mode} server wrote a snapshot" >&2
      exit 1
    fi
    echo "serve smoke: ${mode} SIGKILL mid-sweep autorecovered byte-identically"
  done
  rm -rf "${work}"
}
serve_chaos

# ---- Randomized chaos leg: the built-in torture harness (`lc chaos`) runs a
# fixed block of seeded schedules — randomized fault plans against cluster and
# serve children, including SIGKILL mid-run and fine snapshot corruption — with the
# ASan binary, so every recovery path the schedules reach is sanitized. The
# seed is pinned: a failure here replays exactly with
#   linkcluster chaos --seed <N> --schedules 1 --keep
chaos_leg() {
  local bin="${prefix}-address/tools/linkcluster"
  echo "== chaos: 12 seeded schedules (ASan binary) =="
  "${bin}" chaos --seed 1000 --schedules 12
}
chaos_leg

echo "ci_check: werror build, all sanitizer suites, kill/resume, kill/rerun, SIGTERM, budget, serve chaos, and seeded chaos schedules passed"
