#!/bin/sh
# Tier-1 verification: build everything and run the full test suite.
set -eu
cd "$(dirname "$0")"

# One grid driver: Sim.Campaign.exec is the only caller of the domain
# pool in the simulator and the CLI.
stray="$(grep -rn 'Pool\.exec' lib/sim bin --include='*.ml' \
  | grep -v '^lib/sim/campaign\.ml:' || true)"
if [ -n "$stray" ]; then
  echo "Stdx.Pool.exec called outside lib/sim/campaign.ml:" >&2
  echo "$stray" >&2
  exit 1
fi
# One clock per cell: the pool only schedules, Metrics.wall_clock is the
# library's one clock read, and in the simulator only the campaign
# driver calls it (spans time through Stdx.Span).
clock_guard() {
  if [ -n "$2" ]; then
    echo "$1" >&2
    echo "$2" >&2
    exit 1
  fi
}
clock_guard "lib/stdx/pool.ml reads a clock:" \
  "$(grep -nE 'gettimeofday|wall_clock|Unix\.time|Sys\.time|clock_gettime' \
     lib/stdx/pool.ml || true)"
clock_guard "Unix.gettimeofday outside Metrics.wall_clock:" \
  "$(grep -rn 'Unix\.gettimeofday' lib \
     | grep -v '^lib/stdx/metrics\.ml:[0-9]*:let wall_clock () = Unix\.gettimeofday ()$' \
     || true)"
clock_guard "Metrics.wall_clock called in lib/sim outside campaign.ml:" \
  "$(grep -rn 'wall_clock' lib/sim --include='*.ml' \
     | grep -v '^lib/sim/campaign\.ml:' || true)"

dune build
dune runtest

# The suite once more at a fixed qcheck seed. `dune runtest` draws a
# fresh seed and prints it as `qcheck random seed: N`; a failure
# replays with `QCHECK_SEED=N dune exec test/main.exe`.
ci_seed=20151001
echo "qcheck seed for the seeded run: $ci_seed"
QCHECK_SEED=$ci_seed dune exec test/main.exe > /dev/null

# Re-run the pool, sweep, flat-certification and campaign suites with
# real concurrency forced: the jobs-determinism tests read REPRO_JOBS
# (worker count), so this exercises the multi-domain path even when the
# default jobs count is 1. sim.flat is here because its
# engine-vs-reference differentials include chaos campaigns through the
# parallel harness, each cell checked round by round against the boxed
# reference simulator in test/reference.ml; sim.kernel_reuse runs a
# campaign whose pool domains reuse engine kernels across cells;
# sim.campaign checks the one grid driver every campaign runs through.
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.pool' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.harness' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.harness.chaos' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.flat' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.kernel_reuse' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.campaign' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.metrics' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.telemetry' -q

# The live-observability layer's own determinism suite (span streams
# and heartbeat terminal lines identical at any jobs count)
# with real concurrency forced.
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.span' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'stdx.heartbeat' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.obs' -q

# The trace analysis behind `countctl report` must rebuild every cell's
# engine phase reports from a campaign traced under parallel workers.
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.report' -q

# The hunt's determinism contract (byte-identical corpus at any jobs
# count) and the committed regression corpus, with real concurrency:
# sim.hunt re-runs its fixed-seed hunt at REPRO_JOBS; sim.hunt.corpus
# replays test/corpus/*.jsonl at jobs 1 and REPRO_JOBS.
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.hunt' -q
REPRO_JOBS=4 dune exec test/main.exe -- test 'sim.hunt.corpus' -q

# `countctl report FILE` and `report FILE --json` on a trace; the JSON
# analysis must lint clean.
report_both() {
  dune exec bin/countctl.exe -- report "$1" > /dev/null
  report_out="$(mktemp)"
  dune exec bin/countctl.exe -- report "$1" --json > "$report_out"
  dune exec bin/jsonlint.exe -- "$report_out"
  rm -f "$report_out"
}

# Chaos smoke: a fixed-seed campaign on A(4,1) must re-stabilise after
# every scheduled perturbation (countctl exits non-zero otherwise), and
# must do so identically across worker domains. The emitted trace must
# be analysable by `countctl report` and lint clean as JSONL.
trace_file="$(mktemp)"
dune exec bin/countctl.exe -- chaos --corollary1 1 --campaigns 2 \
  --phases 2 --events 1 --rounds 400 --seeds 1 --jobs 2 \
  --trace "$trace_file" --metrics > /dev/null
report_both "$trace_file"
dune exec bin/jsonlint.exe -- --jsonl "$trace_file"
rm -f "$trace_file"

# Greedy-heavy chaos smoke: the `countctl chaos --levels 4:1,3:3` shape
# on A(12,3), whose campaign 4 has a greedy-confusion phase. The trace
# must be analysable by `countctl report` and lint as JSONL.
greedy_trace="$(mktemp)"
dune exec bin/countctl.exe -- chaos --levels 4:1,3:3 --campaigns 4 \
  --phases 3 --rounds 600 --seeds 1 --jobs 2 --trace "$greedy_trace" \
  --metrics > /dev/null
report_both "$greedy_trace"
dune exec bin/jsonlint.exe -- --jsonl "$greedy_trace"
rm -f "$greedy_trace"

# Section 5 smoke: the sampled (Theorem 4) and oblivious (Corollary 5)
# pulling counters run end to end on the engine.
dune exec examples/pulling_demo.exe > /dev/null

# Run smoke: parallel seeds with every telemetry sink on; the trace
# must be analysable by `countctl report` and lint clean as JSONL.
run_trace="$(mktemp)"
dune exec bin/countctl.exe -- run --levels 4:1 --seeds 1,2,3 --jobs 2 \
  --trace "$run_trace" --metrics --spans > /dev/null
report_both "$run_trace"
dune exec bin/jsonlint.exe -- --jsonl "$run_trace"
rm -f "$run_trace"

# Hunt trace smoke: a hunt's trial/shrink stream with spans renders
# through `report` (the hunt tally and span profile) and `report --json`.
# Two workers and a heartbeat make trials finish out of order, so the
# trace and the heartbeat stream are written through the merge window
# while the hunt runs; both must lint as JSONL. The same hunt at one
# worker must write the same corpus and the same trace, once the span
# lines (one per worker) are dropped and the wall-clock values masked.
hunt_smoke() {
  dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
    --bound 8 --trials 48 --rounds 120 --jobs "$1" --spans \
    --heartbeat 1 --heartbeat-file "$hunt_hb" --trace "$2" \
    --corpus "$3" > /dev/null
}
wall_free() {
  grep -v '"ev":"span"' "$1" | sed -E 's/"wall_s":[^,}]*/"wall_s":0/g'
}
hunt_trace="$(mktemp)"
hunt_trace_1="$(mktemp)"
hunt_corpus="$(mktemp)"
hunt_corpus_1="$(mktemp)"
hunt_hb="$(mktemp)"
hunt_smoke 2 "$hunt_trace" "$hunt_corpus"
report_both "$hunt_trace"
dune exec bin/jsonlint.exe -- --jsonl "$hunt_trace"
dune exec bin/jsonlint.exe -- --jsonl "$hunt_hb"
hunt_smoke 1 "$hunt_trace_1" "$hunt_corpus_1"
if ! cmp -s "$hunt_corpus" "$hunt_corpus_1"; then
  echo "hunt corpus differs between --jobs 2 and --jobs 1" >&2
  exit 1
fi
wall_free "$hunt_trace" > "$hunt_trace.masked"
wall_free "$hunt_trace_1" > "$hunt_trace_1.masked"
if ! cmp -s "$hunt_trace.masked" "$hunt_trace_1.masked"; then
  echo "hunt trace differs between --jobs 2 and --jobs 1:" >&2
  diff "$hunt_trace.masked" "$hunt_trace_1.masked" | head >&2 || true
  exit 1
fi
rm -f "$hunt_trace" "$hunt_trace_1" "$hunt_trace.masked" \
  "$hunt_trace_1.masked" "$hunt_corpus" "$hunt_corpus_1" "$hunt_hb"

# Unopenable files are clean CLI errors: non-zero exit, no uncaught
# exception.
# The last failure's stdout and stderr are kept in $last_out and
# $last_err for extra checks.
expect_clean_failure() {
  out="$(mktemp)"
  err="$(mktemp)"
  if dune exec bin/countctl.exe -- "$@" > "$out" 2> "$err"; then
    echo "expected failure: countctl $*" >&2
    exit 1
  fi
  if grep -q 'internal error' "$err"; then
    cat "$err" >&2
    exit 1
  fi
  last_out="$(cat "$out")"
  last_err="$(cat "$err")"
  rm -f "$out" "$err"
}
expect_err() {
  case "$last_err" in
    *"$1"*) ;;
    *)
      echo "expected an error mentioning '$1', got:" >&2
      echo "$last_err" >&2
      exit 1
      ;;
  esac
}
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 \
  --replay /nonexistent.jsonl
expect_clean_failure hunt --algorithm leader:4:5 --replay test/corpus
expect_err 'is a directory'
expect_clean_failure run --levels 4:1 --rounds 50 \
  --trace /nonexistent/dir/t.jsonl
expect_clean_failure run --levels 4:1 --rounds 50 --heartbeat 0 \
  --heartbeat-file /nonexistent/dir/hb.jsonl
# An unwritable corpus is refused before the first trial runs, so no
# hunt output reaches stdout and no hits are lost.
expect_clean_failure hunt --algorithm leader:4:5 --trials 2 \
  --corpus /nonexistent/dir/x.jsonl
expect_err 'cannot open'
if [ -n "$last_out" ]; then
  echo "hunt ran before refusing its corpus path:" >&2
  echo "$last_out" >&2
  exit 1
fi
# So are bad run parameters: more faulty ids than the resilience, an id
# outside the tower, an empty horizon.
expect_clean_failure run --levels 4:1,3:3 --faulty 0,4,8,9
expect_clean_failure run --faulty 99
expect_clean_failure run --rounds 0
# A horizon shorter than one counting period cannot witness counting.
expect_clean_failure run --levels 4:1 --modulus 10 --rounds 5
expect_err '--rounds must be >= 10 (one full mod-10 counting period)'
# verify rejects a horizon too short for one counting period, and a
# zero min-suffix, before running the model check.
expect_clean_failure verify --algorithm leader:4:5 --rounds 0
expect_clean_failure verify --algorithm leader:4:5 --rounds 3
expect_clean_failure verify --algorithm leader:4:5 --min-suffix 0
# chaos and hunt check the same parameters up front.
expect_clean_failure chaos --corollary1 1 --min-suffix 0
expect_clean_failure chaos --corollary1 1 --rounds 0
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --min-suffix 0
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --rounds 0
# Both take their schedule shape from one validated set of flags, so a
# bad shape gets the same message from either.
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --phases 0
expect_err '--phases must be >= 1'
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --max-victims 0
expect_err '--max-victims must be >= 1'
expect_clean_failure chaos --corollary1 1 --phases 0
expect_err '--phases must be >= 1'
# A phase shorter than min-suffix + 2 rounds cannot certify a recovery;
# chaos and hunt refuse it instead of reporting vacuous failures, and
# the hunt writes no hits.
short_corpus="$(mktemp)"
expect_clean_failure hunt --algorithm leader:4:5 --trials 3 --rounds 4 \
  --corpus "$short_corpus"
expect_err 'too short to certify'
if [ -s "$short_corpus" ]; then
  echo "hunt with 4-round phases wrote corpus entries" >&2
  exit 1
fi
rm -f "$short_corpus"
expect_clean_failure chaos --levels 4:1 --rounds 1 --campaigns 1
expect_err 'too short to certify'
# A worker count below 1 is refused by the shared sweep flags, before
# the pool sees it.
expect_jobs_rejected() {
  expect_clean_failure "$@"
  expect_err '--jobs must be >= 1'
}
expect_jobs_rejected run --levels 4:1 --jobs 0
expect_jobs_rejected verify --algorithm leader:4:5 --jobs=-1
expect_jobs_rejected chaos --corollary1 1 --jobs 0
expect_jobs_rejected hunt --algorithm leader:4:5 --claim-f 1 --jobs 0
# A hunt bound below 1 would score every recovery ratio as 0.
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --bound 0
expect_clean_failure hunt --algorithm leader:4:5 --claim-f 1 --bound=-5
# The engine runs packed state codes only: a tower too wide for one
# code (here 65 state bits) is refused up front, naming its bit count,
# while `plan` still describes it.
expect_clean_failure run --levels 4:1,3:3,3:7,3:15,3:31
expect_err '65 state bits'
dune exec bin/countctl.exe -- plan --levels 4:1,3:3,3:7,3:15,3:31 > /dev/null

# Heartbeat smoke: the same campaign shape with spans on and a
# zero-interval heartbeat must stream JSONL that lints clean, render
# through `countctl watch --once`, and summarise via `report --json`
# (itself valid JSON).
hb_file="$(mktemp)"
dune exec bin/countctl.exe -- chaos --corollary1 1 --campaigns 2 \
  --phases 2 --events 1 --rounds 400 --seeds 1 --jobs 2 \
  --spans --heartbeat 0 --heartbeat-file "$hb_file" > /dev/null
dune exec bin/jsonlint.exe -- --jsonl "$hb_file"
dune exec bin/countctl.exe -- watch "$hb_file" --once > /dev/null
report_json="$(mktemp)"
dune exec bin/countctl.exe -- report "$hb_file" --json > "$report_json"
dune exec bin/jsonlint.exe -- "$report_json"
rm -f "$hb_file" "$report_json"

# Hunt telemetry smoke: a hunt's --metrics registry is the index-order
# merge of its trials however the trials finish, so its table (the
# wall-clock rows, named *_s, aside) is identical at --jobs 1 and 2,
# and the heartbeat stream lints as JSONL at both. Rows are compared
# field by field: the wall-clock rows set the column widths.
hunt_table() {
  dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
    --trials 200 --bound 9 --metrics --heartbeat 0 \
    --heartbeat-file "$2" --jobs "$1" \
    | awk '/^metric /{on=1; next} on && /^$/{exit}
           on && $1 !~ /^-+$/ && $1 !~ /_s$/ {$1 = $1; print}'
}
hunt_hb="$(mktemp)"
hunt_table_1="$(mktemp)"
hunt_table_2="$(mktemp)"
hunt_table 1 "$hunt_hb" > "$hunt_table_1"
dune exec bin/jsonlint.exe -- --jsonl "$hunt_hb"
hunt_table 2 "$hunt_hb" > "$hunt_table_2"
dune exec bin/jsonlint.exe -- --jsonl "$hunt_hb"
if ! grep -q '^hunt.badness ' "$hunt_table_1"; then
  echo "hunt --metrics printed no hunt.badness row" >&2
  exit 1
fi
if ! cmp -s "$hunt_table_1" "$hunt_table_2"; then
  echo "hunt --metrics differs between --jobs 1 and --jobs 2:" >&2
  diff "$hunt_table_1" "$hunt_table_2" >&2 || true
  exit 1
fi
rm -f "$hunt_hb" "$hunt_table_1" "$hunt_table_2"

# A malformed heartbeat file is a clean error that names the line:
# non-zero exit, "line" in stderr, no uncaught exception.
bad_hb="$(mktemp)"
bad_err="$(mktemp)"
printf '{"ev":"meta"\n' > "$bad_hb"
if dune exec bin/countctl.exe -- watch "$bad_hb" --once > /dev/null \
     2> "$bad_err"; then
  echo "expected failure: countctl watch on a malformed heartbeat file" >&2
  exit 1
fi
if ! grep -q 'line' "$bad_err" || grep -q 'internal error' "$bad_err"; then
  cat "$bad_err" >&2
  exit 1
fi
rm -f "$bad_hb" "$bad_err"

# Hunt smoke: a fixed-seed hunt against a deliberately over-claimed
# spec (follow-leader claims f=1 but tolerates none) must find failed
# re-stabilisations, shrink them, and write a corpus that lints as
# JSONL and replays to the recorded verdicts under parallel workers.
corpus_file="$(mktemp)"
hunt_hb="$(mktemp)"
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --bound 8 --trials 48 --rounds 120 --jobs 2 \
  --heartbeat 0 --heartbeat-file "$hunt_hb" \
  --corpus "$corpus_file" > /dev/null
dune exec bin/jsonlint.exe -- --jsonl "$corpus_file"
# The hunt's heartbeat stream carries the hits tally and renders too.
dune exec bin/jsonlint.exe -- --jsonl "$hunt_hb"
dune exec bin/countctl.exe -- watch "$hunt_hb" --once > /dev/null
rm -f "$hunt_hb"
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --replay "$corpus_file" --jobs 4 > /dev/null
rm -f "$corpus_file"

# The committed regression corpus must keep replaying through countctl
# too (the test suite already replays it in-process).
dune exec bin/countctl.exe -- hunt --algorithm leader:4:5 --claim-f 1 \
  --replay test/corpus/leader4c5_f1.jsonl --jobs 4 > /dev/null

# jsonlint (a driver over Stdx.Json.parse) must reject each malformed
# fixture: leading zeros, raw control bytes in strings, short or
# non-hex \u escapes, lone surrogates, trailing commas, trailing
# content. With --jsonl the error names the offending line.
lint_dir="$(mktemp -d)"
printf '01' > "$lint_dir/1.json"
printf -- '-01' > "$lint_dir/2.json"
printf '"a\tb"' > "$lint_dir/3.json"
printf '"a\001b"' > "$lint_dir/4.json"
printf '"\\u12"' > "$lint_dir/5.json"
printf '"\\u_12a"' > "$lint_dir/6.json"
printf '[1,]' > "$lint_dir/7.json"
printf '{"a":1,}' > "$lint_dir/8.json"
printf '{} x' > "$lint_dir/9.json"
printf '"\\ud83d"' > "$lint_dir/10.json"
printf '"\\ude00"' > "$lint_dir/11.json"
for bad in "$lint_dir"/*.json; do
  if lint_out="$(dune exec bin/jsonlint.exe -- "$bad")"; then
    echo "jsonlint accepted malformed $(cat "$bad")" >&2
    exit 1
  fi
  case "$lint_out" in
    *": MALFORMED at byte "*) ;;
    *)
      echo "jsonlint gave no byte offset for $(cat "$bad"): $lint_out" >&2
      exit 1
      ;;
  esac
done
# A lone surrogate escape is rejected at its backslash, as by the parser.
for bad in "$lint_dir"/10.json "$lint_dir"/11.json; do
  case "$(dune exec bin/jsonlint.exe -- "$bad")" in
    *": MALFORMED at byte 1: lone "*) ;;
    *)
      echo "jsonlint did not reject the surrogate in $(cat "$bad") at byte 1" >&2
      exit 1
      ;;
  esac
done
# The valid counterparts still lint clean.
printf '0' > "$lint_dir/ok1"
printf -- '-0.5e-3' > "$lint_dir/ok2"
printf '"\303\251"' > "$lint_dir/ok3"
printf '{"a":{},"b":[[],{}]}' > "$lint_dir/ok4"
printf '"caf\\u00e9 \\ud83d\\ude00"' > "$lint_dir/ok5"
dune exec bin/jsonlint.exe -- "$lint_dir"/ok1 "$lint_dir"/ok2 \
  "$lint_dir"/ok3 "$lint_dir"/ok4 "$lint_dir"/ok5 > /dev/null
printf '{"a":1}\n{"b":2}\n{"a":01}\n' > "$lint_dir/bad.jsonl"
if lint_out="$(dune exec bin/jsonlint.exe -- --jsonl "$lint_dir/bad.jsonl")"; then
  echo "jsonlint --jsonl accepted a malformed line 3" >&2
  exit 1
fi
case "$lint_out" in
  *"MALFORMED at line 3:"*) ;;
  *)
    echo "jsonlint --jsonl did not name line 3: $lint_out" >&2
    exit 1
    ;;
esac
rm -rf "$lint_dir"

# The bench records below are regenerated into a scratch directory so
# the committed BENCH_*.json files stay as they are; refresh a committed
# record by running `dune exec bench/main.exe -- <name>` from the repo
# root. Each bench writes its record to the current directory.
bench_out="$PWD/_build/bench-out"
bench_exe="$PWD/_build/default/bench/main.exe"
rm -rf "$bench_out"
mkdir -p "$bench_out"
bench() {
  (cd "$bench_out" && "$bench_exe" "$@") > /dev/null
}

# The chaos recovery distributions.
bench chaos

# The engine throughput record: node-rounds/sec and GC words per
# node-round for each workload, plus fresh_kernel set-up cost.
bench engine

# The scheduler record: the jobs ladder and the index-order vs
# cost-sorted duel both exit non-zero if any configuration's outcomes
# diverge from the sequential reference.
bench parallel

# The hunt record with real workers; the bench exits non-zero if the
# corpus bytes differ between jobs=1 and parallel.
(export REPRO_JOBS=4 && bench hunt)

# The observability overhead record; the bench exits non-zero if the
# watched campaign cell's outcomes ever diverge from the bare one's.
bench obs

# The bench logs must always be well-formed JSON (the at_exit flush is
# crash-safe; a malformed file means that guarantee broke), and none may
# carry the deleted gauge kind or the old single-number budget flag.
for log in BENCH_sweep.json BENCH_parallel.json BENCH_chaos.json \
           BENCH_engine.json BENCH_hunt.json BENCH_obs.json; do
  if [ -f "$bench_out/$log" ]; then
    dune exec bin/jsonlint.exe -- "$bench_out/$log"
    if grep -qE '"(gauges|within_budget)"' "$bench_out/$log"; then
      echo "$log carries a \"gauges\" or \"within_budget\" key" >&2
      exit 1
    fi
  fi
done
# The two overhead records are paired measurements: each carries the
# machine fingerprint and a verdict against the budget.
for log in BENCH_obs.json BENCH_hunt.json; do
  if ! grep -q '"fingerprint"' "$bench_out/$log" ||
     ! grep -qE '"verdict": ?"(within|over|unresolved)"' "$bench_out/$log"
  then
    echo "$log lacks a fingerprint or a within/over/unresolved verdict" >&2
    exit 1
  fi
done

# Informational, not a gate: every val exported from lib/*/*.mli whose
# only callers outside its own module are tests, with the count, so the
# size of the test-only surface stays visible from change to change.
# A caller is a qualified use (Module.name or Sub.name for a
# submodule's val) in lib/, bin/, bench/, examples/ or benchmark/
# outside the value's own .ml/.mli, or a bare use in a file that opens
# the module; {!...} and [Module.name] doc references do not count.
# Each export listed here names the test that needs it in its doc.
test_only_exports() {
  scan_dir="$(mktemp -d)"
  for f in lib/*/*.ml lib/*/*.mli bin/*.ml bench/*.ml examples/*.ml \
           benchmark/*.ml; do
    mkdir -p "$scan_dir/$(dirname "$f")"
    sed -e 's/{![^}]*}//g' -e 's/\[[A-Z][A-Za-z0-9_.]*\]//g' "$f" \
      > "$scan_dir/$f"
  done
  for mli in lib/*/*.mli; do
    awk '
      /^[ \t]*module [A-Z][A-Za-z0-9_]* : sig/ {
        m = $0; sub(/^[ \t]*module /, "", m); sub(/ .*/, "", m)
        stack[++depth] = m; next }
      /^[ \t]*end([ \t]|$)/ && depth > 0 { depth--; next }
      /^[ \t]*val / {
        name = $0; sub(/^[ \t]*val /, "", name); sub(/[ \t:].*/, "", name)
        inner = FILENAME; sub(/.*\//, "", inner); sub(/\.mli$/, "", inner)
        inner = toupper(substr(inner, 1, 1)) substr(inner, 2)
        if (depth > 0) inner = stack[depth]
        print FILENAME, inner, name }' "$mli"
  done | while read -r mli inner name; do
    own="${mli%.mli}"
    word="[^A-Za-z0-9_']"
    found="$(cd "$scan_dir" && {
        grep -rlE "(^|$word)$inner\.$name($word|\$)" . || true
        grep -rlE "open ([A-Z][A-Za-z0-9_]*\.)*$inner( |\$)|$inner\.\(" . \
          | xargs -r grep -lE "(^|[^A-Za-z0-9_'.])$name($word|\$)" || true
      } | grep -v -e "^\./$own\.ml\$" -e "^\./$own\.mli\$" || true)"
    if [ -z "$found" ]; then
      echo "  $mli: $inner.$name"
    fi
  done
  rm -rf "$scan_dir"
}
echo "Exported vals whose only callers outside their module are tests:"
test_only_list="$(test_only_exports < /dev/null)"
echo "$test_only_list"
echo "$(printf '%s\n' "$test_only_list" | grep -c . || true) test-only" \
  "exports of $(grep -cE '^[[:space:]]*val ' lib/*/*.mli \
  | awk -F: '{ n += $2 } END { print n }') vals in lib/*/*.mli"
