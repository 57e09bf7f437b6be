# End-to-end smoke test for pigeonring_cli, run by CTest:
#   gen    — write a tiny dataset for each of the four domains
#   search — thresholded search with the pigeonring filter, every domain
#   join   — self-join, every domain (hamming also runs the chain-1
#            pigeonhole baseline for contrast)
#   fast path — over a fixed-length strings dataset, --fast-path on and
#          --fast-path off must print identical results/pairs; auto must
#          resolve to on; built indexes round-trip the fast-path sections
#   join determinism — the hamming join with --threads 1 and --threads 2
#          in --stats kv mode must print identical pairs and counters
#          (only timing / thread-count lines may differ)
#   client determinism — the same search and join driven by --clients 3
#          (three concurrent Sessions over one shared Db) must print
#          exactly the single-client counters and results; the CLI itself
#          additionally exits 1 if any client diverges
# All commands run through the api::Db + api::Session facade the CLI is
# built on.
# Invoked as:
#   cmake -DPIGEONRING_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke_test.cmake

foreach(var PIGEONRING_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke_test.cmake requires -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(dataset "${WORK_DIR}/vectors.ds")

function(run_cli)
  execute_process(
    COMMAND ${PIGEONRING_CLI} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "pigeonring_cli ${ARGN} failed (rc=${rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "pigeonring_cli ${ARGN} ->\n${out}")
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

# Drops the lines that legitimately differ between thread / client counts
# (wall time and the echoed counts), keeping pairs and deterministic
# counters.
function(strip_nondeterministic text out_var)
  string(REGEX REPLACE
    "stat\\.(query_millis_sum|join_millis|wall_millis|threads|clients|served_queries)=[^\n]*\n?"
    "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

run_cli(gen vectors --out "${dataset}" --n 200 --dim 64 --seed 42)
if(NOT EXISTS "${dataset}")
  message(FATAL_ERROR "gen did not create ${dataset}")
endif()

run_cli(search hamming --data "${dataset}" --tau 8 --chain 4 --queries 10)
run_cli(join hamming --data "${dataset}" --tau 4 --chain 1)

# The other three domains through the same facade.
run_cli(gen sets --out "${WORK_DIR}/sets.ds" --n 150 --seed 42)
run_cli(search sets --data "${WORK_DIR}/sets.ds" --tau 0.7 --chain 2
        --queries 10 --measure jaccard)
run_cli(join sets --data "${WORK_DIR}/sets.ds" --tau 0.8 --chain 2)

run_cli(gen strings --out "${WORK_DIR}/strings.ds" --n 150 --seed 42)
run_cli(search strings --data "${WORK_DIR}/strings.ds" --tau 2 --chain 2
        --queries 10 --kappa 2)
run_cli(join strings --data "${WORK_DIR}/strings.ds" --tau 1 --chain 2)

run_cli(gen graphs --out "${WORK_DIR}/graphs.ds" --n 60 --avg 8 --seed 42)
run_cli(search graphs --data "${WORK_DIR}/graphs.ds" --tau 2 --chain 2
        --queries 5)
run_cli(join graphs --data "${WORK_DIR}/graphs.ds" --tau 1 --chain 2)

# build / serve-from-index: `build` persists each domain's index once, and
# search/join served with --index must print byte-identical results and
# deterministic counters to the same command reading --data (only timing
# lines may differ). This is the CLI face of the storage round-trip
# guarantee.
function(expect_index_matches_data)
  cmake_parse_arguments(IDX "" "LABEL" "DATA_ARGS;INDEX_ARGS" ${ARGN})
  run_cli(${IDX_DATA_ARGS})
  strip_nondeterministic("${last_output}" from_data)
  run_cli(${IDX_INDEX_ARGS})
  strip_nondeterministic("${last_output}" from_index)
  if(NOT from_data STREQUAL from_index)
    message(FATAL_ERROR
      "${IDX_LABEL}: --index diverged from --data\n--data:\n${from_data}\n--index:\n${from_index}")
  endif()
  message(STATUS "${IDX_LABEL}: --index matches --data exactly")
endfunction()

run_cli(build hamming --data "${dataset}" --out "${WORK_DIR}/vectors.pgri"
        --tau 8)
expect_index_matches_data(LABEL "hamming search"
  DATA_ARGS search hamming --data "${dataset}" --tau 8 --chain 2
    --queries 10 --stats kv
  INDEX_ARGS search hamming --index "${WORK_DIR}/vectors.pgri" --tau 8
    --chain 2 --queries 10 --stats kv)
expect_index_matches_data(LABEL "hamming join"
  DATA_ARGS join hamming --data "${dataset}" --tau 8 --chain 2
    --stats kv --print 1000000
  INDEX_ARGS join hamming --index "${WORK_DIR}/vectors.pgri" --tau 8
    --chain 2 --stats kv --print 1000000)

run_cli(build sets --data "${WORK_DIR}/sets.ds" --out "${WORK_DIR}/sets.pgri"
        --tau 0.7 --measure jaccard)
expect_index_matches_data(LABEL "sets search"
  DATA_ARGS search sets --data "${WORK_DIR}/sets.ds" --tau 0.7 --chain 2
    --queries 10 --stats kv
  INDEX_ARGS search sets --index "${WORK_DIR}/sets.pgri" --tau 0.7 --chain 2
    --queries 10 --stats kv)
expect_index_matches_data(LABEL "sets join"
  DATA_ARGS join sets --data "${WORK_DIR}/sets.ds" --tau 0.7 --chain 2
    --stats kv --print 1000000
  INDEX_ARGS join sets --index "${WORK_DIR}/sets.pgri" --tau 0.7 --chain 2
    --stats kv --print 1000000)

run_cli(build strings --data "${WORK_DIR}/strings.ds"
        --out "${WORK_DIR}/strings.pgri" --tau 2 --kappa 2)
expect_index_matches_data(LABEL "strings search"
  DATA_ARGS search strings --data "${WORK_DIR}/strings.ds" --tau 2 --chain 2
    --queries 10 --kappa 2 --stats kv
  INDEX_ARGS search strings --index "${WORK_DIR}/strings.pgri" --tau 2
    --chain 2 --queries 10 --kappa 2 --stats kv)
expect_index_matches_data(LABEL "strings join"
  DATA_ARGS join strings --data "${WORK_DIR}/strings.ds" --tau 2 --chain 2
    --kappa 2 --stats kv --print 1000000
  INDEX_ARGS join strings --index "${WORK_DIR}/strings.pgri" --tau 2
    --chain 2 --kappa 2 --stats kv --print 1000000)

run_cli(build graphs --data "${WORK_DIR}/graphs.ds"
        --out "${WORK_DIR}/graphs.pgri" --tau 2)
expect_index_matches_data(LABEL "graphs search"
  DATA_ARGS search graphs --data "${WORK_DIR}/graphs.ds" --tau 2 --chain 2
    --queries 5 --stats kv
  INDEX_ARGS search graphs --index "${WORK_DIR}/graphs.pgri" --tau 2
    --chain 2 --queries 5 --stats kv)
expect_index_matches_data(LABEL "graphs join"
  DATA_ARGS join graphs --data "${WORK_DIR}/graphs.ds" --tau 2 --chain 2
    --stats kv --print 1000000
  INDEX_ARGS join graphs --index "${WORK_DIR}/graphs.pgri" --tau 2
    --chain 2 --stats kv --print 1000000)

# Fixed-length fast path: over one fixed-length dataset, --fast-path on
# and --fast-path off must report identical result counts (search) and
# identical pair lists (join) — only the candidate/timing lines may move.
set(fixed_strings "${WORK_DIR}/strings_fixed.ds")
run_cli(gen strings --out "${fixed_strings}" --n 200 --fixed 12 --seed 42)

# Also drop the lines that legitimately differ between the two filter
# paths: candidate counters, the mode echo, and the fast-path counters.
function(strip_path_dependent text out_var)
  strip_nondeterministic("${text}" text)
  string(REGEX REPLACE
    "stat\\.(candidates|fast_path|fast_path_candidates|fast_path_hits)=[^\n]*\n?"
    "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

run_cli(search strings --data "${fixed_strings}" --tau 2 --chain 2
        --queries 20 --fast-path on --stats kv)
if(NOT last_output MATCHES "stat\\.fast_path=on")
  message(FATAL_ERROR "--fast-path on was not honored:\n${last_output}")
endif()
strip_path_dependent("${last_output}" fast_on_search)
run_cli(search strings --data "${fixed_strings}" --tau 2 --chain 2
        --queries 20 --fast-path off --stats kv)
if(NOT last_output MATCHES "stat\\.fast_path=off")
  message(FATAL_ERROR "--fast-path off was not honored:\n${last_output}")
endif()
strip_path_dependent("${last_output}" fast_off_search)
if(NOT fast_on_search STREQUAL fast_off_search)
  message(FATAL_ERROR
    "fast-path search results diverged from pivotal\n--fast-path on:\n${fast_on_search}\n--fast-path off:\n${fast_off_search}")
endif()

run_cli(join strings --data "${fixed_strings}" --tau 2 --chain 2
        --fast-path on --stats kv --print 1000000)
strip_path_dependent("${last_output}" fast_on_join)
run_cli(join strings --data "${fixed_strings}" --tau 2 --chain 2
        --fast-path off --stats kv --print 1000000)
strip_path_dependent("${last_output}" fast_off_join)
if(NOT fast_on_join STREQUAL fast_off_join)
  message(FATAL_ERROR
    "fast-path join pairs diverged from pivotal\n--fast-path on:\n${fast_on_join}\n--fast-path off:\n${fast_off_join}")
endif()
message(STATUS "strings --fast-path on matches --fast-path off exactly")

# The default (auto) must pick the fast path for a fixed-length dataset,
# and build/serve-from-index must round-trip the fast-path sections.
run_cli(search strings --data "${fixed_strings}" --tau 2 --chain 2
        --queries 20 --stats kv)
if(NOT last_output MATCHES "stat\\.fast_path=on")
  message(FATAL_ERROR
    "auto did not select the fast path for fixed-length data:\n${last_output}")
endif()
run_cli(build strings --data "${fixed_strings}"
        --out "${WORK_DIR}/strings_fixed.pgri" --tau 2 --fast-path on)
expect_index_matches_data(LABEL "strings fast-path search"
  DATA_ARGS search strings --data "${fixed_strings}" --tau 2 --chain 2
    --queries 20 --fast-path on --stats kv
  INDEX_ARGS search strings --index "${WORK_DIR}/strings_fixed.pgri" --tau 2
    --chain 2 --queries 20 --stats kv)
expect_index_matches_data(LABEL "strings fast-path join"
  DATA_ARGS join strings --data "${fixed_strings}" --tau 2 --chain 2
    --fast-path on --stats kv --print 1000000
  INDEX_ARGS join strings --index "${WORK_DIR}/strings_fixed.pgri" --tau 2
    --chain 2 --stats kv --print 1000000)

# Parallel join determinism: --threads 2 must reproduce the single-threaded
# pairs and counters exactly.
run_cli(join hamming --data "${dataset}" --tau 4 --chain 2
        --threads 1 --stats kv --print 1000000)
strip_nondeterministic("${last_output}" sequential_join)
run_cli(join hamming --data "${dataset}" --tau 4 --chain 2
        --threads 2 --stats kv --print 1000000)
strip_nondeterministic("${last_output}" parallel_join)
if(NOT sequential_join STREQUAL parallel_join)
  message(FATAL_ERROR
    "parallel join diverged from sequential\n--threads 1:\n${sequential_join}\n--threads 2:\n${parallel_join}")
endif()
message(STATUS "join --threads 2 matches --threads 1 exactly")

# Concurrent-clients determinism: three Sessions sharing one Db must
# reproduce the single-client counters and results exactly, for both the
# search and join commands (the CLI exits 1 itself on any divergence).
run_cli(search hamming --data "${dataset}" --tau 8 --chain 4 --queries 10
        --clients 1 --stats kv)
strip_nondeterministic("${last_output}" one_client_search)
run_cli(search hamming --data "${dataset}" --tau 8 --chain 4 --queries 10
        --clients 3 --stats kv)
strip_nondeterministic("${last_output}" three_client_search)
if(NOT one_client_search STREQUAL three_client_search)
  message(FATAL_ERROR
    "concurrent-client search diverged\n--clients 1:\n${one_client_search}\n--clients 3:\n${three_client_search}")
endif()

run_cli(join hamming --data "${dataset}" --tau 4 --chain 2
        --clients 3 --stats kv --print 1000000)
strip_nondeterministic("${last_output}" client_join)
if(NOT sequential_join STREQUAL client_join)
  message(FATAL_ERROR
    "concurrent-client join diverged from sequential\nsequential:\n${sequential_join}\n--clients 3:\n${client_join}")
endif()
message(STATUS "search/join --clients 3 matches --clients 1 exactly")

# Mutation commands (insert / remove / compact through api::Writer):
# build an index over batch A, insert batch B (ids 150..199 of the merged
# file), then remove exactly those ids again — the restored index must be
# BYTE-identical to the original (compaction packs base survivors in
# order, and Save is deterministic). `compact` on an already-compacted
# file must likewise be a byte-identical rewrite.
set(mut_a "${WORK_DIR}/mut_a.ds")
set(mut_b "${WORK_DIR}/mut_b.ds")
run_cli(gen vectors --out "${mut_a}" --n 150 --dim 64 --seed 91)
run_cli(gen vectors --out "${mut_b}" --n 50 --dim 64 --seed 92)
run_cli(build hamming --data "${mut_a}" --out "${WORK_DIR}/mut.pgri" --tau 8)
file(SHA256 "${WORK_DIR}/mut.pgri" original_sha)

run_cli(insert hamming --index "${WORK_DIR}/mut.pgri" --data "${mut_b}"
        --tau 8 --out "${WORK_DIR}/mut_merged.pgri")
if(NOT last_output MATCHES "inserted 50 records")
  message(FATAL_ERROR "insert did not report 50 records:\n${last_output}")
endif()
run_cli(search hamming --index "${WORK_DIR}/mut_merged.pgri" --tau 8
        --chain 2 --queries 10)
run_cli(join hamming --index "${WORK_DIR}/mut_merged.pgri" --tau 8 --chain 2)

run_cli(compact hamming --index "${WORK_DIR}/mut_merged.pgri" --tau 8
        --out "${WORK_DIR}/mut_recompacted.pgri")
file(SHA256 "${WORK_DIR}/mut_merged.pgri" merged_sha)
file(SHA256 "${WORK_DIR}/mut_recompacted.pgri" recompacted_sha)
if(NOT merged_sha STREQUAL recompacted_sha)
  message(FATAL_ERROR
    "compact of an already-compacted index was not a byte-identical rewrite")
endif()

set(inserted_ids "")
foreach(id RANGE 150 199)
  if(inserted_ids STREQUAL "")
    set(inserted_ids "${id}")
  else()
    set(inserted_ids "${inserted_ids},${id}")
  endif()
endforeach()
run_cli(remove hamming --index "${WORK_DIR}/mut_merged.pgri"
        --ids "${inserted_ids}" --tau 8 --out "${WORK_DIR}/mut_restored.pgri")
file(SHA256 "${WORK_DIR}/mut_restored.pgri" restored_sha)
if(NOT restored_sha STREQUAL original_sha)
  message(FATAL_ERROR
    "insert+remove round trip did not restore the original index bytes")
endif()
message(STATUS "insert/remove/compact round-trip restored the index bytes")

# The other domains take the same mutation path; a sets insert also
# exercises out-of-dictionary tokens (the inserted batch brings new token
# ids into the merged collection).
set(mut_sets_b "${WORK_DIR}/mut_sets_b.ds")
run_cli(gen sets --out "${mut_sets_b}" --n 40 --seed 93)
run_cli(insert sets --index "${WORK_DIR}/sets.pgri" --data "${mut_sets_b}"
        --tau 0.7 --out "${WORK_DIR}/sets_merged.pgri")
run_cli(search sets --index "${WORK_DIR}/sets_merged.pgri" --tau 0.7
        --chain 2 --queries 10)
run_cli(remove sets --index "${WORK_DIR}/sets_merged.pgri" --ids 0,1,2
        --tau 0.7 --out "${WORK_DIR}/sets_shrunk.pgri")
run_cli(join sets --index "${WORK_DIR}/sets_shrunk.pgri" --tau 0.7 --chain 2)
