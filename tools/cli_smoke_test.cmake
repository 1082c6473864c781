# Drives the infoflow CLI end to end; any non-zero exit fails the test.
file(MAKE_DIRECTORY ${WORK_DIR})
function(run)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "infoflow ${ARGN} failed with ${code}")
  endif()
endfunction()

run(simulate --out-dir ${WORK_DIR} --users 80 --messages 500 --seed 9)
run(parse-tweets --tweets ${WORK_DIR}/tweets.csv --graph ${WORK_DIR}/truth.picm
    --out ${WORK_DIR}/parsed.att)
run(train-attributed --graph ${WORK_DIR}/truth.picm
    --evidence ${WORK_DIR}/parsed.att --out ${WORK_DIR}/model.bicm)
run(train-unattributed --graph ${WORK_DIR}/truth_tags.picm
    --traces ${WORK_DIR}/traces.utr --out ${WORK_DIR}/tags.picm
    --method goyal)
run(info --model ${WORK_DIR}/model.bicm)
run(query --model ${WORK_DIR}/model.bicm --source 0 --sink 3 --samples 2000)
run(query --model ${WORK_DIR}/model.bicm --source 0 --sink 3
    --given "0>1" --samples 2000)
run(impact --model ${WORK_DIR}/model.bicm --source 0 --cascades 500)
run(maximize --model ${WORK_DIR}/model.bicm --k 2
    --bank-states 512 --seed 11)
run(maximize --model ${WORK_DIR}/model.bicm --k 2
    --candidates "0,1,2,3" --community "4,5,6" --given "0!>1"
    --bank-states 512 --seed 11)
run(maximize --model ${WORK_DIR}/model.bicm --k 2 --monte-carlo
    --simulations 200 --seed 11)

# Observability artifacts: run a query with every export flag and check the
# files appear and hold well-formed JSON (string(JSON) needs CMake >= 3.19).
run(query --model ${WORK_DIR}/model.bicm --source 0 --sink 3 --samples 2000
    --chains 2 --progress
    --metrics-json ${WORK_DIR}/metrics.json
    --metrics-csv ${WORK_DIR}/metrics.csv
    --trace-json ${WORK_DIR}/trace.json)
foreach(artifact metrics.json metrics.csv trace.json)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "query did not write ${artifact}")
  endif()
endforeach()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ ${WORK_DIR}/metrics.json metrics_json)
  string(JSON n_counters ERROR_VARIABLE json_error
         LENGTH "${metrics_json}" counters)
  if(json_error)
    message(FATAL_ERROR "metrics.json is not valid JSON: ${json_error}")
  endif()
  file(READ ${WORK_DIR}/trace.json trace_json)
  string(JSON n_events ERROR_VARIABLE json_error
         LENGTH "${trace_json}" traceEvents)
  if(json_error)
    message(FATAL_ERROR "trace.json is not valid JSON: ${json_error}")
  endif()
  # A metrics-disabled build legitimately exports an empty (but still
  # valid) trace; only a metrics-enabled CLI must have recorded spans.
  if(NOT NO_METRICS AND n_events EQUAL 0)
    message(FATAL_ERROR "trace.json recorded no spans")
  endif()
endif()
file(READ ${WORK_DIR}/metrics.csv metrics_csv)
if(NOT metrics_csv MATCHES "kind,name,field,value")
  message(FATAL_ERROR "metrics.csv is missing its header")
endif()

# serve refuses a flag it does not know (the retired --shards, a misspelt
# --bank-state) by name, and a malformed numeric value (not a number, or
# negative for a count) naming its flag, before it fills a bank or starts a
# pool. Empty stdin keeps a daemon that wrongly started from waiting for
# queries.
file(WRITE ${WORK_DIR}/no_queries.ndjson "")
function(expect_serve_refused flag value error)
  execute_process(
    COMMAND ${CLI} serve --model ${WORK_DIR}/model.bicm --chains 2
            --${flag} ${value}
    INPUT_FILE ${WORK_DIR}/no_queries.ndjson
    RESULT_VARIABLE serve_code
    OUTPUT_VARIABLE serve_out
    ERROR_VARIABLE serve_err)
  if(serve_code EQUAL 0)
    message(FATAL_ERROR "serve --${flag} ${value} exited 0; it must be refused")
  endif()
  if(NOT serve_err MATCHES "invalid-argument: ${error}")
    message(FATAL_ERROR
            "serve --${flag} ${value}: the error does not name the flag: "
            "${serve_err}")
  endif()
  if(serve_err MATCHES "bank ready")
    message(FATAL_ERROR
            "serve --${flag} ${value} filled a bank before refusing it")
  endif()
endfunction()
expect_serve_refused(shards 2 "unknown flag --shards\n")
expect_serve_refused(bank-state 2 "unknown flag --bank-state\n")
expect_serve_refused(chains abc "--chains expects a non-negative integer")
expect_serve_refused(threads -1 "--threads expects a non-negative integer")

# A node id past 2^32 − 2 is refused naming its flag, never wrapped (node
# 2^32 + 5 used to answer as node 5).
function(expect_refused error)
  execute_process(COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "infoflow ${ARGN} exited 0; it must be refused")
  endif()
  if(NOT err MATCHES "invalid-argument: ${error}")
    message(FATAL_ERROR "infoflow ${ARGN}: the error does not name the "
            "flag: ${err}")
  endif()
endfunction()
expect_refused("--source expects an integer below 4294967295"
  query --model ${WORK_DIR}/model.bicm --source 4294967301 --sink 5)
expect_refused("--candidates expects a comma-separated list of integers"
  maximize --model ${WORK_DIR}/model.bicm --candidates 1,4294967296)

# Regression: a SIGTERM'd serve daemon must still flush --metrics-json
# (the signal handlers read as EOF in the serve loop, so the daemon
# unwinds cleanly instead of dying with its artifacts unwritten).
if(UNIX)
  file(REMOVE ${WORK_DIR}/serve_metrics.json)
  execute_process(
    COMMAND sh -c "sleep 30 | '${CLI}' serve --model '${WORK_DIR}/model.bicm' \
--bank-states 64 --chains 2 \
--metrics-json '${WORK_DIR}/serve_metrics.json' & pid=$!; \
sleep 3; kill -TERM $pid; wait $pid"
    RESULT_VARIABLE serve_code)
  if(NOT serve_code EQUAL 0)
    message(FATAL_ERROR "SIGTERM'd serve exited with ${serve_code}")
  endif()
  if(NOT EXISTS ${WORK_DIR}/serve_metrics.json)
    message(FATAL_ERROR "SIGTERM'd serve did not flush --metrics-json")
  endif()
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    file(READ ${WORK_DIR}/serve_metrics.json serve_metrics_json)
    string(JSON n_counters ERROR_VARIABLE json_error
           LENGTH "${serve_metrics_json}" counters)
    if(json_error)
      message(FATAL_ERROR
              "serve_metrics.json is not valid JSON: ${json_error}")
    endif()
  endif()
endif()
