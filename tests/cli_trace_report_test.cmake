# Drives the observability surface of jockey_cli end to end: a seeded run with
# --trace-out must emit a byte-identical JSONL trace on every rerun (warm cache, any
# thread count), `report` must parse it and re-emit a byte-identical copy, and
# --metrics-out must produce the deterministic registry snapshot.
set(TRACE ${CMAKE_CURRENT_BINARY_DIR}/cli_obs.trace)
set(CACHE_DIR ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_cache)
set(T1 ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_run1.jsonl)
set(T2 ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_run2.jsonl)
set(COPY ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_copy.jsonl)
set(CHROME ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_chrome.json)
set(METRICS ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_metrics.json)
file(REMOVE_RECURSE ${CACHE_DIR})

execute_process(COMMAND ${CLI} train ${SCRIPT} --trace ${TRACE} --tokens 25 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${rc}")
endif()

# Warm the table cache so both traced runs see identical cache state.
execute_process(COMMAND ${CLI} predict ${SCRIPT} ${TRACE} --cache-dir ${CACHE_DIR}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "predict (cache warm-up) failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} run ${SCRIPT} ${TRACE} --deadline 30 --seed 11
                        --cache-dir ${CACHE_DIR} --threads 1
                        --trace-out ${T1} --metrics-out ${METRICS}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced run failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} run ${SCRIPT} ${TRACE} --deadline 30 --seed 11
                        --cache-dir ${CACHE_DIR} --threads 4
                        --trace-out ${T2}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second traced run failed: ${rc}")
endif()

# Byte-identity across reruns and precompute thread counts.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${T1} ${T2} RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "seeded traces differ between reruns: ${T1} vs ${T2}")
endif()

# The trace must reconstruct the allocation/decision timeline (the Fig 6 view).
execute_process(COMMAND ${CLI} report ${T1} --jsonl-out ${COPY} --chrome-out ${CHROME}
                RESULT_VARIABLE rc OUTPUT_VARIABLE report_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report failed: ${rc}")
endif()
if(NOT report_out MATCHES "control ticks")
  message(FATAL_ERROR "report did not render the decision timeline:\n${report_out}")
endif()
if(NOT report_out MATCHES "granted")
  message(FATAL_ERROR "report did not render the allocation columns:\n${report_out}")
endif()

# Round trip: parse + re-emit reproduces the input byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${T1} ${COPY} RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "report --jsonl-out is not a byte-identical round trip")
endif()

foreach(out ${METRICS} ${CHROME})
  if(NOT EXISTS ${out})
    message(FATAL_ERROR "expected output ${out} was not written")
  endif()
endforeach()
file(REMOVE_RECURSE ${CACHE_DIR})

# A trace whose first line (fig6_overload's job_submit) carries an undefined key:
# the strict reader skips the line, so every later event of that job names a job
# that was never submitted. `report` must say so and fail, as `postmortem` does.
set(FIG6 ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_fig6.jsonl)
set(LOST ${CMAKE_CURRENT_BINARY_DIR}/cli_obs_lost_submit.jsonl)
execute_process(COMMAND ${CLI} run ${SCENARIO_DIR}/fig6_overload.yaml --no-cache
                        --trace-out ${FIG6}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig6_overload traced run failed: ${rc}")
endif()
file(STRINGS ${FIG6} head LIMIT_COUNT 1)
if(NOT head MATCHES "\"kind\":\"job_submit\"")
  message(FATAL_ERROR "fig6_overload trace does not open with a job_submit: ${head}")
endif()
string(LENGTH "${head}" head_length)
math(EXPR rest_offset "${head_length} + 1")
file(READ ${FIG6} rest OFFSET ${rest_offset})
string(REGEX REPLACE "}$" ",\"extra\":1}" head "${head}")
file(WRITE ${LOST} "${head}\n${rest}")
execute_process(COMMAND ${CLI} report ${LOST}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE report_err)
if(rc EQUAL 0)
  message(FATAL_ERROR "report accepted a trace with a lost job_submit:\n${report_err}")
endif()
if(NOT report_err MATCHES "events naming a job with no job_submit in their run: [1-9]")
  message(FATAL_ERROR "report did not name the unsubmitted events:\n${report_err}")
endif()
