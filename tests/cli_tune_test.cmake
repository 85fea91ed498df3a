# Smoke-tests the jockey_cli tune subcommand: a tiny sweep (two knob points, one
# seed, two fault classes) must rank candidates with the defaults row feasible,
# print the selected knob block, write the BENCH_tune.json artifact, and produce
# identical output on a rerun (same seed + same ladder -> same ranking). Every run
# passes --no-cache: stdout reports whether the C(p,a) table was simulated or read
# from the cache, so the two compared runs must not depend on cache state left by
# earlier tests.
set(TRACE ${CMAKE_CURRENT_BINARY_DIR}/cli_tune.trace)
set(BENCH ${CMAKE_CURRENT_BINARY_DIR}/cli_tune_bench.json)
execute_process(COMMAND ${CLI} train ${SCRIPT} --trace ${TRACE} --tokens 25 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} tune ${SCRIPT} ${TRACE} --deadline 5 --seeds 1
                        --knob-points 2 --classes report_dropout,grant_shortfall
                        --bench-out ${BENCH} --no-cache
                RESULT_VARIABLE rc OUTPUT_VARIABLE first_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tune sweep failed: ${rc}\n${first_out}")
endif()
if(NOT first_out MATCHES "defaults")
  message(FATAL_ERROR "tune ranking missing the defaults candidate:\n${first_out}")
endif()
if(NOT first_out MATCHES "selected:")
  message(FATAL_ERROR "tune output missing the selected knob block:\n${first_out}")
endif()
if(NOT first_out MATCHES "vs defaults:")
  message(FATAL_ERROR "tune output missing the vs-defaults summary:\n${first_out}")
endif()
if(NOT EXISTS ${BENCH})
  message(FATAL_ERROR "tune did not write ${BENCH}")
endif()
file(READ ${BENCH} bench_json)
if(NOT bench_json MATCHES "\"bench\":\"tune\"" OR NOT bench_json MATCHES "\"selected\"")
  message(FATAL_ERROR "BENCH_tune.json malformed:\n${bench_json}")
endif()
execute_process(COMMAND ${CLI} tune ${SCRIPT} ${TRACE} --deadline 5 --seeds 1
                        --knob-points 2 --classes report_dropout,grant_shortfall
                        --bench-out ${BENCH} --no-cache
                RESULT_VARIABLE rc OUTPUT_VARIABLE second_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tune rerun failed: ${rc}")
endif()
if(NOT first_out STREQUAL second_out)
  message(FATAL_ERROR "tune sweep is not deterministic:\n--- first ---\n${first_out}\n--- second ---\n${second_out}")
endif()
# An unknown class must be rejected, not silently skipped.
execute_process(COMMAND ${CLI} tune ${SCRIPT} ${TRACE} --deadline 5 --classes disk_melt
                        --no-cache
                RESULT_VARIABLE rc ERROR_VARIABLE err_out)
if(rc EQUAL 0)
  message(FATAL_ERROR "tune accepted an unknown fault class")
endif()
